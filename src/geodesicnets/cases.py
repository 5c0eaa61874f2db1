"""Built-in experiment nets.

honeycomb-torus   three unit edges between two vertices on a hexagonal
                  flat torus, vertices balanced at 120 degrees
sphere-theta      two polar vertices joined by three meridians of the unit
                  sphere, drawn in a stereographic chart whose projection
                  point sits on the equator away from the meridians
sphere-equator    the equator as a smooth closed loop in the north-pole
                  stereographic chart
flat-loop         a closed straight geodesic on the hexagonal flat torus
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import FlatTorusChart, MetricChart, StereographicSphereChart
from .multigraph import WeightedMultigraph
from .net import GeodesicNet

__all__ = ["Case", "make_case", "meridian", "CASE_NAMES", "DEFAULT_SAMPLES", "HEX_LATTICE"]

HEX_LATTICE = np.array([[1.5, np.sqrt(3.0) / 2.0], [1.5, -np.sqrt(3.0) / 2.0]])

CASE_NAMES = ("honeycomb-torus", "sphere-theta", "sphere-equator", "flat-loop")
# Samples per edge (intervals) of a built-in case or a spec that sets no
# n_samples.
DEFAULT_SAMPLES = 64


@dataclass
class Case:
    name: str
    chart: MetricChart
    net: GeodesicNet


def _grid(n: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, n + 1)


def _honeycomb(n_samples: int) -> tuple[MetricChart, GeodesicNet]:
    chart = FlatTorusChart(HEX_LATTICE)
    graph = WeightedMultigraph.build(
        ["A", "B"],
        [("E1", "A", "B", 1), ("E2", "A", "B", 1), ("E3", "A", "B", 1)],
    )
    a = np.array([0.0, 0.0])
    targets = {
        "E1": np.array([1.0, 0.0]),
        "E2": np.array([-0.5, np.sqrt(3.0) / 2.0]),
        "E3": np.array([-0.5, -np.sqrt(3.0) / 2.0]),
    }
    t = _grid(n_samples)
    samples = {e: (1 - t)[:, None] * a + t[:, None] * tgt for e, tgt in targets.items()}
    return chart, GeodesicNet(
        graph=graph,
        edge_samples=samples,
        vertex_positions={"A": a, "B": np.array([1.0, 0.0])},
    )


def _sphere_frame():
    """Orthonormal frame whose third axis is the projection point
    (equator, longitude 60 degrees)."""
    e3 = np.array([0.5, np.sqrt(3.0) / 2.0, 0.0])
    e1 = np.array([0.0, 0.0, 1.0])
    e2 = np.cross(e3, e1)
    return e1, e2, e3


def _stereographic(y: np.ndarray) -> np.ndarray:
    e1, e2, e3 = _sphere_frame()
    y1 = y @ e1
    y2 = y @ e2
    y3 = y @ e3
    return np.stack([y1, y2], axis=-1) / (1.0 - y3)[..., None]


def meridian(longitude: float, n_samples: int) -> np.ndarray:
    """The meridian of the unit sphere at ``longitude`` (radians) from the
    north to the south pole, n_samples + 1 samples in the sphere-theta chart."""
    theta = np.pi * _grid(n_samples)
    y = np.stack(
        [np.sin(theta) * np.cos(longitude), np.sin(theta) * np.sin(longitude), np.cos(theta)],
        axis=1,
    )
    return _stereographic(y)


def _sphere_theta(n_samples: int) -> tuple[MetricChart, GeodesicNet]:
    chart = StereographicSphereChart(radius=1.0)
    graph = WeightedMultigraph.build(
        ["N", "S"],
        [("E1", "N", "S", 1), ("E2", "N", "S", 1), ("E3", "N", "S", 1)],
    )
    samples = {eid: meridian(lon, n_samples)
               for eid, lon in (("E1", 0.0), ("E2", 2 * np.pi / 3), ("E3", 4 * np.pi / 3))}
    north = _stereographic(np.array([0.0, 0.0, 1.0]))
    south = _stereographic(np.array([0.0, 0.0, -1.0]))
    return chart, GeodesicNet(
        graph=graph,
        edge_samples=samples,
        vertex_positions={"N": north, "S": south},
    )


def _sphere_equator(n_samples: int, multiplicity: int) -> tuple[MetricChart, GeodesicNet]:
    chart = StereographicSphereChart(radius=1.0)
    graph = WeightedMultigraph.build(["V"], [("E", "V", "V", multiplicity)])
    t = _grid(n_samples)
    samples = {"E": np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], axis=1)}
    samples["E"][-1] = samples["E"][0]
    return chart, GeodesicNet(
        graph=graph,
        edge_samples=samples,
        vertex_positions={"V": np.array([1.0, 0.0])},
        periodic_edges=frozenset({"E"}),
    )


def _flat_loop(n_samples: int, multiplicity: int) -> tuple[MetricChart, GeodesicNet]:
    chart = FlatTorusChart(HEX_LATTICE)
    graph = WeightedMultigraph.build(["V"], [("E", "V", "V", multiplicity)])
    t = _grid(n_samples)
    lam = HEX_LATTICE[0]
    samples = {"E": t[:, None] * lam}
    return chart, GeodesicNet(
        graph=graph,
        edge_samples=samples,
        vertex_positions={"V": np.zeros(2)},
        periodic_edges=frozenset({"E"}),
    )


def make_case(name: str, n_samples: int = DEFAULT_SAMPLES, multiplicity: int = 1) -> Case:
    """Build one of the named experiment nets at the given resolution."""
    if name == "honeycomb-torus":
        chart, net = _honeycomb(n_samples)
    elif name == "sphere-theta":
        chart, net = _sphere_theta(n_samples)
    elif name == "sphere-equator":
        chart, net = _sphere_equator(n_samples, multiplicity)
    elif name == "flat-loop":
        chart, net = _flat_loop(n_samples, multiplicity)
    else:
        raise KeyError(f"unknown case {name!r}; choose from {CASE_NAMES}")
    return Case(name=name, chart=chart, net=net)
