"""Discretized nets: per-edge sampled curves with vertex continuity.

Edges are uniformly sampled over [0, 1] and stored as unwrapped lifts, so
curves stay continuous in chart coordinates even on tori; endpoint
consistency with vertex positions is checked modulo the lattice.  Edges
marked periodic (smooth closed loops) use periodic stencils across the
seam.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import stencils
from .geometry import MetricChart, g_norm
from .multigraph import WeightedMultigraph

__all__ = [
    "GeodesicNet",
    "NetField",
    "TangentialField",
    "length",
    "edge_lengths",
    "reparametrize_constant_speed",
    "vertex_unit_tangents",
    "displace",
    "check_net",
    "resample",
]

ENDPOINT_TOL = 1e-9


@dataclass
class GeodesicNet:
    """A sampled net over a weighted multigraph.

    edge_samples[E] has shape (N_E + 1, n); sample 0 and sample N_E agree
    with the positions of the endpoint vertices modulo the chart lattice.
    """

    graph: WeightedMultigraph
    edge_samples: dict[str, np.ndarray]
    vertex_positions: dict[str, np.ndarray]
    periodic_edges: frozenset[str] = frozenset()
    constant_speed: bool = False
    lengths: dict[str, float] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return next(iter(self.edge_samples.values())).shape[1]

    def samples(self, edge_id: str) -> np.ndarray:
        return self.edge_samples[edge_id]

    def loop_shift(self, edge_id: str):
        """Lattice shift across the seam of a periodic edge, else None."""
        if edge_id not in self.periodic_edges:
            return None
        s = self.edge_samples[edge_id]
        return s[-1] - s[0]

    def copy(self) -> "GeodesicNet":
        return replace(
            self,
            edge_samples={e: s.copy() for e, s in self.edge_samples.items()},
            vertex_positions={v: p.copy() for v, p in self.vertex_positions.items()},
            lengths=dict(self.lengths),
        )


@dataclass
class NetField:
    """Vector field along a net: per-edge sampled chart vectors.

    Continuity means the endpoint vectors of edges meeting at a vertex all
    agree (displacement vectors need no wrapping).
    """

    edge_values: dict[str, np.ndarray]

    def vertex_value(self, net: GeodesicNet, v: str) -> np.ndarray:
        eid, i = net.graph.incident_pairs(v)[0]
        vals = self.edge_values[eid]
        return vals[0] if i == 0 else vals[-1]

    def scaled(self, c: float) -> "NetField":
        return NetField({e: c * val for e, val in self.edge_values.items()})

    def plus(self, other: "NetField", c: float = 1.0) -> "NetField":
        return NetField(
            {e: val + c * other.edge_values[e] for e, val in self.edge_values.items()}
        )

    def max_norm(self, chart: MetricChart, net: GeodesicNet) -> float:
        return max(
            float(g_norm(chart, net.edge_samples[e], val).max())
            for e, val in self.edge_values.items()
        )


@dataclass
class TangentialField:
    """Field of the form h_E(t) * f'_E(t), stored by its scalar profiles."""

    profiles: dict[str, np.ndarray]

    def to_net_field(self, net: GeodesicNet) -> NetField:
        vals = {}
        for e, prof in self.profiles.items():
            vel = stencils.velocity(net.edge_samples[e], loop_shift=net.loop_shift(e))
            vals[e] = prof[:, None] * vel
        return NetField(vals)


def check_net(chart: MetricChart, net: GeodesicNet, tol: float = ENDPOINT_TOL) -> list[str]:
    """Structural violations: endpoint mismatches, domain exits, bad shapes."""
    problems = []
    for e in net.graph.edges:
        s = net.edge_samples.get(e.id)
        if s is None:
            problems.append(f"edge {e.id!r} has no samples")
            continue
        for i, idx in ((0, 0), (1, -1)):
            vpos = net.vertex_positions[e.endpoint(i)]
            gap = np.linalg.norm(chart.displacement(vpos, s[idx]))
            if gap > tol:
                problems.append(
                    f"edge {e.id!r} endpoint {i} misses vertex {e.endpoint(i)!r} by {gap:.3g}"
                )
        if not all(chart.contains(p) for p in (s[0], s[len(s) // 2], s[-1])):
            problems.append(f"edge {e.id!r} leaves the chart domain")
    return problems


def _edge_speed(chart: MetricChart, net: GeodesicNet, edge_id: str):
    s = net.edge_samples[edge_id]
    v = stencils.velocity(s, loop_shift=net.loop_shift(edge_id))
    return s, v, g_norm(chart, s, v)


def edge_lengths(chart: MetricChart, net: GeodesicNet) -> dict[str, float]:
    """Per-edge g-length by the matched quadrature (no multiplicities)."""
    out = {}
    for e in net.graph.edges:
        s, _, speed = _edge_speed(chart, net, e.id)
        w = stencils.quadrature_weights(s.shape[0], 1.0 / (s.shape[0] - 1), loop=e.id in net.periodic_edges)
        out[e.id] = float(w @ speed)
    return out


def length(chart: MetricChart, net: GeodesicNet) -> float:
    """Total length: sum over edges of multiplicity times g-length."""
    per_edge = edge_lengths(chart, net)
    return sum(e.multiplicity * per_edge[e.id] for e in net.graph.edges)


def reparametrize_constant_speed(
    chart: MetricChart, net: GeodesicNet, upsample: int = 8
) -> GeodesicNet:
    """Arc-length resampling of every edge; endpoint samples are pinned.

    A sample speed below 1e-8 times the edge mean speed is rejected (the
    resampling would divide by it).
    """
    from scipy.interpolate import CubicSpline

    new_samples = {}
    for e in net.graph.edges:
        s = net.edge_samples[e.id]
        n = s.shape[0] - 1
        shift = net.loop_shift(e.id)
        fine = stencils.upsample_curve(s, upsample, loop_shift=shift)
        vf = stencils.velocity(fine, loop_shift=None if shift is None else shift)
        speed = g_norm(chart, fine, vf)
        if speed.min() < 1e-8 * speed.mean():
            raise ValueError(f"edge {e.id!r} has a near-zero speed sample; not an immersion")
        tf = np.linspace(0.0, 1.0, fine.shape[0])
        # cumulative arc length on the fine grid (trapezoid is plenty here)
        arc = CubicSpline(tf, speed).antiderivative()(tf)
        arc[0] = 0.0
        t_of_arc = CubicSpline(arc, tf)
        targets = np.linspace(0.0, arc[-1], n + 1)
        ts = np.clip(t_of_arc(targets), 0.0, 1.0)
        interp = CubicSpline(tf, fine, axis=0)
        out = interp(ts)
        out[0] = s[0]
        out[-1] = s[-1]
        new_samples[e.id] = out
    new = replace(net, edge_samples=new_samples, constant_speed=True, lengths={})
    new.lengths = edge_lengths(chart, new)
    return new


def resample(chart: MetricChart, net: GeodesicNet, n_samples: int) -> GeodesicNet:
    """Change the per-edge sample count (constant-speed resampling)."""
    from scipy.interpolate import CubicSpline

    new_samples = {}
    for e in net.graph.edges:
        s = net.edge_samples[e.id]
        shift = net.loop_shift(e.id)
        fine = stencils.upsample_curve(s, 8, loop_shift=shift)
        vf = stencils.velocity(fine, loop_shift=shift)
        speed = g_norm(chart, fine, vf)
        tf = np.linspace(0.0, 1.0, fine.shape[0])
        arc = CubicSpline(tf, speed).antiderivative()(tf)
        arc[0] = 0.0
        t_of_arc = CubicSpline(arc, tf)
        targets = np.linspace(0.0, arc[-1], n_samples + 1)
        ts = np.clip(t_of_arc(targets), 0.0, 1.0)
        out = CubicSpline(tf, fine, axis=0)(ts)
        out[0] = s[0]
        out[-1] = s[-1]
        new_samples[e.id] = out
    new = replace(net, edge_samples=new_samples, lengths={})
    new.lengths = edge_lengths(chart, new)
    return new


def vertex_unit_tangents(chart: MetricChart, net: GeodesicNet, v: str):
    """Inward unit tangents at v: one entry (E, i, tangent, multiplicity) per
    incident pair; the tangent points from the vertex into the edge."""
    out = []
    for eid, i in net.graph.incident_pairs(v):
        s = net.edge_samples[eid]
        shift = net.loop_shift(eid)
        if shift is not None:
            vel = stencils.velocity(s, loop_shift=shift)
            tang = vel[0] if i == 0 else vel[-1]
        else:
            tang = stencils.endpoint_first_derivative(s, i)
        p = s[0] if i == 0 else s[-1]
        tang = tang / g_norm(chart, p[None, :], tang[None, :])[0]
        if i == 1:
            tang = -tang
        out.append((eid, i, tang, net.graph.edge(eid).multiplicity))
    return out


def displace(net: GeodesicNet, fld: NetField, s: float) -> GeodesicNet:
    """Move every sample by s * X through the Euclidean background metric."""
    new_samples = {e: net.edge_samples[e] + s * fld.edge_values[e] for e in net.edge_samples}
    new_positions = {}
    for v in net.graph.vertices:
        eid, i = net.graph.incident_pairs(v)[0]
        vals = fld.edge_values[eid]
        dv = vals[0] if i == 0 else vals[-1]
        new_positions[v] = net.vertex_positions[v] + s * dv
    return replace(
        net,
        edge_samples=new_samples,
        vertex_positions=new_positions,
        constant_speed=False,
        lengths={},
    )
