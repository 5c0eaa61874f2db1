"""Net-spec documents and result files.

A net-spec is a JSON document with four sections: graph, metric, net and
options.  Unknown keys are rejected so that typos fail loudly.  Result
files are deterministic apart from their timestamp field: keys are sorted
and numbers serialized with round-trip precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .cases import CASE_NAMES, DEFAULT_SAMPLES, make_case, meridian
from .geometry import (
    EuclideanChart,
    FlatTorusChart,
    MetricChart,
    RadialBumpField,
    StereographicSphereChart,
    SumField,
    conformal_family,
)
from .jacobi import SVD_TOL
from .multigraph import WeightedMultigraph, validate
from .net import GeodesicNet, check_net
from .stencils import MIN_SAMPLES
from .variation import stationarity_residual

__all__ = ["NetSpec", "SpecError", "check_options", "load_spec", "parse_spec", "spec_from_case",
           "write_document", "results_document", "export_plot_csv"]

TOOL_VERSION = "0.1.0"

# Largest accepted edge multiplicity, sample count and radius (of the sphere
# or of a bump): below them a multiplicity-weighted balance and the arrays
# of an edge stay finite and allocatable, and so does r^4 (a bump profile's
# Hessian).
MAX_MULTIPLICITY = 10**6
MAX_SAMPLES = 2**16
MAX_RADIUS = 1e50
# Largest accepted chart dimension (metric.dim, and the size of a flat
# torus lattice): a flat torus scans 5^dim lattice combinations when it is
# built and 3^dim neighbours per displacement, 81 at this bound.
MAX_DIM = 4
# Stationarity tolerance of a spec that sets no tol option; the specs of
# the built-in cases start from it (``_case_tolerance``).
DEFAULT_TOL = 1e-8


class SpecError(ValueError):
    """The spec document is malformed."""


_JSON_TYPES = {dict: "object", list: "array", str: "string"}


def _typed(value, kind: type, where: str):
    """value, refused unless it is of the JSON type kind (dict, list or str)."""
    if not isinstance(value, kind):
        raise SpecError(f"{where} must be a JSON {_JSON_TYPES[kind]}, got {type(value).__name__}")
    return value


def _reject_unknown(section: dict, allowed: set, where: str):
    unknown = set(_typed(section, dict, where)) - allowed
    if unknown:
        raise SpecError(f"unknown key(s) {sorted(unknown)} in {where}")


def _number(value, where: str, positive: bool = False, below: float = np.inf) -> float:
    """A JSON number that is finite, positive if asked, and below ``below``,
    as a float."""
    low = 0.0 if positive else -np.inf
    # written so that NaN fails the test
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not low < value < below:
        kind = "finite positive" if positive else "finite"
        bound = f" below {below:g}" if below < np.inf else ""
        raise SpecError(f"{where} must be a {kind} number{bound}, got {value!r}")
    return float(value)


def _count(value, where: str, most: int) -> int:
    """A JSON number that is a positive integer at most ``most``, as an int."""
    if not (_number(value, where, positive=True) >= 1 and float(value).is_integer()
            and value <= most):
        raise SpecError(f"{where} must be a positive integer at most {most}, got {value!r}")
    return int(value)


def _floats(value) -> np.ndarray:
    """value as a float array, empty when it is not a regular nest of JSON
    numbers (strings, booleans, null and objects do not count)."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nest
        return np.empty(0)
    return arr.astype(float) if arr.dtype.kind in "iuf" else np.empty(0)


def _point(value, dim: int, where: str) -> np.ndarray:
    p = _floats(value)
    if p.shape != (dim,):
        raise SpecError(f"{where} must be a point of dimension {dim}, got {value!r}")
    return p


@dataclass
class NetSpec:
    base_chart: MetricChart
    bump_field: SumField | None
    amplitude_schedule: list[float] | None
    net: GeodesicNet
    options: dict = field(default_factory=dict)

    def chart(self, amplitude: float = 1.0) -> MetricChart:
        if self.bump_field is None:
            return self.base_chart
        return conformal_family(self.base_chart, self.bump_field, amplitude)


def _parse_graph(doc: dict) -> WeightedMultigraph:
    _reject_unknown(doc, {"vertices", "edges"}, "graph")
    vertices = [_typed(v, str, f"graph.vertices[{k}]")
                for k, v in enumerate(_typed(doc.get("vertices", []), list, "graph.vertices"))]
    edges = []
    for k, e in enumerate(_typed(doc.get("edges", []), list, "graph.edges")):
        where = f"graph.edges[{k}]"
        _reject_unknown(e, {"id", "v0", "v1", "multiplicity"}, where)
        edges.append((*(_typed(e.get(key), str, f"{where}.{key}") for key in ("id", "v0", "v1")),
                      _count(e.get("multiplicity", 1), f"{where}.multiplicity",
                             MAX_MULTIPLICITY)))
    if not edges:
        raise SpecError("graph.edges must hold at least one edge")
    return WeightedMultigraph.build(vertices, edges)


def _parse_metric(doc: dict):
    _reject_unknown(
        doc, {"kind", "lattice", "radius", "dim", "box", "bumps", "amplitude_schedule"}, "metric"
    )
    kind = doc.get("kind")
    if kind == "flat-torus":
        base = FlatTorusChart(_parse_lattice(doc.get("lattice")))
    elif kind == "stereographic-sphere":
        radius = _number(doc.get("radius", 1.0), "metric.radius", positive=True, below=MAX_RADIUS)
        base = StereographicSphereChart(radius=radius,
                                        dim=_count(doc.get("dim", 2), "metric.dim", MAX_DIM))
    elif kind == "euclidean":
        dim = _count(doc.get("dim", 2), "metric.dim", MAX_DIM)
        box = doc.get("box")
        if box is not None:
            box = _floats(box)
            if box.shape != (2, dim) or not np.isfinite(box).all():
                raise SpecError(f"metric.box must be two finite points of dimension {dim}, "
                                f"got {doc['box']!r}")
        base = EuclideanChart(dim=dim, box=box)
    else:
        raise SpecError(f"unknown metric kind {kind!r}")
    bumps = None
    if doc.get("bumps"):
        fields = []
        for k, b in enumerate(_typed(doc["bumps"], list, "metric.bumps")):
            where = f"metric.bumps[{k}]"
            _reject_unknown(b, {"center", "radius", "amplitude"}, where)
            center = _point(b.get("center"), base.dim, f"{where}.center")
            for x in center:
                _number(x, f"{where}.center")
            radius = _number(b.get("radius"), f"{where}.radius", positive=True, below=MAX_RADIUS)
            amplitude = _number(b.get("amplitude"), f"{where}.amplitude")
            fields.append(RadialBumpField(center, radius, amplitude, chart=base))
        bumps = SumField(fields)
    schedule = doc.get("amplitude_schedule")
    if schedule is not None:
        schedule = [_number(x, f"metric.amplitude_schedule[{k}]")
                    for k, x in enumerate(_typed(schedule, list, "metric.amplitude_schedule"))]
    return base, bumps, schedule


def _parse_lattice(value) -> np.ndarray:
    """metric.lattice as a finite, square, non-singular matrix of at most
    ``MAX_DIM`` rows: |det| must exceed 1e-12 times its Hadamard bound, the
    product of the row norms."""
    lat = _floats(value)
    if lat.ndim == 2 and lat.shape[0] > MAX_DIM:
        raise SpecError(f"metric.lattice must have at most {MAX_DIM} rows, got {lat.shape[0]}")
    if (lat.ndim != 2 or lat.shape[0] != lat.shape[1] or lat.size == 0
            or not np.isfinite(lat).all()
            or not abs(np.linalg.det(lat)) > 1e-12 * np.prod(np.linalg.norm(lat, axis=1))):
        raise SpecError(f"metric.lattice must be a finite, square, non-singular matrix, got {value!r}")
    return lat


def _parse_net(doc: dict, graph: WeightedMultigraph, chart: MetricChart, n_samples: int) -> GeodesicNet:
    _reject_unknown(doc, {"vertices", "edges", "periodic_edges"}, "net")
    vertices = {v: _point(p, chart.dim, f"net.vertices[{v}]")
                for v, p in _typed(doc.get("vertices", {}), dict, "net.vertices").items()}
    missing = [v for v in graph.vertices if v not in vertices]
    if missing:
        raise SpecError(f"net.vertices has no position for vertex {missing[0]!r}")
    edge_ids = {e.id for e in graph.edges}
    samples = {}
    for eid, spec in _typed(doc.get("edges", {}), dict, "net.edges").items():
        where = f"net.edges[{eid}]"
        allowed = {"samples", "generator", "to", "center", "radius", "angles", "longitude"}
        _reject_unknown(spec, allowed, where)
        if eid not in edge_ids:
            raise SpecError(f"{where} is not an edge of the graph")
        if "samples" in spec:
            samples[eid] = _floats(spec["samples"])
            if samples[eid].size == 0:
                raise SpecError(f"{where}.samples must be a non-empty array of numbers")
            continue
        gen = spec.get("generator")
        t = np.linspace(0.0, 1.0, n_samples + 1)
        e = graph.edge(eid)
        if gen == "straight":
            p0 = vertices[e.v0]
            p1 = _point(spec["to"], chart.dim, f"{where}.to") if "to" in spec else vertices[e.v1]
            samples[eid] = (1 - t)[:, None] * p0 + t[:, None] * p1
        elif gen == "circle-arc":
            center = _point(spec.get("center"), 2, f"{where}.center")
            radius = _number(spec.get("radius"), f"{where}.radius")
            angles = _floats(spec.get("angles"))
            if angles.shape != (2,) or not np.isfinite(angles).all():
                raise SpecError(f"{where}.angles must be two finite numbers, got {spec.get('angles')!r}")
            ang = (1 - t) * angles[0] + t * angles[1]
            samples[eid] = center + radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        elif gen == "meridian":
            longitude = _number(spec.get("longitude"), f"{where}.longitude")
            samples[eid] = meridian(np.deg2rad(longitude), n_samples)
        else:
            raise SpecError(f"{where} needs samples or a known generator")
    periodic = _typed(doc.get("periodic_edges", []), list, "net.periodic_edges")
    return GeodesicNet(
        graph=graph,
        edge_samples=samples,
        vertex_positions=vertices,
        periodic_edges=frozenset(_typed(p, str, f"net.periodic_edges[{k}]")
                                 for k, p in enumerate(periodic)),
    )


def check_options(options: dict) -> None:
    """Refuse a tolerance option that is not a finite positive number and a
    seed that is not a non-negative integer."""
    for key in ("tol", "svd_tol", "residual_tol"):
        _number(options.get(key, 1.0), f"options.{key}", positive=True)
    seed = options.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise SpecError(f"options.seed must be a non-negative integer, got {seed!r}")


def parse_spec(doc: dict) -> NetSpec:
    _reject_unknown(doc, {"graph", "metric", "net", "options"}, "document root")
    _reject_unknown(
        doc.get("options", {}), {"n_samples", "tol", "svd_tol", "residual_tol", "seed"}, "options"
    )
    options = dict(doc.get("options", {}))
    check_options(options)
    graph = _parse_graph(doc.get("graph", {}))
    problems = validate(graph)
    if problems:
        raise SpecError("invalid graph: " + "; ".join(problems))
    base, bumps, schedule = _parse_metric(doc.get("metric", {}))
    n_samples = _count(options.get("n_samples", DEFAULT_SAMPLES), "options.n_samples", MAX_SAMPLES)
    chart = base if bumps is None else conformal_family(base, bumps, 1.0)
    net = _parse_net(doc.get("net", {}), graph, chart, n_samples)
    problems = check_net(chart, net)
    if problems:
        raise SpecError("invalid net: " + "; ".join(problems))
    return NetSpec(
        base_chart=base,
        bump_field=bumps,
        amplitude_schedule=schedule,
        net=net,
        options=options,
    )


def load_spec(path: str) -> NetSpec:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return parse_spec(doc)


def spec_from_case(name: str, n_samples: int) -> dict:
    """Net-spec document for one of the built-in cases."""
    if name not in CASE_NAMES:
        raise SpecError(f"unknown case {name!r}; choose from {CASE_NAMES}")
    if n_samples < MIN_SAMPLES - 1:
        raise SpecError(
            f"n_samples {n_samples} is too small: edges need at least {MIN_SAMPLES} samples "
            f"(n_samples >= {MIN_SAMPLES - 1})"
        )
    _count(n_samples, "n_samples", MAX_SAMPLES)
    case = make_case(name, n_samples=n_samples)
    net = case.net
    doc = {
        "graph": {
            "vertices": list(net.graph.vertices),
            "edges": [
                {"id": e.id, "v0": e.v0, "v1": e.v1, "multiplicity": e.multiplicity}
                for e in net.graph.edges
            ],
        },
        "metric": _metric_doc(case.chart),
        "net": {
            "vertices": {v: [float(x) for x in p] for v, p in net.vertex_positions.items()},
            "edges": {
                e.id: {"samples": [[float(x) for x in p] for p in net.edge_samples[e.id]]}
                for e in net.graph.edges
            },
        },
        "options": {"n_samples": n_samples, "tol": _case_tolerance(case.chart, net),
                    "svd_tol": SVD_TOL},
    }
    if net.periodic_edges:
        doc["net"]["periodic_edges"] = sorted(net.periodic_edges)
    return doc


def _case_tolerance(chart: MetricChart, net: GeodesicNet) -> float:
    """``DEFAULT_TOL``, a power of ten, or the smallest power of ten at least
    twice the net's own stationarity residual when that is larger, so the
    net passes ``check``."""
    floor = 2.0 * stationarity_residual(chart, net).aggregate
    power = round(math.log10(DEFAULT_TOL))
    while 10.0**power < floor and power < 0:
        power += 1
    return 10.0**power


def _metric_doc(chart: MetricChart) -> dict:
    if isinstance(chart, FlatTorusChart):
        return {"kind": "flat-torus", "lattice": [[float(x) for x in row] for row in chart.lattice]}
    if isinstance(chart, StereographicSphereChart):
        return {"kind": "stereographic-sphere", "radius": chart.radius, "dim": chart.dim}
    raise SpecError("metric cannot be serialized")


def write_document(doc: dict, path: str) -> None:
    """A spec or results document as JSON, keys sorted, one trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

def results_document(command: str, options: dict, report: dict) -> dict:
    return {
        "tool": "geodesicnets",
        "version": TOOL_VERSION,
        "command": command,
        "options": options,
        "report": report,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def export_plot_csv(net: GeodesicNet, path: str, fields: dict | None) -> None:
    """Per-edge samples: edge id, t, coordinates, optional field columns.

    Floats carry 17 significant digits so a re-ingested file reproduces
    lengths bit-faithfully.
    """
    dim = net.dim
    cols = ["edge", "t"] + [f"x{i+1}" for i in range(dim)]
    if fields:
        cols += [f"f{i+1}" for i in range(dim)]
    lines = [",".join(cols)]
    for e in net.graph.edges:
        s = net.edge_samples[e.id]
        t = np.linspace(0.0, 1.0, s.shape[0])
        for k in range(s.shape[0]):
            row = [e.id, format(t[k], ".17g")] + [format(x, ".17g") for x in s[k]]
            if fields:
                row += [format(x, ".17g") for x in fields[e.id][k]]
            lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
