"""Discretized nets: per-edge sampled curves with vertex continuity.

Edges are uniformly sampled over [0, 1] and stored as unwrapped lifts, so
curves stay continuous in chart coordinates even on tori; endpoint
consistency with vertex positions is checked modulo the lattice.  Edges
marked periodic (smooth closed loops) use periodic stencils across the
seam, whose lattice shift ``stencils`` reads from the samples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import stencils
from .geometry import MetricChart, g_norm
from .multigraph import WeightedMultigraph

__all__ = [
    "GeodesicNet",
    "EdgeGroup",
    "NetField",
    "TangentialField",
    "length",
    "edge_lengths",
    "reparametrize_constant_speed",
    "vertex_unit_tangents",
    "displace",
    "check_net",
    "constant_speed_samples",
]

ENDPOINT_TOL = 1e-7
# Refinement of the grid on which arc length is integrated.
ARC_UPSAMPLE = 8


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

    @property
    def dim(self) -> int:
        return next(iter(self.edge_samples.values())).shape[1]

    def edge_groups(self) -> list["EdgeGroup"]:
        """The edges grouped by (sample count, loop flag), each group stacked
        for one numpy pass; groups and their edges come in graph order."""
        members = {}
        for e in self.graph.edges:
            key = (self.edge_samples[e.id].shape[0], e.id in self.periodic_edges)
            members.setdefault(key, []).append(e)
        return [EdgeGroup(ids=tuple(e.id for e in edges),
                          samples=np.array([self.edge_samples[e.id] for e in edges], dtype=float),
                          loop=loop, multiplicities=np.array([e.multiplicity for e in edges]))
                for (_, loop), edges in members.items()]

    def map_groups(self, f) -> dict:
        """``f(group)``, one result per edge of the group, for every group of
        ``edge_groups``, spread into a dict keyed by edge id in graph order."""
        out = {}
        for grp in self.edge_groups():
            out.update(zip(grp.ids, f(grp)))
        return {e.id: out[e.id] for e in self.graph.edges}

    def copy(self) -> "GeodesicNet":
        return replace(
            self,
            edge_samples={e: s.copy() for e, s in self.edge_samples.items()},
            vertex_positions={v: p.copy() for v, p in self.vertex_positions.items()},
        )


@dataclass(frozen=True)
class EdgeGroup:
    """Edges of a net with one sample count and one loop flag, stacked.

    samples is (E, N+1, n); loop marks a group of periodic edges.  A single
    edge is a group of one.
    """

    ids: tuple[str, ...]
    samples: np.ndarray
    loop: bool
    multiplicities: np.ndarray


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
            vel = stencils.velocity(net.edge_samples[e], loop=e in net.periodic_edges)
            vals[e] = prof[:, None] * vel
        return NetField(vals)


def check_net(chart: MetricChart, net: GeodesicNet) -> list[str]:
    """Structural violations: non-finite coordinates, endpoint mismatches
    beyond ``ENDPOINT_TOL``, samples outside the chart domain, bad shapes,
    periodic edges that are not self-loops."""
    problems = [f"vertex {v!r} has a non-finite position"
                for v, p in net.vertex_positions.items() if not np.isfinite(p).all()]
    unknown = net.periodic_edges - {e.id for e in net.graph.edges}
    problems += [f"periodic edge {eid!r} is not an edge of the graph"
                 for eid in sorted(unknown, key=repr)]
    problems += [f"periodic edge {e.id!r} is not a self-loop (v0 != v1)"
                 for e in net.graph.edges if e.id in net.periodic_edges and e.v0 != e.v1]
    for e in net.graph.edges:
        s = net.edge_samples.get(e.id)
        if s is None:
            problems.append(f"edge {e.id!r} has no samples")
            continue
        if s.ndim != 2 or s.shape[1] != chart.dim:
            problems.append(
                f"edge {e.id!r} samples have shape {s.shape}; expected (n, {chart.dim})"
            )
            continue
        if len(s) < stencils.MIN_SAMPLES:
            problems.append(
                f"edge {e.id!r} has {len(s)} samples; at least {stencils.MIN_SAMPLES} are needed"
            )
            continue
        if not np.isfinite(s).all():
            problems.append(f"edge {e.id!r} has non-finite samples")
            continue
        for i, idx in ((0, 0), (1, -1)):
            vpos = net.vertex_positions[e.endpoint(i)]
            gap = np.linalg.norm(chart.displacement_many(vpos[None, :], s[idx][None, :])[0])
            if not gap <= ENDPOINT_TOL:
                problems.append(
                    f"edge {e.id!r} endpoint {i} misses vertex {e.endpoint(i)!r} by {gap:.3g}"
                )
        # every chart domain is a box or all of R^n, so the coordinate-wise
        # extremes of the samples are in it exactly when every sample is
        if not (chart.contains(s.min(axis=0)) and chart.contains(s.max(axis=0))):
            problems.append(f"edge {e.id!r} leaves the chart domain")
    return problems


def edge_lengths(chart: MetricChart, net: GeodesicNet) -> dict[str, float]:
    """Per-edge g-length by the matched quadrature (no multiplicities)."""

    def group_lengths(grp):
        speed = g_norm(chart, grp.samples, stencils.velocity(grp.samples, loop=grp.loop))
        w = stencils.quadrature_weights(grp.samples.shape[1], loop=grp.loop)
        return [float(w @ sp) for sp in speed]

    return net.map_groups(group_lengths)


def length(chart: MetricChart, net: GeodesicNet) -> float:
    """Total length: sum over edges of multiplicity times g-length."""
    per_edge = edge_lengths(chart, net)
    return sum(e.multiplicity * per_edge[e.id] for e in net.graph.edges)


def reparametrize_constant_speed(chart: MetricChart, net: GeodesicNet,
                                 n_samples: int | None = None) -> GeodesicNet:
    """Arc-length resampling of every edge; endpoint samples are pinned.

    ``constant_speed_samples`` of each group of ``GeodesicNet.edge_groups``.
    """
    return replace(
        net, edge_samples=net.map_groups(lambda grp: constant_speed_samples(chart, grp, n_samples)))


def constant_speed_samples(chart: MetricChart, group: EdgeGroup,
                           n_samples: int | None = None) -> np.ndarray:
    """Arc-length resampling of one edge group, (E, n_samples + 1, n), in one pass.

    ``n_samples`` intervals per edge (default: keep the count).  The SBP
    speed on the ``ARC_UPSAMPLE`` times finer grid is integrated to arc
    length, the arc-length map is inverted, and the edge's 6-point
    interpolant is evaluated at the parameters found (``stencils``).  A
    sample speed below 1e-8 times the edge mean speed is rejected with a
    ValueError naming the group's first such edge (the inverse map would
    divide by it).  Each edge's rows go through the same operations as in
    a group of one.
    """
    s, loop = group.samples, group.loop
    fine = stencils.upsample_curve(s, ARC_UPSAMPLE, loop=loop)
    speed = g_norm(chart, fine, stencils.velocity(fine, loop=loop))
    slow = speed.min(axis=-1) < 1e-8 * speed.mean(axis=-1)
    if slow.any():
        eid = group.ids[int(np.argmax(slow))]
        raise ValueError(f"edge {eid!r} has a near-zero speed sample; not an immersion")
    arc = stencils.running_integral(speed, loop=loop)
    n = s.shape[1] - 1 if n_samples is None else n_samples
    # np.linspace(0, arc[e, -1], n + 1) for every edge e, bit for bit
    targets = np.arange(n + 1.0) * (arc[:, -1:] / n)
    targets[:, -1] = arc[:, -1]
    ts = np.clip(stencils.inverse_interpolate(arc, targets), 0.0, 1.0)
    out = stencils.evaluate_curve(s, ts, loop=loop)
    out[:, 0] = s[:, 0]
    out[:, -1] = s[:, -1]
    return out


def vertex_unit_tangents(chart: MetricChart, net: GeodesicNet, v: str):
    """Inward unit tangents at v: one entry (E, i, tangent, multiplicity) per
    incident pair; the tangent points from the vertex into the edge."""
    out = []
    for eid, i in net.graph.incident_pairs(v):
        s = net.edge_samples[eid]
        if eid in net.periodic_edges:
            tang = stencils.velocity(s, loop=True)[0 if i == 0 else -1]
        else:
            tang = stencils.end_derivative_ho(s, 1, 0 if i == 0 else -1)
        p = s[0] if i == 0 else s[-1]
        tang = tang / g_norm(chart, p[None, :], tang[None, :])[0]
        if i == 1:
            tang = -tang
        out.append((eid, i, tang, net.graph.edge(eid).multiplicity))
    return out


def displace(net: GeodesicNet, fld: NetField, s: float) -> GeodesicNet:
    """Move every sample by s * X through the Euclidean background metric."""
    return replace(
        net,
        edge_samples={e: net.edge_samples[e] + s * fld.edge_values[e] for e in net.edge_samples},
        vertex_positions={v: net.vertex_positions[v] + s * fld.vertex_value(net, v)
                          for v in net.graph.vertices},
    )
