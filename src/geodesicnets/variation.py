"""First and second variation of the length functional on nets.

The discrete first variation is algebraically the exact derivative of the
discrete length (same derivative operator, same quadrature weights), so
finite-difference oracles of the length agree with it to rounding error.
The second variation is assembled from the edge operator

    A_E(Y) = -(n(E)/l(E)) [ (D_t D_t Y)^perp + R(f', Y^perp) f' ]

and the vertex operator

    B_v(Y) = sum over incident (E, i) of (-1)^(i+1) (n(E)/l(E)) (D_t Y)(i)^perp,

with edge integrals over the parameter interval [0, 1].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import stencils
from .geometry import (
    MetricChart, _dot, christoffel_apply, curvature_apply, curvature_form, g_dot, g_norm,
    metric_dot, metric_norm,
)
from .net import EdgeGroup, GeodesicNet, NetField, displace, edge_lengths, length

__all__ = [
    "NotStationaryError",
    "StationarityReport",
    "first_variation",
    "stationarity_residual",
    "stationarity_gate",
    "apply_A_E",
    "hessian_form",
    "hessian_fd_oracle",
    "length_sample_gradient",
    "edge_length_gradient",
    "length_integrand",
    "integrate_length_terms",
]

# hessian_form warns above this stationarity residual and refuses a net
# above 100 times it (``stationarity_gate``).
HESSIAN_RESIDUAL_TOL = 1e-4


class NotStationaryError(ValueError):
    """The net fails the stationarity gate of a second-variation computation."""


def _edge_grid(net: GeodesicNet, eid: str):
    s = net.edge_samples[eid]
    loop = eid in net.periodic_edges
    return s, loop, stencils.quadrature_weights(s.shape[0], loop=loop)


def _perp(vel, values) -> np.ndarray:
    """The part of values g-orthogonal to vel; a conformal g has the
    Euclidean orthogonal complement."""
    return values - (_dot(values, vel) / _dot(vel, vel))[:, None] * vel


def first_variation(chart: MetricChart, net: GeodesicNet, fld: NetField) -> float:
    """d/ds of the discrete length along the field (exact, not approximate):
    the pairing of ``length_sample_gradient`` with the field's samples, whose
    seam values repeat on periodic edges."""
    grad = length_sample_gradient(chart, net)
    total = 0.0
    for e in net.graph.edges:
        x = fld.edge_values[e.id]
        if x.shape != grad[e.id].shape:
            raise ValueError(f"field shape mismatch on edge {e.id!r}")
        total += float(np.sum(grad[e.id] * x))
    return total


@dataclass
class StationarityReport:
    """Geodesic residual per edge plus balance defect per vertex.

    edge_max is each edge's largest covariant acceleration normalized by the
    squared speed (so it is parametrization-scale free); tangents[E, i] is
    the inward unit tangent at end i of edge E; vertex_balance[v] is minus
    the multiplicity-weighted sum of the inward unit tangents at v, and
    vertex_norm its g-norm.  The aggregate is the maximum over both parts,
    NaN if any part is NaN.
    """

    edge_max: dict[str, float]
    tangents: dict[tuple[str, int], np.ndarray]
    vertex_balance: dict[str, np.ndarray]
    vertex_norm: dict[str, float]
    aggregate: float

    def as_dict(self) -> dict:
        return {
            "edge_max": dict(self.edge_max),
            "vertex_norm": dict(self.vertex_norm),
            "aggregate": self.aggregate,
        }


def stationarity_residual(chart: MetricChart, net: GeodesicNet) -> StationarityReport:
    """The ``StationarityReport``, from one pass per edge group: one 6th-order
    first and second derivative (``stencils.derivative_ho``) and one factor
    jet; the end rows of the first derivative give the tangents."""

    def group_terms(grp):
        s, dim = grp.samples, grp.samples.shape[-1]
        v = stencils.derivative_ho(s, 1, loop=grp.loop)
        acc = stencils.derivative_ho(s, 2, loop=grp.loop)
        # open edges keep the central rows only: their footprints still
        # cover every sample, and endpoint geodesy is what the vertex
        # balance measures
        rows = slice(None) if grp.loop else slice(3, -3)
        vel = v[:, rows].reshape(-1, dim)
        lam, dphi, _ = chart.factor_jet_many(s[:, rows].reshape(-1, dim), 1)
        cov = acc[:, rows].reshape(-1, dim) + christoffel_apply(dphi, vel, vel)
        norm = (metric_norm(lam, cov) / metric_dot(lam, vel, vel)).reshape(len(s), -1)
        ends = v[:, [0, -1]] / g_norm(chart, s[:, [0, -1]], v[:, [0, -1]])[..., None]
        ends[:, 1] = -ends[:, 1]
        return zip(norm.max(axis=1).tolist(), ends)

    per_edge = net.map_groups(group_terms)
    edge_max = {eid: worst for eid, (worst, _) in per_edge.items()}
    tangents = {(eid, i): ends[i] for eid, (_, ends) in per_edge.items() for i in (0, 1)}
    balance = {vtx: -sum(net.graph.edge(eid).multiplicity * tangents[eid, i]
                         for eid, i in net.graph.incident_pairs(vtx))
               for vtx in net.graph.vertices}
    vertex_norm = {vtx: float(g_norm(chart, net.vertex_positions[vtx], bal))
                   for vtx, bal in balance.items()}
    # np.max, unlike max, does not drop a NaN
    agg = float(np.max([*edge_max.values(), *vertex_norm.values()]))
    return StationarityReport(edge_max, tangents, balance, vertex_norm, agg)


def stationarity_gate(chart: MetricChart, net: GeodesicNet, tol: float, warning: str) -> None:
    """The stationarity gate of a second-variation computation: refuses the
    net with a NotStationaryError above the residual tol (a NaN residual
    fails too) and warns with ``warning.format(residual)`` above tol / 100."""
    agg = stationarity_residual(chart, net).aggregate
    if not agg <= tol:
        raise NotStationaryError(f"net is not stationary (residual {agg:.3g})")
    if agg > 0.01 * tol:
        warnings.warn(warning.format(agg), stacklevel=2)


def _edge_terms(chart: MetricChart, net: GeodesicNet, eid: str, fld: NetField,
                length: float):
    """(A_E(Y) at the samples, (n/l) (D_t Y^perp)^perp at the two ends) of
    one edge of the given g-length, from one factor jet."""
    s, loop, _ = _edge_grid(net, eid)
    v = stencils.velocity(s, loop=loop)
    _, dphi, ddphi = chart.factor_jet_many(s, 2)
    # differentiate the perpendicular part: same operator in the continuum,
    # and tangential fields are annihilated exactly at the discrete level
    yperp = _perp(v, fld.edge_values[eid])
    # (D_t Z)^k = dZ^k/dt + Gamma^k_ij f'^i Z^j
    ydot = stencils.velocity(yperp, loop=loop) + christoffel_apply(dphi, v, yperp)
    yddot = stencils.velocity(ydot, loop=loop) + christoffel_apply(dphi, v, ydot)
    curv = curvature_apply(curvature_form(dphi, ddphi), v, yperp, v)
    scale = net.graph.edge(eid).multiplicity / length
    return -scale * _perp(v, yddot + curv), scale * _perp(v[[0, -1]], ydot[[0, -1]])


def apply_A_E(chart: MetricChart, net: GeodesicNet, eid: str, fld: NetField) -> np.ndarray:
    """Samples of A_E applied to the field; output is g-orthogonal to f'."""
    return _edge_terms(chart, net, eid, fld, edge_lengths(chart, net)[eid])[0]


def _vertex_sum(net: GeodesicNet, v: str, ends: dict) -> np.ndarray:
    """B_v from the end rows of ``_edge_terms`` of its incident edges."""
    return sum((-1.0) ** (i + 1) * ends[eid][i] for eid, i in net.graph.incident_pairs(v))


def hessian_form(chart: MetricChart, net: GeodesicNet, x_fld: NetField, y_fld: NetField) -> float:
    """Second variation: sum of edge integrals of <A_E(Y), X> plus vertex terms.

    Only defined at (approximately) stationary nets: warns when the
    stationarity residual is within 100x of ``HESSIAN_RESIDUAL_TOL``,
    errors above.  One ``_edge_terms`` pass per edge gives both A_E and
    the end rows of every B_v.
    """
    stationarity_gate(chart, net, 100 * HESSIAN_RESIDUAL_TOL,
                      "hessian at a marginally stationary net (residual {:.3g})")
    lengths = edge_lengths(chart, net)
    total = 0.0
    ends = {}
    for e in net.graph.edges:
        s, _, w = _edge_grid(net, e.id)
        a_of_y, ends[e.id] = _edge_terms(chart, net, e.id, y_fld, lengths[e.id])
        total += float(w @ g_dot(chart, s, a_of_y, x_fld.edge_values[e.id]))
    for v in net.graph.vertices:
        bv = _vertex_sum(net, v, ends)
        xv = x_fld.vertex_value(net, v)
        p = net.vertex_positions[v]
        total += float(g_dot(chart, p[None, :], bv[None, :], xv[None, :])[0])
    return total


def hessian_fd_oracle(chart: MetricChart, net: GeodesicNet, x_fld: NetField,
                      y_fld: NetField, step: float) -> float:
    """Central mixed second difference of the length over net (+) sX (+) xY."""
    if not 1e-12 <= step < np.inf:  # written so that NaN fails too
        raise ValueError("step must be finite and at least 1e-12")
    def l_at(a: float, b: float) -> float:
        moved = displace(displace(net, x_fld, a), y_fld, b)
        return length(chart, moved)

    return _mixed_difference(l_at, step)


def _mixed_difference(f, step: float) -> float:
    """Central four-point mixed second difference of f(a, b) at (0, 0)."""
    return (f(step, step) - f(step, -step) - f(-step, step) + f(-step, -step)) / (4.0 * step * step)


def length_sample_gradient(chart: MetricChart, net: GeodesicNet) -> dict[str, np.ndarray]:
    """Exact gradient of the discrete length w.r.t. every edge sample.

    Multiplicities included.  On periodic edges the seam contribution is
    folded onto sample 0 and the duplicate end row is zeroed, so pairing
    the result with any field that repeats its seam value is correct.
    """
    return net.map_groups(lambda grp: edge_length_gradient(chart, grp)[2])


def edge_length_gradient(chart: MetricChart, group: EdgeGroup):
    """(v, lam, grad) of one edge group, from one velocity and one factor jet.

    v is the SBP ``stencils.velocity`` of the stacked samples (E, N+1, n),
    lam the conformal factor at them, one entry per sample (E * (N+1),),
    and grad the gradient of each edge's discrete length in its samples,
    multiplicity included (E, N+1, n): ``integrate_length_terms`` of the
    ``length_integrand``.  Every edge's rows are computed with the same
    per-row operations as for a group of one.
    """
    s = group.samples
    v = stencils.velocity(s, loop=group.loop)
    w = stencils.quadrature_weights(s.shape[1], loop=group.loop)
    lam, a, u = length_integrand(chart, s, v, w)
    return v, lam, integrate_length_terms(a, u, w, group.loop, group.multiplicities)


def length_integrand(chart: MetricChart, samples: np.ndarray, velocities: np.ndarray,
                     weights: np.ndarray):
    """The pointwise part of the length gradient: (lam, a, u) at stacked
    samples and velocities (E, M, n), with the quadrature weights w (M,).

    lam is the conformal factor (E * M,), a = w speed grad(phi) the metric-variation term and
    u = g v / speed the velocity term, each (E, M, n): the only nonlinear part of the gradient.
    The exact Hessian takes its derivatives per sample (``jacobi._length_blocks``); with unit w,
    a and u are dL/dx and dL/dv of the path-coordinate Lagrangian (``localcoords._lagrangian_jet``).
    """
    n_edges, npts, n = samples.shape
    lam, dphi, _ = chart.factor_jet_many(samples.reshape(-1, n), 1)
    rows = velocities.reshape(-1, n)
    speed = metric_norm(lam, rows).reshape(n_edges, npts, 1)
    u = (lam[:, None] * rows).reshape(samples.shape) / speed
    # w (d_c g)(v, v) / (2 speed) = w speed d_c phi, as d_c g = 2 lam d_c phi delta
    a = weights[:, None] * speed * dphi.reshape(samples.shape)
    return lam, a, u


def integrate_length_terms(a: np.ndarray, u: np.ndarray, weights: np.ndarray, loop: bool,
                           multiplicities: np.ndarray) -> np.ndarray:
    """The linear part of the length gradient: m (a - D^T (w u)) per edge,
    from the ``length_integrand`` terms (E, M, n), or from their
    derivatives.  On loop edges the seam is folded onto sample 0 and the
    duplicate end row zeroed.  a and u are overwritten.
    """
    grad = a
    if not loop:
        # D^T (w u) = B u - w (D u) with B = diag(-1, 0, ..., 0, 1), the SBP identity
        grad -= weights[:, None] * stencils.velocity(u, loop=False)
        grad[:, 0] -= u[:, 0]
        grad[:, -1] += u[:, -1]
    else:
        # D^T = -D on the uniform independent samples; the seam sample
        # is one physical point, so fold the duplicate row onto row 0; the
        # field u then repeats its seam row, so it does not wrap
        h = 1.0 / (u.shape[1] - 1)
        u[:, 0] = u[:, -1] = 0.5 * (u[:, 0] + u[:, -1])
        grad[:, 0] += grad[:, -1]
        grad -= stencils.velocity(h * u, loop=True)
        grad[:, -1] = 0.0
    return multiplicities[:, None, None] * grad
