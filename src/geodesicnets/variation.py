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
from .geometry import MetricChart, _dot, christoffel_apply, g_dot, g_norm, metric_dot, metric_norm
from .net import (
    EdgeGroup, GeodesicNet, NetField, displace, edge_lengths, length, vertex_unit_tangents,
)

__all__ = [
    "NotStationaryError",
    "StationarityReport",
    "first_variation",
    "vertex_balance",
    "stationarity_residual",
    "stationarity_gate",
    "apply_A_E",
    "apply_B_v",
    "hessian_form",
    "hessian_fd_oracle",
    "length_sample_gradient",
    "edge_length_gradient",
    "length_integrand",
    "integrate_length_terms",
    "covariant_deriv",
]

# hessian_form warns above this stationarity residual and refuses a net
# above 100 times it (``stationarity_gate``).
HESSIAN_RESIDUAL_TOL = 1e-4


class NotStationaryError(ValueError):
    """The net fails the stationarity gate of a second-variation computation."""


def _edge_grid(net: GeodesicNet, eid: str):
    s = net.edge_samples[eid]
    shift = net.loop_shift(eid)
    return s, shift, stencils.quadrature_weights(s.shape[0], loop=shift is not None)


def _field_velocity(values: np.ndarray, shift) -> np.ndarray:
    # field components never wrap: loop edges use a zero seam shift
    if shift is None:
        return stencils.velocity(values)
    return stencils.velocity(values, loop_shift=np.zeros(values.shape[-1]))


def covariant_deriv(chart: MetricChart, samples, vel, values, shift) -> np.ndarray:
    """(D_t Z)^k = dZ^k/dt + Gamma^k_ij f'^i Z^j along an edge."""
    dphi = chart.factor_jet_many(samples, 1)[1]
    return _field_velocity(values, shift) + christoffel_apply(dphi, vel, values)


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


def vertex_balance(chart: MetricChart, net: GeodesicNet, v: str) -> np.ndarray:
    """V(v): signed multiplicity-weighted sum of endpoint unit velocities,
    that is minus the weighted sum of the inward unit tangents."""
    out = np.zeros(net.dim)
    for _, _, tang, mult in vertex_unit_tangents(chart, net, v):
        out += mult * tang
    return -out


@dataclass
class StationarityReport:
    """Geodesic residual per edge plus balance defect per vertex.

    Edge residuals are covariant accelerations normalized by the squared
    speed (so they are parametrization-scale free); the aggregate is the
    maximum over both parts, NaN if any part is NaN.
    """

    edge_residuals: dict[str, np.ndarray]
    edge_max: dict[str, float]
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
    edge_res = {}
    edge_max = {}
    for e in net.graph.edges:
        s, shift, _ = _edge_grid(net, e.id)
        # open edges keep the central 6th-order rows only: their footprints
        # still cover every sample, and endpoint geodesy is what the vertex
        # balance measures
        v = stencils.derivative_ho(s, 1, loop_shift=shift)
        acc = stencils.derivative_ho(s, 2, loop_shift=shift)
        pts = s if shift is not None else s[3:-3]
        lam, dphi, _ = chart.factor_jet_many(pts, 1)
        cov = acc + christoffel_apply(dphi, v, v)
        norm = metric_norm(lam, cov) / metric_dot(lam, v, v)
        edge_res[e.id] = cov
        edge_max[e.id] = float(norm.max())
    vb = {}
    vn = {}
    for v in net.graph.vertices:
        bal = vertex_balance(chart, net, v)
        vb[v] = bal
        p = net.vertex_positions[v]
        vn[v] = float(g_norm(chart, p[None, :], bal[None, :])[0])
    # np.max, unlike max, does not drop a NaN
    agg = float(np.max([*edge_max.values(), *vn.values()]))
    return StationarityReport(edge_res, edge_max, vb, vn, agg)


def stationarity_gate(chart: MetricChart, net: GeodesicNet, tol: float, warning: str) -> None:
    """The stationarity gate of a second-variation computation: refuses the
    net with a NotStationaryError above the residual tol (a NaN residual
    fails too) and warns with ``warning.format(residual)`` above tol / 100."""
    agg = stationarity_residual(chart, net).aggregate
    if not agg <= tol:
        raise NotStationaryError(f"net is not stationary (residual {agg:.3g})")
    if agg > 0.01 * tol:
        warnings.warn(warning.format(agg), stacklevel=2)


def apply_A_E(chart: MetricChart, net: GeodesicNet, eid: str, fld: NetField,
              lengths: dict[str, float] | None = None) -> np.ndarray:
    """Samples of A_E applied to the field; output is g-orthogonal to f'."""
    lengths = lengths or edge_lengths(chart, net)
    e = net.graph.edge(eid)
    s, shift, _ = _edge_grid(net, eid)
    y = fld.edge_values[eid]
    v = stencils.velocity(s, loop_shift=shift)
    # differentiate the perpendicular part: same operator in the continuum,
    # and tangential fields are annihilated exactly at the discrete level
    yperp = _perp(v, y)
    ydot = covariant_deriv(chart, s, v, yperp, shift)
    yddot = covariant_deriv(chart, s, v, ydot, shift)
    curv = chart.curvature_many(s, v, yperp, v)
    out = -(e.multiplicity / lengths[eid]) * _perp(v, yddot + curv)
    return out


def apply_B_v(chart: MetricChart, net: GeodesicNet, v: str, fld: NetField,
              lengths: dict[str, float] | None = None) -> np.ndarray:
    """Signed sum of perpendicular endpoint covariant derivatives at v."""
    lengths = lengths or edge_lengths(chart, net)
    out = np.zeros(net.dim)
    for eid, i in net.graph.incident_pairs(v):
        e = net.graph.edge(eid)
        s, shift, _ = _edge_grid(net, eid)
        y = fld.edge_values[eid]
        vel = stencils.velocity(s, loop_shift=shift)
        yperp = _perp(vel, y)
        ydot = covariant_deriv(chart, s, vel, yperp, shift)
        idx = 0 if i == 0 else -1
        perp = _perp(vel[idx][None, :], ydot[idx][None, :])[0]
        out += (-1.0) ** (i + 1) * (e.multiplicity / lengths[eid]) * perp
    return out


def hessian_form(chart: MetricChart, net: GeodesicNet, x_fld: NetField, y_fld: NetField,
                 check_stationary: bool = True) -> float:
    """Second variation: sum of edge integrals of <A_E(Y), X> plus vertex terms.

    Only defined at (approximately) stationary nets: warns when the
    stationarity residual is within 100x of ``HESSIAN_RESIDUAL_TOL``,
    errors above.
    """
    if check_stationary:
        stationarity_gate(chart, net, 100 * HESSIAN_RESIDUAL_TOL,
                          "hessian at a marginally stationary net (residual {:.3g})")
    lengths = edge_lengths(chart, net)
    total = 0.0
    for e in net.graph.edges:
        s, shift, w = _edge_grid(net, e.id)
        a_of_y = apply_A_E(chart, net, e.id, y_fld, lengths)
        total += float(w @ g_dot(chart, s, a_of_y, x_fld.edge_values[e.id]))
    for v in net.graph.vertices:
        bv = apply_B_v(chart, net, v, y_fld, lengths)
        xv = x_fld.vertex_value(net, v)
        p = net.vertex_positions[v]
        total += float(g_dot(chart, p[None, :], bv[None, :], xv[None, :])[0])
    return total


def hessian_fd_oracle(chart: MetricChart, net: GeodesicNet, x_fld: NetField,
                      y_fld: NetField, step: float = 1e-4) -> float:
    """Central mixed second difference of the length over net (+) sX (+) xY."""
    if not 1e-12 <= step < np.inf:  # written so that NaN fails too
        raise ValueError("step must be finite and at least 1e-12")
    def l_at(a: float, b: float) -> float:
        moved = displace(displace(net, x_fld, a), y_fld, b)
        return length(chart, moved)

    return (l_at(step, step) - l_at(step, -step) - l_at(-step, step) + l_at(-step, -step)) / (
        4.0 * step * step
    )


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
    v = stencils.velocity(s, loop_shift=group.shifts)
    w = stencils.quadrature_weights(s.shape[1], loop=group.loop)
    lam, a, u = length_integrand(chart, s, v, w)
    return v, lam, integrate_length_terms(a, u, w, group.loop, group.multiplicities)


def length_integrand(chart: MetricChart, samples: np.ndarray, velocities: np.ndarray,
                     weights: np.ndarray):
    """The pointwise part of the length gradient: (lam, a, u) at stacked
    samples and velocities (E, M, n), with the quadrature weights (M,).

    lam is the conformal factor (E * M,), a = w speed grad(phi) the
    metric-variation term and u = g v / speed the velocity term, each
    (E, M, n).  This is the only nonlinear part of the gradient.
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
    from the ``length_integrand`` terms (E, M, n), or from differences of
    them.  On loop edges the seam is folded onto sample 0 and the duplicate
    end row zeroed.  a and u are overwritten.
    """
    grad = a
    if not loop:
        # D^T (w u) = B u - w (D u) with B = diag(-1, 0, ..., 0, 1), the SBP identity
        grad -= weights[:, None] * stencils.velocity(u)
        grad[:, 0] -= u[:, 0]
        grad[:, -1] += u[:, -1]
    else:
        # D^T = -D on the uniform independent samples; the seam sample
        # is one physical point, so fold the duplicate row onto row 0; the
        # field u does not wrap, so its seam shift is zero
        h = 1.0 / (u.shape[1] - 1)
        u[:, 0] = u[:, -1] = 0.5 * (u[:, 0] + u[:, -1])
        grad[:, 0] += grad[:, -1]
        grad -= stencils.velocity(h * u, loop_shift=np.zeros(u.shape[-1]))
        grad[:, -1] = 0.0
    return multiplicities[:, None, None] * grad
