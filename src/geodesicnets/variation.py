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
from .geometry import MetricChart, g_dot, g_norm, metric_norm
from .net import (
    EdgeGroup, GeodesicNet, NetField, displace, edge_lengths, length, vertex_unit_tangents,
)

__all__ = [
    "NotStationaryError",
    "StationarityReport",
    "first_variation",
    "vertex_balance",
    "stationarity_residual",
    "apply_A_E",
    "apply_B_v",
    "hessian_form",
    "hessian_fd_oracle",
    "length_sample_gradient",
    "edge_length_gradient",
    "covariant_deriv",
]

# hessian_form warns above this stationarity residual and refuses a net
# above 100 times it.
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
    dz = _field_velocity(values, shift)
    gam = chart.christoffel_many(samples)
    return dz + np.einsum("pkij,pi,pj->pk", gam, vel, values)


def _perp(chart: MetricChart, samples, vel, values) -> np.ndarray:
    coef = g_dot(chart, samples, values, vel) / g_dot(chart, samples, vel, vel)
    return values - coef[:, None] * vel


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
        gam = chart.christoffel_many(pts)
        cov = acc + np.einsum("pkij,pi,pj->pk", gam, v, v)
        speed2 = g_dot(chart, pts, v, v)
        norm = g_norm(chart, pts, cov) / speed2
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
    yperp = _perp(chart, s, v, y)
    ydot = covariant_deriv(chart, s, v, yperp, shift)
    yddot = covariant_deriv(chart, s, v, ydot, shift)
    curv = chart.curvature_many(s, v, yperp, v)
    out = -(e.multiplicity / lengths[eid]) * _perp(chart, s, v, yddot + curv)
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
        yperp = _perp(chart, s, vel, y)
        ydot = covariant_deriv(chart, s, vel, yperp, shift)
        idx = 0 if i == 0 else -1
        perp = _perp(chart, s[idx][None, :], vel[idx][None, :], ydot[idx][None, :])[0]
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
        agg = stationarity_residual(chart, net).aggregate
        if not agg <= 100 * HESSIAN_RESIDUAL_TOL:  # a NaN residual fails too
            raise NotStationaryError(f"net is not stationary (residual {agg:.3g})")
        if agg > HESSIAN_RESIDUAL_TOL:
            warnings.warn(f"hessian at a marginally stationary net (residual {agg:.3g})")
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
    """(v, g, grad) of one edge group, from one velocity and one metric jet.

    v is the SBP ``stencils.velocity`` of the stacked samples (E, N+1, n),
    g the metric at them, one row per sample (E * (N+1), n, n), and grad
    the gradient of each edge's discrete length in its samples,
    multiplicity included (E, N+1, n).  Every edge's rows are computed
    with the same per-row operations as for a group of one.
    """
    s = group.samples
    n_edges, npts, n = s.shape
    h = 1.0 / (npts - 1)
    v = stencils.velocity(s, loop_shift=group.shifts)
    g, dg = chart.metric_jet_many(s.reshape(-1, n))
    rows = v.reshape(-1, n)
    w = stencils.quadrature_weights(npts, loop=group.loop)
    speed = metric_norm(g, rows).reshape(n_edges, npts, 1)
    gv_over_s = np.einsum("pij,pj->pi", g, rows).reshape(s.shape) / speed
    # metric-variation part: w_m * (d_c g)(v, v) / (2 speed)
    grad = w[:, None] * np.einsum("pcij,pi,pj->pc", dg, rows, rows).reshape(s.shape) / (2.0 * speed)
    if not group.loop:
        # D^T (w u) = B u - w (D u) with B = diag(-1, 0, ..., 0, 1), the SBP identity
        grad -= w[:, None] * _field_velocity(gv_over_s, None)
        grad[:, 0] -= gv_over_s[:, 0]
        grad[:, -1] += gv_over_s[:, -1]
    else:
        # D^T = -D on the uniform independent samples; the seam sample
        # is one physical point, so fold the duplicate row onto row 0
        u = gv_over_s.copy()
        u[:, 0] = u[:, -1] = 0.5 * (gv_over_s[:, 0] + gv_over_s[:, -1])
        grad[:, 0] += grad[:, -1]
        grad -= _field_velocity(h * u, group.shifts)
        grad[:, -1] = 0.0
    return v, g, group.multiplicities[:, None, None] * grad
