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
from .geometry import MetricChart, g_dot, g_norm
from .net import GeodesicNet, NetField, displace, edge_lengths

__all__ = [
    "StationarityReport",
    "first_variation",
    "vertex_balance",
    "stationarity_residual",
    "apply_A_E",
    "apply_B_v",
    "hessian_form",
    "hessian_fd_oracle",
    "length_sample_gradient",
    "covariant_deriv",
]


def _edge_grid(net: GeodesicNet, eid: str):
    s = net.edge_samples[eid]
    n = s.shape[0]
    h = 1.0 / (n - 1)
    shift = net.loop_shift(eid)
    w = stencils.quadrature_weights(n, h, loop=shift is not None)
    return s, h, shift, w


def _field_velocity(values: np.ndarray, shift) -> np.ndarray:
    # field components never wrap: loop edges use a zero seam shift
    if shift is None:
        return stencils.velocity(values)
    return stencils.velocity(values, loop_shift=np.zeros(values.shape[1]))


def covariant_deriv(chart: MetricChart, samples, vel, values, shift) -> np.ndarray:
    """(D_t Z)^k = dZ^k/dt + Gamma^k_ij f'^i Z^j along an edge."""
    dz = _field_velocity(values, shift)
    gam = chart.christoffel_many(samples)
    return dz + np.einsum("pkij,pi,pj->pk", gam, vel, values)


def _perp(chart: MetricChart, samples, vel, values) -> np.ndarray:
    coef = g_dot(chart, samples, values, vel) / g_dot(chart, samples, vel, vel)
    return values - coef[:, None] * vel


def first_variation(chart: MetricChart, net: GeodesicNet, fld: NetField) -> float:
    """d/ds of the discrete length along the field (exact, not approximate)."""
    total = 0.0
    for e in net.graph.edges:
        s, h, shift, w = _edge_grid(net, e.id)
        x = fld.edge_values[e.id]
        if x.shape != s.shape:
            raise ValueError(f"field shape mismatch on edge {e.id!r}")
        v = stencils.velocity(s, loop_shift=shift)
        speed = g_norm(chart, s, v)
        dx = _field_velocity(x, shift)
        dg = chart.metric_deriv_many(s)
        term = g_dot(chart, s, dx, v) + 0.5 * np.einsum("pkij,pk,pi,pj->p", dg, x, v, v)
        total += e.multiplicity * float(w @ (term / speed))
    return total


def vertex_balance(chart: MetricChart, net: GeodesicNet, v: str) -> np.ndarray:
    """V(v): signed multiplicity-weighted sum of endpoint unit velocities."""
    out = np.zeros(net.dim)
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
        out += (-1.0) ** (i + 1) * net.graph.edge(eid).multiplicity * tang
    return out


@dataclass
class StationarityReport:
    """Geodesic residual per edge plus balance defect per vertex.

    Edge residuals are covariant accelerations normalized by the squared
    speed (so they are parametrization-scale free); the aggregate is the
    maximum over both parts.
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
    c1 = stencils.fd_weights(3.0, np.arange(7.0), 1)
    c2 = stencils.fd_weights(3.0, np.arange(7.0), 2)
    offsets = (-3, -2, -1, 0, 1, 2, 3)
    for e in net.graph.edges:
        s, h, shift, _ = _edge_grid(net, e.id)
        if shift is not None:
            ext = np.concatenate([s[-4:-1] - shift, s, s[1:4] + shift], axis=0)
            n = s.shape[0]
            v = sum(cj * ext[3 + off : 3 + off + n] for off, cj in zip(offsets, c1)) / h
            acc = sum(cj * ext[3 + off : 3 + off + n] for off, cj in zip(offsets, c2)) / h**2
            pts = s
        else:
            # central 6th-order stencils on the interior range: their
            # footprints still cover every sample, and endpoint geodesy is
            # what the vertex balance measures
            n = s.shape[0]
            v = sum(cj * s[3 + off : n - 3 + off] for off, cj in zip(offsets, c1)) / h
            acc = sum(cj * s[3 + off : n - 3 + off] for off, cj in zip(offsets, c2)) / h**2
            pts = s[3:-3]
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
    agg = max(list(edge_max.values()) + list(vn.values()))
    return StationarityReport(edge_res, edge_max, vb, vn, agg)


def apply_A_E(chart: MetricChart, net: GeodesicNet, eid: str, fld: NetField,
              lengths: dict[str, float] | None = None) -> np.ndarray:
    """Samples of A_E applied to the field; output is g-orthogonal to f'."""
    lengths = lengths or edge_lengths(chart, net)
    e = net.graph.edge(eid)
    s, h, shift, _ = _edge_grid(net, eid)
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
        s, h, shift, _ = _edge_grid(net, eid)
        y = fld.edge_values[eid]
        vel = stencils.velocity(s, loop_shift=shift)
        yperp = _perp(chart, s, vel, y)
        ydot = covariant_deriv(chart, s, vel, yperp, shift)
        idx = 0 if i == 0 else -1
        perp = _perp(chart, s[idx][None, :], vel[idx][None, :], ydot[idx][None, :])[0]
        out += (-1.0) ** (i + 1) * (e.multiplicity / lengths[eid]) * perp
    return out


def hessian_form(chart: MetricChart, net: GeodesicNet, x_fld: NetField, y_fld: NetField,
                 residual_tol: float = 1e-4, check_stationary: bool = True) -> float:
    """Second variation: sum of edge integrals of <A_E(Y), X> plus vertex terms.

    Only defined at (approximately) stationary nets: warns when the
    stationarity residual is within 100x of ``residual_tol``, errors above.
    """
    if check_stationary:
        agg = stationarity_residual(chart, net).aggregate
        if agg > 100 * residual_tol:
            raise ValueError(f"net is not stationary (residual {agg:.3g})")
        if agg > residual_tol:
            warnings.warn(f"hessian at a marginally stationary net (residual {agg:.3g})")
    lengths = edge_lengths(chart, net)
    total = 0.0
    for e in net.graph.edges:
        s, h, shift, w = _edge_grid(net, e.id)
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
    if step <= 0 or step < 1e-12:
        raise ValueError("step underflow")
    from .net import length

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
    out = {}
    for e in net.graph.edges:
        s, h, shift, w = _edge_grid(net, e.id)
        n = s.shape[0]
        v = stencils.velocity(s, loop_shift=shift)
        speed = g_norm(chart, s, v)
        g = chart.metric_many(s)
        dg = chart.metric_deriv_many(s)
        gv_over_s = np.einsum("pij,pj->pi", g, v) / speed[:, None]
        # metric-variation part: w_m * (d_c g)(v, v) / (2 speed)
        grad = w[:, None] * np.einsum("pcij,pi,pj->pc", dg, v, v) / (2.0 * speed[:, None])
        # transpose of the derivative operator applied to w * g v / speed
        wgv = w[:, None] * gv_over_s
        if shift is None:
            d_mat, _ = stencils.sbp42(n, h)
            grad += d_mat.T @ wgv
        else:
            m = n - 1
            d_per = stencils.periodic_diff_matrix(m, h)
            # independent samples 0..m-1; fold weights of the duplicate end
            w_ind = np.full(m, h)
            gv_ind = gv_over_s[:m].copy()
            gv_ind[0] = 0.5 * (gv_over_s[0] + gv_over_s[-1])  # same physical point
            contrib = d_per.T @ (w_ind[:, None] * gv_ind)
            grad_ind = grad[:m].copy()
            grad_ind[0] += grad[-1]
            grad_ind += contrib
            grad = np.zeros_like(s)
            grad[:m] = grad_ind
        out[e.id] = e.multiplicity * grad
    return out
