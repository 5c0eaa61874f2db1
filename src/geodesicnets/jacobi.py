"""Jacobi fields of stationary nets and the nondegeneracy verdict.

A Jacobi field splits per edge into a tangential part (linear
interpolation of the vertex displacements, which never enters the
equations) and a normal part u expressed in a parallel orthonormal frame,
where it solves  u'' + K(t) u = 0  with K the curvature coefficient
matrix.  The kernel is found by shooting: unknowns are the vertex
displacements plus per-edge initial data (u(0), u'(0)); equations couple
the propagated boundary values back to the vertices and impose the signed
sum of perpendicular endpoint derivatives at every vertex.

Loop graphs drop the vertex unknowns: moving the marked vertex along the
loop is a reparametrization, so the system reduces to periodicity of
(u, u') through the monodromy and the frame holonomy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum
import numpy as np

from . import stencils
from .geometry import MetricChart, SampledCurve, g_dot, g_norm, parallel_transport
from .multigraph import GraphClass, classify
from .net import GeodesicNet, NetField, edge_lengths
from .variation import stationarity_residual

__all__ = [
    "ReducedField",
    "JacobiKernel",
    "NondegeneracyVerdict",
    "Verdict",
    "parallel_frame",
    "jacobi_ode_coefficients",
    "assemble_jacobi_system",
    "jacobi_kernel",
    "classify_field",
    "is_nondegenerate",
    "reduced_hessian_fd",
    "reduced_basis_fields",
    "random_reduced_field",
    "approximate_embeddedness",
]

_ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# frames and curvature coefficients
# ---------------------------------------------------------------------------

def parallel_frame(chart: MetricChart, samples: np.ndarray, velocities: np.ndarray,
                   loop_shift=None) -> np.ndarray:
    """g-orthonormal parallel normal frame along a geodesic edge.

    Returns (N+1, n-1, n).  In two dimensions the frame is the continuous
    g-unit normal, which is parallel along any geodesic; in higher
    dimensions the initial normal space is transported.
    """
    n = samples.shape[1]
    if n == 2:
        raw = np.einsum("ij,pj->pi", _ROT90, np.einsum("pij,pj->pi", chart.metric_many(samples), velocities))
        nrm = g_norm(chart, samples, raw)
        return (raw / nrm[:, None])[:, None, :]
    frames = np.empty((samples.shape[0], n - 1, n))
    v0 = velocities[0]
    g0 = chart.metric(samples[0])
    basis = [v0]
    for k in range(n):
        cand = np.zeros(n)
        cand[k] = 1.0
        w = cand.copy()
        for b in basis:
            w = w - (w @ g0 @ b) / (b @ g0 @ b) * b
        if np.linalg.norm(w) > 1e-8:
            basis.append(w / np.sqrt(w @ g0 @ w))
        if len(basis) == n:
            break
    curve = SampledCurve(points=samples, velocities=velocities, loop_shift=loop_shift)
    for a, w in enumerate(basis[1:]):
        frames[:, a, :] = parallel_transport(chart, curve, w)
    return frames


def jacobi_ode_coefficients(chart: MetricChart, samples: np.ndarray, velocities: np.ndarray,
                            frames: np.ndarray) -> np.ndarray:
    """K(t)_ab = <R(f', e_a) f', e_b>_g, shape (N+1, n-1, n-1)."""
    npts, nm1, _ = frames.shape
    K = np.empty((npts, nm1, nm1))
    for a in range(nm1):
        curv = chart.curvature_many(samples, velocities, frames[:, a, :], velocities)
        for b in range(nm1):
            K[:, a, b] = g_dot(chart, samples, curv, frames[:, b, :])
    return 0.5 * (K + np.swapaxes(K, 1, 2))


def _propagate(K_fine: np.ndarray, h_fine: float, record_stride: int):
    """Fundamental matrix of u'' + K(t) u = 0 on the fine grid.

    RK4 with step 2*h_fine (midpoint values are exact fine samples);
    returns the matrices at every ``record_stride`` fine nodes.
    """
    m = K_fine.shape[1]
    dim = 2 * m
    n_fine = K_fine.shape[0] - 1
    if n_fine % 2:
        raise ValueError("fine grid must have an even interval count")
    psi = np.eye(dim)
    records = [psi.copy()]
    h = 2.0 * h_fine

    def rhs(Kt, y):
        out = np.empty_like(y)
        out[:m] = y[m:]
        out[m:] = -Kt @ y[:m]
        return out

    for j in range(0, n_fine, 2):
        K0, K1, K2 = K_fine[j], K_fine[j + 1], K_fine[j + 2]
        k1 = rhs(K0, psi)
        k2 = rhs(K1, psi + 0.5 * h * k1)
        k3 = rhs(K1, psi + 0.5 * h * k2)
        k4 = rhs(K2, psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if (j + 2) % record_stride == 0:
            records.append(psi.copy())
    return np.array(records)


@dataclass
class _EdgeData:
    eid: str
    multiplicity: int
    length: float
    frames: np.ndarray        # coarse nodes, (N+1, n-1, n)
    tangents: np.ndarray      # g-unit tangents at coarse nodes, (N+1, n)
    psi: np.ndarray           # fundamental matrices at coarse nodes
    endpoints_g: tuple        # metric matrices at the two endpoint samples


@dataclass
class ShootingSystem:
    matrix: np.ndarray
    graph_class: GraphClass
    edges: dict[str, _EdgeData]
    z_index: dict[str, int]          # vertex -> column offset (good* only)
    edge_index: dict[str, int]       # edge -> column offset of (u0, ud0)
    dim: int                         # chart dimension
    nm1: int                         # n - 1
    loop_order: list | None = None   # for loop graphs: ordered (eid, forward)


def _edge_fine_data(chart, net, eid, refine):
    s = net.edge_samples[eid]
    shift = net.loop_shift(eid)
    fine = stencils.upsample_curve(s, refine, loop_shift=shift)
    vf = stencils.velocity_ho(fine, loop_shift=shift)
    frames_f = parallel_frame(chart, fine, vf, loop_shift=shift)
    K_f = jacobi_ode_coefficients(chart, fine, vf, frames_f)
    w = stencils.quadrature_weights(fine.shape[0], 1.0 / (fine.shape[0] - 1), loop=shift is not None)
    l_e = float(w @ g_norm(chart, fine, vf))
    return s, fine, vf, frames_f, K_f, l_e


def _edge_data(chart, net, eid, refine):
    e = net.graph.edge(eid)
    s, fine, vf, frames_f, K_f, l_e = _edge_fine_data(chart, net, eid, refine)
    psi = _propagate(K_f, 1.0 / (fine.shape[0] - 1), record_stride=refine)
    frames = frames_f[::refine]
    tang = vf[::refine] / g_norm(chart, fine[::refine], vf[::refine])[:, None]
    g0 = chart.metric(s[0])
    g1 = chart.metric(s[-1])
    return _EdgeData(eid, e.multiplicity, l_e, frames, tang, psi, (g0, g1))


def assemble_jacobi_system(chart: MetricChart, net: GeodesicNet, refine: int = 8,
                           residual_tol: float = 1e-3) -> ShootingSystem:
    """Square linear system whose null space is the reduced Jacobi space."""
    agg = stationarity_residual(chart, net).aggregate
    if agg > residual_tol:
        raise ValueError(f"net is not stationary (residual {agg:.3g})")
    if agg > 0.01 * residual_tol:
        warnings.warn(f"assembling Jacobi system at marginal residual {agg:.3g}")
    gclass = classify(net.graph)
    n = net.dim
    nm1 = n - 1
    edata = {e.id: _edge_data(chart, net, e.id, refine) for e in net.graph.edges}

    if gclass is GraphClass.LOOP_WITH_MULTIPLICITY:
        order = _cycle_order(net.graph)
        mono = np.eye(2 * nm1)
        prev_frames_end = None
        prev_len = None
        first = None
        for eid, forward in order:
            ed = edata[eid]
            phi = ed.psi[-1]
            if not forward:
                rev = np.block(
                    [[np.eye(nm1), np.zeros((nm1, nm1))], [np.zeros((nm1, nm1)), -np.eye(nm1)]]
                )
                phi = rev @ np.linalg.inv(phi) @ rev
            if first is None:
                first = (ed, forward)
            else:
                t = _frame_transfer(chart, net, prev_frames_end, ed, forward, prev_len)
                mono = t @ mono
            mono = phi @ mono
            prev_frames_end = (ed, forward)
            prev_len = ed.length
        ed0, fwd0 = first
        t_close = _frame_transfer(chart, net, prev_frames_end, ed0, fwd0, prev_len)
        mono = t_close @ mono
        a_mat = mono - np.eye(2 * nm1)
        return ShootingSystem(
            matrix=a_mat,
            graph_class=gclass,
            edges=edata,
            z_index={},
            edge_index={order[0][0]: 0},
            dim=n,
            nm1=nm1,
            loop_order=order,
        )

    verts = list(net.graph.vertices)
    z_index = {v: n * k for k, v in enumerate(verts)}
    n_z = n * len(verts)
    edge_index = {}
    col = n_z
    for e in net.graph.edges:
        edge_index[e.id] = col
        col += 2 * nm1
    size = col
    rows = []
    # (a), (b): boundary coupling of each edge to its endpoint vertices
    for e in net.graph.edges:
        ed = edata[e.id]
        c0 = edge_index[e.id]
        phi = ed.psi[-1]
        for i, (gmat, sgn_rows) in enumerate(zip(ed.endpoints_g, (None, phi))):
            block = np.zeros((nm1, size))
            frames_i = ed.frames[0] if i == 0 else ed.frames[-1]
            proj = frames_i @ (ed.endpoints_g[i])  # rows: e_a^T g
            vtx = net.graph.edge(e.id).endpoint(i)
            block[:, z_index[vtx] : z_index[vtx] + n] = -proj
            if i == 0:
                block[:, c0 : c0 + nm1] += np.eye(nm1)
            else:
                block[:, c0 : c0 + 2 * nm1] += phi[:nm1, :]
            rows.append(block)
    # (c): vertex conditions B_v = 0
    for v in verts:
        block = np.zeros((n, size))
        for eid, i in net.graph.incident_pairs(v):
            ed = edata[eid]
            c0 = edge_index[eid]
            sgn = (-1.0) ** (i + 1)
            coef = sgn * ed.multiplicity / ed.length
            frames_i = ed.frames[0] if i == 0 else ed.frames[-1]
            if i == 0:
                # ud(0) occupies the second half of the edge block
                for a in range(nm1):
                    block[:, c0 + nm1 + a] += coef * frames_i[a]
            else:
                phi = ed.psi[-1]
                for a in range(nm1):
                    block[:, c0 : c0 + 2 * nm1] += coef * np.outer(frames_i[a], phi[nm1 + a, :])
        rows.append(block)
    a_mat = np.vstack(rows)
    return ShootingSystem(
        matrix=a_mat,
        graph_class=gclass,
        edges=edata,
        z_index=z_index,
        edge_index=edge_index,
        dim=n,
        nm1=nm1,
    )


def _cycle_order(graph):
    """Ordered traversal (edge id, forward?) of a single-cycle graph."""
    edges = list(graph.edges)
    if len(edges) == 1:
        return [(edges[0].id, True)]
    order = []
    used = set()
    e0 = edges[0]
    order.append((e0.id, True))
    used.add(e0.id)
    v = e0.v1
    while len(order) < len(edges):
        for e in edges:
            if e.id in used:
                continue
            if e.v0 == v:
                order.append((e.id, True))
                v = e.v1
            elif e.v1 == v:
                order.append((e.id, False))
                v = e.v0
            else:
                continue
            used.add(e.id)
            break
        else:
            raise ValueError("graph is not a single cycle")
    return order


def _frame_transfer(chart, net, prev, ed_next, forward_next, prev_len):
    """Transfer matrix for (u, u') across a shared degree-two vertex."""
    ed_prev, fwd_prev = prev
    frames_prev = ed_prev.frames[-1] if fwd_prev else ed_prev.frames[0]
    pt_prev_idx = -1 if fwd_prev else 0
    s_prev = net.edge_samples[ed_prev.eid][pt_prev_idx]
    frames_next = ed_next.frames[0] if forward_next else ed_next.frames[-1]
    gmat = chart.metric(s_prev)
    nm1 = frames_prev.shape[0]
    o = np.empty((nm1, nm1))
    for a in range(nm1):
        for b in range(nm1):
            o[a, b] = frames_prev[b] @ gmat @ frames_next[a]
    ratio = ed_next.length / prev_len
    t = np.zeros((2 * nm1, 2 * nm1))
    t[:nm1, :nm1] = o
    t[nm1:, nm1:] = ratio * o
    return t


# ---------------------------------------------------------------------------
# reduced fields
# ---------------------------------------------------------------------------

@dataclass
class ReducedField:
    """Vertex displacements plus per-edge normal profiles in parallel frames."""

    z: dict[str, np.ndarray]
    u: dict[str, np.ndarray]  # (N+1, n-1)

    def to_net_field(self, chart: MetricChart, net: GeodesicNet) -> NetField:
        vals = {}
        for e in net.graph.edges:
            s = net.edge_samples[e.id]
            shift = net.loop_shift(e.id)
            v = stencils.velocity(s, loop_shift=shift)
            frames = parallel_frame(chart, s, v, loop_shift=shift)
            that = v / g_norm(chart, s, v)[:, None]
            t = np.linspace(0.0, 1.0, s.shape[0])
            if self.z:
                z0 = self.z[e.endpoint(0)]
                z1 = self.z[e.endpoint(1)]
                a0 = float(g_dot(chart, s[0][None, :], z0[None, :], that[0][None, :])[0])
                a1 = float(g_dot(chart, s[-1][None, :], z1[None, :], that[-1][None, :])[0])
                alpha = (1 - t) * a0 + t * a1
            else:
                alpha = np.zeros_like(t)
            vals[e.id] = alpha[:, None] * that + np.einsum("pa,pai->pi", self.u[e.id], frames)
        return NetField(vals)


class Verdict(Enum):
    NONDEGENERATE = "nondegenerate"
    DEGENERATE = "degenerate"


@dataclass
class JacobiKernel:
    dimension: int
    basis: list
    ambient: list
    singular_values: np.ndarray
    threshold: float
    gap: float
    ill_separated: bool


@dataclass
class NondegeneracyVerdict:
    verdict: Verdict
    kernel_dimension: int
    kernel: JacobiKernel

    @property
    def nondegenerate(self) -> bool:
        return self.verdict is Verdict.NONDEGENERATE


def jacobi_kernel(chart: MetricChart, net: GeodesicNet, svd_tol: float = 1e-6,
                  refine: int = 8, residual_tol: float = 1e-3) -> JacobiKernel:
    """Null space of the shooting system, reconstructed to ambient fields."""
    sysm = assemble_jacobi_system(chart, net, refine=refine, residual_tol=residual_tol)
    a_mat = sysm.matrix
    u_svd, svals, vt = np.linalg.svd(a_mat)
    if sysm.graph_class is GraphClass.LOOP_WITH_MULTIPLICITY:
        scale = max(float(svals.max()), float(np.linalg.norm(a_mat + np.eye(a_mat.shape[0]), 2)))
    else:
        scale = float(svals.max())
    threshold = svd_tol * scale
    zero_mask = svals <= threshold
    ratios = svals / scale
    ill = bool(np.any((ratios > svd_tol) & (ratios < 10 * svd_tol)))
    if ill:
        warnings.warn("ill-separated Jacobi kernel: singular values inside the tolerance band")
    kernel_vecs = vt[zero_mask.nonzero()[0], :] if zero_mask.any() else np.zeros((0, a_mat.shape[1]))
    discarded = svals[zero_mask]
    retained = svals[~zero_mask]
    if discarded.size == 0 or retained.size == 0 or discarded.max() == 0.0:
        gap = np.inf
    else:
        gap = float(retained.min() / discarded.max())
    basis = []
    ambient = []
    for vec in kernel_vecs:
        red = _reconstruct(chart, net, sysm, vec)
        basis.append(red)
        ambient.append(red.to_net_field(chart, net))
    return JacobiKernel(
        dimension=len(basis),
        basis=basis,
        ambient=ambient,
        singular_values=svals,
        threshold=threshold,
        gap=gap,
        ill_separated=ill,
    )


def _reconstruct(chart, net, sysm: ShootingSystem, vec: np.ndarray) -> ReducedField:
    n = sysm.dim
    nm1 = sysm.nm1
    if sysm.graph_class is GraphClass.LOOP_WITH_MULTIPLICITY:
        u_profiles = {}
        z = {}
        y0 = vec
        prev = None
        prev_len = None
        first = None
        for eid, forward in sysm.loop_order:
            ed = sysm.edges[eid]
            if first is None:
                first = (ed, forward)
            else:
                t = _frame_transfer(chart, net, prev, ed, forward, prev_len)
                y0 = t @ y0
            prof = np.einsum("tij,j->ti", ed.psi, y0)[:, :nm1]
            if not forward:
                prof = prof[::-1]
            u_profiles[eid] = prof
            y0 = np.einsum("ij,j->i", ed.psi[-1], y0)
            prev = (ed, forward)
            prev_len = ed.length
        for v in net.graph.vertices:
            eid, i = net.graph.incident_pairs(v)[0]
            ed = sysm.edges[eid]
            frames_i = ed.frames[0] if i == 0 else ed.frames[-1]
            uv = u_profiles[eid][0] if i == 0 else u_profiles[eid][-1]
            z[v] = np.einsum("a,ai->i", uv, frames_i)
        return ReducedField(z=z, u=u_profiles)
    z = {v: vec[off : off + n] for v, off in sysm.z_index.items()}
    u_profiles = {}
    for eid, off in sysm.edge_index.items():
        ed = sysm.edges[eid]
        y0 = vec[off : off + 2 * nm1]
        u_profiles[eid] = np.einsum("tij,j->ti", ed.psi, y0)[:, :nm1]
    return ReducedField(z=z, u=u_profiles)


def classify_field(chart: MetricChart, net: GeodesicNet, fld: NetField,
                   tol: float = 1e-7):
    """Split J into tangential h*f' plus normal rest; classify by the rest."""
    profiles = {}
    normal = {}
    max_total = 0.0
    max_perp = 0.0
    for e in net.graph.edges:
        s = net.edge_samples[e.id]
        shift = net.loop_shift(e.id)
        v = stencils.velocity(s, loop_shift=shift)
        vals = fld.edge_values[e.id]
        coef = g_dot(chart, s, vals, v) / g_dot(chart, s, v, v)
        perp = vals - coef[:, None] * v
        profiles[e.id] = coef
        normal[e.id] = perp
        max_total = max(max_total, float(g_norm(chart, s, vals).max()))
        max_perp = max(max_perp, float(g_norm(chart, s, perp).max()))
    kind = "tangential" if max_perp <= tol * max(max_total, 1e-300) else "non-tangential"
    from .net import TangentialField

    return kind, TangentialField(profiles), NetField(normal)


def approximate_embeddedness(chart: MetricChart, net: GeodesicNet,
                             threshold: float | None = None) -> bool:
    """Min pairwise sample distance away from shared vertices must clear
    the threshold (default 1e-3 of the shortest edge)."""
    lengths = net.lengths or edge_lengths(chart, net)
    if threshold is None:
        threshold = 1e-3 * min(lengths.values())
    eids = [e.id for e in net.graph.edges]
    guard = max(2, net.edge_samples[eids[0]].shape[0] // 16)
    for i, e1 in enumerate(eids):
        s1 = net.edge_samples[e1]
        for e2 in eids[i:]:
            s2 = net.edge_samples[e2]
            same = e1 == e2
            for k, p in enumerate(s1):
                d = np.linalg.norm(chart.displacement_many(np.broadcast_to(p, s2.shape), s2), axis=1)
                if same:
                    lo = max(0, k - guard)
                    hi = min(len(d), k + guard + 1)
                    d[lo:hi] = np.inf
                    # periodic edges: the seam pairs are the same point
                    if e1 in net.periodic_edges:
                        if k < guard:
                            d[len(d) - (guard - k) - 1 :] = np.inf
                        if k > len(d) - 1 - guard:
                            d[: guard - (len(d) - 1 - k) + 1] = np.inf
                else:
                    shared = _shared_vertex_windows(net, e1, k, e2, guard)
                    for lo, hi in shared:
                        d[lo:hi] = np.inf
                if np.min(d) < threshold:
                    return False
    return True


def _shared_vertex_windows(net, e1, k, e2, guard):
    """Index windows on e2 to ignore because e1[k] sits near a shared vertex."""
    out = []
    n1 = net.edge_samples[e1].shape[0]
    n2 = net.edge_samples[e2].shape[0]
    ends1 = []
    if k < guard:
        ends1.append(net.graph.edge(e1).endpoint(0))
    if k > n1 - 1 - guard:
        ends1.append(net.graph.edge(e1).endpoint(1))
    for v in ends1:
        if net.graph.edge(e2).endpoint(0) == v:
            out.append((0, guard + 1))
        if net.graph.edge(e2).endpoint(1) == v:
            out.append((n2 - guard - 1, n2))
    return out


def is_nondegenerate(chart: MetricChart, net: GeodesicNet, svd_tol: float = 1e-6,
                     refine: int = 8, residual_tol: float = 1e-3) -> NondegeneracyVerdict:
    gclass = classify(net.graph)
    if gclass is GraphClass.NOT_GOOD:
        raise ValueError("nondegeneracy is only defined for good graphs")
    if gclass is GraphClass.GOOD_STAR and not approximate_embeddedness(chart, net):
        raise ValueError("net failed the approximate embeddedness check")
    ker = jacobi_kernel(chart, net, svd_tol=svd_tol, refine=refine, residual_tol=residual_tol)
    verdict = Verdict.NONDEGENERATE if ker.dimension == 0 else Verdict.DEGENERATE
    return NondegeneracyVerdict(verdict=verdict, kernel_dimension=ker.dimension, kernel=ker)


# ---------------------------------------------------------------------------
# reduced finite-difference Hessian (brute-force oracle)
# ---------------------------------------------------------------------------

def reduced_basis_fields(chart: MetricChart, net: GeodesicNet):
    """Displacement fields spanning the reduced space, with labels.

    good* graphs: full vertex displacements (with linear tangential ramps
    into the incident edges) plus interior normal hats per edge.  Loop
    graphs: normal hats at every sample (vertex motion along the loop is a
    reparametrization and is excluded).
    """
    gclass = classify(net.graph)
    n = net.dim
    fields = []
    labels = []
    frames_by_edge = {}
    for e in net.graph.edges:
        s = net.edge_samples[e.id]
        shift = net.loop_shift(e.id)
        v = stencils.velocity(s, loop_shift=shift)
        frames_by_edge[e.id] = parallel_frame(chart, s, v, loop_shift=shift)

    def zero_field():
        return {e.id: np.zeros_like(net.edge_samples[e.id]) for e in net.graph.edges}

    if gclass is not GraphClass.LOOP_WITH_MULTIPLICITY:
        for vtx in net.graph.vertices:
            for c in range(n):
                vals = zero_field()
                for eid, i in net.graph.incident_pairs(vtx):
                    s = net.edge_samples[eid]
                    t = np.linspace(0.0, 1.0, s.shape[0])
                    ramp = (1 - t) if i == 0 else t
                    vals[eid][:, c] += ramp
                fields.append(NetField(vals))
                labels.append(("z", vtx, c))
    else:
        for vtx in net.graph.vertices:
            eid, i = net.graph.incident_pairs(vtx)[0]
            frames = frames_by_edge[eid]
            fr = frames[0] if i == 0 else frames[-1]
            for a in range(n - 1):
                vals = zero_field()
                for eid2, i2 in net.graph.incident_pairs(vtx):
                    idx = 0 if i2 == 0 else -1
                    vals[eid2][idx] += fr[a]
                fields.append(NetField(vals))
                labels.append(("zn", vtx, a))
    for e in net.graph.edges:
        s = net.edge_samples[e.id]
        frames = frames_by_edge[e.id]
        for j in range(1, s.shape[0] - 1):
            for a in range(n - 1):
                vals = zero_field()
                vals[e.id][j] = frames[j, a]
                fields.append(NetField(vals))
                labels.append(("u", e.id, j, a))
    return fields, labels


class _RefinedLength:
    """Refined-grid length functional, affine in the coarse samples."""

    def __init__(self, chart, net, refine):
        self.chart = chart
        self.net = net
        self.refine = refine
        self.fine_base = {}
        self.t_mats = {}
        for e in net.graph.edges:
            s = net.edge_samples[e.id]
            shift = net.loop_shift(e.id)
            self.fine_base[e.id] = stencils.upsample_curve(s, refine, loop_shift=shift)
            # linear part only: displacement fields never wrap
            self.t_mats[e.id], _ = stencils.upsample_operator(
                s.shape[0], refine, e.id in net.periodic_edges)

    def _fine_net(self, displacement: dict[str, np.ndarray] | None):
        from .net import GeodesicNet as _GN

        fine_samples = {}
        for e, base in self.fine_base.items():
            if displacement is None:
                fine_samples[e] = base
            else:
                fine_samples[e] = base + self.t_mats[e] @ displacement[e]
        return _GN(
            graph=self.net.graph,
            edge_samples=fine_samples,
            vertex_positions=self.net.vertex_positions,
            periodic_edges=self.net.periodic_edges,
        )

    def gradient(self, displacement, fields):
        """Gradient along each basis field at the displaced configuration."""
        from .variation import length_sample_gradient

        grad_fine = length_sample_gradient(self.chart, self._fine_net(displacement))
        grad_coarse = {e: self.t_mats[e].T @ grad_fine[e] for e in grad_fine}
        out = np.empty(len(fields))
        for i, f in enumerate(fields):
            out[i] = sum(float(np.sum(grad_coarse[e] * f.edge_values[e])) for e in grad_coarse)
        return out

    def value(self, displacement):
        from .net import length

        return length(self.chart, self._fine_net(displacement))


def reduced_hessian_fd(chart: MetricChart, net: GeodesicNet, step: float = 1e-5,
                       refine: int = 8, mode: str = "gradient"):
    """Dense symmetric Hessian of the discrete length over the reduced basis.

    mode "gradient": central differences of the exact sample gradient
    (default; accurate enough for kernel counting).  mode "length": plain
    second central differences of the length (slower, noisier; kept as a
    cross-check).
    """
    from .net import displace, length

    fields, labels = reduced_basis_fields(chart, net)
    d = len(fields)
    if step <= 0:
        raise ValueError("invalid step configuration")
    h_mat = np.empty((d, d))
    if mode == "gradient":
        functional = _RefinedLength(chart, net, refine)
        for j in range(d):
            dj = {e: step * v for e, v in fields[j].edge_values.items()}
            gp = functional.gradient(dj, fields)
            dj = {e: -step * v for e, v in fields[j].edge_values.items()}
            gm = functional.gradient(dj, fields)
            h_mat[:, j] = (gp - gm) / (2 * step)
    elif mode == "length":
        functional = _RefinedLength(chart, net, refine)

        def l_of(f1, a, f2, b):
            disp = {
                e: a * f1.edge_values[e] + b * f2.edge_values[e]
                for e in f1.edge_values
            }
            return functional.value(disp)

        for i in range(d):
            for j in range(i, d):
                val = (
                    l_of(fields[i], step, fields[j], step)
                    - l_of(fields[i], step, fields[j], -step)
                    - l_of(fields[i], -step, fields[j], step)
                    + l_of(fields[i], -step, fields[j], -step)
                ) / (4 * step * step)
                h_mat[i, j] = val
                h_mat[j, i] = val
    else:
        raise ValueError(f"unknown mode {mode!r}")
    h_mat = 0.5 * (h_mat + h_mat.T)
    return h_mat, labels


def reduced_kernel_dimension(h_mat: np.ndarray, svd_tol: float = 1e-6):
    """Kernel count of the reduced Hessian with the same tolerance rule."""
    svals = np.linalg.svd(h_mat, compute_uv=False)
    scale = float(svals.max())
    zero = svals <= svd_tol * scale
    discarded = svals[zero]
    retained = svals[~zero]
    gap = np.inf if (discarded.size == 0 or retained.size == 0 or discarded.max() == 0.0) else float(
        retained.min() / discarded.max()
    )
    return int(zero.sum()), svals, gap


def random_reduced_field(chart: MetricChart, net: GeodesicNet, rng, modes: int = 3,
                         normalize: bool = True) -> NetField:
    """Random element of the reduced displacement space as an ambient field.

    good* graphs: full vertex displacements interpolated linearly into the
    edges plus random interior normal profiles; loop graphs: random
    periodic normal profiles.  Lies exactly in the span of
    ``reduced_basis_fields``.
    """
    gclass = classify(net.graph)
    z = {}
    if gclass is not GraphClass.LOOP_WITH_MULTIPLICITY:
        z = {v: rng.normal(size=net.dim) for v in net.graph.vertices}
    vals = {}
    for e in net.graph.edges:
        s = net.edge_samples[e.id]
        npts = s.shape[0]
        t = np.linspace(0.0, 1.0, npts)
        shift = net.loop_shift(e.id)
        v = stencils.velocity(s, loop_shift=shift)
        frames = parallel_frame(chart, s, v, loop_shift=shift)
        out = np.zeros_like(s, dtype=float)
        prof = np.zeros((npts, net.dim - 1))
        if z:
            out += np.outer(1 - t, z[e.endpoint(0)]) + np.outer(t, z[e.endpoint(1)])
            for k in range(1, modes + 1):
                prof += np.outer(np.sin(np.pi * k * t), rng.normal(size=net.dim - 1))
        else:
            for k in range(1, modes + 1):
                prof += np.outer(np.sin(2 * np.pi * k * t), rng.normal(size=net.dim - 1))
                prof += np.outer(np.cos(2 * np.pi * k * t), rng.normal(size=net.dim - 1))
        out += np.einsum("pa,pai->pi", prof, frames)
        vals[e.id] = out
    fld = NetField(vals)
    if normalize:
        mx = fld.max_norm(chart, net)
        if mx > 0:
            fld = fld.scaled(1.0 / mx)
    return fld
