"""Jacobi fields of stationary nets and the nondegeneracy verdict.

A Jacobi field splits per edge into a tangential part (linear
interpolation of the vertex displacements, which never enters the
equations) and a normal part u expressed in a parallel orthonormal frame,
where it solves  u'' + K(t) u = 0  with K the curvature coefficient
matrix.  The kernel is found by shooting: unknowns are the vertex
displacements plus per-edge initial data (u(0), u'(0)); equations couple
the propagated boundary values back to the vertices and impose the signed
sum of perpendicular endpoint derivatives at every vertex.

A loop graph is one self-loop edge.  It drops the vertex unknowns: moving
the marked vertex along the loop is a reparametrization, so the system
reduces to periodicity of (u, u') through the edge's monodromy and the
frame holonomy at the seam.  Both the shooting system and the reduced
Hessian refuse not-good graphs.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from . import stencils
from .geometry import (
    _ROT90,
    MetricChart,
    _dot,
    curvature_apply,
    curvature_form,
    g_norm,
    linear_rk4_flow,
    metric_dot,
    metric_norm,
    min_distance,
    parallel_transport,
)
from .multigraph import GraphClass, WeightedMultigraph, classify
from .net import GeodesicNet, NetField, TangentialField, edge_lengths
from .variation import (
    edge_length_gradient,
    integrate_length_terms,
    stationarity_gate,
)

__all__ = [
    "ReducedField",
    "JacobiKernel",
    "parallel_frame",
    "jacobi_ode_coefficients",
    "assemble_jacobi_system",
    "jacobi_kernel",
    "classify_field",
    "is_nondegenerate",
    "ReducedBasis",
    "fd_hessian",
    "reduced_hessian_fd",
    "reduced_basis_fields",
    "reduced_gradient",
    "random_reduced_field",
    "approximate_embeddedness",
]

# The default kernel rule: a singular value counts as zero at most SVD_TOL
# times the largest, on a net the stationarity gate passes at RESIDUAL_TOL.
# The shooting system is propagated on the grid SHOOTING_REFINE times finer
# (even: one RK4 step spans two fine intervals), and the reduced Hessian
# oracle works on the grid ORACLE_REFINE times finer.
SVD_TOL = 1e-6
RESIDUAL_TOL = 1e-3
SHOOTING_REFINE = 8
ORACLE_REFINE = 8
# classify_field calls a field tangential when its normal part is at most
# this fraction of it.
TANGENTIAL_TOL = 1e-7
# Most fine sample rows one stacked pass of fd_hessian's probes may hold:
# bounds its memory whatever the number of probes.  A probe larger than
# this is passed alone.
MAX_STACKED_ROWS = 8192

# ---------------------------------------------------------------------------
# frames and curvature coefficients
# ---------------------------------------------------------------------------

def parallel_frame(chart: MetricChart, samples: np.ndarray, velocities: np.ndarray) -> np.ndarray:
    """g-orthonormal parallel normal frame along a geodesic edge.

    Returns (N+1, n-1, n).  In two dimensions the frame is the continuous
    g-unit normal, which is parallel along any geodesic; in higher
    dimensions the initial normal space is transported.
    """
    n = samples.shape[1]
    if n == 2:
        return _normal_frame(chart.factor_jet_many(samples, 0)[0], velocities)
    # g is conformal: Euclidean Gram-Schmidt, then g-unit vectors
    basis = [velocities[0]]
    for w in np.eye(n):
        for b in basis:
            w = w - (w @ b) / (b @ b) * b
        if np.linalg.norm(w) > 1e-8:
            basis.append(w / np.linalg.norm(w))
        if len(basis) == n:
            break
    lam0 = chart.factor_jet_many(samples[:1], 0)[0][0]
    return parallel_transport(chart, samples, velocities, np.array(basis[1:]) / np.sqrt(lam0))


def _normal_frame(lam: np.ndarray, velocities: np.ndarray) -> np.ndarray:
    """The planar ``parallel_frame`` from the conformal factors lam at the
    samples: the quarter-turned velocity, which is g-normal, made g-unit."""
    raw = np.einsum("ij,pj->pi", _ROT90, velocities)
    return (raw / metric_norm(lam, raw)[:, None])[:, None, :]


def jacobi_ode_coefficients(chart: MetricChart, samples: np.ndarray, velocities: np.ndarray,
                            frames: np.ndarray) -> np.ndarray:
    """K(t)_ab = <R(f', e_a) f', e_b>_g, shape (N+1, n-1, n-1), from one
    factor jet."""
    lam, dphi, ddphi = chart.factor_jet_many(samples, 2)
    vel = velocities[:, None, :]
    curv = curvature_apply(curvature_form(dphi, ddphi)[:, None], vel, frames, vel)
    K = lam[:, None, None] * _dot(curv[:, :, None], frames[:, None])
    return 0.5 * (K + np.swapaxes(K, 1, 2))


def _propagate(K_fine: np.ndarray, h_fine: float, record_stride: int):
    """Fundamental matrix of u'' + K(t) u = 0 on the fine grid.

    RK4 with step 2*h_fine (midpoint values are exact fine samples), as
    one ``linear_rk4_flow`` of y = (u, u'), y' = [[0, I], [-K, 0]] y;
    returns the matrices at every ``record_stride`` fine nodes.
    """
    m = K_fine.shape[1]
    if (K_fine.shape[0] - 1) % 2 or record_stride % 2:
        raise ValueError("fine grid and record stride must span an even interval count")
    a_mat = np.zeros((K_fine.shape[0], 2 * m, 2 * m))
    a_mat[:, :m, m:] = np.eye(m)
    a_mat[:, m:, :m] = -K_fine
    psi = linear_rk4_flow(a_mat[::2], a_mat[1::2], 2.0 * h_fine)
    return psi[:: record_stride // 2]


@dataclass
class _EdgeData:
    multiplicity: int
    length: float
    frames: np.ndarray        # coarse nodes, (N+1, n-1, n)
    psi: np.ndarray           # fundamental matrices at coarse nodes
    endpoints_lam: tuple      # conformal factors at the two endpoint samples


@dataclass
class ShootingSystem:
    matrix: np.ndarray
    graph_class: GraphClass
    edges: dict[str, _EdgeData]
    z_index: dict[str, int]          # vertex -> column offset (good* only)
    edge_index: dict[str, int]       # edge -> column offset of (u0, ud0)
    dim: int                         # chart dimension
    nm1: int                         # n - 1


def _edge_fine_data(chart, net, eid, refine):
    s = net.edge_samples[eid]
    loop = eid in net.periodic_edges
    fine = stencils.upsample_curve(s, refine, loop=loop)
    vf = stencils.velocity_ho(fine, loop=loop)
    frames_f = parallel_frame(chart, fine, vf)
    K_f = jacobi_ode_coefficients(chart, fine, vf, frames_f)
    w = stencils.quadrature_weights(fine.shape[0], loop=loop)
    l_e = float(w @ g_norm(chart, fine, vf))
    return s, fine, vf, frames_f, K_f, l_e


def _edge_data(chart, net, eid, refine):
    s, fine, vf, frames_f, K_f, l_e = _edge_fine_data(chart, net, eid, refine)
    psi = _propagate(K_f, 1.0 / (fine.shape[0] - 1), record_stride=refine)
    return _EdgeData(net.graph.edge(eid).multiplicity, l_e, frames_f[::refine], psi,
                     tuple(chart.factor_jet_many(s[[0, -1]], 0)[0]))


def _good_class(graph: WeightedMultigraph) -> GraphClass:
    """``classify(graph)``, refusing a not-good graph: both the shooting
    system and the reduced space are defined for good graphs only."""
    gclass = classify(graph)
    if gclass is GraphClass.NOT_GOOD:
        raise ValueError("nondegeneracy is only defined for good graphs")
    return gclass


def assemble_jacobi_system(chart: MetricChart, net: GeodesicNet,
                           residual_tol: float = RESIDUAL_TOL) -> ShootingSystem:
    """Square linear system whose null space is the reduced Jacobi space,
    propagated on the grid ``SHOOTING_REFINE`` times finer.  A not-good
    graph is refused with a ValueError.
    """
    gclass = _good_class(net.graph)
    stationarity_gate(chart, net, residual_tol, "assembling Jacobi system at marginal residual {:.3g}")
    n = net.dim
    nm1 = n - 1
    edges = net.graph.edges
    edata = {e.id: _edge_data(chart, net, e.id, SHOOTING_REFINE) for e in edges}

    if gclass is GraphClass.LOOP_WITH_MULTIPLICITY:
        # one self-loop edge: (u, u') after the edge's flow, carried back
        # into the frame at the start by the seam holonomy, the overlap of
        # the end and start frames in the metric at the seam
        (eid,) = edata
        ed = edata[eid]
        hol = np.zeros((2 * nm1, 2 * nm1))
        hol[:nm1, :nm1] = ed.endpoints_lam[1] * (ed.frames[0] @ ed.frames[-1].T)
        hol[nm1:, nm1:] = hol[:nm1, :nm1]
        return ShootingSystem(matrix=hol @ ed.psi[-1] - np.eye(2 * nm1), graph_class=gclass,
                              edges=edata, z_index={}, edge_index={eid: 0}, dim=n, nm1=nm1)

    verts = net.graph.vertices
    z_index = {v: n * k for k, v in enumerate(verts)}
    n_z = n * len(verts)
    edge_index = {e.id: n_z + 2 * nm1 * k for k, e in enumerate(edges)}
    size = n_z + 2 * nm1 * len(edges)
    a_mat = np.zeros((size, size))
    # (a), (b): boundary coupling of each edge end to its vertex, nm1 rows each
    for k, e in enumerate(edges):
        ed, c0 = edata[e.id], edge_index[e.id]
        for i, frames_i in ((0, ed.frames[0]), (1, ed.frames[-1])):
            rows = a_mat[(2 * k + i) * nm1 : (2 * k + i + 1) * nm1]
            z0 = z_index[e.endpoint(i)]
            rows[:, z0 : z0 + n] = -ed.endpoints_lam[i] * frames_i  # rows: e_a^T g
        a_mat[2 * k * nm1 : (2 * k + 1) * nm1, c0 : c0 + nm1] = np.eye(nm1)
        a_mat[(2 * k + 1) * nm1 : (2 * k + 2) * nm1, c0 : c0 + 2 * nm1] = ed.psi[-1][:nm1]
    # (c): vertex conditions B_v = 0, n rows each
    for v in verts:
        r0 = 2 * nm1 * len(edges) + z_index[v]
        rows = a_mat[r0 : r0 + n]
        for eid, i in net.graph.incident_pairs(v):
            ed, c0 = edata[eid], edge_index[eid]
            coef = (-1.0) ** (i + 1) * ed.multiplicity / ed.length
            if i == 0:
                # ud(0) occupies the second half of the edge block
                rows[:, c0 + nm1 : c0 + 2 * nm1] += coef * ed.frames[0].T
            else:
                rows[:, c0 : c0 + 2 * nm1] += coef * (ed.frames[-1].T @ ed.psi[-1][nm1:])
    return ShootingSystem(matrix=a_mat, graph_class=gclass, edges=edata, z_index=z_index,
                          edge_index=edge_index, dim=n, nm1=nm1)


# ---------------------------------------------------------------------------
# reduced fields
# ---------------------------------------------------------------------------

@dataclass
class ReducedField:
    """Vertex displacements plus per-edge normal profiles in parallel frames."""

    z: dict[str, np.ndarray]
    u: dict[str, np.ndarray]  # (N+1, n-1)


def _ambient_fields(chart: MetricChart, net: GeodesicNet, fields: list) -> list[NetField]:
    """The ambient displacement of every reduced field: the tangential
    ramp between its vertex displacements plus its normal profiles.  Each
    edge's velocity, parallel frame and unit tangent, which depend on the
    net only, are computed once for all of them."""
    vals = [{} for _ in fields]
    for e in net.graph.edges:
        s = net.edge_samples[e.id]
        v = stencils.velocity(s, loop=e.id in net.periodic_edges)
        frames = parallel_frame(chart, s, v)
        that = v / g_norm(chart, s, v)[:, None]
        t = np.linspace(0.0, 1.0, s.shape[0])
        ends = [chart.factor_jet_many(s[k][None, :], 0)[0] for k in (0, -1)]
        for fld, out in zip(fields, vals):
            z0 = fld.z[e.endpoint(0)]
            z1 = fld.z[e.endpoint(1)]
            a0 = float(metric_dot(ends[0], z0[None, :], that[0][None, :])[0])
            a1 = float(metric_dot(ends[1], z1[None, :], that[-1][None, :])[0])
            alpha = (1 - t) * a0 + t * a1
            out[e.id] = alpha[:, None] * that + np.einsum("pa,pai->pi", fld.u[e.id], frames)
    return [NetField(v) for v in vals]


@dataclass
class JacobiKernel:
    dimension: int
    basis: list
    ambient: list
    singular_values: np.ndarray
    threshold: float
    gap: float
    ill_separated: bool

    @property
    def nondegenerate(self) -> bool:
        """The verdict: the net is nondegenerate when its kernel is empty."""
        return self.dimension == 0


def jacobi_kernel(chart: MetricChart, net: GeodesicNet, svd_tol: float = SVD_TOL,
                  residual_tol: float = RESIDUAL_TOL) -> JacobiKernel:
    """Null space of the shooting system, reconstructed to ambient fields."""
    sysm = assemble_jacobi_system(chart, net, residual_tol=residual_tol)
    a_mat = sysm.matrix
    _, svals, vt = np.linalg.svd(a_mat)
    if sysm.graph_class is GraphClass.LOOP_WITH_MULTIPLICITY:
        scale = max(float(svals.max()), float(np.linalg.norm(a_mat + np.eye(a_mat.shape[0]), 2)))
    else:
        scale = float(svals.max())
    zero_mask, threshold, gap = _split_spectrum(svals, svd_tol, scale)
    ratios = svals / scale
    ill = bool(np.any((ratios > svd_tol) & (ratios < 10 * svd_tol)))
    if ill:
        warnings.warn("ill-separated Jacobi kernel: singular values inside the tolerance band")
    basis = [_reconstruct(chart, net, sysm, vec) for vec in vt[zero_mask]]
    return JacobiKernel(
        dimension=len(basis),
        basis=basis,
        ambient=_ambient_fields(chart, net, basis),
        singular_values=svals,
        threshold=threshold,
        gap=gap,
        ill_separated=ill,
    )


def _split_spectrum(svals: np.ndarray, svd_tol: float, scale: float):
    """The kernel rule of both certification routes: (mask of the singular
    values at most svd_tol * scale, that threshold, the gap between the
    smallest kept and the largest discarded value, inf without both)."""
    threshold = svd_tol * scale
    zero = svals <= threshold
    discarded = svals[zero]
    retained = svals[~zero]
    if discarded.size == 0 or retained.size == 0 or discarded.max() == 0.0:
        return zero, threshold, np.inf
    return zero, threshold, float(retained.min() / discarded.max())


def _reconstruct(chart, net, sysm: ShootingSystem, vec: np.ndarray) -> ReducedField:
    nm1 = sysm.nm1
    u_profiles = {eid: np.einsum("tij,j->ti", sysm.edges[eid].psi, vec[off : off + 2 * nm1])[:, :nm1]
                  for eid, off in sysm.edge_index.items()}
    if sysm.graph_class is GraphClass.LOOP_WITH_MULTIPLICITY:
        # the marked vertex moves with the loop's normal profile at t = 0
        ((eid, prof),) = u_profiles.items()
        (v,) = net.graph.vertices
        return ReducedField(z={v: np.einsum("a,ai->i", prof[0], sysm.edges[eid].frames[0])},
                            u=u_profiles)
    z = {v: vec[off : off + sysm.dim] for v, off in sysm.z_index.items()}
    return ReducedField(z=z, u=u_profiles)


def classify_field(chart: MetricChart, net: GeodesicNet, fld: NetField):
    """Split J into tangential h*f' plus normal rest; classify by the rest,
    tangential when its max norm is at most ``TANGENTIAL_TOL`` of J's."""
    profiles = {}
    normal = {}
    max_total = 0.0
    max_perp = 0.0
    for e in net.graph.edges:
        s = net.edge_samples[e.id]
        v = stencils.velocity(s, loop=e.id in net.periodic_edges)
        vals = fld.edge_values[e.id]
        coef = _dot(vals, v) / _dot(v, v)  # the g-projection of a conformal g
        perp = vals - coef[:, None] * v
        profiles[e.id] = coef
        normal[e.id] = perp
        max_total = max(max_total, float(g_norm(chart, s, vals).max()))
        max_perp = max(max_perp, float(g_norm(chart, s, perp).max()))
    kind = "tangential" if max_perp <= TANGENTIAL_TOL * max(max_total, 1e-300) else "non-tangential"
    return kind, TangentialField(profiles), NetField(normal)


def approximate_embeddedness(chart: MetricChart, net: GeodesicNet,
                             threshold: float | None = None) -> bool:
    """Min pairwise sample distance away from shared vertices must clear
    the threshold (default 1e-3 of the shortest edge)."""
    if threshold is None:
        threshold = 1e-3 * min(edge_lengths(chart, net).values())
    eids = [e.id for e in net.graph.edges]
    for i, e1 in enumerate(eids):
        for e2 in eids[i:]:
            gap = min_distance(chart, net.edge_samples[e1], net.edge_samples[e2],
                               lambda k: _ignored_pairs(net, e1, k, e2))
            if gap < threshold:
                return False
    return True


def _ignored_pairs(net, e1, k, e2):
    """Mask (len(k), samples of e2) of the pairs of sample k of e1 and a
    sample of e2 that are near by construction.  An edge's guard is
    max(2, samples // 16).  A pair is exempt when both samples are on one
    edge at most its guard apart, or when each is closer than its own
    edge's guard to an end at a vertex both edges share.  The two ends of a
    self-loop are such a pair, which covers the seam of a periodic edge.
    The rule is symmetric, so the order of the edges does not matter."""
    n1 = net.edge_samples[e1].shape[0]
    n2 = net.edge_samples[e2].shape[0]
    g1, g2 = max(2, n1 // 16), max(2, n2 // 16)
    k = k[:, None]
    j = np.arange(n2)[None, :]
    mask = np.abs(j - k) <= g1 if e1 == e2 else np.zeros((k.shape[0], n2), dtype=bool)
    edge1, edge2 = net.graph.edge(e1), net.graph.edge(e2)
    for near, v in ((k < g1, edge1.endpoint(0)), (k > n1 - 1 - g1, edge1.endpoint(1))):
        for far, w in ((j < g2, edge2.endpoint(0)), (j > n2 - 1 - g2, edge2.endpoint(1))):
            if v == w:
                mask |= near & far
    return mask


def is_nondegenerate(chart: MetricChart, net: GeodesicNet, svd_tol: float = SVD_TOL,
                     residual_tol: float = RESIDUAL_TOL) -> JacobiKernel:
    """The Jacobi kernel whose ``nondegenerate`` is the verdict, after the
    approximate embeddedness check of a star net (a ValueError if it fails)."""
    if classify(net.graph) is GraphClass.GOOD_STAR and not approximate_embeddedness(chart, net):
        raise ValueError("net failed the approximate embeddedness check")
    return jacobi_kernel(chart, net, svd_tol=svd_tol, residual_tol=residual_tol)


# ---------------------------------------------------------------------------
# the exact reduced Hessian (brute-force oracle)
# ---------------------------------------------------------------------------

@dataclass
class ReducedBasis:
    """The reduced displacement space of a net, as one linear map B.

    Displacements and gradients are laid out as ``net.edge_groups()`` stacks
    the samples: per group, (E, N+1, n).  B's first ``n_vertex`` columns are
    dense: vertex displacements with linear ramps into the incident edges
    (on loop graphs, the normal motion of the marked vertex), stored as one
    block over the edge samples in graph order.  Every other column is a
    hat: frame vector a at interior sample j of edge E, at column
    ``hat_offset[E] + (j - 1) * (n - 1) + a``.  B maps any number of
    coefficient rows at once.
    """

    frames: tuple                     # per group, (E, N+1, n-1, n)
    vertex_block: np.ndarray          # (sum over edges of (N+1) * n, n_vertex)
    ids: tuple                        # per group, its edge ids
    index: tuple                      # per group, block rows (E, (N+1) n), hat columns (E, (N-1)(n-1))
    hat_offset: Mapping[str, int]
    labels: tuple                     # one per column

    @property
    def n_vertex(self) -> int:
        return self.vertex_block.shape[-1]

    def __len__(self) -> int:
        return len(self.labels)

    def apply(self, coef: np.ndarray) -> NetField:
        """B @ coef as a displacement field."""
        vals = {}
        for ids, stack in zip(self.ids, self.apply_many(coef[None])):
            vals.update(zip(ids, stack))
        return NetField({e: vals[e] for e in self.hat_offset})

    def apply_many(self, coefs: np.ndarray) -> list[np.ndarray]:
        """B @ coef for every row of coefs (P, d), in the group layout: per
        group, (P * E, N+1, n).  Each row is the same matrix-vector product
        as alone."""
        p = len(coefs)
        flat = np.matmul(self.vertex_block, coefs[:, : self.n_vertex, None])[..., 0]
        out = []
        for fr, (rows, hats) in zip(self.frames, self.index):
            e, (m, nm1, n) = len(rows), fr.shape[1:]
            vals = flat[:, rows].reshape(p, e, m, n)
            c = coefs[:, hats].reshape(p, e, m - 2, nm1, 1)
            vals[:, :, 1:-1] += (c * fr[:, 1:-1]).sum(axis=-2)
            out.append(vals.reshape(p * e, m, n))
        return out

    def pullback_many(self, grads: list[np.ndarray]) -> np.ndarray:
        """B^T g for P gradients in the group layout, per group (P * E, N+1,
        n): (P, d).  Each row's vertex part is the same ``block.T @ g``
        product as alone, over the samples in graph order."""
        p = len(grads[0]) // len(self.ids[0])
        flat = np.empty((p, len(self.vertex_block)))
        out = np.empty((p, len(self)))
        for g, fr, (rows, hats) in zip(grads, self.frames, self.index):
            e, (m, nm1, n) = len(rows), fr.shape[1:]
            g = g.reshape(p, e, m, n)
            flat[:, rows] = g.reshape(p, e, m * n)
            hat = (g[:, :, 1:-1, None, :] * fr[:, 1:-1]).sum(axis=-1)
            out[:, hats] = hat.reshape(p, e, -1)
        for c in range(p):
            out[c, : self.n_vertex] = self.vertex_block.T @ flat[c]
        return out


def reduced_basis_fields(chart: MetricChart, net: GeodesicNet):
    """The map B spanning the reduced space, with one label per column.

    good* graphs: full vertex displacements (with linear tangential ramps
    into the incident edges) plus interior normal hats per edge.  Loop
    graphs: normal hats at every sample (vertex motion along the loop is a
    reparametrization and is excluded).  B is the basis of ``reduced_gradient``.
    """
    basis, _ = reduced_gradient(chart, net)
    return basis, list(basis.labels)


def reduced_gradient(chart: MetricChart, net: GeodesicNet):
    """(B, B^T grad L): the reduced basis and the reduced length gradient.

    One velocity and one factor jet per edge group feed both the frames and
    the gradient, which is bitwise the pullback of ``length_sample_gradient``.
    """
    groups = net.edge_groups()
    frames, grads = [], []
    for grp in groups:
        v, lam, grad = edge_length_gradient(chart, grp)
        if net.dim == 2:
            fr = _normal_frame(lam, v.reshape(-1, 2)).reshape(v.shape[:2] + (1, 2))
        else:
            fr = np.array([parallel_frame(chart, s, vel) for s, vel in zip(grp.samples, v)])
        frames.append(fr)
        grads.append(grad)
    ids = tuple(grp.ids for grp in groups)
    block, index, hat_offset, labels = _basis_layout(
        net.graph, tuple((i, grp.samples.shape[1]) for i, grp in zip(ids, groups)), net.dim)
    if block is None:
        # a loop graph is one self-loop edge: its marked vertex moves both
        # end samples along the frame at the seam
        fr = frames[0][0, 0].T
        block = np.zeros((index[0][0].size, net.dim - 1))
        block[: net.dim] += fr
        block[-net.dim :] += fr
    basis = ReducedBasis(tuple(frames), block, ids, index, hat_offset, labels)
    return basis, basis.pullback_many(grads)[0]


@lru_cache(maxsize=32)
def _basis_layout(graph: WeightedMultigraph, groups: tuple, n: int):
    """The part of B that depends only on the graph, the edge groups
    ((edge ids, sample count) per group) and the dimension: (vertex block,
    per-group index, hat offsets, labels).

    The vertex block is the read-only ramp block (rows, n_vertex) of
    good* graphs; on loop graphs it is None, because there it is the marked
    vertex's frame.
    """
    counts = {e: m for ids, m in groups for e in ids}
    order = [e.id for e in graph.edges]
    start = dict(zip(order, np.cumsum([0] + [n * counts[e] for e in order])))
    if classify(graph) is GraphClass.LOOP_WITH_MULTIPLICITY:
        labels = [("zn", vtx, a) for vtx in graph.vertices for a in range(n - 1)]
        block = None
    else:
        labels = [("z", vtx, c) for vtx in graph.vertices for c in range(n)]
        block = np.zeros((n * sum(counts.values()), len(labels)))
        for k, (_, vtx, c) in enumerate(labels):
            for eid, i in graph.incident_pairs(vtx):
                t = np.linspace(0.0, 1.0, counts[eid])
                block[start[eid] + c : start[eid] + n * counts[eid] : n, k] += (1 - t) if i == 0 else t
        block.flags.writeable = False
    hat_offset = {}
    for e in graph.edges:
        hat_offset[e.id] = len(labels)
        labels.extend(("u", e.id, j, a) for j in range(1, counts[e.id] - 1) for a in range(n - 1))
    index = tuple((np.array([start[e] + np.arange(m * n) for e in ids]),
                   np.array([hat_offset[e] + np.arange((m - 2) * (n - 1)) for e in ids]))
                  for ids, m in groups)
    for arr in (a for pair in index for a in pair):
        arr.flags.writeable = False
    return block, index, MappingProxyType(hat_offset), tuple(labels)


@lru_cache(maxsize=32)
def _hat_colouring(n_samples: int, refine: int, loop: bool):
    """Curtis-Powell-Reid colouring of the interior samples of an edge.

    Returns (colour, coupled): for interior sample j, ``colour[j - 1]`` and
    the interior indices (j' - 1) of the samples coupled to it, which are
    the hat rows its columns can reach.  Two samples get the same colour
    only when no interior sample is coupled to both, so one perturbation
    of a whole colour class determines every hat entry it touches.  No
    row is coupled to two samples ``width`` apart: ``width`` is the widest
    coupled window of an open edge, and 2k + 1 for the circulant band of
    half-width k of a loop.  A sample's colour is its offset in blocks of
    at least ``width`` positions: consecutive blocks of ``width`` on an
    open edge; on a loop, the n - 1 positions around it (the vertex last)
    cut into q = floor((n - 1) / width) balanced blocks, or one block when
    q < 2, so at most ceil((n - 1) / q) colours.
    """
    lo, hi = stencils.hessian_coupling(n_samples, refine, loop)
    m, n_int = n_samples - 1, n_samples - 2
    coupled = []
    for j in range(1, n_samples - 1):
        q = np.arange(lo[j], hi[j] + 1)
        if loop:
            # a window of n - 1 consecutive samples already covers the loop
            q = q[:m] % m
        coupled.append(q[(q >= 1) & (q <= n_int)] - 1)
    width = 2 * int(hi[0]) + 1 if loop else max(int(r[-1] - r[0]) + 1 for r in coupled)
    blocks = max(m // width, 1) if loop else -(-n_int // width)
    starts = np.arange(blocks) * (m if loop else blocks * width) // blocks
    k = np.arange(n_int)
    colour = k - starts[np.searchsorted(starts, k, "right") - 1]
    colour.flags.writeable = False
    return colour, tuple(coupled)


def _hat_groups(basis: ReducedBasis, net: GeodesicNet, refine: int):
    """Hat columns by colour: per colour, (its columns, and the row and
    column indices of the hat entries it determines).  Cached on the basis
    layout."""
    return _colour_classes(tuple((net.edge_samples[e].shape[0], net.dim - 1,
                                  e in net.periodic_edges, off)
                                 for e, off in basis.hat_offset.items()), refine)


@lru_cache(maxsize=32)
def _colour_classes(layout: tuple, refine: int):
    """``_hat_groups`` for the layout (samples, n - 1, loop, hat offset) per edge."""
    groups = {}
    for npts, nm1, loop, off in layout:
        colour, coupled = _hat_colouring(npts, refine, loop)
        for j, reach in enumerate(coupled):
            rows = off + (reach[:, None] * nm1 + np.arange(nm1)).ravel()
            for a in range(nm1):
                groups.setdefault(colour[j] * nm1 + a, []).append((off + j * nm1 + a, rows))
    out = []
    for c in sorted(groups):
        cols = np.array([col for col, _ in groups[c]])
        rows = np.concatenate([r for _, r in groups[c]])
        at = np.concatenate([np.full(r.size, col) for col, r in groups[c]])
        for arr in (cols, rows, at):
            arr.flags.writeable = False
        out.append((cols, rows, at))
    return tuple(out)


class _RefinedLength:
    """Exact Hessian-vector products of the refined-grid length.

    The fine samples are the upsampled net x0 plus T times the
    displacement, and the coarse gradient is T^T times the fine one; at
    refine 1, T is the identity and is not formed.  Only the
    ``length_integrand`` is nonlinear, so a probe delta takes dx = T delta,
    dv = D dx, the derivatives of the terms at x0 and v0 = D x0, the linear
    part and T^T, each once.  With speed s = e^phi |v|, vh = v / |v|, p =
    grad(phi).dx and q = vh.dv: ds = s (p + q / |v|), da = w (ds grad(phi)
    + s Hess(phi) dx) and du = e^phi (p vh + (dv - q vh) / |v|).  The
    factor jet at x0 is evaluated once, here."""

    def __init__(self, chart, net, refine):
        self.groups = net.edge_groups()
        self.base = []
        for grp in self.groups:
            x0 = stencils.upsample_curve(grp.samples, refine, loop=grp.loop)
            v0 = stencils.velocity(x0, loop=grp.loop)
            w = stencils.quadrature_weights(x0.shape[1], loop=grp.loop)
            lam, dphi, ddphi = chart.factor_jet_many(x0.reshape(-1, x0.shape[-1]), 2)
            ef = np.sqrt(lam).reshape(x0.shape[:2])
            inv = 1.0 / np.linalg.norm(v0, axis=-1)
            ws = w * ef / inv
            self.base.append((w, ef, inv, ws, dphi.reshape(x0.shape), v0 * inv[..., None],
                              ws[..., None, None] * ddphi.reshape(x0.shape + x0.shape[-1:])))
        # linear part only: displacement fields never wrap
        self.t_mats = [None if refine == 1 else
                       stencils.upsample_operator(grp.samples.shape[1], refine, grp.loop)[0]
                       for grp in self.groups]

    def products(self, disp: list[np.ndarray]) -> list[np.ndarray]:
        """H delta in the coarse samples, for K probe displacements delta in
        the group layout of ``ReducedBasis``: disp and the result hold (K *
        E, N+1, n) per group.  Each probe's rows get the same operations as
        alone."""
        out = []
        for grp, base, t_mat, d in zip(self.groups, self.base, self.t_mats, disp):
            dx = d if t_mat is None else t_mat @ d
            dv = stencils.velocity(dx, loop=grp.loop)
            mult = np.tile(grp.multiplicities, dx.shape[0] // len(grp.ids))
            grad = integrate_length_terms(*_integrand_derivative(base, dx, dv), base[0],
                                          grp.loop, mult)
            out.append(grad if t_mat is None else t_mat.T @ grad)
        return out


def _integrand_derivative(base, dx: np.ndarray, dv: np.ndarray):
    """(da, du), the derivatives of the ``length_integrand`` terms a and u
    at the base of ``_RefinedLength`` in the directions (dx, dv) of K
    stacked probes (K * E, M, n), one coordinate at a time."""
    _, ef, inv, ws, dphi, vh, ws_hess = base
    n = dx.shape[-1]
    x, v = dx.reshape((-1,) + dphi.shape), dv.reshape((-1,) + dphi.shape)
    p = sum(dphi[..., i] * x[..., i] for i in range(n))
    q = sum(vh[..., i] * v[..., i] for i in range(n))
    w_ds, t = ws * (p + q * inv), ef * (p - q * inv)
    da, du = np.empty(x.shape), np.empty(x.shape)
    for i in range(n):
        da[..., i] = w_ds * dphi[..., i] + sum(ws_hess[..., i, j] * x[..., j] for j in range(n))
        du[..., i] = t * vh[..., i] + ef * inv * v[..., i]
    return da.reshape(dx.shape), du.reshape(dx.shape)


def fd_hessian(chart: MetricChart, net: GeodesicNet, basis: ReducedBasis,
               refine: int = 1) -> np.ndarray:
    """Symmetric Hessian of the discrete length over B on the grid refined
    ``refine`` times: exact, one Hessian-vector product per probe.

    Column compression (Curtis, Powell & Reid 1974; Coleman & More 1983):
    hat columns of one colour are probed together, one probe per colour,
    and each hat row reads its entry from the one column of the colour it
    is coupled to.  Dense vertex columns are probed alone and fill the
    vertex rows by symmetry.  The probe count, n_vertex + colours, does not
    grow with the sample count.  B and B^T act once per probe, around
    ``_RefinedLength.products``.  The probes are evaluated stacked, as many
    per pass as ``MAX_STACKED_ROWS`` fine sample rows hold, and every
    probe's product is bitwise what it gets alone.
    """
    functional = _RefinedLength(chart, net, refine)
    d = len(basis)
    nv = basis.n_vertex
    members = _hat_groups(basis, net, refine)
    probes = np.zeros((nv + len(members), d))
    for j, cols in enumerate([[c] for c in range(nv)] + [cols for cols, _, _ in members]):
        probes[j, cols] = 1.0
    # a probe is one fine copy: it traces about 130 bytes per fine row, as
    # one integrand copy did; half or twice as many probes per pass were slower
    size = max(1, MAX_STACKED_ROWS // sum(ef.size for _, ef, *_ in functional.base))
    delta = np.concatenate([
        basis.pullback_many(functional.products(basis.apply_many(probes[start : start + size])))
        for start in range(0, len(probes), size)])
    h_mat = np.zeros((d, d))
    h_mat[:, :nv] = delta[:nv].T
    for (_, rows, cols), delta_c in zip(members, delta[nv:]):
        h_mat[rows, cols] = delta_c[rows]
    h_mat[:nv, nv:] = h_mat[nv:, :nv].T
    return 0.5 * (h_mat + h_mat.T)


def reduced_hessian_fd(chart: MetricChart, net: GeodesicNet):
    """Dense symmetric Hessian of the discrete length over the reduced basis,
    exact, by ``fd_hessian`` on the grid ``ORACLE_REFINE`` times finer.  A
    not-good graph is refused with a ValueError, as by the shooting route."""
    _good_class(net.graph)
    basis, labels = reduced_basis_fields(chart, net)
    return fd_hessian(chart, net, basis, ORACLE_REFINE), labels


def reduced_kernel_dimension(h_mat: np.ndarray):
    """Kernel count of the reduced Hessian by the shooting route's rule at
    ``SVD_TOL``.

    H is symmetric, so its singular values are the |eigenvalues| from
    ``eigvalsh``, returned in descending order as an SVD would.
    """
    svals = np.sort(np.abs(np.linalg.eigvalsh(h_mat)))[::-1]
    zero, _, gap = _split_spectrum(svals, SVD_TOL, float(svals.max()))
    return int(zero.sum()), svals, gap


def random_reduced_field(chart: MetricChart, net: GeodesicNet, rng) -> NetField:
    """Random element of the reduced displacement space, B applied to random
    coefficients and scaled to unit max norm.

    good* graphs: random vertex displacements, ramped linearly into the
    edges, plus a normal profile of three sine modes at the interior
    samples of every edge; loop graphs: a periodic normal profile of three
    sine and cosine modes, whose seam value moves the marked vertex.
    """
    basis, _ = reduced_basis_fields(chart, net)
    loop = classify(net.graph) is GraphClass.LOOP_WITH_MULTIPLICITY
    coef = [] if loop else [rng.normal(size=net.dim) for _ in net.graph.vertices]
    modes = np.arange(1, 4)
    for e in net.graph.edges:
        t = np.linspace(0.0, 1.0, net.edge_samples[e.id].shape[0])[:, None]
        if loop:
            # per mode, the sine and then the cosine amplitudes
            amp = rng.normal(size=(modes.size, 2, net.dim - 1))
            phase = 2 * np.pi * modes * t
            prof = np.sin(phase) @ amp[:, 0] + np.cos(phase) @ amp[:, 1]
            coef.insert(0, prof[0])
        else:
            prof = np.sin(np.pi * modes * t) @ rng.normal(size=(modes.size, net.dim - 1))
        coef.append(prof[1:-1].ravel())
    fld = basis.apply(np.concatenate(coef))
    return fld.scaled(1.0 / fld.max_norm(chart, net))
