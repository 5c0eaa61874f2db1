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
frame holonomy at the seam.  Both the shooting system and the reduced FD
Hessian refuse not-good graphs.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from . import stencils
from .geometry import (
    _ROT90,
    MetricChart,
    g_dot,
    g_norm,
    linear_rk4_flow,
    metric_norm,
    min_distance,
    parallel_transport,
)
from .multigraph import GraphClass, WeightedMultigraph, classify
from .net import GeodesicNet, NetField, TangentialField, copies_per_pass, edge_lengths, length
from .variation import (
    NotStationaryError,
    edge_length_gradient,
    stationarity_residual,
)

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
    "ReducedBasis",
    "fd_hessian",
    "reduced_hessian_fd",
    "reduced_basis_fields",
    "reduced_gradient",
    "random_reduced_field",
    "approximate_embeddedness",
]

# classify_field calls a field tangential when its normal part is at most
# this fraction of it.
TANGENTIAL_TOL = 1e-7

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
        return _normal_frame(chart.metric_many(samples), velocities)
    g0 = chart.metric(samples[0])
    basis = [velocities[0]]
    for w in np.eye(n):
        for b in basis:
            w = w - (w @ g0 @ b) / (b @ g0 @ b) * b
        if np.linalg.norm(w) > 1e-8:
            basis.append(w / np.sqrt(w @ g0 @ w))
        if len(basis) == n:
            break
    return parallel_transport(chart, samples, velocities, np.array(basis[1:]))


def _normal_frame(g: np.ndarray, velocities: np.ndarray) -> np.ndarray:
    """The planar ``parallel_frame`` from the metric g at the samples."""
    raw = np.einsum("ij,pj->pi", _ROT90, np.einsum("pij,pj->pi", g, velocities))
    return (raw / metric_norm(g, raw)[:, None])[:, None, :]


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


def _edge_fine_data(chart, net, eid, refine):
    s = net.edge_samples[eid]
    shift = net.loop_shift(eid)
    fine = stencils.upsample_curve(s, refine, loop_shift=shift)
    vf = stencils.velocity_ho(fine, loop_shift=shift)
    frames_f = parallel_frame(chart, fine, vf)
    K_f = jacobi_ode_coefficients(chart, fine, vf, frames_f)
    w = stencils.quadrature_weights(fine.shape[0], loop=shift is not None)
    l_e = float(w @ g_norm(chart, fine, vf))
    return s, fine, vf, frames_f, K_f, l_e


def _edge_data(chart, net, eid, refine):
    s, fine, vf, frames_f, K_f, l_e = _edge_fine_data(chart, net, eid, refine)
    psi = _propagate(K_f, 1.0 / (fine.shape[0] - 1), record_stride=refine)
    return _EdgeData(net.graph.edge(eid).multiplicity, l_e, frames_f[::refine], psi,
                     (chart.metric(s[0]), chart.metric(s[-1])))


def _good_class(graph: WeightedMultigraph) -> GraphClass:
    """``classify(graph)``, refusing a not-good graph: both the shooting
    system and the reduced space are defined for good graphs only."""
    gclass = classify(graph)
    if gclass is GraphClass.NOT_GOOD:
        raise ValueError("nondegeneracy is only defined for good graphs")
    return gclass


def assemble_jacobi_system(chart: MetricChart, net: GeodesicNet, refine: int = 8,
                           residual_tol: float = 1e-3) -> ShootingSystem:
    """Square linear system whose null space is the reduced Jacobi space.

    ``refine`` must be even: one RK4 step spans two fine intervals, so an
    odd refinement puts coarse nodes mid-step.  A not-good graph is
    refused with a ValueError.
    """
    if refine < 2 or refine % 2:
        raise ValueError(f"refine must be an even integer >= 2, got {refine!r}")
    gclass = _good_class(net.graph)
    agg = stationarity_residual(chart, net).aggregate
    if not agg <= residual_tol:  # a NaN residual fails too
        raise NotStationaryError(f"net is not stationary (residual {agg:.3g})")
    if agg > 0.01 * residual_tol:
        warnings.warn(f"assembling Jacobi system at marginal residual {agg:.3g}")
    n = net.dim
    nm1 = n - 1
    edges = net.graph.edges
    edata = {e.id: _edge_data(chart, net, e.id, refine) for e in edges}

    if gclass is GraphClass.LOOP_WITH_MULTIPLICITY:
        # one self-loop edge: (u, u') after the edge's flow, carried back
        # into the frame at the start by the seam holonomy, the overlap of
        # the end and start frames in the metric at the seam
        (eid,) = edata
        ed = edata[eid]
        end, start = ed.frames[-1], ed.frames[0]
        hol = np.zeros((2 * nm1, 2 * nm1))
        hol[:nm1, :nm1] = [[end[b] @ ed.endpoints_g[1] @ start[a] for b in range(nm1)]
                           for a in range(nm1)]
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
            rows[:, z0 : z0 + n] = -(frames_i @ ed.endpoints_g[i])  # rows: e_a^T g
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

    def to_net_field(self, chart: MetricChart, net: GeodesicNet) -> NetField:
        vals = {}
        for e in net.graph.edges:
            s = net.edge_samples[e.id]
            shift = net.loop_shift(e.id)
            v = stencils.velocity(s, loop_shift=shift)
            frames = parallel_frame(chart, s, v)
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
        ambient=[red.to_net_field(chart, net) for red in basis],
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
        shift = net.loop_shift(e.id)
        v = stencils.velocity(s, loop_shift=shift)
        vals = fld.edge_values[e.id]
        coef = g_dot(chart, s, vals, v) / g_dot(chart, s, v, v)
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
    lengths = net.lengths or edge_lengths(chart, net)
    if threshold is None:
        threshold = 1e-3 * min(lengths.values())
    eids = [e.id for e in net.graph.edges]
    guard = max(2, net.edge_samples[eids[0]].shape[0] // 16)
    for i, e1 in enumerate(eids):
        for e2 in eids[i:]:
            gap = min_distance(chart, net.edge_samples[e1], net.edge_samples[e2],
                               lambda k: _ignored_pairs(net, e1, k, e2, guard))
            if gap < threshold:
                return False
    return True


def _ignored_pairs(net, e1, k, e2, guard):
    """Mask (len(k), samples of e2) of the pairs of sample k of e1 and a
    sample of e2 that are near by construction: neighbours along one edge,
    the seam of a periodic edge, or the two sides of a shared vertex."""
    n1 = net.edge_samples[e1].shape[0]
    n2 = net.edge_samples[e2].shape[0]
    k = k[:, None]
    j = np.arange(n2)[None, :]
    if e1 == e2:
        mask = np.abs(j - k) <= guard
        if e1 in net.periodic_edges:
            # the seam pairs are the same point
            mask |= (k < guard) & (j >= n2 - 1 - (guard - k))
            mask |= (k > n1 - 1 - guard) & (j <= guard - (n1 - 1 - k))
        return mask
    mask = np.zeros((k.shape[0], n2), dtype=bool)
    edge1, edge2 = net.graph.edge(e1), net.graph.edge(e2)
    for near, v in ((k < guard, edge1.endpoint(0)), (k > n1 - 1 - guard, edge1.endpoint(1))):
        if edge2.endpoint(0) == v:
            mask |= near & (j <= guard)
        if edge2.endpoint(1) == v:
            mask |= near & (j >= n2 - guard - 1)
    return mask


def is_nondegenerate(chart: MetricChart, net: GeodesicNet, svd_tol: float = 1e-6,
                     residual_tol: float = 1e-3) -> NondegeneracyVerdict:
    if classify(net.graph) is GraphClass.GOOD_STAR and not approximate_embeddedness(chart, net):
        raise ValueError("net failed the approximate embeddedness check")
    ker = jacobi_kernel(chart, net, svd_tol=svd_tol, residual_tol=residual_tol)
    verdict = Verdict.NONDEGENERATE if ker.dimension == 0 else Verdict.DEGENERATE
    return NondegeneracyVerdict(verdict=verdict, kernel_dimension=ker.dimension, kernel=ker)


# ---------------------------------------------------------------------------
# reduced finite-difference Hessian (brute-force oracle)
# ---------------------------------------------------------------------------

@dataclass
class ReducedBasis:
    """The reduced displacement space as one linear map B.

    B sends d coefficients to displacement samples on every edge.  Its
    first ``n_vertex`` columns are dense: vertex displacements with linear
    ramps into the incident edges (on loop graphs, the normal motion of the
    marked vertex), stored as one block over the stacked edge samples.
    Every other column is a hat: frame vector a at interior sample j of
    edge E, at column ``hat_offset[E] + (j - 1) * (n - 1) + a``.
    """

    edges: tuple
    vertex_block: np.ndarray          # (sum over edges of (N+1) * n, n_vertex)
    frames: dict[str, np.ndarray]     # (N+1, n-1, n) per edge
    hat_offset: Mapping[str, int]
    dim: int

    @property
    def n_vertex(self) -> int:
        return self.vertex_block.shape[1]

    def __len__(self) -> int:
        return self.dim

    def apply(self, coef: np.ndarray) -> NetField:
        """B @ coef as a displacement field."""
        return NetField({e: v[0] for e, v in self.apply_many(coef[None]).items()})

    def apply_many(self, coefs: np.ndarray) -> dict[str, np.ndarray]:
        """B @ coef for every row of coefs (K, d): per edge, (K, N+1, n).
        Each row is the same matrix-vector product as alone."""
        flat = np.matmul(self.vertex_block, coefs[:, : self.n_vertex, None])[..., 0]
        vals = {}
        start = 0
        for e in self.edges:
            npts, nm1, n = self.frames[e].shape
            vals[e] = flat[:, start : start + npts * n].reshape(-1, npts, n)
            start += npts * n
            off = self.hat_offset[e]
            c = coefs[:, off : off + (npts - 2) * nm1].reshape(-1, npts - 2, nm1)
            vals[e][:, 1:-1] += (c[..., None] * self.frames[e][1:-1]).sum(axis=-2)
        return vals

    def pullback(self, grad: dict[str, np.ndarray]) -> np.ndarray:
        """B^T g for a per-edge sample gradient g."""
        return self.pullback_many({e: grad[e][None] for e in self.edges})[0]

    def pullback_many(self, grads: dict[str, np.ndarray]) -> list[np.ndarray]:
        """B^T g for K gradients stacked per edge, (K, N+1, n): K new (d,) arrays."""
        return _pullback([self.vertex_block], {e: fr[None] for e, fr in self.frames.items()},
                         grads, self.dim)


def _pullback(blocks: list, frames: dict, grads: dict, dim: int) -> list[np.ndarray]:
    """B^T g of K stacked copies, one new (d,) array per copy.

    grads maps every edge, in graph order, to (K, N+1, n) and frames to
    (K or 1, N+1, n-1, n); blocks holds the vertex block of every copy, or
    one for all.  The hat columns follow the vertex columns edge by edge.
    Each copy's vertex part is the same ``block.T @ g`` product as alone.
    """
    k = len(next(iter(grads.values())))
    hats = np.concatenate([(g[:, 1:-1, None, :] * frames[e][:, 1:-1]).sum(axis=-1).reshape(k, -1)
                           for e, g in grads.items()], axis=1)
    out = []
    for c in range(k):
        block = blocks[c if len(blocks) > 1 else 0]
        row = np.empty(dim)
        row[: block.shape[1]] = block.T @ np.concatenate([g[c].ravel() for g in grads.values()])
        row[block.shape[1] :] = hats[c]
        out.append(row)
    return out


def reduced_basis_fields(chart: MetricChart, net: GeodesicNet):
    """The map B spanning the reduced space, with one label per column.

    good* graphs: full vertex displacements (with linear tangential ramps
    into the incident edges) plus interior normal hats per edge.  Loop
    graphs: normal hats at every sample (vertex motion along the loop is a
    reparametrization and is excluded).  B is the basis of ``reduced_gradient``.
    """
    basis, _ = reduced_gradient(chart, net)
    counts = tuple(basis.frames[e].shape[0] for e in basis.edges)
    return basis, list(_basis_layout(net.graph, counts, net.dim)[0])


def reduced_gradient(chart: MetricChart, net: GeodesicNet):
    """(B, B^T grad L): the reduced basis and the reduced length gradient.

    The gradient is bitwise the pullback of ``length_sample_gradient``; one
    velocity and one metric jet per edge group feed both the frames and the
    gradient.
    """
    frames, (grad,) = stacked_reduced_gradients(chart, net, net.edge_groups())
    basis, _ = _reduced_basis(net, {e: fr[0] for e, fr in frames.items()})
    return basis, grad


def stacked_reduced_gradients(chart: MetricChart, net: GeodesicNet, groups: list):
    """Frames and reduced gradients of K configurations of net's edges.

    groups are the K copies of ``net.edge_groups()`` stacked by
    ``EdgeGroup.copies``.  Returns the frames of every edge, (K, N+1, n-1,
    n) in graph order, and K reduced gradients B_k^T grad L_k, each equal bit
    for bit to ``reduced_gradient`` of its configuration alone; no basis is
    built.
    """
    frames, grads = {}, {}
    k = len(groups[0].ids) // len(set(groups[0].ids))
    for grp in groups:
        v, g, grad = edge_length_gradient(chart, grp)
        if net.dim == 2:
            fr = _normal_frame(g, v.reshape(-1, 2)).reshape(v.shape[:2] + (1, 2))
        else:
            fr = np.array([parallel_frame(chart, s, vel) for s, vel in zip(grp.samples, v)])
        for i, eid in enumerate(grp.ids[: len(grp.ids) // k]):
            frames[eid] = fr.reshape((k, -1) + fr.shape[1:])[:, i]
            grads[eid] = grad.reshape((k, -1) + grad.shape[1:])[:, i]
    order = [e.id for e in net.graph.edges]
    frames = {e: frames[e] for e in order}
    counts = tuple(frames[e].shape[1] for e in order)
    labels, _, dim, block = _basis_layout(net.graph, counts, net.dim)
    blocks = [block] if block is not None else [
        _loop_vertex_block(net, counts, labels, {e: fr[c] for e, fr in frames.items()})
        for c in range(k)]
    return frames, _pullback(blocks, frames, {e: grads[e] for e in order}, dim)


def _reduced_basis(net: GeodesicNet, frames: dict[str, np.ndarray]):
    """B for the frames (N+1, n-1, n) of every edge, and its column labels."""
    graph = net.graph
    counts = tuple(net.edge_samples[e.id].shape[0] for e in graph.edges)
    labels, hat_offset, dim, block = _basis_layout(graph, counts, net.dim)
    if block is None:
        block = _loop_vertex_block(net, counts, labels, frames)
    basis = ReducedBasis(edges=tuple(e.id for e in graph.edges), vertex_block=block,
                         frames=frames, hat_offset=hat_offset, dim=dim)
    return basis, labels


def _loop_vertex_block(net: GeodesicNet, counts: tuple, labels: tuple, frames: dict):
    """The vertex block of a loop graph: the normal motion of the marked
    vertex, in its frame."""
    graph = net.graph
    block = np.zeros((net.dim * sum(counts), len(graph.vertices) * (net.dim - 1)))
    for k, (_, vtx, a) in enumerate(labels[: block.shape[1]]):
        eid, i = graph.incident_pairs(vtx)[0]
        fr = frames[eid][0] if i == 0 else frames[eid][-1]
        for eid2, i2 in graph.incident_pairs(vtx):
            _edge_rows(block, graph, counts, eid2)[0 if i2 == 0 else -1, :, k] += fr[a]
    return block


def _edge_rows(block: np.ndarray, graph: WeightedMultigraph, counts: tuple, eid: str):
    """An edge's rows of a vertex block over the stacked samples, as (N+1, n, columns)."""
    k = [e.id for e in graph.edges].index(eid)
    n = block.shape[0] // sum(counts)
    start = n * sum(counts[:k])
    return block[start : start + n * counts[k]].reshape(counts[k], n, -1)


@lru_cache(maxsize=32)
def _basis_layout(graph: WeightedMultigraph, counts: tuple, n: int):
    """The part of B that depends only on the graph, the sample counts and
    the dimension: (labels, hat offsets, d, vertex block).

    The vertex block is the read-only ramp block of good* graphs; on loop
    graphs it is None, because there it is the marked vertex's frame.
    """
    if classify(graph) is GraphClass.LOOP_WITH_MULTIPLICITY:
        labels = [("zn", vtx, a) for vtx in graph.vertices for a in range(n - 1)]
        block = None
    else:
        labels = [("z", vtx, c) for vtx in graph.vertices for c in range(n)]
        block = np.zeros((n * sum(counts), len(labels)))
        for k, (_, vtx, c) in enumerate(labels):
            for eid, i in graph.incident_pairs(vtx):
                rows = _edge_rows(block, graph, counts, eid)
                t = np.linspace(0.0, 1.0, rows.shape[0])
                rows[:, c, k] += (1 - t) if i == 0 else t
        block.flags.writeable = False
    hat_offset = {}
    col = len(labels)
    for e, npts in zip(graph.edges, counts):
        hat_offset[e.id] = col
        labels.extend(("u", e.id, j, a) for j in range(1, npts - 1) for a in range(n - 1))
        col += (npts - 2) * (n - 1)
    return tuple(labels), MappingProxyType(hat_offset), col, block


@lru_cache(maxsize=32)
def _hat_colouring(n_samples: int, refine: int, loop: bool):
    """Curtis-Powell-Reid colouring of the interior samples of an edge.

    Returns (colour, coupled): for interior sample j, ``colour[j - 1]`` and
    the interior indices (j' - 1) of the samples coupled to it, which are
    the hat rows its columns can reach.  Two samples get the same colour
    only when no interior sample is coupled to both, so one perturbation
    of a whole colour class determines every hat entry it touches.  Open
    edges, and loops too short for two blocks, are coloured greedily.  On a
    loop edge the coupling is a circulant band of half-width k, so the
    n - 1 positions around the loop (the vertex last) are cut into
    q = floor((n - 1) / (2k + 1)) balanced blocks and a sample's colour is
    its offset in its block: at most ceil((n - 1) / q) colours.
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
    blocks = m // (2 * int(hi[0]) + 1) if loop else 0
    if blocks >= 2:
        # equal offsets in two blocks are at least one block, 2k + 1
        # positions, apart both ways round
        starts = np.arange(blocks) * m // blocks
        k = np.arange(n_int)
        colour = k - starts[np.searchsorted(starts, k, "right") - 1]
    else:
        used = [set() for _ in range(n_int)]
        colour = np.empty(n_int, dtype=int)
        for j, reach in enumerate(coupled):
            taken = set().union(*(used[r] for r in reach))
            colour[j] = min(set(range(len(taken) + 1)) - taken)
            for r in reach:
                used[r].add(int(colour[j]))
    colour.flags.writeable = False
    return colour, tuple(coupled)


def _hat_groups(basis: ReducedBasis, net: GeodesicNet, refine: int):
    """Hat columns by colour: per colour, a list of (column, reachable rows)."""
    groups = {}
    for e in basis.edges:
        npts, nm1, _ = basis.frames[e].shape
        colour, coupled = _hat_colouring(npts, refine, e in net.periodic_edges)
        off = basis.hat_offset[e]
        for j, reach in enumerate(coupled):
            rows = off + (reach[:, None] * nm1 + np.arange(nm1)).ravel()
            for a in range(nm1):
                groups.setdefault(colour[j] * nm1 + a, []).append((off + j * nm1 + a, rows))
    return [groups[c] for c in sorted(groups)]


class _RefinedLength:
    """Refined-grid length functional, affine in the coarse samples.

    The fine samples are the upsampled net plus T times the displacement,
    and the coarse gradient is T^T times the fine one; at refine 1, T is
    the identity and is not formed.  Displaced copies of the net are
    evaluated stacked, one ``edge_length_gradient`` per edge group.
    """

    def __init__(self, chart, net, refine):
        self.chart = chart
        self.net = net
        self.groups = net.edge_groups()
        self.fine_base = [stencils.upsample_curve(grp.samples, refine, loop_shift=grp.shifts)
                          for grp in self.groups]
        # linear part only: displacement fields never wrap
        self.t_mats = None if refine == 1 else [
            stencils.upsample_operator(grp.samples.shape[1], refine, grp.loop)[0]
            for grp in self.groups]

    def _fine_groups(self, disp: dict[str, np.ndarray]):
        """The stacked fine edge groups of the copies displaced by disp, per
        edge (K, N+1, n); with each group's T, or None."""
        for j, (grp, base) in enumerate(zip(self.groups, self.fine_base)):
            d = np.stack([disp[e] for e in grp.ids], axis=1).reshape((-1,) + grp.samples.shape[1:])
            t_mat = None if self.t_mats is None else self.t_mats[j]
            moved = d if t_mat is None else t_mat @ d
            fine = base + moved.reshape((-1,) + base.shape)
            yield grp, grp.copies(fine.reshape((-1,) + base.shape[1:])), t_mat

    def gradients(self, disp: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Exact gradients in the coarse samples of K displaced copies: disp
        and the result map every edge to (K, N+1, n)."""
        out = {}
        for grp, fine, t_mat in self._fine_groups(disp):
            grad = edge_length_gradient(self.chart, fine)[2]
            if t_mat is not None:
                grad = t_mat.T @ grad
            grad = grad.reshape((-1,) + grp.samples.shape)
            out.update((e, grad[:, i]) for i, e in enumerate(grp.ids))
        return {e.id: out[e.id] for e in self.net.graph.edges}

    def gradient(self, displacement: NetField) -> dict[str, np.ndarray]:
        """Exact gradient in the coarse samples at one displaced configuration."""
        grad = self.gradients({e: d[None] for e, d in displacement.edge_values.items()})
        return {e: g[0] for e, g in grad.items()}

    def value(self, displacement: NetField) -> float:
        fine = {}
        for grp, stacked, _ in self._fine_groups({e: d[None] for e, d in displacement.edge_values.items()}):
            fine.update(zip(grp.ids, stacked.samples))
        return length(self.chart, replace(self.net, edge_samples=fine, lengths={}))


def fd_hessian(chart: MetricChart, net: GeodesicNet, basis: ReducedBasis,
               step: float = 1e-5, refine: int = 1) -> np.ndarray:
    """Symmetric Hessian of the discrete length over B, by central
    differences of the exact gradient on the grid refined ``refine`` times.

    Column compression (Curtis, Powell & Reid 1974; Coleman & More 1983):
    hat columns of one colour are perturbed together, two gradients per
    colour, and each hat row reads its entry from the one column of the
    colour it is coupled to.  Dense vertex columns are perturbed alone and
    fill the vertex rows by symmetry.  The probe count, 2 (n_vertex +
    colours), does not grow with the sample count.  The probes are
    evaluated stacked, as many per pass as ``net.MAX_STACKED_ROWS`` fine
    sample rows hold, and every probe's gradient is bitwise what it gets
    alone.
    """
    functional = _RefinedLength(chart, net, refine)
    d = len(basis)
    nv = basis.n_vertex
    members = _hat_groups(basis, net, refine)
    # rows +step * coef and -step * coef of every probe coefficient coef
    probes = np.zeros((2 * (nv + len(members)), d))
    for j, cols in enumerate([[c] for c in range(nv)] + [[c for c, _ in m] for m in members]):
        probes[2 * j, cols] = step
        probes[2 * j + 1] = -probes[2 * j]
    size = copies_per_pass(sum(base.shape[0] * base.shape[1] for base in functional.fine_base))
    pulled = []
    for start in range(0, len(probes), size):
        pulled += basis.pullback_many(functional.gradients(basis.apply_many(probes[start : start + size])))
    delta = [(gp - gm) / (2 * step) for gp, gm in zip(pulled[0::2], pulled[1::2])]
    h_mat = np.zeros((d, d))
    for j in range(nv):
        h_mat[:, j] = delta[j]
    for members_c, delta_c in zip(members, delta[nv:]):
        for col, rows in members_c:
            h_mat[rows, col] = delta_c[rows]
    h_mat[:nv, nv:] = h_mat[nv:, :nv].T
    return 0.5 * (h_mat + h_mat.T)


def reduced_hessian_fd(chart: MetricChart, net: GeodesicNet, step: float = 1e-5,
                       refine: int = 8, mode: str = "gradient"):
    """Dense symmetric Hessian of the discrete length over the reduced basis.

    mode "gradient": central differences of the exact sample gradient,
    column-compressed by ``fd_hessian`` (default; accurate enough for
    kernel counting).  mode "length": plain second central differences of
    the length over every pair of columns (slower, noisier; kept as an
    independent cross-check).  A not-good graph is refused with a
    ValueError, as by the shooting route.
    """
    if not 0 < step < np.inf:  # written so that NaN fails too
        raise ValueError("invalid step configuration")
    _good_class(net.graph)
    basis, labels = reduced_basis_fields(chart, net)
    if mode == "gradient":
        return fd_hessian(chart, net, basis, step, refine), labels
    if mode != "length":
        raise ValueError(f"unknown mode {mode!r}")
    functional = _RefinedLength(chart, net, refine)
    d = len(basis)

    def l_of(i, a, j, b):
        coef = np.zeros(d)
        coef[i] += a
        coef[j] += b
        return functional.value(basis.apply(coef))

    h_mat = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            val = (
                l_of(i, step, j, step)
                - l_of(i, step, j, -step)
                - l_of(i, -step, j, step)
                + l_of(i, -step, j, -step)
            ) / (4 * step * step)
            h_mat[i, j] = val
            h_mat[j, i] = val
    return 0.5 * (h_mat + h_mat.T), labels


def reduced_kernel_dimension(h_mat: np.ndarray, svd_tol: float = 1e-6):
    """Kernel count of the reduced Hessian with the same tolerance rule."""
    svals = np.linalg.svd(h_mat, compute_uv=False)
    zero, _, gap = _split_spectrum(svals, svd_tol, float(svals.max()))
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
    for e in basis.edges:
        t = np.linspace(0.0, 1.0, basis.frames[e].shape[0])[:, None]
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
