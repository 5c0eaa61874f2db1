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
from .net import EdgeGroup, GeodesicNet, NetField, edge_lengths
from .variation import (
    _perp,
    edge_length_gradient,
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
    "length_hessian",
    "reduced_hessian_fd",
    "reduced_kernel_dimension",
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
# approximate_embeddedness refuses samples of two edges (or far apart on
# one) closer than this fraction of the shortest edge.
EMBEDDEDNESS_FRACTION = 1e-3
# Most fine sample rows of an edge group that one pass of length_hessian
# assembles: bounds its memory whatever the sample count.  On honeycomb at
# N = 256, refinement 8 (2-core Xeon, one BLAS thread), one pass of all
# rows took 35 % longer, and passes of 128 rows 60 % longer.
HESSIAN_PASS_ROWS = 384

# ---------------------------------------------------------------------------
# frames and curvature coefficients
# ---------------------------------------------------------------------------

def parallel_frame(chart: MetricChart, samples: np.ndarray, velocities: np.ndarray,
                   lam: np.ndarray) -> np.ndarray:
    """g-orthonormal parallel normal frames along geodesic edges.

    ``samples`` and ``velocities`` are one edge (M, n) or a stack
    (..., M, n), and lam (..., M) the conformal factors at the samples;
    returns (..., M, n-1, n).  In two dimensions the frame is the
    continuous g-unit normal, which is parallel along any geodesic.  In
    higher dimensions each edge's initial normal space, the complement of
    its first velocity in one stacked complete QR, is moved by one stacked
    ``parallel_transport``.
    """
    n = samples.shape[-1]
    if n == 2:
        # the quarter-turned velocity is g-normal; made g-unit
        raw = np.einsum("ij,pj->pi", _ROT90, velocities.reshape(-1, 2))
        frames = raw / metric_norm(lam.reshape(-1), raw)[:, None]
        return frames.reshape(velocities.shape[:-1] + (1, 2))
    # g is conformal: a Euclidean orthonormal complement, then g-unit vectors
    q = np.linalg.qr(velocities[..., 0, :, None], mode="complete")[0]
    start = np.ascontiguousarray(np.swapaxes(q[..., 1:], -1, -2))
    return parallel_transport(chart, samples, velocities, start / np.sqrt(lam[..., :1, None]))


def jacobi_ode_coefficients(jet: tuple, velocities: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """K(t)_ab = <R(f', e_a) f', e_b>_g, shape (M, n-1, n-1), from the factor
    jet (lam, dphi, ddphi) of ``factor_jet_many`` at the M samples.

    On a surface K is the Gaussian curvature -e^(-2 phi) trace(ddphi) times
    |f'|_g^2 (do Carmo, Riemannian Geometry, ch. 4): -|f'|^2 trace(ddphi)
    with a Euclidean norm, whatever the g-unit normal frame.
    """
    lam, dphi, ddphi = jet
    if velocities.shape[-1] == 2:
        return (-_dot(velocities, velocities) * np.trace(ddphi, axis1=1, axis2=2))[:, None, None]
    vel = velocities[:, None, :]
    curv = curvature_apply(curvature_form(dphi, ddphi)[:, None], vel, frames, vel)
    K = lam[:, None, None] * _dot(curv[:, :, None], frames[:, None])
    return 0.5 * (K + np.swapaxes(K, 1, 2))


def _propagate(K_fine: np.ndarray, h_fine: float, record_stride: int):
    """Fundamental matrices of u'' + K(t) u = 0 on the fine grid, at every
    ``record_stride`` fine nodes.

    K_fine is (fine nodes, ..., m, m): the middle axes stack edges.  RK4
    with step 2*h_fine (midpoint values are exact fine samples), as one
    ``linear_rk4_flow`` of y = (u, u'), y' = [[0, I], [-K, 0]] y.
    """
    m = K_fine.shape[-1]
    if (K_fine.shape[0] - 1) % 2 or record_stride % 2:
        raise ValueError("fine grid and record stride must span an even interval count")
    a_mat = np.zeros(K_fine.shape[:-2] + (2 * m, 2 * m))
    a_mat[..., :m, m:] = np.eye(m)
    a_mat[..., m:, :m] = -K_fine
    return linear_rk4_flow(a_mat[::2], a_mat[1::2], 2.0 * h_fine, stride=record_stride // 2)


@dataclass
class _EdgeData:
    multiplicity: int
    length: float
    frames: np.ndarray        # at the two end samples, (2, n-1, n)
    psi: np.ndarray           # fundamental matrices at coarse nodes
    endpoints_lam: tuple      # conformal factors at the two endpoint samples


@dataclass
class ShootingSystem:
    matrix: np.ndarray
    graph_class: GraphClass
    edges: dict[str, _EdgeData]
    z_index: dict[str, int]          # vertex -> column offset (good* only)
    edge_index: dict[str, int]       # edge -> column offset of (u0, ud0)


def _group_data(chart: MetricChart, grp: EdgeGroup, refine: int) -> list[_EdgeData]:
    """The shooting data of every edge of a group, from one pass on the
    grid ``refine`` times finer: one upsampling, one derivative and one
    factor jet feed the frames, K, the lengths and the propagation (above
    two dimensions the frames' transport takes one more jet)."""
    fine = stencils.upsample_curve(grp.samples, refine, loop=grp.loop)
    vf = stencils.derivative_ho(fine, 1, loop=grp.loop)
    n_edges, m, n = fine.shape
    jet = chart.factor_jet_many(fine.reshape(-1, n), 2)
    lam = jet[0].reshape(n_edges, m)
    frames = parallel_frame(chart, fine, vf, lam)
    k_mat = jacobi_ode_coefficients(jet, vf.reshape(-1, n), frames.reshape(-1, n - 1, n))
    psi = _propagate(k_mat.reshape(n_edges, m, n - 1, n - 1).swapaxes(0, 1), 1.0 / (m - 1), refine)
    speed = metric_norm(lam, vf)
    w = stencils.quadrature_weights(m, loop=grp.loop)
    # fine rows 0 and m - 1 are the coarse end samples, bit for bit
    return [_EdgeData(int(mult), float(w @ speed[k]), frames[k, [0, -1]], psi[:, k],
                      (lam[k, 0], lam[k, -1]))
            for k, mult in enumerate(grp.multiplicities)]


def _good_class(graph: WeightedMultigraph) -> GraphClass:
    """``classify(graph)``, refusing a not-good graph: both the shooting
    system and the reduced space are defined for good graphs only."""
    gclass = classify(graph)
    if gclass is GraphClass.NOT_GOOD:
        raise ValueError("nondegeneracy is only defined for good graphs")
    return gclass


def assemble_jacobi_system(chart: MetricChart, net: GeodesicNet,
                           residual_tol: float) -> ShootingSystem:
    """Square linear system whose null space is the reduced Jacobi space,
    propagated on the grid ``SHOOTING_REFINE`` times finer.  A not-good
    graph is refused with a ValueError.
    """
    gclass = _good_class(net.graph)
    stationarity_gate(chart, net, residual_tol, "assembling Jacobi system at marginal residual {:.3g}")
    n = net.dim
    nm1 = n - 1
    edges = net.graph.edges
    edata = net.map_groups(lambda grp: _group_data(chart, grp, SHOOTING_REFINE))

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
                              edges=edata, z_index={}, edge_index={eid: 0})

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
                          edge_index=edge_index)


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
    ramp between its vertex displacements plus its normal profiles, all
    fields of an edge in one stack.  The velocities, parallel frames, unit
    tangents and end factors, which depend on the net only, come from one
    factor jet per edge group (and above two dimensions one transport).  On a loop edge the seam is one point, so
    the last row repeats the first."""

    def group_parts(grp):
        v = stencils.velocity(grp.samples, loop=grp.loop)
        lam = chart.factor_jet_many(grp.samples.reshape(-1, net.dim), 0)[0].reshape(v.shape[:2])
        that = v / metric_norm(lam, v)[..., None]
        return zip(that, parallel_frame(chart, grp.samples, v, lam), lam[:, [0, -1]])

    if not fields:
        return []
    parts = net.map_groups(group_parts)
    stacks = {}
    for e in net.graph.edges:
        that, frames, ends = parts[e.id]
        t = np.linspace(0.0, 1.0, that.shape[0])
        z = np.array([[fld.z[e.endpoint(0)], fld.z[e.endpoint(1)]] for fld in fields])
        a = metric_dot(ends, z, that[[0, -1]])
        alpha = (1 - t) * a[:, :1] + t * a[:, 1:]
        u = np.array([fld.u[e.id] for fld in fields])
        stacks[e.id] = alpha[..., None] * that + np.einsum("fpa,pai->fpi", u, frames)
        if e.id in net.periodic_edges:
            stacks[e.id][:, -1] = stacks[e.id][:, 0]
    return [NetField({e: s[k] for e, s in stacks.items()}) for k in range(len(fields))]


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
    basis = [_reconstruct(net, sysm, vec) for vec in vt[zero_mask]]
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


def _reconstruct(net, sysm: ShootingSystem, vec: np.ndarray) -> ReducedField:
    nm1 = net.dim - 1
    u_profiles = {eid: np.einsum("tij,j->ti", sysm.edges[eid].psi, vec[off : off + 2 * nm1])[:, :nm1]
                  for eid, off in sysm.edge_index.items()}
    if sysm.graph_class is GraphClass.LOOP_WITH_MULTIPLICITY:
        # the marked vertex moves with the loop's normal profile at t = 0
        ((eid, prof),) = u_profiles.items()
        (v,) = net.graph.vertices
        return ReducedField(z={v: np.einsum("a,ai->i", prof[0], sysm.edges[eid].frames[0])},
                            u=u_profiles)
    z = {v: vec[off : off + net.dim] for v, off in sysm.z_index.items()}
    return ReducedField(z=z, u=u_profiles)


def classify_field(chart: MetricChart, net: GeodesicNet, fld: NetField):
    """(kind, normal part) of J: split J into tangential h*f' plus normal
    rest; tangential when the rest's max norm is at most ``TANGENTIAL_TOL``
    of J's."""
    normal = {}
    max_total = 0.0
    max_perp = 0.0
    for e in net.graph.edges:
        s = net.edge_samples[e.id]
        v = stencils.velocity(s, loop=e.id in net.periodic_edges)
        vals = fld.edge_values[e.id]
        perp = _perp(v, vals)
        normal[e.id] = perp
        max_total = max(max_total, float(g_norm(chart, s, vals).max()))
        max_perp = max(max_perp, float(g_norm(chart, s, perp).max()))
    kind = "tangential" if max_perp <= TANGENTIAL_TOL * max(max_total, 1e-300) else "non-tangential"
    return kind, NetField(normal)


def approximate_embeddedness(chart: MetricChart, net: GeodesicNet) -> bool:
    """Min pairwise sample distance away from shared vertices must clear
    ``EMBEDDEDNESS_FRACTION`` of the shortest edge."""
    threshold = EMBEDDEDNESS_FRACTION * min(edge_lengths(chart, net).values())
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
    ``hat_offset[E] + (j - 1) * (n - 1) + a``.
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
        flat = np.matmul(self.vertex_block, coef[: self.n_vertex, None])[:, 0]
        vals = {}
        for ids, fr, (rows, hats) in zip(self.ids, self.frames, self.index):
            e, (m, nm1, n) = len(rows), fr.shape[1:]
            stack = flat[rows].reshape(e, m, n)
            stack[:, 1:-1] += (coef[hats].reshape(e, m - 2, nm1, 1) * fr[:, 1:-1]).sum(axis=-2)
            vals.update(zip(ids, stack))
        return NetField({e: vals[e] for e in self.hat_offset})

    def pullback(self, grads: list[np.ndarray]) -> np.ndarray:
        """B^T g for a gradient in the group layout, per group (E, N+1, n);
        the vertex part is one ``block.T @ g`` over the samples in graph
        order."""
        flat = np.empty(len(self.vertex_block))
        out = np.empty(len(self))
        for g, fr, (rows, hats) in zip(grads, self.frames, self.index):
            flat[rows] = g.reshape(len(rows), -1)
            out[hats] = (g[:, 1:-1, None, :] * fr[:, 1:-1]).sum(axis=-1).reshape(len(rows), -1)
        out[: self.n_vertex] = self.vertex_block.T @ flat
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
    the gradient, which is bitwise the pullback of ``length_sample_gradient``;
    above two dimensions the frames' transport takes one more jet per group.
    """
    groups = net.edge_groups()
    frames, grads = [], []
    for grp in groups:
        v, lam, grad = edge_length_gradient(chart, grp)
        frames.append(parallel_frame(chart, grp.samples, v, lam.reshape(v.shape[:-1])))
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
    return basis, basis.pullback(grads)


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


def _length_blocks(chart: MetricChart, grp: EdgeGroup, refine: int, rows: int) -> np.ndarray:
    """Half the Hessian Lambda of each term w e^phi(x) |v| of an edge
    group's length on the grid ``refine`` times finer, in (x, v) at the
    base fine samples x0 and velocities v0 = D x0, multiplicity included:
    (E, rows, 2n, 2n), from one factor jet.  Rows past the last fine sample
    are zero.  With s = e^phi |v| and vh = v / |v|: Lambda_xx = w s
    (grad(phi) grad(phi)^T + Hess(phi)), Lambda_xv = w e^phi grad(phi)
    vh^T and Lambda_vv = w e^phi (I - vh vh^T) / |v|."""
    x0 = stencils.upsample_curve(grp.samples, refine, loop=grp.loop)
    v0 = stencils.velocity(x0, loop=grp.loop)
    n_edges, m, n = x0.shape
    w = np.zeros(rows)
    w[:m] = 0.5 * stencils.quadrature_weights(m, loop=grp.loop)
    # the padding rows repeat the last sample, at zero weight
    x0, v0 = (np.concatenate([a, np.repeat(a[:, -1:], rows - m, axis=1)], axis=1) for a in (x0, v0))
    lam, dphi, ddphi = chart.factor_jet_many(x0.reshape(-1, n), 2)
    # coordinates first, rows last: one long pass per block entry
    vel = v0.reshape(-1, n).T
    speed = np.sqrt((vel * vel).sum(axis=0))
    wef = (w * np.sqrt(lam).reshape(n_edges, rows) * grp.multiplicities[:, None]).ravel()
    grad, vh = dphi.T, vel / speed
    out = np.empty((2, n, 2, n, wef.size))
    out[0, :, 0] = wef * speed * (grad[:, None] * grad + ddphi.transpose(1, 2, 0))
    out[0, :, 1] = (wef * grad)[:, None] * vh
    out[1, :, 0] = out[0, :, 1].swapaxes(0, 1)
    out[1, :, 1] = -(wef / speed * vh)[:, None] * vh
    diag = np.arange(n)
    out[1, diag, 1, diag] += wef / speed
    out = out.reshape(4 * n * n, -1).T
    return np.ascontiguousarray(out).reshape(n_edges, rows, 2 * n, 2 * n)


def _window_basis(basis: ReducedBasis, g: int, start: np.ndarray, width: int, loop: bool):
    """B on the bin windows of edge group g (``stencils.refined_windows``):
    the displacement (E, bins, width, n K) of each window sample under K
    columns, and their indices (E, bins, K).  The hat columns come first,
    block diagonal (a frame vector at its own sample; at a vertex none, so
    index 0 and zeros), then every vertex column."""
    fr, (rows, hats) = basis.frames[g], basis.index[g]
    n_edges, n, nm1, dim = fr.shape
    p = start[:, None] + np.arange(width)
    if loop:
        p = p % (n - 1)
    inner = (p > 0) & (p < n - 1)
    n_hat = width * nm1
    out = np.zeros((n_edges,) + p.shape + (dim, n_hat + basis.n_vertex))
    diag = np.arange(width)
    out[..., :n_hat].reshape(out.shape[:4] + (width, nm1))[:, :, diag, :, diag] = \
        np.moveaxis(fr[:, p] * inner[..., None, None], 2, 0).swapaxes(-1, -2)
    out[..., n_hat:] = basis.vertex_block[rows].reshape(n_edges, n, dim, -1)[:, p]
    hat_cols = hats.reshape(n_edges, n - 2, nm1)[:, np.clip(p - 1, 0, n - 3)] * inner[..., None]
    cols = np.concatenate([hat_cols.reshape(n_edges, len(p), n_hat),
                           np.broadcast_to(np.arange(basis.n_vertex), (n_edges, len(p), basis.n_vertex))],
                          axis=-1)
    return out.reshape(out.shape[:3] + (-1,)), cols


def length_hessian(chart: MetricChart, net: GeodesicNet, basis: ReducedBasis,
                   refine: int) -> np.ndarray:
    """Symmetric Hessian of the discrete length over B on the grid refined
    ``refine`` times: exact, assembled from per-sample blocks.

    The refined length is a sum of one term per fine sample, at x = x0 + T
    B c and v = D x; ``_length_blocks`` gives each term's Hessian Lambda in
    (x, v) once.  Every bin of fine rows reads a fixed window of coarse
    samples: its rows of [T; D T] (``stencils.refined_windows``) times B on
    that window (``_window_basis``) are its J, and J^T Lambda J is added
    into H once, at B's columns, in passes of at most
    ``HESSIAN_PASS_ROWS`` fine rows.
    """
    d = len(basis)
    h_mat = np.zeros((d, d))
    for g, grp in enumerate(net.edge_groups()):
        n_edges, n, dim = grp.samples.shape
        start, table = stencils.refined_windows(n, refine, grp.loop)
        bins, size = table.shape[0], table.shape[1] // 2
        blocks = _length_blocks(chart, grp, refine, bins * size).reshape(n_edges, bins, size, 2 * dim, 2 * dim)
        b_win, cols = _window_basis(basis, g, start, table.shape[2], grp.loop)
        k = cols.shape[-1]
        step = max(1, HESSIAN_PASS_ROWS // (n_edges * size))
        for sl in (slice(b, b + step) for b in range(0, bins, step)):
            jac = np.matmul(table[sl], b_win[:, sl]).reshape(n_edges, -1, size, 2 * dim, k)
            stack = (n_edges, -1, 2 * size * dim, k)
            part = np.matmul(jac.reshape(stack).swapaxes(-1, -2), np.matmul(blocks[:, sl], jac).reshape(stack))
            # bins outermost, so H sums its terms in one order however the
            # bins split into passes; Lambda is halved: each term enters
            # with its transpose
            ids = cols[:, sl].swapaxes(0, 1)
            np.add.at(h_mat.reshape(-1), (ids[..., :, None] * d + ids[..., None, :]).ravel(),
                      (part + part.swapaxes(-1, -2)).swapaxes(0, 1).ravel())
    return h_mat


def reduced_hessian_fd(chart: MetricChart, net: GeodesicNet):
    """Dense symmetric Hessian of the discrete length over the reduced basis,
    exact, by ``length_hessian`` on the grid ``ORACLE_REFINE`` times finer.  A
    not-good graph is refused with a ValueError, as by the shooting route."""
    _good_class(net.graph)
    basis, labels = reduced_basis_fields(chart, net)
    return length_hessian(chart, net, basis, ORACLE_REFINE), labels


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
