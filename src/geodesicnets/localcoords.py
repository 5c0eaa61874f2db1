"""Per-edge path coordinates and the coordinate form of stationarity.

Every edge of a smooth reference net gets a tube: the edge curve extended
geodesically beyond both endpoints, together with a Euclidean-parallel
orthonormal frame of its normal bundle.  A nearby curve is encoded by
path coordinates (a, b, u): endpoint longitudinal positions plus the
normal displacement profile, written as a function of the affinely
rescaled longitudinal coordinate so that reparametrizations collapse to
the same coordinates.

The length integrand L(t, a, b, u, w) in these coordinates yields the
coordinate stationarity residual: an interior Euler-Lagrange part per
edge and a vertex part assembled through the endpoint transfer maps
between overlapping tubes.  Together with the vertex continuity
constraint, their vanishing is equivalent to the net being stationary.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import stencils
from .geometry import (
    _ROT90, EuclideanChart, HermiteCurve, MetricChart, christoffel_apply, foot_parameters,
    g_norm, geodesic_integrate, min_distance,
)
from .multigraph import star
from .net import GeodesicNet, edge_lengths
from .variation import stationarity_residual

__all__ = [
    "PathCoord",
    "NetCoord",
    "NetChart",
    "EdgeTube",
    "ConstraintResidual",
    "build_net_chart",
    "xi",
    "xi_prime",
    "tube_embed",
    "tube_coordinates",
    "lambda_map",
    "coordinates_of",
    "constraint_C",
    "lagrangian_integral",
    "mean_curvature_H",
    "stationarity_equivalence_check",
]

# Tube radius and extension (see ``build_net_chart``), the upsampling of
# the tube curves, and the difference step of ``mean_curvature_H``.
DELTA_REL = 0.1
ETA_REL = 0.2
TUBE_REFINE = 8
FD_STEP = 1e-6


class TubeError(ValueError):
    """Coordinates or curves left the tube of validity."""


@dataclass
class PathCoord:
    """(a, b, u): longitudinal endpoint coordinates and normal profile."""

    a: float
    b: float
    u: np.ndarray  # (N+1, n-1) on the uniform grid over [0, 1]


@dataclass
class EdgeTube:
    """Extended reference curve with a Euclidean normal frame, in a planar chart."""

    eid: str
    curve: HermiteCurve           # F(s) on a fine grid spanning [-eta, 1+eta]
    velocity: HermiteCurve        # F'(s) on the same grid
    delta_long: float             # longitudinal chart radius (parameter units)
    delta_norm: float             # normal chart radius (background length units)
    eta: float
    periodic: bool = False        # reference edge is a smooth closed loop

    def jet(self, s) -> tuple:
        """(F, F', F'') at parameters s."""
        return (self.curve(s),) + self.velocity.jet(s, 1)

    def frame(self, s) -> np.ndarray:
        """Euclidean-orthonormal normal frame at s, shape (len(s), n-1, n)."""
        fp = self.velocity(s)
        that = fp / np.linalg.norm(fp, axis=1, keepdims=True)
        return (that @ _ROT90.T)[:, None, :]

    def frame_deriv(self, s) -> np.ndarray:
        fp, fpp = self.velocity.jet(s, 1)
        nrm = np.linalg.norm(fp, axis=1, keepdims=True)
        that_d = fpp / nrm - fp * np.einsum("pi,pi->p", fp, fpp)[:, None] / nrm**3
        return (that_d @ _ROT90.T)[:, None, :]

    def embed(self, s, u) -> np.ndarray:
        """(s, u) -> F(s) + sum_a u_a N_a(s)."""
        return self.curve(s) + np.einsum("pa,pai->pi", np.atleast_2d(u), self.frame(s))

    def project(self, z: np.ndarray, s_guess: np.ndarray):
        """Invert the tube map: ambient points -> (s, u) coordinates.

        Newton on the foot point from ``s_guess``, which also selects the
        branch when the tube wraps (loop edges).
        """
        z = np.atleast_2d(z)
        s = foot_parameters(self.jet, z, np.array(s_guess, dtype=float),
                            self.curve.grid[0], self.curve.grid[-1])
        frames = self.frame(s)
        u = np.einsum("pi,pai->pa", z - self.curve(s), frames)
        resid = z - self.embed(s, u)
        if np.abs(resid).max() > 1e-8:
            raise TubeError("point does not reduce to tube coordinates")
        return s, u


@dataclass
class ConstraintResidual:
    """Per-vertex, per-non-preferred-pair continuity residuals."""

    per_vertex: dict[str, dict[tuple, np.ndarray]]

    def stacked(self) -> np.ndarray:
        parts = []
        for v in sorted(self.per_vertex):
            for pair in sorted(self.per_vertex[v]):
                parts.append(self.per_vertex[v][pair])
        return np.concatenate(parts) if parts else np.zeros(0)

    @property
    def norm(self) -> float:
        vec = self.stacked()
        return float(np.linalg.norm(vec)) if vec.size else 0.0


@dataclass
class NetChart:
    """Tubes for every edge of a reference net plus preferred pairs."""

    chart: MetricChart
    reference: GeodesicNet
    tubes: dict[str, EdgeTube]
    preferred: dict[str, tuple]

    @property
    def dim(self) -> int:
        return self.reference.dim


@dataclass
class NetCoord:
    coords: dict[str, PathCoord]


def build_net_chart(chart: MetricChart, net: GeodesicNet) -> NetChart:
    """Tubes around a smooth (stationary) net, extended geodesically.

    The longitudinal radius is ``DELTA_REL`` in parameter units; the
    normal radius is ``DELTA_REL`` times the edge's g-length in ``chart``;
    edges are extended by ``ETA_REL`` parameter units.  Tubes need
    a planar chart; other nets are refused with ``TubeError``.
    """
    if net.dim != 2:
        raise TubeError(f"tube construction needs a planar chart; this net has dimension {net.dim}")
    lengths = edge_lengths(chart, net)
    fine_data = {}
    for e in net.graph.edges:
        shift = net.loop_shift(e.id)
        fine = stencils.upsample_curve(net.edge_samples[e.id], TUBE_REFINE, loop_shift=shift)
        fine_data[e.id] = (fine, stencils.velocity_ho(fine, loop_shift=shift))
    # both end extensions of every edge, one geodesic batch per fine sample count
    extensions = {}
    for m in {fine.shape[0] for fine, _ in fine_data.values()}:
        eids = [eid for eid, (fine, _) in fine_data.items() if fine.shape[0] == m]
        h_f = 1.0 / (m - 1)
        n_ext = int(np.ceil(ETA_REL / h_f))
        eta = n_ext * h_f
        starts = [fine_data[eid] for eid in eids]
        points, velocities = geodesic_integrate(
            chart, [x for fine, _ in starts for x in (fine[-1], fine[0])],
            [v for _, vf in starts for v in (vf[-1], -vf[0])], eta, n_ext)
        for k, eid in enumerate(eids):
            extensions[eid] = (eta, points[2 * k : 2 * k + 2], velocities[2 * k : 2 * k + 2])
    tubes = {}
    for e in net.graph.edges:
        fine, vf = fine_data[e.id]
        # the forward and the backward run
        eta, (fwd, bwd), (fwd_vel, bwd_vel) = extensions[e.id]
        pts = np.concatenate([bwd[1:][::-1], fine, fwd[1:]], axis=0)
        # integrator velocities are scaled to its own unit span; rescale to
        # the tube parameter (backward run flips the sign)
        vels = np.concatenate([-(bwd_vel[1:] / eta)[::-1], vf, fwd_vel[1:] / eta], axis=0)
        s_grid = np.linspace(-eta, 1.0 + eta, pts.shape[0])
        accs = -christoffel_apply(chart.factor_jet_many(pts, 1)[1], vels, vels)
        tube = EdgeTube(
            eid=e.id,
            curve=HermiteCurve(s_grid, pts, vels),
            velocity=HermiteCurve(s_grid, vels, accs),
            delta_long=DELTA_REL,
            delta_norm=DELTA_REL * lengths[e.id],
            eta=eta,
            periodic=e.id in net.periodic_edges,
        )
        _validate_tube(tube)
        tubes[e.id] = tube
    preferred = {v: star(net.graph, v).preferred for v in net.graph.vertices}
    return NetChart(chart=chart, reference=net, tubes=tubes, preferred=preferred)


def _validate_tube(tube: EdgeTube) -> None:
    """Sampling check that the tube does not self-overlap within its radius:
    every 4th node against every node at least four radii further along the
    curve, in plain chart coordinates."""
    pts = tube.curve.values
    s = tube.curve.grid
    speed = np.linalg.norm(tube.velocity.values, axis=1)
    sep_param = 4.0 * tube.delta_norm / speed.min()

    def near_along(k):
        sep = np.abs(s - s[4 * k, None])
        if tube.periodic:
            # the extension wraps once around a closed reference curve
            sep = np.minimum(sep, np.abs(sep - 1.0))
        return sep <= sep_param

    gap = min_distance(EuclideanChart(pts.shape[1]), pts[::4], pts, near_along)
    if gap < 2.0 * tube.delta_norm:
        warnings.warn(f"tube of edge {tube.eid!r} may self-overlap within twice its radius")


# ---------------------------------------------------------------------------
# the coordinate maps
# ---------------------------------------------------------------------------

def xi(coord: PathCoord) -> np.ndarray:
    """(a, b, u) -> trivialization curve t -> ((1-t)a + tb, u(t))."""
    npts = coord.u.shape[0]
    t = np.linspace(0.0, 1.0, npts)
    lon = (1 - t) * coord.a + t * coord.b
    return np.concatenate([lon[:, None], coord.u], axis=1)


def xi_prime(curve: np.ndarray) -> PathCoord:
    """Trivialization curve -> (a, b, u); constant on reparametrizations.

    The longitudinal component must be strictly monotone; the normal part
    is re-gridded as a function of the rescaled longitudinal coordinate:
    the curve parameters at which the longitudinal coordinate reaches the
    uniform targets come from ``stencils.inverse_interpolate``, and the
    normal part is read there with ``stencils.evaluate_curve``.
    """
    lon = curve[:, 0]
    if not np.all(np.diff(lon) > 0):
        raise TubeError("longitudinal component is not strictly monotone")
    a = float(lon[0])
    b = float(lon[-1])
    # the targets of ``xi``, so a curve from ``xi`` is read at its own samples
    t = np.linspace(0.0, 1.0, curve.shape[0])
    params = stencils.inverse_interpolate(lon, (1 - t) * a + t * b)
    return PathCoord(a=a, b=b, u=stencils.evaluate_curve(curve[:, 1:], params))


def tube_embed(nc: NetChart, eid: str, triv_curve: np.ndarray) -> np.ndarray:
    """Trivialization curve -> ambient chart samples."""
    tube = nc.tubes[eid]
    s = triv_curve[:, 0]
    u = triv_curve[:, 1:]
    if np.abs(u).max(initial=0.0) >= tube.delta_norm:
        raise TubeError(f"normal displacement exceeds the tube radius of {eid!r}")
    if s.min() < -tube.eta or s.max() > 1.0 + tube.eta:
        raise TubeError(f"longitudinal coordinate leaves the tube of {eid!r}")
    return tube.embed(s, u)


def tube_coordinates(nc: NetChart, eid: str, samples: np.ndarray,
                     s_guess: np.ndarray | None = None) -> np.ndarray:
    """Ambient chart samples -> trivialization curve (projection).

    Curves are assumed parametrized over [0, 1] near the reference, so the
    default seed for the projection is the uniform grid (this also picks
    the correct branch on wrapping loop tubes).
    """
    tube = nc.tubes[eid]
    base = nc.chart
    if s_guess is None:
        s_guess = np.linspace(0.0, 1.0, samples.shape[0])
    # pull each sample into the lift frame of the tube
    guess_idx = np.clip(
        np.searchsorted(tube.curve.grid, s_guess), 0, tube.curve.grid.shape[0] - 1
    )
    ref = tube.curve.values[guess_idx]
    lifted = ref + base.displacement_many(ref, samples)
    s, u = tube.project(lifted, s_guess=s_guess)
    return np.concatenate([s[:, None], u], axis=1)


def lambda_map(nc: NetChart, coords: NetCoord) -> GeodesicNet:
    """Coordinates -> net, through the tubes of the chart center."""
    samples = {}
    for eid, pc in coords.coords.items():
        tube = nc.tubes[eid]
        if not (-tube.delta_long < pc.a < tube.delta_long):
            raise TubeError(f"coordinate a of {eid!r} outside its radius")
        if not (1 - tube.delta_long < pc.b < 1 + tube.delta_long):
            raise TubeError(f"coordinate b of {eid!r} outside its radius")
        samples[eid] = tube_embed(nc, eid, xi(pc))
    positions = {}
    for v in nc.reference.graph.vertices:
        eid, i = nc.preferred[v]
        positions[v] = nc.chart.wrap(samples[eid][0 if i == 0 else -1])
    return GeodesicNet(
        graph=nc.reference.graph,
        edge_samples=samples,
        vertex_positions=positions,
        periodic_edges=nc.reference.periodic_edges,
    )


def coordinates_of(nc: NetChart, net: GeodesicNet) -> NetCoord:
    """Net -> coordinates: tube projection then reparametrization quotient."""
    out = {}
    for e in net.graph.edges:
        triv = tube_coordinates(nc, e.id, net.edge_samples[e.id])
        out[e.id] = xi_prime(triv)
    return NetCoord(coords=out)


# ---------------------------------------------------------------------------
# constraint map and coordinate stationarity residual
# ---------------------------------------------------------------------------

def _endpoint_coordinate(pc: PathCoord, i: int) -> np.ndarray:
    c = pc.a if i == 0 else pc.b
    u_end = pc.u[0] if i == 0 else pc.u[-1]
    return np.concatenate([[c], u_end])


def _transfer_point(nc: NetChart, from_eid: str, to_eid: str, coord: np.ndarray,
                    s_hint: float | None = None) -> np.ndarray:
    """(c, u) of one tube -> coordinates of the same point in another tube."""
    z = nc.tubes[from_eid].embed(np.array([coord[0]]), coord[1:][None, :])[0]
    guess = None if s_hint is None else np.array([s_hint])
    triv = tube_coordinates(nc, to_eid, z[None, :], s_guess=guess)[0]
    return triv


def constraint_C(nc: NetChart, coords: NetCoord) -> ConstraintResidual:
    """Vertex-continuity residual; zero iff the coordinates glue to a net."""
    per_vertex = {}
    for v in nc.reference.graph.vertices:
        pref_eid, pref_i = nc.preferred[v]
        ref = _endpoint_coordinate(coords.coords[pref_eid], pref_i)
        rows = {}
        for eid, i in nc.reference.graph.incident_pairs(v):
            if (eid, i) == (pref_eid, pref_i):
                continue
            here = _endpoint_coordinate(coords.coords[eid], i)
            transferred = _transfer_point(nc, eid, pref_eid, here, s_hint=ref[0])
            rows[(eid, i)] = transferred - ref
        per_vertex[v] = rows
    return ConstraintResidual(per_vertex=per_vertex)


def _transfer_jacobian(nc: NetChart, from_eid: str, to_eid: str, coord: np.ndarray,
                       s_hint: float, step: float = 1e-6) -> np.ndarray:
    n = coord.shape[0]
    out = np.empty((n, n))
    for j in range(n):
        dp = np.zeros(n)
        dp[j] = step
        out[:, j] = (
            _transfer_point(nc, from_eid, to_eid, coord + dp, s_hint=s_hint)
            - _transfer_point(nc, from_eid, to_eid, coord - dp, s_hint=s_hint)
        ) / (2 * step)
    return out


def _lagrangian_values(g: MetricChart, nc: NetChart, pc: PathCoord, eid: str,
                       u: np.ndarray | None = None, w: np.ndarray | None = None,
                       a: float | None = None, b: float | None = None) -> np.ndarray:
    """L(t, a, b, u(t), w(t)) on the grid, any argument overridable."""
    tube = nc.tubes[eid]
    a = pc.a if a is None else a
    b = pc.b if b is None else b
    u = pc.u if u is None else u
    npts = u.shape[0]
    t = np.linspace(0.0, 1.0, npts)
    if w is None:
        shift = None
        if eid in nc.reference.periodic_edges:
            shift = np.zeros(u.shape[1])
        w = stencils.velocity(u, loop_shift=shift)
    s = (1 - t) * a + t * b
    frame = tube.frame(s)
    pts = tube.curve(s) + np.einsum("pa,pai->pi", u, frame)
    vel = (b - a) * (tube.velocity(s) + np.einsum("pa,pai->pi", u, tube.frame_deriv(s)))
    vel = vel + np.einsum("pa,pai->pi", w, frame)
    return g_norm(g, pts, vel)


def lagrangian_integral(g: MetricChart, nc: NetChart, coords: NetCoord) -> float:
    """Sum over edges of multiplicity times the integral of L."""
    total = 0.0
    for e in nc.reference.graph.edges:
        vals = _lagrangian_values(g, nc, coords.coords[e.id], e.id)
        wq = stencils.quadrature_weights(vals.shape[0], loop=e.id in nc.reference.periodic_edges)
        total += e.multiplicity * float(wq @ vals)
    return total


def mean_curvature_H(g: MetricChart, nc: NetChart, coords: NetCoord):
    """Coordinate stationarity residual (interior part, vertex part).

    Interior: n(E) (grad_u L - d/dt grad_w L) per edge on the grid.
    Vertex: the transfer-adjoint sums of the endpoint data
    (integral dL/da or dL/db, -/+ grad_w L at the endpoint).
    """
    graph = nc.reference.graph
    h1 = {}
    endpoint_data = {}
    for e in graph.edges:
        pc = coords.coords[e.id]
        npts = pc.u.shape[0]
        nm1 = pc.u.shape[1]
        shift = np.zeros(nm1) if e.id in nc.reference.periodic_edges else None
        w_arr = stencils.velocity(pc.u, loop_shift=shift)
        grad_u = np.empty((npts, nm1))
        grad_w = np.empty((npts, nm1))
        for aidx in range(nm1):
            du = np.zeros((npts, nm1))
            du[:, aidx] = FD_STEP
            grad_u[:, aidx] = (
                _lagrangian_values(g, nc, pc, e.id, u=pc.u + du, w=w_arr)
                - _lagrangian_values(g, nc, pc, e.id, u=pc.u - du, w=w_arr)
            ) / (2 * FD_STEP)
            grad_w[:, aidx] = (
                _lagrangian_values(g, nc, pc, e.id, w=w_arr + du)
                - _lagrangian_values(g, nc, pc, e.id, w=w_arr - du)
            ) / (2 * FD_STEP)
        ddt_grad_w = stencils.velocity(grad_w, loop_shift=shift)
        h1[e.id] = e.multiplicity * (grad_u - ddt_grad_w)
        # endpoint blocks for the vertex part, integrated with the weights
        # of ``lagrangian_integral`` so they differentiate that functional
        dl_da = (
            _lagrangian_values(g, nc, pc, e.id, a=pc.a + FD_STEP, w=w_arr)
            - _lagrangian_values(g, nc, pc, e.id, a=pc.a - FD_STEP, w=w_arr)
        ) / (2 * FD_STEP)
        dl_db = (
            _lagrangian_values(g, nc, pc, e.id, b=pc.b + FD_STEP, w=w_arr)
            - _lagrangian_values(g, nc, pc, e.id, b=pc.b - FD_STEP, w=w_arr)
        ) / (2 * FD_STEP)
        wq = stencils.quadrature_weights(npts, loop=shift is not None)
        int_da = float(wq @ dl_da)
        int_db = float(wq @ dl_db)
        a1 = e.multiplicity * np.concatenate([[int_da], -grad_w[0]])
        a2 = e.multiplicity * np.concatenate([[int_db], grad_w[-1]])
        endpoint_data[e.id] = (a1, a2)
    h2 = {}
    for v in graph.vertices:
        pref_eid, pref_i = nc.preferred[v]
        ref = _endpoint_coordinate(coords.coords[pref_eid], pref_i)
        acc = np.zeros(nc.dim)
        for eid, i in graph.incident_pairs(v):
            a_vec = endpoint_data[eid][i]
            if (eid, i) == (pref_eid, pref_i):
                acc += a_vec
            else:
                coord = _endpoint_coordinate(coords.coords[eid], i)
                t_jac = _transfer_jacobian(nc, eid, pref_eid, coord, s_hint=ref[0])
                acc += t_jac.T @ a_vec
        h2[v] = acc
    return h1, h2


def stationarity_equivalence_check(g: MetricChart, nc: NetChart, coords: NetCoord,
                                   tol: float = 1e-4, residuals: tuple | None = None) -> bool:
    """True when the coordinate residual (H, C) and the ambient stationarity
    residual agree on whether the net is stationary, both at ``tol``.

    ``residuals`` is (h1, h2, c_res) as ``mean_curvature_H`` and
    ``constraint_C`` return them for these coordinates, when the caller
    has them already; otherwise they are computed here.
    """
    if residuals is None:
        residuals = (*mean_curvature_H(g, nc, coords), constraint_C(nc, coords))
    h1, h2, c_res = residuals
    h1_norm = max(float(np.abs(v).max()) for v in h1.values())
    h2_norm = max(float(np.linalg.norm(v)) for v in h2.values())
    coord_stationary = max(h1_norm, h2_norm, c_res.norm) <= tol
    net = lambda_map(nc, coords)
    ambient_stationary = stationarity_residual(g, net).aggregate <= tol
    return coord_stationary == ambient_stationary
