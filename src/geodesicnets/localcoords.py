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
from typing import TYPE_CHECKING

import numpy as np

from . import stencils
from .geometry import MetricChart, g_norm, geodesic_integrate
from .multigraph import star
from .net import GeodesicNet, edge_lengths
from .variation import stationarity_residual

if TYPE_CHECKING:
    from scipy.interpolate import CubicHermiteSpline

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
    "lagrangian_L",
    "lagrangian_integral",
    "mean_curvature_H",
    "stationarity_equivalence_check",
]

_ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


class TubeError(ValueError):
    """Coordinates or curves left the tube of validity."""


@dataclass
class PathCoord:
    """(a, b, u): longitudinal endpoint coordinates and normal profile."""

    a: float
    b: float
    u: np.ndarray  # (N+1, n-1) on the uniform grid over [0, 1]

    def stack(self) -> np.ndarray:
        return np.concatenate([[self.a, self.b], self.u.ravel()])


@dataclass
class EdgeTube:
    """Extended reference curve with a Euclidean normal frame."""

    eid: str
    s_grid: np.ndarray            # fine grid spanning [-eta, 1+eta]
    curve: CubicHermiteSpline     # F(s)
    velocity: CubicHermiteSpline  # F'(s)
    delta_long: float             # longitudinal chart radius (parameter units)
    delta_norm: float             # normal chart radius (background length units)
    eta: float
    points: np.ndarray            # F at the fine nodes (for projection guesses)
    periodic: bool = False        # reference edge is a smooth closed loop

    def frame(self, s) -> np.ndarray:
        """Euclidean-orthonormal normal frame at s, shape (len(s), n-1, n)."""
        fp = self.velocity(s)
        if fp.ndim == 1:
            fp = fp[None, :]
        n = fp.shape[1]
        if n != 2:
            raise NotImplementedError("tubes are implemented for planar charts")
        that = fp / np.linalg.norm(fp, axis=1, keepdims=True)
        return (that @ _ROT90.T)[:, None, :]

    def frame_deriv(self, s) -> np.ndarray:
        fp = self.velocity(s)
        fpp = self.velocity(s, 1)
        if fp.ndim == 1:
            fp = fp[None, :]
            fpp = fpp[None, :]
        nrm = np.linalg.norm(fp, axis=1, keepdims=True)
        that_d = fpp / nrm - fp * np.einsum("pi,pi->p", fp, fpp)[:, None] / nrm**3
        return (that_d @ _ROT90.T)[:, None, :]

    def embed(self, s, u) -> np.ndarray:
        """(s, u) -> F(s) + sum_a u_a N_a(s)."""
        pts = self.curve(s)
        if pts.ndim == 1:
            pts = pts[None, :]
        frames = self.frame(s)
        return pts + np.einsum("pa,pai->pi", np.atleast_2d(u), frames)

    def project(self, z: np.ndarray, s_guess: np.ndarray | None = None):
        """Invert the tube map: ambient points -> (s, u) coordinates.

        ``s_guess`` selects the branch when the tube wraps (loop edges);
        without it the nearest fine node seeds the Newton iteration.
        """
        z = np.atleast_2d(z)
        if s_guess is not None:
            s = np.array(s_guess, dtype=float).copy()
        else:
            d2 = ((z[:, None, :] - self.points[None, :, :]) ** 2).sum(axis=2)
            s = self.s_grid[np.argmin(d2, axis=1)].astype(float)
        for _ in range(60):
            f = self.curve(s)
            fp = self.velocity(s)
            fpp = self.velocity(s, 1)
            r = z - f
            psi = np.einsum("pi,pi->p", r, fp)
            dpsi = -np.einsum("pi,pi->p", fp, fp) + np.einsum("pi,pi->p", r, fpp)
            step = psi / dpsi
            s_new = np.clip(s - step, self.s_grid[0], self.s_grid[-1])
            if np.abs(s_new - s).max() < 1e-15:
                s = s_new
                break
            s = s_new
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


def build_net_chart(chart: MetricChart, net: GeodesicNet, delta_rel: float = 0.1,
                    eta_rel: float = 0.2, refine: int = 8) -> NetChart:
    """Tubes around a smooth (stationary) net, extended geodesically.

    The longitudinal radius is ``delta_rel`` in parameter units; the
    normal radius is ``delta_rel`` times the edge length in background
    units; edges are extended by ``eta_rel`` parameter units.
    """
    from scipy.interpolate import CubicHermiteSpline

    lengths = net.lengths or edge_lengths(chart, net)
    tubes = {}
    for e in net.graph.edges:
        s = net.edge_samples[e.id]
        shift = net.loop_shift(e.id)
        fine = stencils.upsample_curve(s, refine, loop_shift=shift)
        m = fine.shape[0]
        h_f = 1.0 / (m - 1)
        vf = stencils.velocity_ho(fine, loop_shift=shift)
        n_ext = int(np.ceil(eta_rel / h_f))
        eta = n_ext * h_f
        fwd = geodesic_integrate(chart, fine[-1], vf[-1], eta, n_ext)
        bwd = geodesic_integrate(chart, fine[0], -vf[0], eta, n_ext)
        pts = np.concatenate([bwd.points[1:][::-1], fine, fwd.points[1:]], axis=0)
        # integrator velocities are scaled to its own unit span; rescale to
        # the tube parameter (backward run flips the sign)
        vels = np.concatenate(
            [-(bwd.velocities[1:] / eta)[::-1], vf, fwd.velocities[1:] / eta], axis=0
        )
        s_grid = np.linspace(-eta, 1.0 + eta, pts.shape[0])
        gam = chart.christoffel_many(pts)
        accs = -np.einsum("pkij,pi,pj->pk", gam, vels, vels)
        curve = CubicHermiteSpline(s_grid, pts, vels, axis=0)
        vel_spline = CubicHermiteSpline(s_grid, vels, accs, axis=0)
        tube = EdgeTube(
            eid=e.id,
            s_grid=s_grid,
            curve=curve,
            velocity=vel_spline,
            delta_long=delta_rel,
            delta_norm=delta_rel * lengths[e.id],
            eta=eta,
            points=pts,
            periodic=e.id in net.periodic_edges,
        )
        _validate_tube(tube)
        tubes[e.id] = tube
    preferred = {v: star(net.graph, v).preferred for v in net.graph.vertices}
    return NetChart(chart=chart, reference=net, tubes=tubes, preferred=preferred)


def _validate_tube(tube: EdgeTube) -> None:
    """Sampling check that the tube does not self-overlap within its radius."""
    pts = tube.points
    s = tube.s_grid
    speed = np.linalg.norm(tube.velocity(s), axis=1)
    sep_param = 4.0 * tube.delta_norm / speed.min()
    for k in range(0, len(s), 4):
        d = np.linalg.norm(pts - pts[k], axis=1)
        sep = np.abs(s - s[k])
        if tube.periodic:
            # the extension wraps once around a closed reference curve
            sep = np.minimum(sep, np.abs(sep - 1.0))
        far = sep > sep_param
        if np.any(d[far] < 2.0 * tube.delta_norm):
            warnings.warn(
                f"tube of edge {tube.eid!r} may self-overlap; shrink delta_rel"
            )
            return


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
    is re-gridded as a function of the rescaled longitudinal coordinate.
    """
    from scipy.interpolate import CubicSpline

    lon = curve[:, 0]
    dlon = np.diff(lon)
    if not np.all(dlon > 0):
        raise TubeError("longitudinal component is not strictly monotone")
    a = float(lon[0])
    b = float(lon[-1])
    theta = (lon - a) / (b - a)
    npts = curve.shape[0]
    tgrid = np.linspace(0.0, 1.0, npts)
    u = np.empty((npts, curve.shape[1] - 1))
    for comp in range(curve.shape[1] - 1):
        # shape-preserving in theta; exact when theta is already the grid
        spl = CubicSpline(theta, curve[:, comp + 1])
        u[:, comp] = spl(tgrid)
    return PathCoord(a=a, b=b, u=u)


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
        np.searchsorted(tube.s_grid, s_guess), 0, tube.points.shape[0] - 1
    )
    ref = tube.points[guess_idx]
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
    pts = tube.curve(s) + np.einsum("pa,pai->pi", u, tube.frame(s))
    vel = (b - a) * (tube.velocity(s) + np.einsum("pa,pai->pi", u, tube.frame_deriv(s)))
    vel = vel + np.einsum("pa,pai->pi", w, tube.frame(s))
    return g_norm(g, pts, vel)


def lagrangian_L(g: MetricChart, nc: NetChart, coords: NetCoord, eid: str) -> np.ndarray:
    """Length integrand of one edge in its path coordinates, on the grid."""
    return _lagrangian_values(g, nc, coords.coords[eid], eid)


def lagrangian_integral(g: MetricChart, nc: NetChart, coords: NetCoord) -> float:
    """Sum over edges of multiplicity times the integral of L."""
    total = 0.0
    for e in nc.reference.graph.edges:
        vals = _lagrangian_values(g, nc, coords.coords[e.id], e.id)
        npts = vals.shape[0]
        wq = stencils.quadrature_weights(
            npts, 1.0 / (npts - 1), loop=e.id in nc.reference.periodic_edges
        )
        total += e.multiplicity * float(wq @ vals)
    return total


def mean_curvature_H(g: MetricChart, nc: NetChart, coords: NetCoord,
                     fd_step: float = 1e-6):
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
            du[:, aidx] = fd_step
            grad_u[:, aidx] = (
                _lagrangian_values(g, nc, pc, e.id, u=pc.u + du, w=w_arr)
                - _lagrangian_values(g, nc, pc, e.id, u=pc.u - du, w=w_arr)
            ) / (2 * fd_step)
            grad_w[:, aidx] = (
                _lagrangian_values(g, nc, pc, e.id, w=w_arr + du)
                - _lagrangian_values(g, nc, pc, e.id, w=w_arr - du)
            ) / (2 * fd_step)
        ddt_grad_w = stencils.velocity(grad_w, loop_shift=shift)
        h1[e.id] = e.multiplicity * (grad_u - ddt_grad_w)
        # endpoint blocks for the vertex part; Simpson keeps the endpoint
        # integrals at interior-order accuracy
        dl_da = (
            _lagrangian_values(g, nc, pc, e.id, a=pc.a + fd_step, w=w_arr)
            - _lagrangian_values(g, nc, pc, e.id, a=pc.a - fd_step, w=w_arr)
        ) / (2 * fd_step)
        dl_db = (
            _lagrangian_values(g, nc, pc, e.id, b=pc.b + fd_step, w=w_arr)
            - _lagrangian_values(g, nc, pc, e.id, b=pc.b - fd_step, w=w_arr)
        ) / (2 * fd_step)
        from scipy.integrate import simpson

        h_grid = 1.0 / (npts - 1)
        int_da = float(simpson(dl_da, dx=h_grid))
        int_db = float(simpson(dl_db, dx=h_grid))
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
                                   tol: float = 1e-4, ambient_tol: float | None = None) -> bool:
    """True when the coordinate residual (H, C) and the ambient stationarity
    residual agree on whether the net is stationary."""
    ambient_tol = tol if ambient_tol is None else ambient_tol
    h1, h2 = mean_curvature_H(g, nc, coords)
    c_res = constraint_C(nc, coords)
    h1_norm = max(float(np.abs(v).max()) for v in h1.values())
    h2_norm = max(float(np.linalg.norm(v)) for v in h2.values())
    coord_stationary = max(h1_norm, h2_norm, c_res.norm) <= tol
    net = lambda_map(nc, coords)
    ambient_stationary = stationarity_residual(g, net).aggregate <= ambient_tol
    return coord_stationary == ambient_stationary
