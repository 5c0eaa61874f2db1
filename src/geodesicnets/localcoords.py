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
from functools import partial

import numpy as np

from . import stencils
from .geometry import (
    _ROT90, EuclideanChart, HermiteCurve, MetricChart, christoffel_apply, foot_parameters,
    _dot, geodesic_integrate, metric_norm, min_distance,
)
from .multigraph import preferred_pair
from .net import GeodesicNet, edge_lengths
from .variation import length_integrand, stationarity_residual

__all__ = [
    "PathCoord",
    "NetChart",
    "EdgeTube",
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
# the tube curves, and the tolerance of ``stationarity_equivalence_check``.
DELTA_REL = 0.1
ETA_REL = 0.2
TUBE_REFINE = 8
EQUIVALENCE_TOL = 1e-4


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
    """Extended reference curve with a Euclidean normal frame, in a planar chart:
    the tube map and its s-derivative read ``curve``; the frame, its
    derivatives and the foot point of ``project`` read ``velocity``."""

    eid: str
    curve: HermiteCurve           # F(s) on a fine grid spanning [-eta, 1+eta]
    velocity: HermiteCurve        # F'(s) on the same grid
    delta_norm: float             # normal chart radius (background length units)
    eta: float
    periodic: bool = False        # reference edge is a smooth closed loop

    def jet(self, s) -> tuple:
        """(F, F', F'') at parameters s."""
        return (self.curve(s),) + self.velocity.jet(s, 1)

    def frame(self, s) -> np.ndarray:
        """Euclidean-orthonormal normal frame at s, shape (len(s), n-1, n)."""
        return self.frame_jet(s)[0]

    def frame_jet(self, s) -> tuple:
        """(N, N', N'') at s, the frame and its s-derivatives, each (len(s), n-1, n)."""
        fp, fpp, fppp = self.velocity.jet(s, 2)
        nrm = np.linalg.norm(fp, axis=1, keepdims=True)
        d1, d11, d2 = (np.einsum("pi,pi->p", x, y)[:, None]
                       for x, y in ((fp, fpp), (fpp, fpp), (fp, fppp)))
        that_d = fpp / nrm - fp * d1 / nrm**3
        that_dd = fppp / nrm - (2 * fpp * d1 + fp * (d11 + d2)) / nrm**3 + 3 * fp * d1**2 / nrm**5
        return tuple((x @ _ROT90.T)[:, None, :] for x in (fp / nrm, that_d, that_dd))

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
class NetChart:
    """Tubes for every edge of a reference net plus preferred pairs."""

    chart: MetricChart
    reference: GeodesicNet
    tubes: dict[str, EdgeTube]
    preferred: dict[str, tuple]


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
    # both end extensions of every edge, one geodesic batch per edge group
    fine_data = {}
    for grp in net.edge_groups():
        fine = stencils.upsample_curve(grp.samples, TUBE_REFINE, loop=grp.loop)
        vf = stencils.derivative_ho(fine, 1, loop=grp.loop)
        h_f = 1.0 / (fine.shape[1] - 1)
        n_ext = int(np.ceil(ETA_REL / h_f))
        eta = n_ext * h_f
        points, velocities = geodesic_integrate(
            chart, fine[:, [-1, 0]].reshape(-1, net.dim),
            (vf[:, [-1, 0]] * [[1.0], [-1.0]]).reshape(-1, net.dim), eta, n_ext)
        for k, eid in enumerate(grp.ids):
            ends = slice(2 * k, 2 * k + 2)
            fine_data[eid] = (fine[k], vf[k], eta, points[ends], velocities[ends])
    tubes = {}
    for e in net.graph.edges:
        # the forward and the backward run
        fine, vf, eta, (fwd, bwd), (fwd_vel, bwd_vel) = fine_data[e.id]
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
            delta_norm=DELTA_REL * lengths[e.id],
            eta=eta,
            periodic=e.id in net.periodic_edges,
        )
        _validate_tube(tube)
        tubes[e.id] = tube
    preferred = {v: preferred_pair(net.graph, v) for v in net.graph.vertices}
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
    return PathCoord(a=a, b=b, u=stencils.evaluate_curve(curve[:, 1:], params, loop=False))


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


def lambda_map(nc: NetChart, coords: dict[str, PathCoord]) -> GeodesicNet:
    """Coordinates (a ``PathCoord`` per edge) -> net, through the tubes of
    the chart center."""
    samples = {}
    for eid, pc in coords.items():
        if not (-DELTA_REL < pc.a < DELTA_REL):
            raise TubeError(f"coordinate a of {eid!r} outside its radius")
        if not (1 - DELTA_REL < pc.b < 1 + DELTA_REL):
            raise TubeError(f"coordinate b of {eid!r} outside its radius")
        samples[eid] = tube_embed(nc, eid, xi(pc))
    positions = {}
    for v in nc.reference.graph.vertices:
        eid, i = nc.preferred[v]
        positions[v] = nc.chart.wrap_many(samples[eid][[0 if i == 0 else -1]])[0]
    return GeodesicNet(
        graph=nc.reference.graph,
        edge_samples=samples,
        vertex_positions=positions,
        periodic_edges=nc.reference.periodic_edges,
    )


def coordinates_of(nc: NetChart, net: GeodesicNet) -> dict[str, PathCoord]:
    """Net -> coordinates, a ``PathCoord`` per edge: tube projection then
    reparametrization quotient."""
    return {e.id: xi_prime(tube_coordinates(nc, e.id, net.edge_samples[e.id]))
            for e in net.graph.edges}


# ---------------------------------------------------------------------------
# constraint map and coordinate stationarity residual
# ---------------------------------------------------------------------------

def _endpoint_coordinate(pc: PathCoord, i: int) -> np.ndarray:
    c = pc.a if i == 0 else pc.b
    u_end = pc.u[0] if i == 0 else pc.u[-1]
    return np.concatenate([[c], u_end])


def _transfer_point(nc: NetChart, from_eid: str, to_eid: str, coord: np.ndarray,
                    s_hint: float) -> np.ndarray:
    """(c, u) of one tube -> coordinates of the same point in another tube."""
    z = nc.tubes[from_eid].embed(np.array([coord[0]]), coord[1:][None, :])[0]
    return tube_coordinates(nc, to_eid, z[None, :], s_guess=np.array([s_hint]))[0]


def constraint_C(nc: NetChart, coords: dict[str, PathCoord]) -> np.ndarray:
    """Vertex-continuity residual; zero iff the coordinates glue to a net.

    One row of n per non-preferred incident pair, each its endpoint
    transferred into the preferred pair's tube minus the preferred
    endpoint, stacked by sorted vertex id and then sorted pair.
    """
    parts = []
    for v in sorted(nc.reference.graph.vertices):
        pref_eid, pref_i = nc.preferred[v]
        ref = _endpoint_coordinate(coords[pref_eid], pref_i)
        for eid, i in sorted(nc.reference.graph.incident_pairs(v)):
            if (eid, i) == (pref_eid, pref_i):
                continue
            here = _endpoint_coordinate(coords[eid], i)
            parts.append(_transfer_point(nc, eid, pref_eid, here, s_hint=ref[0]) - ref)
    return np.concatenate(parts)


def _tube_jacobian(tube: EdgeTube, coord: np.ndarray) -> np.ndarray:
    """d embed / d(s, u) at one tube coordinate: columns F'(s) + u N'(s), then N(s)."""
    frame, frame_d, _ = tube.frame_jet(coord[:1])
    along = tube.curve.jet(coord[:1], 1)[1][0] + coord[1:] @ frame_d[0]
    return np.column_stack([along, *frame[0]])


def _transfer_jacobian(nc: NetChart, from_eid: str, to_eid: str, coord: np.ndarray,
                       s_hint: float) -> np.ndarray:
    """d ``_transfer_point`` / d coord: the inverse tube Jacobian at the image
    times the tube Jacobian at coord (``project`` inverts ``embed``)."""
    image = _transfer_point(nc, from_eid, to_eid, coord, s_hint=s_hint)
    return np.linalg.solve(_tube_jacobian(nc.tubes[to_eid], image),
                           _tube_jacobian(nc.tubes[from_eid], coord))


def _lagrangian_jet(g: MetricChart, tube: EdgeTube, pc: PathCoord, w: np.ndarray) -> tuple:
    """L(t, a, b, u(t), w(t)) on the grid of u, in the tube's coordinates, and
    its partials: (L, dL/du, dL/dw, dL/da, dL/db), by the chain rule through
    ``length_integrand`` (dL/dx = speed grad(phi), dL/dv = g v / speed)."""
    t = np.linspace(0.0, 1.0, pc.u.shape[0])
    s = (1 - t) * pc.a + t * pc.b
    span = pc.b - pc.a
    frame, frame_d, frame_dd = tube.frame_jet(s)
    (f, f_d), (fv, fv_d) = tube.curve.jet(s, 1), tube.velocity.jet(s, 1)
    along, onto = partial(np.einsum, "pa,pai->pi"), partial(np.einsum, "pi,pai->pa")
    pts = f + along(pc.u, frame)
    vel_db = fv + along(pc.u, frame_d)
    vel = span * vel_db + along(w, frame)
    lam, dl_dx, dl_dv = length_integrand(g, pts[None], vel[None], np.ones(len(t)))
    dl_dx, dl_dv = dl_dx[0], dl_dv[0]
    dl_ds = _dot(dl_dx, f_d + along(pc.u, frame_d)) + _dot(
        dl_dv, span * (fv_d + along(pc.u, frame_dd)) + along(w, frame_d))
    r = _dot(dl_dv, vel_db)
    return (metric_norm(lam, vel), onto(dl_dx, frame) + span * onto(dl_dv, frame_d),
            onto(dl_dv, frame), (1 - t) * dl_ds - r, t * dl_ds + r)


def lagrangian_integral(g: MetricChart, nc: NetChart, coords: dict[str, PathCoord]) -> float:
    """Sum over edges of multiplicity times the integral of L."""
    total = 0.0
    for e in nc.reference.graph.edges:
        pc = coords[e.id]
        loop = e.id in nc.reference.periodic_edges
        vals = _lagrangian_jet(g, nc.tubes[e.id], pc, stencils.velocity(pc.u, loop=loop))[0]
        wq = stencils.quadrature_weights(vals.shape[0], loop=loop)
        total += e.multiplicity * float(wq @ vals)
    return total


def mean_curvature_H(g: MetricChart, nc: NetChart, coords: dict[str, PathCoord]):
    """Coordinate stationarity residual (interior part, vertex part).

    Interior: n(E) (grad_u L - d/dt grad_w L) per edge on the grid.
    Vertex: the transfer-adjoint sums of the endpoint data
    (integral dL/da or dL/db, -/+ grad_w L at the endpoint).  The partials
    are exact (``_lagrangian_jet``), so H differentiates ``lagrangian_integral``.
    """
    graph = nc.reference.graph
    h1 = {}
    endpoint_data = {}
    for e in graph.edges:
        pc = coords[e.id]
        loop = e.id in nc.reference.periodic_edges
        _, grad_u, grad_w, dl_da, dl_db = _lagrangian_jet(
            g, nc.tubes[e.id], pc, stencils.velocity(pc.u, loop=loop))
        h1[e.id] = e.multiplicity * (grad_u - stencils.velocity(grad_w, loop=loop))
        # endpoint blocks for the vertex part, integrated with the weights
        # of ``lagrangian_integral`` so they differentiate that functional
        wq = stencils.quadrature_weights(pc.u.shape[0], loop=loop)
        endpoint_data[e.id] = (e.multiplicity * np.concatenate([[wq @ dl_da], -grad_w[0]]),
                               e.multiplicity * np.concatenate([[wq @ dl_db], grad_w[-1]]))
    h2 = {}
    for v in graph.vertices:
        pref_eid, pref_i = nc.preferred[v]
        ref = _endpoint_coordinate(coords[pref_eid], pref_i)
        acc = np.zeros(nc.reference.dim)
        for eid, i in graph.incident_pairs(v):
            a_vec = endpoint_data[eid][i]
            if (eid, i) == (pref_eid, pref_i):
                acc += a_vec
            else:
                coord = _endpoint_coordinate(coords[eid], i)
                t_jac = _transfer_jacobian(nc, eid, pref_eid, coord, s_hint=ref[0])
                acc += t_jac.T @ a_vec
        h2[v] = acc
    return h1, h2


def stationarity_equivalence_check(g: MetricChart, nc: NetChart, coords: dict[str, PathCoord],
                                   residuals: tuple | None = None) -> bool:
    """True when the coordinate residual (H, C) and the ambient stationarity
    residual agree on whether the net is stationary at ``EQUIVALENCE_TOL``.

    ``residuals`` is (h1, h2, c_res) as ``mean_curvature_H`` and
    ``constraint_C`` return them for these coordinates, when the caller
    has them already; otherwise they are computed here.
    """
    if residuals is None:
        residuals = (*mean_curvature_H(g, nc, coords), constraint_C(nc, coords))
    h1, h2, c_res = residuals
    h1_norm = max(float(np.abs(v).max()) for v in h1.values())
    h2_norm = max(float(np.linalg.norm(v)) for v in h2.values())
    coord_stationary = max(h1_norm, h2_norm, float(np.linalg.norm(c_res))) <= EQUIVALENCE_TOL
    net = lambda_map(nc, coords)
    ambient_stationary = stationarity_residual(g, net).aggregate <= EQUIVALENCE_TOL
    return coord_stationary == ambient_stationary
