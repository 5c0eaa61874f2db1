"""Riemannian metrics on coordinate charts.

All manifolds live in a single global chart: a box in R^n, a flat torus
(R^n modulo a lattice), or the stereographic plane of a round sphere.
Conformal families (1 + x*h) * g0 stack on any base chart.  The auxiliary
background metric used for exponential maps and normal bundles is always
the Euclidean chart metric, so exp/log are affine.

Curvature follows the sign convention in which the Jacobi equation along a
geodesic reads  J'' + R(f', J)f' = 0  and the round sphere has
<R(X,Y)X, Y> > 0 for orthonormal X, Y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import stencils

__all__ = [
    "MetricChart",
    "EuclideanChart",
    "FlatTorusChart",
    "StereographicSphereChart",
    "ConformalChart",
    "ScalarField",
    "ConstantField",
    "SumField",
    "RadialBumpField",
    "DirectionalBumpField",
    "SampledCurve",
    "conformal_family",
    "geodesic_integrate",
    "parallel_transport",
    "exp_background",
    "g_dot",
    "g_norm",
]

# Quarter turn of the plane: maps a vector to its positive normal.
_ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


class DomainError(ValueError):
    """A point or trajectory left the chart domain."""


# ---------------------------------------------------------------------------
# scalar fields (conformal factors)
# ---------------------------------------------------------------------------

def _bump_profile(rho: np.ndarray) -> np.ndarray:
    """C^2 compactly supported profile (1 - rho^2)^3 on rho < 1."""
    rho = np.asarray(rho)
    out = np.zeros_like(rho, dtype=float)
    inside = rho < 1.0
    out[inside] = (1.0 - rho[inside] ** 2) ** 3
    return out


class ScalarField:
    """Scalar field h with chart gradient; used as a conformal factor."""

    def value_many(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient_many(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value(self, p) -> float:
        return float(self.value_many(np.asarray(p, dtype=float)[None, :])[0])

    def gradient(self, p) -> np.ndarray:
        return self.gradient_many(np.asarray(p, dtype=float)[None, :])[0]

    def sup_bound(self) -> float:
        """Upper bound for |h| over the chart."""
        raise NotImplementedError

    def bounds(self) -> tuple[float, float]:
        """(lower, upper) bounds of h over the chart."""
        s = self.sup_bound()
        return (-s, s)


class ConstantField(ScalarField):
    def __init__(self, c: float):
        self.c = float(c)

    def value_many(self, points):
        return np.full(points.shape[0], self.c)

    def gradient_many(self, points):
        return np.zeros_like(points, dtype=float)

    def sup_bound(self):
        return abs(self.c)

    def bounds(self):
        return (self.c, self.c)


class SumField(ScalarField):
    """Pointwise sum of scalar fields."""

    def __init__(self, fields):
        self.fields = list(fields)

    def value_many(self, points):
        out = np.zeros(points.shape[0])
        for f in self.fields:
            out += f.value_many(points)
        return out

    def gradient_many(self, points):
        out = np.zeros_like(points, dtype=float)
        for f in self.fields:
            out += f.gradient_many(points)
        return out

    def sup_bound(self):
        return sum(f.sup_bound() for f in self.fields)

    def bounds(self):
        lo = sum(f.bounds()[0] for f in self.fields)
        hi = sum(f.bounds()[1] for f in self.fields)
        return (lo, hi)


class RadialBumpField(ScalarField):
    """amplitude * profile(|z - center| / radius), wrap-aware on tori."""

    def __init__(self, center, radius: float, amplitude: float, chart: "MetricChart | None" = None):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.amplitude = float(amplitude)
        self.chart = chart

    def _disp(self, points):
        if self.chart is None:
            return points - self.center
        return self.chart.displacement_many(np.broadcast_to(self.center, points.shape), points)

    def value_many(self, points):
        d = self._disp(points)
        rho = np.linalg.norm(d, axis=1) / self.radius
        return self.amplitude * _bump_profile(rho)

    def gradient_many(self, points):
        d = self._disp(points)
        r = np.linalg.norm(d, axis=1)
        rho = r / self.radius
        out = np.zeros_like(points, dtype=float)
        inside = (rho < 1.0) & (r > 0)
        coef = self.amplitude * (-6.0) * (1.0 - rho[inside] ** 2) ** 2 / self.radius**2
        out[inside] = coef[:, None] * d[inside]
        return out

    def sup_bound(self):
        return abs(self.amplitude)

    def bounds(self):
        return (min(0.0, self.amplitude), max(0.0, self.amplitude))


class DirectionalBumpField(ScalarField):
    """chi(|z - center|/radius) * <z - c(z), w> with c(z) the nearest point
    on a smooth anchor curve.

    Vanishes identically along the anchor curve; the gradient is analytic
    through the projection (the radius must stay below the anchor's normal
    injectivity radius, which the constructor enforces).
    """

    def __init__(self, center, radius: float, direction, anchor_points, anchor_velocities,
                 chart: "MetricChart | None" = None, amplitude: float = 1.0,
                 power: int = 1):
        self.center = np.asarray(center, dtype=float)
        self.direction = np.asarray(direction, dtype=float)
        self.chart = chart
        self.amplitude = float(amplitude)
        # power 1: the transversality pairing form; power 2: one-signed
        # pinning form with vanishing gradient along the anchor
        self.power = int(power)
        self.anchor_points = np.asarray(anchor_points, dtype=float)
        vels = np.asarray(anchor_velocities, dtype=float)
        m = self.anchor_points.shape[0]
        self._s_grid = np.linspace(0.0, 1.0, m)
        h_s = self._s_grid[1] - self._s_grid[0]
        # cubic Hermite interpolant: per-interval power-basis coefficients
        # of z = s - s_k, highest degree first
        dx = np.diff(self._s_grid)[:, None]
        slope = np.diff(self.anchor_points, axis=0) / dx
        t = (vels[:-1] + vels[1:] - 2 * slope) / dx
        self._coeffs = (t / dx, (slope - vels[:-1]) / dx - t, vels[:-1], self.anchor_points[:-1])
        # normal injectivity bound from the discrete curvature of the anchor
        speed2 = np.einsum("pi,pi->p", vels, vels)
        acc = np.gradient(vels, h_s, axis=0)
        acc_perp = acc - vels * (np.einsum("pi,pi->p", acc, vels) / speed2)[:, None]
        kappa = np.linalg.norm(acc_perp, axis=1) / speed2
        inj = 0.5 / max(kappa.max(), 1e-12)
        self.radius = float(min(radius, inj))

    def _hermite(self, s):
        """Anchor curve at parameters s: position, velocity and acceleration."""
        k = np.clip(np.searchsorted(self._s_grid, s, "right") - 1, 0, len(self._s_grid) - 2)
        z = (s - self._s_grid[k])[:, None]
        c3, c2, c1, c0 = (c[k] for c in self._coeffs)
        pos = ((c3 * z + c2) * z + c1) * z + c0
        return pos, (3 * c3 * z + 2 * c2) * z + c1, 6 * c3 * z + 2 * c2

    def _lift(self, points):
        """Represent points in the unwrapped frame of the anchor curve."""
        if self.chart is None:
            return points
        diff = points[:, None, :] - self.anchor_points[None, :, :]
        flat = self.chart.wrap_many(diff.reshape(-1, points.shape[1]))
        disp = flat.reshape(diff.shape)
        j = np.argmin(np.einsum("psi,psi->ps", disp, disp), axis=1)
        rows = np.arange(points.shape[0])
        return self.anchor_points[j] + disp[rows, j]

    def _project(self, points):
        """Nearest anchor parameter per point (Newton, nearest-node seed)."""
        d2 = ((points[:, None, :] - self.anchor_points[None, :, :]) ** 2).sum(axis=2)
        s = self._s_grid[np.argmin(d2, axis=1)].astype(float)
        lo, hi = self._s_grid[0], self._s_grid[-1]
        for _ in range(40):
            f, fp, fpp = self._hermite(s)
            r = points - f
            psi = np.einsum("pi,pi->p", r, fp)
            dpsi = -np.einsum("pi,pi->p", fp, fp) + np.einsum("pi,pi->p", r, fpp)
            s_new = np.clip(s - psi / dpsi, lo, hi)
            if np.abs(s_new - s).max() < 1e-15:
                s = s_new
                break
            s = s_new
        return s

    def _eval(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        lifted = self._lift(points)
        rel = lifted - self.center
        dist = np.linalg.norm(rel, axis=1)
        rho = dist / self.radius
        inside = rho < 1.0
        vals = np.zeros(points.shape[0])
        grads = np.zeros_like(points)
        if np.any(inside):
            zin = lifted[inside]
            c, fp, fpp = self._hermite(self._project(zin))
            offset = zin - c
            pairing = offset @ self.direction
            chi = _bump_profile(rho[inside])
            powered = pairing if self.power == 1 else pairing**self.power
            vals[inside] = self.amplitude * chi * powered
            # grad(<z - c(z), w>) = w - <F', w> F' / (|F'|^2 - <z-c, F''>)
            denom = np.einsum("pi,pi->p", fp, fp) - np.einsum("pi,pi->p", offset, fpp)
            proj_w = fp * ((fp @ self.direction) / denom)[:, None]
            d_pair = self.direction[None, :] - proj_w
            if self.power != 1:
                d_pair = d_pair * (self.power * pairing ** (self.power - 1))[:, None]
            rr = rho[inside]
            dd = np.maximum(dist[inside], 1e-300)
            dchi = -6.0 * rr * (1.0 - rr**2) ** 2 / self.radius
            grads[inside] = self.amplitude * (
                dchi[:, None] * (rel[inside] / dd[:, None]) * powered[:, None]
                + chi[:, None] * d_pair
            )
        return vals, grads

    def value_many(self, points):
        return self._eval(points)[0]

    def gradient_many(self, points):
        return self._eval(points)[1]

    def sup_bound(self):
        return abs(self.amplitude) * self.radius**self.power

    def bounds(self):
        hi = self.sup_bound()
        if self.power % 2 == 0:
            return (min(0.0, self.amplitude) * self.radius**self.power,
                    max(0.0, self.amplitude) * self.radius**self.power)
        return (-hi, hi)


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

class MetricChart:
    """Base class; subclasses provide vectorized metric data."""

    dim: int

    # -- metric data ------------------------------------------------------
    def metric_many(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def metric_deriv_many(self, points: np.ndarray) -> np.ndarray:
        """d_k g_ij, shape (m, n, n, n) indexed [.., k, i, j]."""
        raise NotImplementedError

    def metric(self, p) -> np.ndarray:
        return self.metric_many(np.asarray(p, dtype=float)[None, :])[0]

    def metric_deriv(self, p) -> np.ndarray:
        return self.metric_deriv_many(np.asarray(p, dtype=float)[None, :])[0]

    def christoffel_many(self, points: np.ndarray) -> np.ndarray:
        """Gamma^k_ij, shape (m, n, n, n) indexed [.., k, i, j]."""
        g = self.metric_many(points)
        dg = self.metric_deriv_many(points)
        ginv = np.linalg.inv(g)
        # 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij); dg is indexed [m, k, i, j]
        t1 = np.transpose(dg, (0, 1, 2, 3))  # d_i g_jl -> [m, i, j, l]
        t2 = np.transpose(dg, (0, 2, 1, 3))  # d_j g_il -> [m, i, j, l]
        t3 = np.transpose(dg, (0, 2, 3, 1))  # d_l g_ij -> [m, i, j, l]
        br = t1 + t2 - t3
        return 0.5 * np.einsum("mkl,mijl->mkij", ginv, br)

    def christoffel(self, p) -> np.ndarray:
        return self.christoffel_many(np.asarray(p, dtype=float)[None, :])[0]

    christoffel_fd_step = 1e-4

    def christoffel_deriv_many(self, points: np.ndarray) -> np.ndarray:
        """d_m Gamma^k_ij, shape (m, n, n, n, n) indexed [.., m, k, i, j].

        Central differences of the Christoffel symbols unless a subclass
        provides a closed form.
        """
        n = self.dim
        step = self.christoffel_fd_step
        out = np.empty((points.shape[0], n, n, n, n))
        for m in range(n):
            dp = np.zeros(n)
            dp[m] = step
            out[:, m] = (
                self.christoffel_many(points + dp) - self.christoffel_many(points - dp)
            ) / (2 * step)
        return out

    def curvature_many(self, points, X, Y, Z) -> np.ndarray:
        """R(X,Y)Z at each point (Jacobi-compatible sign)."""
        gam = self.christoffel_many(points)
        dgam = self.christoffel_deriv_many(points)
        # R(X,Y)Z^l = [dGam_j Gam^l_ik - dGam_i Gam^l_jk
        #              + Gam^l_jm Gam^m_ik - Gam^l_im Gam^m_jk] X^i Y^j Z^k
        t1 = np.einsum("pjlik,pi,pj,pk->pl", dgam, X, Y, Z)
        t2 = np.einsum("piljk,pi,pj,pk->pl", dgam, X, Y, Z)
        t3 = np.einsum("pljm,pmik,pi,pj,pk->pl", gam, gam, X, Y, Z)
        t4 = np.einsum("plim,pmjk,pi,pj,pk->pl", gam, gam, X, Y, Z)
        return t1 - t2 + t3 - t4

    def curvature(self, p, X, Y, Z) -> np.ndarray:
        arr = lambda a: np.asarray(a, dtype=float)[None, :]
        return self.curvature_many(arr(p), arr(X), arr(Y), arr(Z))[0]

    # -- domain -----------------------------------------------------------
    def contains(self, p) -> bool:
        return True

    def wrap(self, p) -> np.ndarray:
        return np.asarray(p, dtype=float)

    def wrap_many(self, points) -> np.ndarray:
        return np.asarray(points, dtype=float)

    def displacement_many(self, p, q) -> np.ndarray:
        """Shortest chart representative of q - p (vectorized)."""
        return np.asarray(q, dtype=float) - np.asarray(p, dtype=float)

    def displacement(self, p, q) -> np.ndarray:
        return self.displacement_many(
            np.asarray(p, dtype=float)[None, :], np.asarray(q, dtype=float)[None, :]
        )[0]

    def injectivity_bound(self) -> float:
        return np.inf


class EuclideanChart(MetricChart):
    """Flat metric on a box (or all of R^n)."""

    def __init__(self, dim: int, box=None):
        self.dim = dim
        self.box = None if box is None else (np.asarray(box[0], float), np.asarray(box[1], float))

    def metric_many(self, points):
        m = points.shape[0]
        return np.broadcast_to(np.eye(self.dim), (m, self.dim, self.dim)).copy()

    def metric_deriv_many(self, points):
        m = points.shape[0]
        return np.zeros((m, self.dim, self.dim, self.dim))

    def christoffel_many(self, points):
        m = points.shape[0]
        return np.zeros((m, self.dim, self.dim, self.dim))

    def christoffel_deriv_many(self, points):
        m = points.shape[0]
        n = self.dim
        return np.zeros((m, n, n, n, n))

    def contains(self, p):
        if self.box is None:
            return True
        p = np.asarray(p, dtype=float)
        return bool(np.all(p >= self.box[0]) and np.all(p <= self.box[1]))


class FlatTorusChart(MetricChart):
    """R^n modulo the lattice spanned by the rows of ``lattice``."""

    def __init__(self, lattice):
        self.lattice = np.asarray(lattice, dtype=float)
        self.dim = self.lattice.shape[0]
        self._inv = np.linalg.inv(self.lattice)
        combos = []
        rng = range(-2, 3)
        from itertools import product
        for k in product(rng, repeat=self.dim):
            if any(k):
                combos.append(np.asarray(k, float) @ self.lattice)
        self._inj = 0.5 * min(np.linalg.norm(c) for c in combos)

    def metric_many(self, points):
        m = points.shape[0]
        return np.broadcast_to(np.eye(self.dim), (m, self.dim, self.dim)).copy()

    def metric_deriv_many(self, points):
        m = points.shape[0]
        return np.zeros((m, self.dim, self.dim, self.dim))

    def christoffel_many(self, points):
        m = points.shape[0]
        return np.zeros((m, self.dim, self.dim, self.dim))

    def christoffel_deriv_many(self, points):
        m = points.shape[0]
        n = self.dim
        return np.zeros((m, n, n, n, n))

    def wrap_many(self, points):
        points = np.asarray(points, dtype=float)
        frac = points @ self._inv
        frac -= np.round(frac)
        return frac @ self.lattice

    def wrap(self, p):
        return self.wrap_many(np.asarray(p, dtype=float)[None, :])[0]

    def displacement_many(self, p, q):
        d = np.asarray(q, dtype=float) - np.asarray(p, dtype=float)
        return self.wrap_many(d)

    def injectivity_bound(self):
        return self._inj


class StereographicSphereChart(MetricChart):
    """Round sphere of a given radius in stereographic coordinates.

    g_ij = mu(p)^2 delta_ij with mu = 2 r^2 / (r^2 + |p|^2); the projection
    point itself sits at chart infinity, so the chart domain is all of R^n.
    """

    def __init__(self, radius: float = 1.0, dim: int = 2):
        self.radius = float(radius)
        self.dim = dim

    def _mu(self, points):
        r2 = self.radius**2
        return 2.0 * r2 / (r2 + np.einsum("ij,ij->i", points, points))

    def metric_many(self, points):
        mu = self._mu(points)
        eye = np.eye(self.dim)
        return mu[:, None, None] ** 2 * eye

    def metric_deriv_many(self, points):
        # d_k g_ij = 2 mu d_k(mu) delta_ij,  d_k mu = -2 p_k mu / (r^2+|p|^2)
        r2 = self.radius**2
        denom = r2 + np.einsum("ij,ij->i", points, points)
        mu = 2.0 * r2 / denom
        dmu = -2.0 * points * (mu / denom)[:, None]
        eye = np.eye(self.dim)
        return 2.0 * mu[:, None, None, None] * dmu[:, :, None, None] * eye

    def _lam_derivs(self, points):
        """First and second derivatives of lambda = log mu."""
        r2 = self.radius**2
        denom = r2 + np.einsum("ij,ij->i", points, points)
        lam1 = -2.0 * points / denom[:, None]
        eye = np.eye(self.dim)
        lam2 = (
            -2.0 * eye[None, :, :] / denom[:, None, None]
            + 4.0 * points[:, :, None] * points[:, None, :] / denom[:, None, None] ** 2
        )
        return lam1, lam2

    def christoffel_many(self, points):
        # Gamma^k_ij = delta_ik lam_j + delta_jk lam_i - delta_ij lam_k
        lam1, _ = self._lam_derivs(points)
        n = self.dim
        m = points.shape[0]
        gam = np.zeros((m, n, n, n))
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    gam[:, k, i, j] = (
                        (1.0 if i == k else 0.0) * lam1[:, j]
                        + (1.0 if j == k else 0.0) * lam1[:, i]
                        - (1.0 if i == j else 0.0) * lam1[:, k]
                    )
        return gam

    def christoffel_deriv_many(self, points):
        _, lam2 = self._lam_derivs(points)
        n = self.dim
        m = points.shape[0]
        out = np.zeros((m, n, n, n, n))
        for mm in range(n):
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        out[:, mm, k, i, j] = (
                            (1.0 if i == k else 0.0) * lam2[:, j, mm]
                            + (1.0 if j == k else 0.0) * lam2[:, i, mm]
                            - (1.0 if i == j else 0.0) * lam2[:, k, mm]
                        )
        return out


class ConformalChart(MetricChart):
    """(1 + x*h(p)) * g_base(p)."""

    def __init__(self, base: MetricChart, field: ScalarField, amplitude: float):
        self.base = base
        self.field = field
        self.amplitude = float(amplitude)
        self.dim = base.dim

    def factor_many(self, points):
        return 1.0 + self.amplitude * self.field.value_many(points)

    def metric_many(self, points):
        return self.factor_many(points)[:, None, None] * self.base.metric_many(points)

    def metric_deriv_many(self, points):
        g = self.base.metric_many(points)
        dg = self.base.metric_deriv_many(points)
        f = self.factor_many(points)
        grad = self.amplitude * self.field.gradient_many(points)
        return grad[:, :, None, None] * g[:, None, :, :] + f[:, None, None, None] * dg

    def christoffel_many(self, points):
        base_gam = self.base.christoffel_many(points)
        if isinstance(self.field, ConstantField):
            return base_gam
        f = self.factor_many(points)
        sig = 0.5 * self.amplitude * self.field.gradient_many(points) / f[:, None]
        g = self.base.metric_many(points)
        ginv = np.linalg.inv(self.metric_many(points)) * f[:, None, None]  # base inverse
        n = self.dim
        eye = np.eye(n)
        extra = (
            eye[None, :, :, None] * sig[:, None, None, :]
            + eye[None, :, None, :] * sig[:, None, :, None]
            - np.einsum("pij,pkl,pl->pkij", g, ginv, sig)
        )
        return base_gam + extra

    def christoffel_deriv_many(self, points):
        if isinstance(self.field, ConstantField):
            return self.base.christoffel_deriv_many(points)
        return MetricChart.christoffel_deriv_many(self, points)

    def contains(self, p):
        return self.base.contains(p)

    def wrap(self, p):
        return self.base.wrap(p)

    def wrap_many(self, points):
        return self.base.wrap_many(points)

    def displacement_many(self, p, q):
        return self.base.displacement_many(p, q)

    def injectivity_bound(self):
        return self.base.injectivity_bound()


def conformal_family(base: MetricChart, field: ScalarField, amplitude: float) -> ConformalChart:
    """Chart for (1 + amplitude*h) * g_base; rejects sign-violating factors."""
    lo, hi = field.bounds()
    if min(1.0 + amplitude * lo, 1.0 + amplitude * hi) <= 0.0:
        raise ValueError("conformal factor 1 + x*h is not positive on the chart")
    return ConformalChart(base, field, amplitude)


# ---------------------------------------------------------------------------
# metric pairings
# ---------------------------------------------------------------------------

def g_dot(chart: MetricChart, points, a, b) -> np.ndarray:
    g = chart.metric_many(np.asarray(points, dtype=float))
    return np.einsum("pij,pi,pj->p", g, np.asarray(a, float), np.asarray(b, float))

def g_norm(chart: MetricChart, points, a) -> np.ndarray:
    return np.sqrt(np.maximum(g_dot(chart, points, a, a), 0.0))


# ---------------------------------------------------------------------------
# curves, geodesics, transport
# ---------------------------------------------------------------------------

@dataclass
class SampledCurve:
    """Uniformly sampled curve with optional exact parameter-velocities."""

    points: np.ndarray
    velocities: np.ndarray | None = None
    loop_shift: np.ndarray | None = None

    @property
    def n_samples(self) -> int:
        return self.points.shape[0]

    def velocity_samples(self) -> np.ndarray:
        if self.velocities is not None:
            return self.velocities
        return stencils.velocity(self.points, loop_shift=self.loop_shift)


def _geodesic_rhs(chart, x, v):
    gam = chart.christoffel_many(x[None, :])[0]
    acc = -np.einsum("kij,i,j->k", gam, v, v)
    return v, acc


def geodesic_integrate(chart: MetricChart, p, v, T: float, steps: int) -> SampledCurve:
    """Integrate the geodesic equation with classical RK4 over parameter T."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    h = T / steps
    xs = np.empty((steps + 1, chart.dim))
    vs = np.empty((steps + 1, chart.dim))
    xs[0], vs[0] = p, v
    x, vel = p.copy(), v.copy()
    for k in range(steps):
        k1x, k1v = _geodesic_rhs(chart, x, vel)
        k2x, k2v = _geodesic_rhs(chart, x + 0.5 * h * k1x, vel + 0.5 * h * k1v)
        k3x, k3v = _geodesic_rhs(chart, x + 0.5 * h * k2x, vel + 0.5 * h * k2v)
        k4x, k4v = _geodesic_rhs(chart, x + h * k3x, vel + h * k3v)
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        vel = vel + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        if not chart.contains(x):
            raise DomainError(f"geodesic left the chart domain at step {k + 1}")
        xs[k + 1], vs[k + 1] = x, vel
    # velocities are parameter-derivatives w.r.t. the curve's own [0,1] grid
    return SampledCurve(points=xs, velocities=vs * T)


def _hermite_eval(p0, p1, m0, m1, tau):
    """Cubic Hermite on one interval; m are derivatives w.r.t. tau in [0,1]."""
    t2 = tau * tau
    t3 = t2 * tau
    return (
        (2 * t3 - 3 * t2 + 1) * p0
        + (t3 - 2 * t2 + tau) * m0
        + (-2 * t3 + 3 * t2) * p1
        + (t3 - t2) * m1
    )


def parallel_transport(chart: MetricChart, curve: SampledCurve, w0) -> np.ndarray:
    """Transport w0 along the curve: W' + Gamma(c', W) = 0 (RK4 per interval).

    Positions and velocities at half-steps come from cubic Hermite
    interpolation of the samples.
    """
    pts = curve.points
    vel = curve.velocity_samples()
    n = pts.shape[0]
    h = 1.0 / (n - 1)
    out = np.empty_like(pts, dtype=float)
    w = np.asarray(w0, dtype=float).copy()
    out[0] = w

    def rhs(x, xdot, wv):
        gam = chart.christoffel_many(x[None, :])[0]
        return -np.einsum("kij,i,j->k", gam, xdot, wv)

    for k in range(n - 1):
        p0, p1 = pts[k], pts[k + 1]
        m0, m1 = vel[k] * h, vel[k + 1] * h
        xm = _hermite_eval(p0, p1, m0, m1, 0.5)
        vm = (
            (6 * 0.25 - 6 * 0.5) * p0
            + (3 * 0.25 - 4 * 0.5 + 1) * m0
            + (-6 * 0.25 + 6 * 0.5) * p1
            + (3 * 0.25 - 2 * 0.5) * m1
        ) / h
        k1 = rhs(p0, vel[k], w)
        k2 = rhs(xm, vm, w + 0.5 * h * k1)
        k3 = rhs(xm, vm, w + 0.5 * h * k2)
        k4 = rhs(p1, vel[k + 1], w + h * k3)
        w = w + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = w
    return out


def exp_background(chart: MetricChart, p, w) -> np.ndarray:
    """Exponential map of the Euclidean background metric: p + w."""
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    bound = chart.injectivity_bound()
    if np.isfinite(bound) and np.linalg.norm(w) > bound:
        raise DomainError(
            f"background exponential step |w|={np.linalg.norm(w):.3g} exceeds injectivity bound {bound:.3g}"
        )
    q = p + w
    if not chart.contains(q):
        raise DomainError("background exponential left the chart domain")
    return q

