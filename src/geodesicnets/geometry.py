"""Riemannian metrics on coordinate charts.

All manifolds live in a single global chart: a box in R^n, a flat torus
(R^n modulo a lattice), or the stereographic plane of a round sphere.
Conformal families (1 + x*h) * g0 stack on any base chart.  The auxiliary
background metric used for normal bundles is always the Euclidean chart
metric.

Every chart is conformally flat, g = e^(2 phi) delta, and hands out one
primitive: the jet of phi (``MetricChart.factor_jet_many``).  Pairings,
the Christoffel symbols and the curvature follow from it in closed form
(Lee, Introduction to Riemannian Manifolds, 2nd ed., Thm 7.30):

    <a, b>_g   = e^(2 phi) a.b
    Gamma(v, w) = (v.dphi) w + (w.dphi) v - (v.w) dphi
    R(X, Y) Z  = (Y.Z) T X + T(Y, Z) X - T(X, Z) Y - (X.Z) T Y,
    T = ddphi - dphi dphi^T + |dphi|^2 I / 2,

with Euclidean dots.  Curvature follows the sign convention in which the
Jacobi equation along a geodesic reads  J'' + R(f', J)f' = 0  and the
round sphere has <R(X,Y)X, Y> > 0 for orthonormal X, Y.
"""

from __future__ import annotations

from itertools import product

import numpy as np

__all__ = [
    "MetricChart",
    "EuclideanChart",
    "FlatTorusChart",
    "StereographicSphereChart",
    "ConformalChart",
    "ScalarField",
    "SumField",
    "RadialBumpField",
    "DirectionalBumpField",
    "HermiteCurve",
    "foot_parameters",
    "conformal_family",
    "linear_rk4_flow",
    "geodesic_integrate",
    "parallel_transport",
    "christoffel_apply",
    "curvature_form",
    "curvature_apply",
    "g_dot",
    "g_norm",
    "metric_dot",
    "metric_norm",
    "min_distance",
]

# Quarter turn of the plane: maps a vector to its positive normal.
_ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


class DomainError(ValueError):
    """A point or trajectory left the chart domain."""


# ---------------------------------------------------------------------------
# scalar fields (conformal factors)
# ---------------------------------------------------------------------------

def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise outer products, shape (m, n, n)."""
    return a[:, :, None] * b[:, None, :]


def _profile_jet(u: np.ndarray, radius: float, order: int):
    """Profile (1 - |u|^2 / radius^2)^3, zero outside the ball, with its
    gradient and Hessian in u; entries above ``order`` are None."""
    q = np.maximum(1.0 - np.einsum("pi,pi->p", u, u) / radius**2, 0.0)
    d1 = d2 = None
    if order >= 1:
        d1 = (-6.0 / radius**2) * (q**2)[:, None] * u
    if order >= 2:
        d2 = ((-6.0 / radius**2) * (q**2)[:, None, None] * np.eye(u.shape[1])
              + (24.0 / radius**4) * q[:, None, None] * _outer(u, u))
    return q**3, d1, d2


class ScalarField:
    """Scalar field h with chart gradient and Hessian; used as a conformal factor."""

    def jet_many(self, points: np.ndarray, order: int):
        """(value, gradient, Hessian) of h at each point, from one evaluation.

        Shapes (m,), (m, n) and (m, n, n); entries above ``order`` are None.
        """
        raise NotImplementedError

    def value_many(self, points: np.ndarray) -> np.ndarray:
        return self.jet_many(points, 0)[0]

    def gradient_many(self, points: np.ndarray) -> np.ndarray:
        return self.jet_many(points, 1)[1]

    def bounds(self) -> tuple[float, float]:
        """(lower, upper) bounds of h over the chart."""
        raise NotImplementedError


def _constant_jet(c: float, points: np.ndarray, order: int):
    """Jet of the constant c: (c, 0, 0), entries above ``order`` None."""
    m, n = points.shape
    return (np.full(m, c),
            np.zeros((m, n)) if order >= 1 else None,
            np.zeros((m, n, n)) if order >= 2 else None)


class SumField(ScalarField):
    """Pointwise sum of scalar fields."""

    def __init__(self, fields):
        self.fields = list(fields)

    def jet_many(self, points, order):
        m, n = points.shape
        out = [np.zeros(m), np.zeros((m, n)), np.zeros((m, n, n))][: order + 1]
        for f in self.fields:
            for acc, part in zip(out, f.jet_many(points, order)):
                acc += part
        return tuple(out) + (None,) * (2 - order)

    def bounds(self):
        lo = sum(f.bounds()[0] for f in self.fields)
        hi = sum(f.bounds()[1] for f in self.fields)
        return (lo, hi)


class RadialBumpField(ScalarField):
    """amplitude * profile(|z - center| / radius), wrap-aware on tori."""

    def __init__(self, center, radius: float, amplitude: float, chart: "MetricChart"):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.amplitude = float(amplitude)
        self.chart = chart

    def jet_many(self, points, order):
        d = self.chart.displacement_many(self.center, points)
        jet = _profile_jet(d, self.radius, order)
        return tuple(None if part is None else self.amplitude * part for part in jet)

    def bounds(self):
        return (min(0.0, self.amplitude), max(0.0, self.amplitude))


class HermiteCurve:
    """Piecewise cubic Hermite interpolant of samples and their parameter
    derivatives on an increasing grid.

    Stored as per-interval power-basis coefficients of z = s - s_k, highest
    degree first; parameters outside the grid extend the end cubics.
    """

    def __init__(self, grid, values, derivatives):
        self.grid = np.asarray(grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.derivatives = np.asarray(derivatives, dtype=float)
        dx = np.diff(self.grid)[:, None]
        slope = np.diff(self.values, axis=0) / dx
        t = (self.derivatives[:-1] + self.derivatives[1:] - 2 * slope) / dx
        self._coeffs = (t / dx, (slope - self.derivatives[:-1]) / dx - t,
                        self.derivatives[:-1], self.values[:-1])

    def __call__(self, s) -> np.ndarray:
        """Value at parameters s, shape (len(s), d)."""
        return self.jet(s, 0)[0]

    def jet(self, s, order: int = 3) -> tuple:
        """Value and parameter derivatives 1 to ``order`` at parameters s,
        each of shape (len(s), d)."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        k = np.clip(np.searchsorted(self.grid, s, "right") - 1, 0, len(self.grid) - 2)
        z = (s - self.grid[k])[:, None]
        c3, c2, c1, c0 = (c[k] for c in self._coeffs)
        return (((c3 * z + c2) * z + c1) * z + c0, (3 * c3 * z + 2 * c2) * z + c1,
                6 * c3 * z + 2 * c2, 6 * c3)[: order + 1]


def foot_parameters(jet, points: np.ndarray, s: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Parameters of the nearest curve points, by Newton on <z - F(s), F'(s)> = 0.

    ``jet(s)`` returns (F, F', F'') at parameters s; the iteration starts
    from the seeds s and stays in [lo, hi].
    """
    for _ in range(60):
        f, fp, fpp = jet(s)
        r = points - f
        psi = np.einsum("pi,pi->p", r, fp)
        dpsi = -np.einsum("pi,pi->p", fp, fp) + np.einsum("pi,pi->p", r, fpp)
        s_new = np.clip(s - psi / dpsi, lo, hi)
        if np.abs(s_new - s).max() < 1e-15:
            return s_new
        s = s_new
    return s


class DirectionalBumpField(ScalarField):
    """chi(|z - center|/radius) * <z - c(z), w>^power with c(z) the nearest
    point on a smooth anchor curve through the center.

    Vanishes identically along the anchor curve; the derivatives are
    analytic through the projection.  The anchor is the cubic Hermite
    curve of the given samples and velocities over [0, 1].  The radius is
    capped below the anchor's normal injectivity radius and the chart's
    injectivity bound, so the ball is one disc in the center's frame.
    Points are taken at their shortest displacement from the center and
    every point outside the ball is zero.  Only the survivors are lifted
    and projected, seeded from the anchor window through the center; the
    ball must not reach the ends of an open anchor curve.
    """

    def __init__(self, center, radius: float, direction, anchor_points, anchor_velocities,
                 chart: "MetricChart", power: int = 1):
        self.center = np.asarray(center, dtype=float)
        self.direction = np.asarray(direction, dtype=float)
        self.chart = chart
        # power 1: the transversality pairing form; power 2: one-signed
        # pinning form with vanishing gradient along the anchor
        self.power = int(power)
        pts = np.asarray(anchor_points, dtype=float)
        vels = np.asarray(anchor_velocities, dtype=float)
        self.anchor = HermiteCurve(np.linspace(0.0, 1.0, pts.shape[0]), pts, vels)
        # normal injectivity bound from the discrete curvature of the anchor
        speed2 = np.einsum("pi,pi->p", vels, vels)
        acc = np.gradient(vels, self.anchor.grid[1], axis=0)
        acc_perp = acc - vels * (np.einsum("pi,pi->p", acc, vels) / speed2)[:, None]
        kappa = np.linalg.norm(acc_perp, axis=1) / speed2
        inj = 0.5 / max(kappa.max(), 1e-12)
        self.radius = float(min(radius, inj, chart.injectivity_bound()))
        self._window(vels)

    def _window(self, vels):
        """Anchor samples that can be the foot of a point in the ball.

        The contiguous run through the sample nearest the center on which
        the offset along the center tangent increases, out to the first
        sample beyond 2 * radius (a foot is at most that far from the center).
        """
        rel = self.anchor.values - self.center
        dist = np.linalg.norm(rel, axis=1)
        jc = int(np.argmin(dist))
        self._tangent = vels[jc] / np.linalg.norm(vels[jc])
        along = rel @ self._tangent
        ok = dist <= 2.0 * self.radius
        step = np.diff(along) > 0
        right = np.flatnonzero(~(step[jc:] & ok[jc:-1]))
        hi = jc + (right[0] if right.size else step.size - jc)
        left = np.flatnonzero(~(step[:jc] & ok[1:jc + 1])[::-1])
        lo = jc - (left[0] if left.size else jc)
        self._win_along = along[lo:hi + 1]
        self._win_s = self.anchor.grid[lo:hi + 1]

    def _seed(self, points):
        """Anchor parameters interpolated between the window samples that
        bracket each point's offset along the center tangent."""
        along, s = self._win_along, self._win_s
        if along.size == 1:
            return np.full(points.shape[0], s[0])
        key = (points - self.center) @ self._tangent
        k = np.clip(np.searchsorted(along, key), 1, along.size - 1)
        frac = np.clip((key - along[k - 1]) / (along[k] - along[k - 1]), 0.0, 1.0)
        return s[k - 1] + frac * (s[k] - s[k - 1])

    def jet_many(self, points, order):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        m, n = points.shape
        rel = self.chart.displacement_many(self.center, points)
        inside = np.flatnonzero(np.einsum("pi,pi->p", rel, rel) < self.radius**2)
        vals = np.zeros(m)
        grads = np.zeros((m, n)) if order >= 1 else None
        hess = np.zeros((m, n, n)) if order >= 2 else None
        if inside.size == 0:
            return vals, grads, hess
        u = rel[inside]
        z = self.center + u  # the lift in the center's frame
        s = foot_parameters(lambda s: self.anchor.jet(s, 2), z, self._seed(z), 0.0, 1.0)
        c, fp, fpp, fppp = self.anchor.jet(s)
        offset = z - c
        w = self.direction
        pairing = offset @ w
        p = self.power
        chi, dchi, ddchi = _profile_jet(u, self.radius, order)
        powered = pairing**p
        vals[inside] = chi * powered
        if order == 0:
            return vals, grads, hess
        # s(z): <z - F(s), F'(s)> = 0, so grad s = F' / D with
        # D = |F'|^2 - <z - F, F''>, and grad <z - F(s), w> = w - <F', w> grad s
        big_d = np.einsum("pi,pi->p", fp, fp) - np.einsum("pi,pi->p", offset, fpp)
        a_w = fp @ w
        d_pair = w - fp * (a_w / big_d)[:, None]
        dp1 = p * pairing ** (p - 1)
        d_pow = dp1[:, None] * d_pair
        grads[inside] = powered[:, None] * dchi + chi[:, None] * d_pow
        if order == 1:
            return vals, grads, hess
        # Hessian of the pairing, through grad D = K grad s - F'' with
        # K = 3 <F', F''> - <z - F, F'''>
        k_coef = 3.0 * np.einsum("pi,pi->p", fp, fpp) - np.einsum("pi,pi->p", offset, fppp)
        c_tt = (a_w * k_coef / big_d - fpp @ w) / big_d**2
        h_pair = (c_tt[:, None, None] * _outer(fp, fp)
                  - (a_w / big_d**2)[:, None, None] * (_outer(fp, fpp) + _outer(fpp, fp)))
        h_pow = dp1[:, None, None] * h_pair
        if p >= 2:
            h_pow += (p * (p - 1) * pairing ** (p - 2))[:, None, None] * _outer(d_pair, d_pair)
        hess[inside] = (powered[:, None, None] * ddchi + _outer(dchi, d_pow) + _outer(d_pow, dchi)
                        + chi[:, None, None] * h_pow)
        return vals, grads, hess

    def bounds(self):
        scale = self.radius**self.power
        return (0.0 if self.power % 2 == 0 else -scale, scale)


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

class MetricChart:
    """Base class of the conformally flat charts, g = lam * delta with
    lam = e^(2 phi).

    Subclasses provide ``factor_jet_many``; the metric and the Christoffel
    symbols are derived from it here, the curvature by ``curvature_form``.
    """

    dim: int

    # -- metric data ------------------------------------------------------
    def factor_jet_many(self, points: np.ndarray, order: int):
        """(lam, dphi, ddphi) at each point, from one evaluation: the factor
        lam = e^(2 phi), shape (m,), and the gradient and Hessian of phi,
        (m, n) and (m, n, n); entries above ``order`` are None."""
        raise NotImplementedError

    def metric_many(self, points: np.ndarray) -> np.ndarray:
        """g_ij = lam delta_ij, shape (m, n, n)."""
        lam = self.factor_jet_many(points, 0)[0]
        return lam[:, None, None] * np.eye(self.dim)

    def christoffel_many(self, points: np.ndarray) -> np.ndarray:
        """Gamma^k_ij = delta_ki phi_j + delta_kj phi_i - delta_ij phi_k,
        shape (m, n, n, n) indexed [.., k, i, j]."""
        dphi = self.factor_jet_many(points, 1)[1]
        eye = np.eye(self.dim)
        return (eye[:, :, None] * dphi[:, None, None, :] + eye[:, None, :] * dphi[:, None, :, None]
                - eye * dphi[:, :, None, None])

    # -- domain -----------------------------------------------------------
    def contains(self, p) -> bool:
        return True

    def wrap_many(self, points) -> np.ndarray:
        return np.asarray(points, dtype=float)

    def displacement_many(self, p, q) -> np.ndarray:
        """Shortest chart representative of q - p (vectorized)."""
        return np.asarray(q, dtype=float) - np.asarray(p, dtype=float)

    def injectivity_bound(self) -> float:
        return np.inf


class EuclideanChart(MetricChart):
    """Flat metric on a box (or all of R^n)."""

    def __init__(self, dim: int, box=None):
        self.dim = dim
        self.box = None if box is None else (np.asarray(box[0], float), np.asarray(box[1], float))

    def factor_jet_many(self, points, order):
        return _constant_jet(1.0, points, order)

    def contains(self, p):
        if self.box is None:
            return True
        p = np.asarray(p, dtype=float)
        return bool(np.all(p >= self.box[0]) and np.all(p <= self.box[1]))


class FlatTorusChart(EuclideanChart):
    """R^n modulo the lattice spanned by the rows of ``lattice``; the
    metric is the Euclidean one."""

    def __init__(self, lattice):
        self.lattice = np.asarray(lattice, dtype=float)
        super().__init__(dim=self.lattice.shape[0])
        self._inv = np.linalg.inv(self.lattice)
        combos = []
        for k in product(range(-2, 3), repeat=self.dim):
            if any(k):
                combos.append(np.asarray(k, float) @ self.lattice)
        self._inj = 0.5 * min(np.linalg.norm(c) for c in combos)
        # the 3^dim neighbouring lattice vectors v, zero first so that ties
        # keep the rounded representative, and their |v|^2
        near = np.array(list(product((0, -1, 1), repeat=self.dim)), dtype=float)
        self._near = near @ self.lattice
        self._near_sq = np.einsum("ki,ki->k", self._near, self._near)[:, None]

    def wrap_many(self, points):
        points = np.asarray(points, dtype=float)
        frac = points @ self._inv
        frac -= np.round(frac)
        return frac @ self.lattice

    def displacement_many(self, p, q):
        """Shortest representative of q - p: the one with rounded lattice
        coordinates or one of its 3^dim neighbours."""
        d = self.wrap_many(np.asarray(q, dtype=float) - np.asarray(p, dtype=float))
        # |d + v|^2 - |d|^2 = 2 <v, d> + |v|^2 for every neighbour v
        gain = 2.0 * self._near @ d.T + self._near_sq
        return d + self._near[gain.argmin(axis=0)]

    def injectivity_bound(self):
        return self._inj


class StereographicSphereChart(MetricChart):
    """Round sphere of a given radius in stereographic coordinates.

    g_ij = mu(p)^2 delta_ij with mu = 2 r^2 / (r^2 + |p|^2); the projection
    point itself sits at chart infinity, so the chart domain is all of R^n.
    """

    def __init__(self, radius: float, dim: int = 2):
        self.radius = float(radius)
        self.dim = dim
        self._eye = np.eye(dim)

    def factor_jet_many(self, points, order):
        # phi = log mu: d phi = -2 p / (r^2 + |p|^2)
        r2 = self.radius**2
        denom = r2 + np.einsum("ij,ij->i", points, points)
        lam = (2.0 * r2 / denom) ** 2
        dphi = -2.0 * points / denom[:, None] if order >= 1 else None
        ddphi = None
        if order >= 2:
            ddphi = (-2.0 * self._eye / denom[:, None, None]
                     + 4.0 * _outer(points, points) / denom[:, None, None] ** 2)
        return lam, dphi, ddphi


class ConformalChart(MetricChart):
    """(1 + x*h(p)) * g_base(p)."""

    def __init__(self, base: MetricChart, field: ScalarField, amplitude: float):
        self.base = base
        self.field = field
        self.amplitude = float(amplitude)
        self.dim = base.dim

    def factor_jet_many(self, points, order):
        """The base chart's jet plus that of (log f) / 2 for f = 1 + x*h,
        from one field evaluation, so stacked bumps recurse through their
        bases: d phi gains sigma = x dh / (2 f), and dd phi gains
        x ddh / (2 f) - 2 sigma sigma^T."""
        h, dh, ddh = self.field.jet_many(points, order)
        lam, dphi, ddphi = self.base.factor_jet_many(points, order)
        f = 1.0 + self.amplitude * h
        if order >= 1:
            sig = 0.5 * self.amplitude * dh / f[:, None]
            dphi = dphi + sig
        if order >= 2:
            ddphi = ddphi + 0.5 * self.amplitude * ddh / f[:, None, None] - 2.0 * _outer(sig, sig)
        return f * lam, dphi, ddphi

    def contains(self, p):
        return self.base.contains(p)

    def wrap_many(self, points):
        return self.base.wrap_many(points)

    def displacement_many(self, p, q):
        return self.base.displacement_many(p, q)

    def injectivity_bound(self):
        return self.base.injectivity_bound()


def conformal_family(base: MetricChart, field: ScalarField, amplitude: float) -> MetricChart:
    """Chart for (1 + amplitude*h) * g_base, which is ``base`` itself at
    amplitude 0; rejects sign-violating factors."""
    if amplitude == 0.0:
        return base
    lo, hi = field.bounds()
    if min(1.0 + amplitude * lo, 1.0 + amplitude * hi) <= 0.0:
        raise ValueError("conformal factor 1 + x*h is not positive on the chart")
    return ConformalChart(base, field, amplitude)


# ---------------------------------------------------------------------------
# metric pairings, Christoffel contraction and curvature
# ---------------------------------------------------------------------------

def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean dot products over the last axis."""
    return np.einsum("...i,...i->...", a, b)


def metric_dot(lam: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b>_g at each point for the conformal factors lam, shape (m,)."""
    return lam * _dot(a, b)


def metric_norm(lam: np.ndarray, a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(metric_dot(lam, a, a), 0.0))


def g_dot(chart: MetricChart, points, a, b) -> np.ndarray:
    lam = chart.factor_jet_many(np.asarray(points, dtype=float), 0)[0]
    return metric_dot(lam, np.asarray(a, float), np.asarray(b, float))


def g_norm(chart: MetricChart, points, a) -> np.ndarray:
    """|a|_g at each point; points and a are (..., n), for instance the
    stacked samples of an edge group, with one ``factor_jet_many`` call."""
    points = np.asarray(points, dtype=float)
    n = points.shape[-1]
    lam = chart.factor_jet_many(points.reshape(-1, n), 0)[0]
    return metric_norm(lam, np.asarray(a, float).reshape(-1, n)).reshape(points.shape[:-1])


def christoffel_apply(dphi: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gamma(v, w)^k = Gamma^k_ij v^i w^j = (v.dphi) w + (w.dphi) v - (v.w) dphi
    at each point, for the gradients dphi of ``factor_jet_many``."""
    return (_dot(v, dphi)[..., None] * w + _dot(w, dphi)[..., None] * v
            - _dot(v, w)[..., None] * dphi)


def curvature_form(dphi: np.ndarray, ddphi: np.ndarray) -> np.ndarray:
    """T = ddphi - dphi dphi^T + |dphi|^2 I / 2, the tensor of
    ``curvature_apply`` (minus the Schouten tensor of g = e^(2 phi) delta)."""
    return (ddphi - _outer(dphi, dphi)
            + (0.5 * _dot(dphi, dphi))[:, None, None] * np.eye(dphi.shape[1]))


def curvature_apply(tmat: np.ndarray, X, Y, Z) -> np.ndarray:
    """R(X,Y)Z = (Y.Z) T X + T(Y, Z) X - T(X, Z) Y - (X.Z) T Y for T from
    ``curvature_form``; T is (..., n, n) and X, Y, Z broadcast against (..., n)."""
    tz = (tmat @ Z[..., None])[..., 0]
    return (_dot(Y, Z)[..., None] * (tmat @ X[..., None])[..., 0] + _dot(Y, tz)[..., None] * X
            - _dot(X, tz)[..., None] * Y - _dot(X, Z)[..., None] * (tmat @ Y[..., None])[..., 0])


def min_distance(chart: MetricChart, a: np.ndarray, b: np.ndarray, ignore=None) -> float:
    """Smallest |chart.displacement_many(a_i, b_j)| over the point pairs
    that ``ignore`` does not mask; inf when every pair is masked.

    ``ignore(k)``, for an index array k into a, returns the (len(k), len(b))
    mask of the pairs to skip.  One displacement call per block of about
    2^16 pairs; the lengths are summed coordinate by coordinate, bitwise
    ``np.linalg.norm(..., axis=1)`` without its slow reduction over a
    short axis.
    """
    best = np.inf
    block = max(1, 65536 // len(b))
    for k0 in range(0, len(a), block):
        k = np.arange(k0, min(k0 + block, len(a)))
        disp = chart.displacement_many(np.repeat(a[k], len(b), axis=0), np.tile(b, (k.size, 1)))
        d = np.sqrt(sum(disp[:, i] * disp[:, i] for i in range(disp.shape[1])))
        d = d.reshape(k.size, len(b))
        if ignore is not None:
            d[ignore(k)] = np.inf
        best = min(best, float(d.min()))
    return best


# ---------------------------------------------------------------------------
# curves, geodesics, transport
# ---------------------------------------------------------------------------

def linear_rk4_flow(a_nodes: np.ndarray, a_mid: np.ndarray, h: float) -> np.ndarray:
    """Running products of the classical RK4 steps of y' = A(t) y.

    ``a_nodes`` holds A at the S + 1 nodes and ``a_mid`` at the S
    half-steps, shapes (S + 1, d, d) and (S, d, d), for the step h.  Every
    step matrix M_k = I + h/6 (K1 + 2 K2 + 2 K3 + K4), with K1 = A_k,
    K2 = A_k+1/2 (I + h/2 K1), K3 = A_k+1/2 (I + h/2 K2) and
    K4 = A_k+1 (I + h K3), is formed in one batched pass; the products
    Phi_k = M_k ... M_1 come from a doubling prefix product (Blelloch
    1990), ceil(log2 S) batched matmuls.  Returns Phi_0 = I to Phi_S,
    shape (S + 1, d, d).
    """
    eye = np.eye(a_nodes.shape[-1])
    a0, a1 = a_nodes[:-1], a_nodes[1:]
    k2 = a_mid @ (eye + 0.5 * h * a0)
    k3 = a_mid @ (eye + 0.5 * h * k2)
    k4 = a1 @ (eye + h * k3)
    phi = eye + (h / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)
    span = 1
    while span < phi.shape[0]:
        # Hillis-Steele: Phi_k <- (M_k ... M_k-span+1) (M_k-span ... M_k-2 span+1)
        phi[span:] = phi[span:] @ phi[:-span]
        span *= 2
    return np.concatenate([eye[None], phi])


def _geodesic_rhs(chart, x, v):
    return v, -christoffel_apply(chart.factor_jet_many(x, 1)[1], v, v)


def geodesic_integrate(chart: MetricChart, p, v, T: float, steps: int):
    """Integrate the geodesic equation with classical RK4 over parameter T.

    ``p`` and ``v`` are one initial condition (n,) or a batch (B, n); each
    stage makes one ``factor_jet_many`` call for the whole batch.  One
    initial condition gives (points, velocities), each (steps + 1, n); a
    batch gives them (B, steps + 1, n).  Velocities are derivatives in the
    curve's own parameter over [0, 1].
    """
    p = np.asarray(p, dtype=float)
    x, vel = np.atleast_2d(p).copy(), np.atleast_2d(np.asarray(v, dtype=float)).copy()
    h = T / steps
    xs = np.empty((x.shape[0], steps + 1, x.shape[1]))
    vs = np.empty_like(xs)
    xs[:, 0], vs[:, 0] = x, vel
    for k in range(steps):
        k1x, k1v = _geodesic_rhs(chart, x, vel)
        k2x, k2v = _geodesic_rhs(chart, x + 0.5 * h * k1x, vel + 0.5 * h * k1v)
        k3x, k3v = _geodesic_rhs(chart, x + 0.5 * h * k2x, vel + 0.5 * h * k2v)
        k4x, k4v = _geodesic_rhs(chart, x + h * k3x, vel + h * k3v)
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        vel = vel + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        if not all(chart.contains(row) for row in x):
            raise DomainError(f"geodesic left the chart domain at step {k + 1}")
        xs[:, k + 1], vs[:, k + 1] = x, vel
    vs *= T
    return (xs[0], vs[0]) if p.ndim == 1 else (xs, vs)


def parallel_transport(chart: MetricChart, points: np.ndarray, velocities: np.ndarray,
                       w0) -> np.ndarray:
    """Transport w0 along the curve sampled by points and their parameter
    velocities over [0, 1]: W' + Gamma(c', W) = 0 (RK4 per interval).

    ``w0`` is one vector (n,) or several (r, n); the result is (N+1, n) or
    (N+1, r, n).  Positions and velocities at the half-steps come from the
    cubic Hermite curve of the samples; one ``factor_jet_many`` call
    covers nodes and half-steps, and one ``linear_rk4_flow`` moves every
    vector.
    """
    n = points.shape[0]
    h = 1.0 / (n - 1)
    grid = np.linspace(0.0, 1.0, n)
    mid, mid_vel = HermiteCurve(grid, points, velocities).jet(grid[:-1] + 0.5 * h, 1)
    dphi = chart.factor_jet_many(np.concatenate([points, mid]), 1)[1]
    vel = np.concatenate([velocities, mid_vel])
    # A w = -Gamma(c', w): A = -((c'.dphi) I + c' dphi^T - dphi c'^T)
    a_mat = -(_dot(vel, dphi)[:, None, None] * np.eye(points.shape[1])
              + _outer(vel, dphi) - _outer(dphi, vel))
    phi = linear_rk4_flow(a_mat[:n], a_mat[n:], h)
    return np.einsum("sij,...j->s...i", phi, np.asarray(w0, dtype=float))
