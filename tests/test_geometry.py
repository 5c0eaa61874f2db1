import numpy as np
import pytest

from geodesicnets import (
    ConstantField,
    EuclideanChart,
    FlatTorusChart,
    RadialBumpField,
    StereographicSphereChart,
    conformal_family,
    exp_background,
    g_norm,
    geodesic_integrate,
    parallel_transport,
)
from geodesicnets.cases import HEX_LATTICE
from geodesicnets.geometry import DomainError
from geodesicnets.variation import stationarity_residual
from geodesicnets.cases import make_case

TORUS = FlatTorusChart(HEX_LATTICE)
SPHERE = StereographicSphereChart(radius=1.0)


# -- metric evaluation -------------------------------------------------------

def test_flat_torus_metric_identity():
    p = np.array([0.3, -0.2])
    assert np.allclose(TORUS.metric(p), np.eye(2))


def test_sphere_metric_at_origin():
    assert np.allclose(SPHERE.metric([0.0, 0.0]), 4.0 * np.eye(2))


def test_conformal_scaling_of_flat_metric():
    field = ConstantField(0.5)
    chart = conformal_family(EuclideanChart(2), field, 0.2)
    assert np.allclose(chart.metric([1.0, 2.0]), 1.1 * np.eye(2))


def test_torus_metric_periodicity():
    p = np.array([0.2, 0.1])
    for lam in HEX_LATTICE:
        assert np.allclose(TORUS.metric(p), TORUS.metric(p + lam))


def test_conformal_family_rejects_sign_violation():
    with pytest.raises(ValueError):
        conformal_family(EuclideanChart(2), ConstantField(1.0), -1.5)


# -- christoffels ------------------------------------------------------------

def test_torus_christoffels_vanish():
    assert np.abs(TORUS.christoffel([0.4, 0.4])).max() == 0.0


def test_sphere_christoffel_closed_form_vs_finite_difference():
    p = np.array([0.3, 0.0])
    gam = SPHERE.christoffel(p)
    step = 1e-6
    n = 2
    dg = np.empty((n, n, n))
    for k in range(n):
        dp = np.zeros(n)
        dp[k] = step
        dg[k] = (SPHERE.metric(p + dp) - SPHERE.metric(p - dp)) / (2 * step)
    ginv = np.linalg.inv(SPHERE.metric(p))
    oracle = np.empty((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                oracle[k, i, j] = 0.5 * sum(
                    ginv[k, l] * (dg[i][j, l] + dg[j][i, l] - dg[l][i, j]) for l in range(n)
                )
    assert np.abs(gam - oracle).max() < 1e-8


def test_christoffel_symmetry():
    for chart, p in [(SPHERE, [0.2, -0.5]), (TORUS, [0.1, 0.1])]:
        gam = chart.christoffel(p)
        assert np.abs(gam - np.swapaxes(gam, 1, 2)).max() < 1e-14


def test_conformal_constant_keeps_base_christoffels():
    chart = conformal_family(SPHERE, ConstantField(1.0), 0.7)
    p = np.array([0.2, 0.4])
    assert np.allclose(chart.christoffel(p), SPHERE.christoffel(p), atol=1e-13)


def test_conformal_zero_amplitude_equals_base():
    bump = RadialBumpField([0.3, 0.0], 0.4, 1.0)
    chart = conformal_family(SPHERE, bump, 0.0)
    p = np.array([0.25, 0.05])
    assert np.allclose(chart.metric(p), SPHERE.metric(p))
    assert np.allclose(chart.christoffel(p), SPHERE.christoffel(p), atol=1e-12)


# -- curvature ---------------------------------------------------------------

def test_flat_curvature_vanishes():
    out = TORUS.curvature([0.1, 0.2], [1.0, 0], [0, 1.0], [1.0, 1.0])
    assert np.abs(out).max() == 0.0


def test_sphere_sectional_curvature_is_one(rng):
    # <R(X,Y)X, Y> / (|X|^2 |Y|^2 - <X,Y>^2) for the Jacobi-compatible sign
    for _ in range(5):
        p = rng.normal(size=2) * 0.6
        x_vec = rng.normal(size=2)
        y_vec = rng.normal(size=2)
        g = SPHERE.metric(p)
        num = float(y_vec @ g @ SPHERE.curvature(p, x_vec, y_vec, x_vec))
        den = (x_vec @ g @ x_vec) * (y_vec @ g @ y_vec) - (x_vec @ g @ y_vec) ** 2
        assert abs(num / den - 1.0) < 1e-6


def test_curvature_antisymmetry(rng):
    p = rng.normal(size=2) * 0.5
    x_vec, y_vec, z_vec = rng.normal(size=(3, 2))
    r1 = SPHERE.curvature(p, x_vec, y_vec, z_vec)
    r2 = SPHERE.curvature(p, y_vec, x_vec, z_vec)
    assert np.abs(r1 + r2).max() < 1e-10 * max(1.0, np.abs(r1).max())


# -- geodesics ---------------------------------------------------------------

def test_torus_geodesic_straight():
    cv = geodesic_integrate(TORUS, [0, 0], [1.0, 0.0], 0.5, 50)
    assert np.allclose(cv.points[-1], [0.5, 0.0], atol=1e-13)


def test_sphere_geodesic_through_origin_stays_on_line():
    cv = geodesic_integrate(SPHERE, [0.0, 0.0], [0.6, 0.8], 1.2, 1200)
    cross = cv.points[:, 0] * 0.8 - cv.points[:, 1] * 0.6
    assert np.abs(cross).max() < 1e-8


def test_geodesic_speed_drift():
    cv = geodesic_integrate(SPHERE, [0.3, -0.1], [0.5, 0.7], 1.0, 1000)
    speeds = g_norm(SPHERE, cv.points, cv.velocities)
    assert abs(speeds[-1] - speeds[0]) / speeds[0] < 1e-8


def test_geodesic_domain_error():
    box = EuclideanChart(2, box=([0, 0], [1, 1]))
    with pytest.raises(DomainError):
        geodesic_integrate(box, [0.5, 0.5], [1.0, 0.0], 2.0, 100)


# -- parallel transport ------------------------------------------------------

def test_transport_constant_on_flat():
    cv = geodesic_integrate(TORUS, [0, 0], [1.0, 0.3], 1.0, 64)
    w = parallel_transport(TORUS, cv, [0.2, -0.4])
    assert np.abs(w - np.array([0.2, -0.4])).max() < 1e-12


def test_transport_preserves_norm_on_sphere():
    cv = geodesic_integrate(SPHERE, [0.1, 0.2], [0.4, -0.3], 1.5, 1000)
    w = parallel_transport(SPHERE, cv, [0.5, 0.1])
    norms = g_norm(SPHERE, cv.points, w)
    assert np.abs(norms - norms[0]).max() / norms[0] < 1e-8


def test_transport_of_tangent_is_running_tangent():
    cv = geodesic_integrate(SPHERE, [0.2, 0.0], [0.3, 0.4], 1.0, 1000)
    w = parallel_transport(SPHERE, cv, cv.velocities[0])
    scale = np.abs(cv.velocities).max()
    assert np.abs(w - cv.velocities).max() / scale < 1e-7


def test_metric_compatibility_of_transport():
    from geodesicnets.geometry import g_dot

    cv = geodesic_integrate(SPHERE, [0.0, 0.3], [0.5, 0.2], 1.0, 800)
    w1 = parallel_transport(SPHERE, cv, [0.3, 0.1])
    w2 = parallel_transport(SPHERE, cv, [-0.2, 0.5])
    dots = g_dot(SPHERE, cv.points, w1, w2)
    assert np.abs(dots - dots[0]).max() < 1e-7


# -- background exponential --------------------------------------------------

def test_exp_background_is_affine():
    p, w = np.array([0.1, 0.2]), np.array([0.05, -0.03])
    assert np.allclose(exp_background(TORUS, p, w), p + w)
    assert np.allclose(exp_background(TORUS, p, np.zeros(2)), p)


def test_exp_background_injectivity_bound():
    with pytest.raises(DomainError):
        exp_background(TORUS, [0.0, 0.0], [2.0, 0.0])


# -- conformal families ------------------------------------------------------

def test_conformal_curve_in_zero_set_keeps_length():
    from geodesicnets.net import length

    bump = RadialBumpField([5.0, 5.0], 0.5, 1.0)
    base = EuclideanChart(2)
    case = make_case("honeycomb-torus", 32)
    for x in (0.0, 0.3, -0.3):
        chart = conformal_family(TORUS, RadialBumpField([5.0, 5.0], 0.3, 1.0, chart=None), x)
        # support placed away from the net (no wrap applied for this field)
        assert abs(length(chart, case.net) - 3.0) < 1e-9


def test_conformal_length_derivative_in_amplitude():
    from geodesicnets.net import length
    from geodesicnets import stencils as st

    case = make_case("sphere-equator", 128)
    bump = RadialBumpField([0.9, 0.4], 0.6, 1.0)
    eps = 1e-6
    lp = length(conformal_family(SPHERE, bump, eps), case.net)
    lm = length(conformal_family(SPHERE, bump, -eps), case.net)
    fd = (lp - lm) / (2 * eps)
    s = case.net.edge_samples["E"]
    v = st.velocity(s, loop_shift=case.net.loop_shift("E"))
    w = st.quadrature_weights(s.shape[0], 1.0 / (s.shape[0] - 1), loop=True)
    closed = 0.5 * float(w @ (bump.value_many(s) * g_norm(SPHERE, s, v)))
    assert abs(fd - closed) < 1e-6 * max(1.0, abs(closed))


def test_constant_conformal_factor_keeps_geodesics():
    chart = conformal_family(SPHERE, ConstantField(1.0), 1.5)
    case = make_case("sphere-equator", 128)
    rep = stationarity_residual(chart, case.net)
    assert rep.aggregate < 1e-9


# -- directional bumps -------------------------------------------------------

def test_directional_bump_anchor_matches_scipy_hermite():
    from scipy.interpolate import CubicHermiteSpline

    from geodesicnets.geometry import DirectionalBumpField

    s_grid = np.linspace(0.0, 1.0, 40)
    pts = np.stack([np.cos(2 * s_grid), np.sin(3 * s_grid)], axis=1)
    vel = np.stack([-2 * np.sin(2 * s_grid), 3 * np.cos(3 * s_grid)], axis=1)
    fld = DirectionalBumpField(pts[20], 0.1, [0.0, 1.0], pts, vel)
    ref = CubicHermiteSpline(s_grid, pts, vel, axis=0)
    s = np.concatenate([np.random.default_rng(5).uniform(0.0, 1.0, 200), s_grid])
    for order, got in enumerate(fld._hermite(s)):
        expect = ref(s, order)
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()
