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
from geodesicnets.geometry import DomainError, min_distance
from geodesicnets.variation import stationarity_residual
from geodesicnets.cases import make_case

TORUS = FlatTorusChart(HEX_LATTICE)
SPHERE = StereographicSphereChart(radius=1.0)


# -- metric evaluation -------------------------------------------------------

def test_flat_torus_metric_identity():
    p = np.array([0.3, -0.2])
    assert np.allclose(TORUS.metric(p), np.eye(2))


def test_flat_torus_is_euclidean_locally():
    pts = np.array([[0.3, -0.2], [5.0, 7.0]])
    flat = EuclideanChart(2)
    for name in ("metric_many", "metric_deriv_many", "christoffel_many", "christoffel_deriv_many"):
        assert np.array_equal(getattr(TORUS, name)(pts), getattr(flat, name)(pts))
    assert TORUS.contains(pts[1])


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
    with pytest.raises(DomainError, match=r"at step \d+"):
        geodesic_integrate(box, [0.5, 0.5], [1.0, 0.0], 2.0, 100)


def test_batched_geodesics_equal_single_runs(rng):
    p = rng.uniform(-0.5, 0.5, size=(5, 2))
    v = rng.normal(size=(5, 2))
    batch = geodesic_integrate(SPHERE, p, v, 1.3, 200)
    assert len(batch) == 5
    for k, cv in enumerate(batch):
        one = geodesic_integrate(SPHERE, p[k], v[k], 1.3, 200)
        assert np.abs(cv.points - one.points).max() < 1e-14
        assert np.abs(cv.velocities - one.velocities).max() < 1e-13 * np.abs(one.velocities).max()


def test_batched_geodesic_domain_error_names_the_step():
    box = EuclideanChart(2, box=([0, 0], [1, 1]))
    with pytest.raises(DomainError) as single:
        geodesic_integrate(box, [0.2, 0.5], [1.0, 0.0], 2.0, 100)
    with pytest.raises(DomainError) as batch:
        geodesic_integrate(box, [[0.5, 0.5], [0.2, 0.5]], [[0.0, 0.1], [1.0, 0.0]], 2.0, 100)
    assert str(batch.value) == str(single.value)


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

def test_shared_hermite_curve_matches_scipy_hermite():
    # the one cubic Hermite of the library: the anchor of a directional bump
    # (orders 0 to 3) and the position and velocity curves of a tube (0 and 1)
    from scipy.interpolate import CubicHermiteSpline

    from geodesicnets.geometry import DirectionalBumpField
    from geodesicnets.localcoords import build_net_chart

    s_grid = np.linspace(0.0, 1.0, 40)
    pts = np.stack([np.cos(2 * s_grid), np.sin(3 * s_grid)], axis=1)
    vel = np.stack([-2 * np.sin(2 * s_grid), 3 * np.cos(3 * s_grid)], axis=1)
    fld = DirectionalBumpField(pts[20], 0.1, [0.0, 1.0], pts, vel)
    case = make_case("sphere-theta", 32)
    tube = build_net_chart(case.chart, case.net).tubes["E1"]
    rng = np.random.default_rng(5)
    for curve, order in ((fld.anchor, 3), (tube.curve, 1), (tube.velocity, 1)):
        ref = CubicHermiteSpline(curve.grid, curve.values, curve.derivatives, axis=0)
        s = np.concatenate([rng.uniform(curve.grid[0], curve.grid[-1], 200), curve.grid])
        jet = curve.jet(s, order)
        assert len(jet) == order + 1
        for nu, got in enumerate(jet):
            expect = ref(s, nu)
            assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


def test_torus_displacement_is_shortest_representative():
    # brute force over the lattice vectors with coordinates in -3..3
    rng = np.random.default_rng(11)
    d = rng.uniform(-1.0, 1.0, size=(20000, 2))
    got = TORUS.displacement_many(np.zeros(2), d)
    k = np.stack(np.meshgrid(np.arange(-3, 4), np.arange(-3, 4)), axis=-1).reshape(-1, 2)
    cand = d[:, None, :] + k @ HEX_LATTICE
    shortest = np.sqrt(np.einsum("pki,pki->pk", cand, cand).min(axis=1))
    assert np.abs(np.linalg.norm(got, axis=1) - shortest).max() <= 1e-14
    # each is a representative: it differs from d by a lattice vector
    coeff = (got - d) @ np.linalg.inv(HEX_LATTICE)
    assert np.abs(coeff - np.round(coeff)).max() <= 1e-12


def _min_distance_reference(chart, a, b, mask):
    """min_distance pair by pair."""
    best = np.inf
    for i, p in enumerate(a):
        for j, q in enumerate(b):
            if not mask[i, j]:
                best = min(best, float(np.linalg.norm(chart.displacement(p, q))))
    return best


@pytest.mark.parametrize("chart, n_a, n_b", [(TORUS, 30, 200), (SPHERE, 40, 1700)],
                         ids=["hex-torus", "sphere"])
def test_min_distance_matches_brute_force(chart, n_a, n_b):
    # points over several torus cells, so that the wrap matters; the sphere
    # sizes span two blocks of the scan
    rng = np.random.default_rng(8)
    a = rng.uniform(-1.5, 1.5, size=(n_a, 2))
    b = rng.uniform(-1.5, 1.5, size=(n_b, 2))
    none = np.zeros((n_a, n_b), dtype=bool)
    mask = rng.random((n_a, n_b)) < 0.5
    for m, ignore in ((none, None), (mask, lambda k: mask[k])):
        want = _min_distance_reference(chart, a, b, m)
        assert min_distance(chart, a, b, ignore) == pytest.approx(want, rel=1e-14, abs=0)
    assert min_distance(chart, a, b, lambda k: np.ones((k.size, n_b), dtype=bool)) == np.inf
    want = _min_distance_reference(chart, a[:1], b, none[:1])
    assert min_distance(chart, a[:1], b) == pytest.approx(want, rel=1e-14, abs=0)


# -- closed-form Hessians and Christoffel derivatives -------------------------

def _directional(case_name, eid, idx, power, n=32, radius=0.2, direction=(0.6, 0.8)):
    from geodesicnets.geometry import DirectionalBumpField
    from geodesicnets.solver import _anchor_spline_data

    case = make_case(case_name, n)
    pts, vel, center = _anchor_spline_data(case.net, eid, idx)
    fld = DirectionalBumpField(center, radius, direction, pts, vel, chart=case.chart,
                               power=power)
    return case, fld


def _around(center, radius, count, seed, lattice=None):
    """Random points in a disc of 1.3 * radius around center (so they
    straddle the support boundary), moved to random lattice cells."""
    rng = np.random.default_rng(seed)
    ang = rng.uniform(0.0, 2 * np.pi, count)
    rad = 1.3 * radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    pts = center + rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if lattice is not None:
        pts = pts + rng.integers(-2, 3, size=(count, 2)) @ lattice
    return pts


def _fd_hessian(fld, pts, step=1e-6):
    cols = []
    for m in range(pts.shape[1]):
        dp = np.zeros(pts.shape[1])
        dp[m] = step
        cols.append((fld.gradient_many(pts + dp) - fld.gradient_many(pts - dp)) / (2 * step))
    return np.stack(cols, axis=2)


def _fd_christoffel_deriv(chart, pts, step=1e-5):
    out = []
    for m in range(chart.dim):
        dp = np.zeros(chart.dim)
        dp[m] = step
        out.append((chart.christoffel_many(pts + dp) - chart.christoffel_many(pts - dp)) / (2 * step))
    return np.stack(out, axis=1)


DIRECTIONAL_ANCHORS = [
    ("honeycomb-torus", "E1", 16),   # open edge, mid-edge
    ("flat-loop", "E", 1),           # loop edge, ball over its seam
    ("sphere-equator", "E", 8),      # loop edge in the stereographic chart
]


@pytest.mark.parametrize("power", (1, 2))
@pytest.mark.parametrize("case_name,eid,idx", DIRECTIONAL_ANCHORS)
def test_directional_bump_hessian_matches_fd_of_gradient(case_name, eid, idx, power):
    case, fld = _directional(case_name, eid, idx, power)
    lattice = getattr(case.chart, "lattice", None)
    pts = _around(fld.center, fld.radius, 300, seed=idx, lattice=lattice)
    v, g, h = fld.jet_many(pts)
    assert np.count_nonzero(v) > 100
    assert np.array_equal(v, fld.value_many(pts)) and np.array_equal(g, fld.gradient_many(pts))
    assert np.abs(h - np.swapaxes(h, 1, 2)).max() <= 1e-14 * np.abs(h).max()
    assert np.abs(h - _fd_hessian(fld, pts)).max() <= 1e-6 * np.abs(h).max()


def test_radial_constant_and_sum_hessians_match_fd_of_gradient():
    from geodesicnets.geometry import SumField

    radial = RadialBumpField([0.7, 0.4], 0.3, -1.5, chart=TORUS)
    fields = [ConstantField(0.4), radial,
              SumField([radial, RadialBumpField([0.9, 0.2], 0.25, 2.0, chart=TORUS),
                        ConstantField(1.0)])]
    pts = _around(np.array([0.8, 0.3]), 0.3, 300, seed=2, lattice=HEX_LATTICE)
    for fld in fields:
        h = fld.hessian_many(pts)
        assert h.shape == (300, 2, 2)
        assert np.abs(h - _fd_hessian(fld, pts)).max() <= 1e-6 * max(np.abs(h).max(), 1.0)


def test_conformal_christoffel_derivative_matches_fd():
    # bump on bump over a flat torus: the exact derivative recurses through the base
    case, fld = _directional("honeycomb-torus", "E1", 16, power=2)
    inner = conformal_family(case.chart, RadialBumpField(fld.center + [0.05, 0.1], 0.3, 1.0,
                                                         chart=case.chart), 0.3)
    stacked = conformal_family(inner, fld, 0.5)
    pts = _around(fld.center, fld.radius, 200, seed=4, lattice=HEX_LATTICE)
    # a radial bump over the round sphere: the base has curvature of its own
    on_sphere = conformal_family(SPHERE, RadialBumpField([0.3, 0.1], 0.6, 1.0), 0.3)
    for chart, p in ((stacked, pts), (on_sphere, _around(np.array([0.3, 0.1]), 0.6, 200, seed=5))):
        exact = chart.christoffel_deriv_many(p)
        assert np.abs(exact - _fd_christoffel_deriv(chart, p)).max() <= 1e-6 * np.abs(exact).max()


def _all_pairs_reference(fld, points):
    """Value and gradient of a directional bump as evaluated before the cull:
    every point lifted by its nearest anchor sample (all pairs), projected
    by Newton from the nearest anchor node."""
    anchor = fld.anchor.values
    diff = points[:, None, :] - anchor[None, :, :]
    disp = fld.chart.wrap_many(diff.reshape(-1, 2)).reshape(diff.shape)
    j = np.argmin(np.einsum("psi,psi->ps", disp, disp), axis=1)
    lifted = anchor[j] + disp[np.arange(len(points)), j]
    rel = lifted - fld.center
    dist = np.linalg.norm(rel, axis=1)
    rho = dist / fld.radius
    inside = rho < 1.0
    vals, grads = np.zeros(len(points)), np.zeros_like(points)
    z = lifted[inside]
    d2 = ((z[:, None, :] - anchor[None, :, :]) ** 2).sum(axis=2)
    s = fld.anchor.grid[np.argmin(d2, axis=1)]
    for _ in range(40):
        f, fp, fpp = fld.anchor.jet(s, 2)
        r = z - f
        s = np.clip(s - np.einsum("pi,pi->p", r, fp)
                    / (np.einsum("pi,pi->p", r, fpp) - np.einsum("pi,pi->p", fp, fp)), 0.0, 1.0)
    c, fp, fpp = fld.anchor.jet(s, 2)
    w = fld.direction
    pairing = (z - c) @ w
    chi = (1.0 - rho[inside] ** 2) ** 3
    vals[inside] = fld.amplitude * chi * pairing**fld.power
    denom = np.einsum("pi,pi->p", fp, fp) - np.einsum("pi,pi->p", z - c, fpp)
    d_pair = (w - fp * ((fp @ w) / denom)[:, None]) * (fld.power * pairing ** (fld.power - 1))[:, None]
    dchi = -6.0 * rho[inside] * (1.0 - rho[inside] ** 2) ** 2 / fld.radius
    grads[inside] = fld.amplitude * ((dchi * pairing**fld.power / dist[inside])[:, None] * rel[inside]
                                     + chi[:, None] * d_pair)
    return vals, grads


def _jet_charts():
    """Flat torus, sphere, and conformal charts over radial, directional and
    stacked (bump-on-bump) fields, with points that straddle the supports."""
    case, fld = _directional("honeycomb-torus", "E1", 16, power=2)
    radial = RadialBumpField(fld.center + [0.05, 0.1], 0.3, 1.0, chart=case.chart)
    inner = conformal_family(case.chart, radial, 0.3)
    on_torus = _around(fld.center, fld.radius, 200, seed=4, lattice=HEX_LATTICE)
    on_sphere = _around(np.array([0.3, 0.1]), 0.6, 200, seed=5)
    return [
        ("torus", TORUS, on_torus),
        ("sphere", SPHERE, on_sphere),
        ("radial", inner, on_torus),
        ("directional", conformal_family(case.chart, fld, 0.5), on_torus),
        ("stacked", conformal_family(inner, fld, 0.5), on_torus),
        ("radial-on-sphere", conformal_family(SPHERE, RadialBumpField([0.3, 0.1], 0.6, 1.0), 0.3),
         on_sphere),
    ]


def test_metric_jet_equals_metric_and_derivative_bitwise():
    for name, chart, pts in _jet_charts():
        g, dg = chart.metric_jet_many(pts)
        assert np.array_equal(g, chart.metric_many(pts)), name
        assert np.array_equal(dg, chart.metric_deriv_many(pts)), name


@pytest.mark.parametrize("power", (1, 2))
@pytest.mark.parametrize("case_name,eid,idx", [("honeycomb-torus", "E2", 20), ("flat-loop", "E", 1)])
def test_culled_bump_matches_all_pairs_reference(case_name, eid, idx, power):
    case, fld = _directional(case_name, eid, idx, power)
    pts = _around(fld.center, fld.radius, 400, seed=7, lattice=HEX_LATTICE)
    vals, grads = fld.jet_many(pts, 1)[:2]
    ref_vals, ref_grads = _all_pairs_reference(fld, pts)
    assert np.array_equal(vals != 0.0, ref_vals != 0.0)
    assert 100 < np.count_nonzero(vals) < 400
    assert np.abs(vals - ref_vals).max() <= 1e-12 * np.abs(ref_vals).max()
    assert np.abs(grads - ref_grads).max() <= 1e-12 * np.abs(ref_grads).max()


def test_bumped_christoffel_derivative_memory_is_linear():
    import tracemalloc

    from geodesicnets import stencils

    peaks = []
    for n in (64, 256):
        case, fld = _directional("honeycomb-torus", "E1", n // 2, power=2, n=n)
        chart = conformal_family(case.chart, fld, 0.02)
        points = stencils.upsample_curve(case.net.edge_samples["E1"], 8)
        chart.christoffel_deriv_many(points)
        tracemalloc.start()
        chart.christoffel_deriv_many(points)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # 4x the points; an all-pairs (points x anchors) table would give 16x
    assert peaks[1] <= 4.0 * peaks[0]
