import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import metric_tensor_jet

from geodesicnets import (
    ConstantField,
    EuclideanChart,
    FlatTorusChart,
    RadialBumpField,
    StereographicSphereChart,
    conformal_family,
    g_norm,
    geodesic_integrate,
    parallel_transport,
)
from geodesicnets.cases import HEX_LATTICE
from geodesicnets.geometry import DomainError, christoffel_apply, min_distance
from geodesicnets.variation import stationarity_residual
from geodesicnets.cases import make_case

TORUS = FlatTorusChart(HEX_LATTICE)
SPHERE = StereographicSphereChart(radius=1.0)


def _one(p):
    return np.asarray(p, dtype=float)[None, :]


def _metric(chart, p):
    return chart.metric_many(_one(p))[0]


def _christoffel(chart, p):
    return chart.christoffel_many(_one(p))[0]


def _curvature(chart, p, x_vec, y_vec, z_vec):
    return chart.curvature_many(_one(p), _one(x_vec), _one(y_vec), _one(z_vec))[0]


def _exp_background(chart, p, w):
    """Exponential map of the Euclidean background metric: p + w, refused
    beyond the injectivity bound or outside the chart domain."""
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    bound = chart.injectivity_bound()
    if np.isfinite(bound) and np.linalg.norm(w) > bound:
        raise DomainError(f"background exponential step |w|={np.linalg.norm(w):.3g} "
                          f"exceeds injectivity bound {bound:.3g}")
    q = p + w
    if not chart.contains(q):
        raise DomainError("background exponential left the chart domain")
    return q


# -- metric evaluation -------------------------------------------------------

def test_flat_torus_metric_identity():
    p = np.array([0.3, -0.2])
    assert np.allclose(_metric(TORUS, p), np.eye(2))


def test_flat_torus_is_euclidean_locally():
    pts = np.array([[0.3, -0.2], [5.0, 7.0]])
    flat = EuclideanChart(2)
    for name in ("metric_many", "christoffel_many"):
        assert np.array_equal(getattr(TORUS, name)(pts), getattr(flat, name)(pts))
    for a, b in zip(TORUS.factor_jet_many(pts), flat.factor_jet_many(pts)):
        assert np.array_equal(a, b)
    assert np.all(TORUS.factor_jet_many(pts)[0] == 1.0)
    assert TORUS.contains(pts[1])


def test_sphere_metric_at_origin():
    assert np.allclose(_metric(SPHERE, [0.0, 0.0]), 4.0 * np.eye(2))


def test_conformal_scaling_of_flat_metric():
    field = ConstantField(0.5)
    chart = conformal_family(EuclideanChart(2), field, 0.2)
    assert np.allclose(_metric(chart, [1.0, 2.0]), 1.1 * np.eye(2))


def test_torus_metric_periodicity():
    p = np.array([0.2, 0.1])
    for lam in HEX_LATTICE:
        assert np.allclose(_metric(TORUS, p), _metric(TORUS, p + lam))


def test_conformal_family_rejects_sign_violation():
    with pytest.raises(ValueError):
        conformal_family(EuclideanChart(2), ConstantField(1.0), -1.5)


# -- christoffels ------------------------------------------------------------

def test_torus_christoffels_vanish():
    assert np.abs(_christoffel(TORUS, [0.4, 0.4])).max() == 0.0


def test_sphere_christoffel_closed_form_vs_finite_difference():
    p = np.array([0.3, 0.0])
    gam = _christoffel(SPHERE, p)
    step = 1e-6
    n = 2
    dg = np.empty((n, n, n))
    for k in range(n):
        dp = np.zeros(n)
        dp[k] = step
        dg[k] = (_metric(SPHERE, p + dp) - _metric(SPHERE, p - dp)) / (2 * step)
    ginv = np.linalg.inv(_metric(SPHERE, p))
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
        gam = _christoffel(chart, p)
        assert np.abs(gam - np.swapaxes(gam, 1, 2)).max() < 1e-14


def test_conformal_constant_keeps_base_christoffels():
    chart = conformal_family(SPHERE, ConstantField(1.0), 0.7)
    p = np.array([0.2, 0.4])
    assert np.allclose(_christoffel(chart, p), _christoffel(SPHERE, p), atol=1e-13)


def test_conformal_zero_amplitude_equals_base():
    bump = RadialBumpField([0.3, 0.0], 0.4, 1.0)
    chart = conformal_family(SPHERE, bump, 0.0)
    p = np.array([0.25, 0.05])
    assert np.allclose(_metric(chart, p), _metric(SPHERE, p))
    assert np.allclose(_christoffel(chart, p), _christoffel(SPHERE, p), atol=1e-12)


# -- curvature ---------------------------------------------------------------

def test_flat_curvature_vanishes():
    out = _curvature(TORUS, [0.1, 0.2], [1.0, 0], [0, 1.0], [1.0, 1.0])
    assert np.abs(out).max() == 0.0


def test_sphere_sectional_curvature_is_one(rng):
    # <R(X,Y)X, Y> / (|X|^2 |Y|^2 - <X,Y>^2) for the Jacobi-compatible sign
    for _ in range(5):
        p = rng.normal(size=2) * 0.6
        x_vec = rng.normal(size=2)
        y_vec = rng.normal(size=2)
        g = _metric(SPHERE, p)
        num = float(y_vec @ g @ _curvature(SPHERE, p, x_vec, y_vec, x_vec))
        den = (x_vec @ g @ x_vec) * (y_vec @ g @ y_vec) - (x_vec @ g @ y_vec) ** 2
        assert abs(num / den - 1.0) < 1e-6


def test_curvature_antisymmetry(rng):
    p = rng.normal(size=2) * 0.5
    x_vec, y_vec, z_vec = rng.normal(size=(3, 2))
    r1 = _curvature(SPHERE, p, x_vec, y_vec, z_vec)
    r2 = _curvature(SPHERE, p, y_vec, x_vec, z_vec)
    assert np.abs(r1 + r2).max() < 1e-10 * max(1.0, np.abs(r1).max())


# -- geodesics ---------------------------------------------------------------

def test_torus_geodesic_straight():
    points, _ = geodesic_integrate(TORUS, [0, 0], [1.0, 0.0], 0.5, 50)
    assert np.allclose(points[-1], [0.5, 0.0], atol=1e-13)


def test_sphere_geodesic_through_origin_stays_on_line():
    points, _ = geodesic_integrate(SPHERE, [0.0, 0.0], [0.6, 0.8], 1.2, 1200)
    cross = points[:, 0] * 0.8 - points[:, 1] * 0.6
    assert np.abs(cross).max() < 1e-8


def test_geodesic_speed_drift():
    points, velocities = geodesic_integrate(SPHERE, [0.3, -0.1], [0.5, 0.7], 1.0, 1000)
    speeds = g_norm(SPHERE, points, velocities)
    assert abs(speeds[-1] - speeds[0]) / speeds[0] < 1e-8


def test_geodesic_domain_error():
    box = EuclideanChart(2, box=([0, 0], [1, 1]))
    with pytest.raises(DomainError, match=r"at step \d+"):
        geodesic_integrate(box, [0.5, 0.5], [1.0, 0.0], 2.0, 100)


def test_batched_geodesics_equal_single_runs(rng):
    p = rng.uniform(-0.5, 0.5, size=(5, 2))
    v = rng.normal(size=(5, 2))
    points, velocities = geodesic_integrate(SPHERE, p, v, 1.3, 200)
    assert points.shape == velocities.shape == (5, 201, 2)
    for k in range(5):
        one_points, one_velocities = geodesic_integrate(SPHERE, p[k], v[k], 1.3, 200)
        assert np.abs(points[k] - one_points).max() < 1e-14
        assert (np.abs(velocities[k] - one_velocities).max()
                < 1e-13 * np.abs(one_velocities).max())


def test_batched_geodesic_domain_error_names_the_step():
    box = EuclideanChart(2, box=([0, 0], [1, 1]))
    with pytest.raises(DomainError) as single:
        geodesic_integrate(box, [0.2, 0.5], [1.0, 0.0], 2.0, 100)
    with pytest.raises(DomainError) as batch:
        geodesic_integrate(box, [[0.5, 0.5], [0.2, 0.5]], [[0.0, 0.1], [1.0, 0.0]], 2.0, 100)
    assert str(batch.value) == str(single.value)


# -- parallel transport ------------------------------------------------------

def test_transport_constant_on_flat():
    w = parallel_transport(TORUS, *geodesic_integrate(TORUS, [0, 0], [1.0, 0.3], 1.0, 64),
                           [0.2, -0.4])
    assert np.abs(w - np.array([0.2, -0.4])).max() < 1e-12


def test_transport_preserves_norm_on_sphere():
    points, velocities = geodesic_integrate(SPHERE, [0.1, 0.2], [0.4, -0.3], 1.5, 1000)
    w = parallel_transport(SPHERE, points, velocities, [0.5, 0.1])
    norms = g_norm(SPHERE, points, w)
    assert np.abs(norms - norms[0]).max() / norms[0] < 1e-8


def test_transport_of_tangent_is_running_tangent():
    points, velocities = geodesic_integrate(SPHERE, [0.2, 0.0], [0.3, 0.4], 1.0, 1000)
    w = parallel_transport(SPHERE, points, velocities, velocities[0])
    scale = np.abs(velocities).max()
    assert np.abs(w - velocities).max() / scale < 1e-7


def test_metric_compatibility_of_transport():
    from geodesicnets.geometry import g_dot

    points, velocities = geodesic_integrate(SPHERE, [0.0, 0.3], [0.5, 0.2], 1.0, 800)
    w1 = parallel_transport(SPHERE, points, velocities, [0.3, 0.1])
    w2 = parallel_transport(SPHERE, points, velocities, [-0.2, 0.5])
    dots = g_dot(SPHERE, points, w1, w2)
    assert np.abs(dots - dots[0]).max() < 1e-7


# -- background exponential --------------------------------------------------

def test_exp_background_is_affine():
    p, w = np.array([0.1, 0.2]), np.array([0.05, -0.03])
    assert np.allclose(_exp_background(TORUS, p, w), p + w)
    assert np.allclose(_exp_background(TORUS, p, np.zeros(2)), p)


def test_exp_background_injectivity_bound():
    with pytest.raises(DomainError):
        _exp_background(TORUS, [0.0, 0.0], [2.0, 0.0])


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
    w = st.quadrature_weights(s.shape[0], loop=True)
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


def _christoffel_reference(g, dg):
    """(Gamma^k_ij [.., k, i, j], the bracket (d_i g_jl + d_j g_il - d_l g_ij) / 2
    [.., l, i, j]) from the dense metric jet: the Levi-Civita formula."""
    first = 0.5 * (np.einsum("pijl->plij", dg) + np.einsum("pjil->plij", dg) - dg)
    return np.einsum("pkl,plij->pkij", np.linalg.inv(g), first), first


def _christoffel_deriv_reference(g, dg, ddg):
    """d_m Gamma^k_ij [.., m, k, i, j] from the dense metric jet, by the
    product rule with d_m g^-1 = -g^-1 (d_m g) g^-1."""
    ginv = np.linalg.inv(g)
    _, first = _christoffel_reference(g, dg)
    dfirst = 0.5 * (np.einsum("pmijl->pmlij", ddg) + np.einsum("pmjil->pmlij", ddg) - ddg)
    dginv = -np.einsum("pka,pmab,pbl->pmkl", ginv, dg, ginv)
    return (np.einsum("pmkl,plij->pmkij", dginv, first)
            + np.einsum("pkl,pmlij->pmkij", ginv, dfirst))


def _curvature_reference(gam, dgam, X, Y, Z):
    """R(X,Y)Z^l = [dGam_j Gam^l_ik - dGam_i Gam^l_jk + Gam^l_jm Gam^m_ik
    - Gam^l_im Gam^m_jk] X^i Y^j Z^k, from the Christoffel symbols and
    their derivatives."""
    t1 = np.einsum("pjlik,pi,pj,pk->pl", dgam, X, Y, Z)
    t2 = np.einsum("piljk,pi,pj,pk->pl", dgam, X, Y, Z)
    t3 = np.einsum("pljm,pmik,pi,pj,pk->pl", gam, gam, X, Y, Z)
    t4 = np.einsum("plim,pmjk,pi,pj,pk->pl", gam, gam, X, Y, Z)
    return t1 - t2 + t3 - t4


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
        h = fld.jet_many(pts)[2]
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
        exact = _christoffel_deriv_reference(*metric_tensor_jet(chart, p))
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
    """g from the factor jet is ``metric_many`` bit for bit; dg matches
    central differences of it."""
    eps = 1e-6
    for name, chart, pts in _jet_charts():
        g, dg, _ = metric_tensor_jet(chart, pts)
        assert np.array_equal(g, chart.metric_many(pts)), name
        for k in range(pts.shape[1]):
            step = np.zeros(pts.shape[1])
            step[k] = eps
            fd = (chart.metric_many(pts + step) - chart.metric_many(pts - step)) / (2 * eps)
            assert np.abs(dg[:, k] - fd).max() < 1e-7 * max(1.0, np.abs(dg).max()), name


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
        chart.factor_jet_many(points)
        tracemalloc.start()
        chart.factor_jet_many(points)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # 4x the points; an all-pairs (points x anchors) table would give 16x
    assert peaks[1] <= 4.0 * peaks[0]


def _close(got, want, rel=1e-13):
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


def test_closed_forms_match_the_tensor_reference_on_directional_bumps():
    rng = np.random.default_rng(3)
    for name, chart, pts in _jet_charts():
        x_vec, y_vec, z_vec = rng.normal(size=(3,) + pts.shape)
        g, dg, ddg = metric_tensor_jet(chart, pts)
        gam, _ = _christoffel_reference(g, dg)
        dgam = _christoffel_deriv_reference(g, dg, ddg)
        _close(chart.christoffel_many(pts), gam)
        _close(chart.curvature_many(pts, x_vec, y_vec, z_vec),
               _curvature_reference(gam, dgam, x_vec, y_vec, z_vec))


_COORD = st.floats(-1.0, 1.0)


@settings(max_examples=60)
@given(kind=st.sampled_from(["euclidean", "torus", "sphere"]), dim=st.sampled_from([2, 3]),
       bumps=st.lists(st.tuples(st.tuples(_COORD, _COORD, _COORD), st.floats(0.3, 1.5),
                                st.floats(-0.4, 0.4)), max_size=2),
       seed=st.integers(0, 2**16))
def test_closed_forms_match_the_tensor_reference(kind, dim, bumps, seed):
    """metric_many is lam I; the closed-form Christoffel symbols, their
    contraction and the curvature equal the dense tensor formulas on every
    chart kind, in 2-D and 3-D, under up to two stacked bumps."""
    base = {"euclidean": EuclideanChart(dim),
            "torus": FlatTorusChart(2.0 * np.eye(dim) + 0.5 * np.eye(dim, k=1)),
            "sphere": StereographicSphereChart(0.8, dim)}[kind]
    chart = base
    for center, radius, amplitude in bumps:
        field = RadialBumpField(center[:dim], radius, 1.0, chart=base)
        chart = conformal_family(chart, field, amplitude)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(40, dim))
    x_vec, y_vec, z_vec = rng.normal(size=(3, 40, dim))
    lam, dphi, _ = chart.factor_jet_many(pts)
    assert np.array_equal(chart.metric_many(pts), lam[:, None, None] * np.eye(dim))
    g, dg, ddg = metric_tensor_jet(chart, pts)
    gam, _ = _christoffel_reference(g, dg)
    dgam = _christoffel_deriv_reference(g, dg, ddg)
    _close(chart.christoffel_many(pts), gam)
    _close(christoffel_apply(dphi, x_vec, y_vec), np.einsum("pkij,pi,pj->pk", gam, x_vec, y_vec))
    _close(chart.curvature_many(pts, x_vec, y_vec, z_vec),
           _curvature_reference(gam, dgam, x_vec, y_vec, z_vec))
