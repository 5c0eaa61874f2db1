import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from conftest import ConstantField, theta3d_doc

from geodesicnets import (
    PathCoord,
    build_net_chart,
    constraint_C,
    coordinates_of,
    edge_lengths,
    lagrangian_integral,
    lambda_map,
    length,
    make_case,
    mean_curvature_H,
    stationarity_equivalence_check,
    xi,
    xi_prime,
)
from geodesicnets import localcoords, stencils
from geodesicnets.localcoords import TubeError
from geodesicnets.geometry import conformal_family
from geodesicnets.net import GeodesicNet


def chart_for(name, n=64):
    case = make_case(name, n)
    return case, build_net_chart(case.chart, case.net)


def random_in_radius_coord(nc, eid, npts, rng, frac=0.5):
    tube = nc.tubes[eid]
    t = np.linspace(0, 1, npts)
    a = float(rng.uniform(-0.9, 0.9) * localcoords.DELTA_REL)
    b = float(1 + rng.uniform(-0.9, 0.9) * localcoords.DELTA_REL)
    u = np.zeros((npts, 1))
    for k in (1, 2, 3):
        u[:, 0] += rng.normal() * np.sin(np.pi * k * t) + rng.normal() * np.cos(np.pi * k * t)
    mx = np.abs(u).max()
    if mx > 0:
        u *= frac * tube.delta_norm / mx
    return PathCoord(a=a, b=b, u=u)


# -- xi / xi_prime -----------------------------------------------------------

def test_xi_center_is_reference_parametrization():
    pc = PathCoord(a=0.0, b=1.0, u=np.zeros((65, 1)))
    curve = xi(pc)
    assert np.allclose(curve[:, 0], np.linspace(0, 1, 65))
    assert np.abs(curve[:, 1:]).max() == 0.0


def test_xi_longitudinal_compression():
    pc = PathCoord(a=0.1, b=0.9, u=np.zeros((65, 1)))
    curve = xi(pc)
    assert curve[0, 0] == pytest.approx(0.1)
    assert curve[-1, 0] == pytest.approx(0.9)


def test_xi_affine_in_coordinates(rng):
    npts = 65
    u1 = rng.normal(size=(npts, 1))
    u2 = rng.normal(size=(npts, 1))
    c1 = PathCoord(a=0.02, b=0.98, u=u1)
    c2 = PathCoord(a=-0.03, b=1.01, u=u2)
    mid = PathCoord(a=(c1.a + c2.a) / 2, b=(c1.b + c2.b) / 2, u=(u1 + u2) / 2)
    assert np.allclose(xi(mid), 0.5 * (xi(c1) + xi(c2)))


def test_xi_prime_of_reference():
    curve = xi(PathCoord(a=0.0, b=1.0, u=np.zeros((65, 1))))
    pc = xi_prime(curve)
    assert pc.a == 0.0 and pc.b == 1.0
    assert np.abs(pc.u).max() == 0.0


def test_xi_roundtrip_battery(rng):
    case, nc = chart_for("sphere-theta")
    worst = 0.0
    for _ in range(200):
        pc = random_in_radius_coord(nc, "E1", 65, rng)
        back = xi_prime(xi(pc))
        worst = max(worst, abs(back.a - pc.a), abs(back.b - pc.b),
                    float(np.abs(back.u - pc.u).max()))
    assert worst <= 1e-9


def test_xi_prime_reparametrization_invariance(rng):
    t = np.linspace(0, 1, 65)
    pc = PathCoord(a=0.04, b=0.97, u=0.08 * np.sin(np.pi * t)[:, None])
    curve = xi(pc)
    base = xi_prime(curve)
    spline = CubicSpline(t, curve, axis=0)
    worst = 0.0
    for _ in range(5):
        amp = rng.uniform(0.02, 0.08)
        k = int(rng.integers(1, 3))
        tau = t + amp * np.sin(np.pi * k * t)
        re_curve = spline(tau)
        got = xi_prime(re_curve)
        worst = max(worst, abs(got.a - base.a), abs(got.b - base.b),
                    float(np.abs(got.u - base.u).max()))
    assert worst <= 1e-7


def test_xi_prime_rejects_non_monotone():
    t = np.linspace(0, 1, 65)
    lon = t + 0.3 * np.sin(2 * np.pi * t)  # not monotone
    curve = np.stack([lon, np.zeros_like(t)], axis=1)
    with pytest.raises(TubeError):
        xi_prime(curve)


# -- lambda map and tube coordinates -----------------------------------------

def test_tube_folding_back_within_two_radii_warns():
    # a curve that winds 1.9 times round a shrinking circle: its two turns
    # pass 0.016 apart, inside twice the normal radius 0.05
    from geodesicnets.geometry import HermiteCurve
    from geodesicnets.localcoords import EdgeTube, _validate_tube

    s = np.linspace(0.0, 1.0, 801)
    ang = 2.0 * np.pi * 1.9 * s
    rad = 1.0 - 0.03 * s
    pts = rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    vels = np.gradient(pts, s, axis=0)
    accs = np.gradient(vels, s, axis=0)
    tube = EdgeTube(eid="E", curve=HermiteCurve(s, pts, vels), velocity=HermiteCurve(s, vels, accs),
                    delta_norm=0.05, eta=0.0)
    with pytest.warns(UserWarning, match="may self-overlap"):
        _validate_tube(tube)
    # one turn only: nothing comes back
    one_turn = EdgeTube(eid="E", curve=HermiteCurve(s[:400], pts[:400], vels[:400]),
                        velocity=HermiteCurve(s[:400], vels[:400], accs[:400]),
                        delta_norm=0.05, eta=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _validate_tube(one_turn)


@pytest.mark.parametrize("name", ["honeycomb-torus", "sphere-theta", "sphere-equator", "flat-loop"])
def test_built_in_tubes_do_not_overlap(name):
    case = make_case(name, 32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_net_chart(case.chart, case.net)


def test_tubes_depend_on_the_chart_they_are_built_in_only():
    # the honeycomb's metric times 4: every edge has g-length 2
    case = make_case("honeycomb-torus", 32)
    scaled = conformal_family(case.chart, ConstantField(1.0), 3.0)
    # the same samples, not built by make_case under the flat chart
    net = case.net
    rebuilt = GeodesicNet(graph=net.graph, edge_samples=dict(net.edge_samples),
                          vertex_positions=dict(net.vertex_positions),
                          periodic_edges=net.periodic_edges)
    for built in (net, rebuilt):
        tubes = build_net_chart(scaled, built).tubes
        for e in net.graph.edges:
            assert tubes[e.id].delta_norm == pytest.approx(0.2, rel=1e-12), e.id


def test_build_net_chart_refuses_a_3d_net(tmp_path):
    from geodesicnets import specfile

    path = tmp_path / "theta3d.json"
    specfile.write_document(theta3d_doc(), str(path))
    spec = specfile.load_spec(str(path))
    with pytest.raises(TubeError, match="needs a planar chart"):
        build_net_chart(spec.chart(), spec.net)


def test_center_roundtrip_exact():
    for name in ("honeycomb-torus", "sphere-theta", "sphere-equator"):
        case, nc = chart_for(name)
        coords = coordinates_of(nc, case.net)
        for eid, pc in coords.items():
            assert abs(pc.a) < 1e-12 and abs(pc.b - 1.0) < 1e-12
            assert np.abs(pc.u).max() < 1e-12
        back = lambda_map(nc, coords)
        worst = max(
            np.abs(back.edge_samples[e] - case.net.edge_samples[e]).max()
            for e in back.edge_samples
        )
        assert worst < 1e-12


def test_lambda_map_constant_offset_is_parallel_segment():
    case, nc = chart_for("honeycomb-torus")
    coords = coordinates_of(nc, case.net)
    pc = coords["E1"]
    pc.u[:] = 0.05
    net2 = lambda_map(nc, coords)
    expected = case.net.edge_samples["E1"] + np.array([0.0, 0.05])
    assert np.abs(net2.edge_samples["E1"] - expected).max() < 1e-10


def test_lambda_tube_roundtrip_on_perturbed_coords(rng):
    case, nc = chart_for("sphere-theta")
    coords = coordinates_of(nc, case.net)
    pc = coords["E1"]
    t = np.linspace(0, 1, 65)
    pc.u[:, 0] = 0.3 * nc.tubes["E1"].delta_norm * np.sin(np.pi * t)
    coords["E1"] = PathCoord(a=0.02, b=0.99, u=pc.u)
    net2 = lambda_map(nc, coords)
    back = coordinates_of(nc, net2)
    pc2 = back["E1"]
    assert abs(pc2.a - 0.02) < 1e-8
    assert abs(pc2.b - 0.99) < 1e-8
    assert np.abs(pc2.u - pc.u).max() < 1e-8


def test_lambda_map_rejects_radius_violation():
    case, nc = chart_for("honeycomb-torus")
    coords = coordinates_of(nc, case.net)
    coords["E1"] = PathCoord(a=0.5, b=1.0, u=coords["E1"].u)
    with pytest.raises(TubeError):
        lambda_map(nc, coords)


# -- constraint map ----------------------------------------------------------

def test_constraint_zero_on_valid_net():
    for name in ("honeycomb-torus", "sphere-theta"):
        case, nc = chart_for(name)
        coords = coordinates_of(nc, case.net)
        res = constraint_C(nc, coords)
        assert np.linalg.norm(res) < 1e-9


def test_constraint_dimension_honeycomb():
    case, nc = chart_for("honeycomb-torus")
    coords = coordinates_of(nc, case.net)
    res = constraint_C(nc, coords)
    assert res.shape == (8,)


def test_constraint_measures_displacement(rng):
    case, nc = chart_for("honeycomb-torus")
    for _ in range(5):
        coords = coordinates_of(nc, case.net)
        eps = 1e-3
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        pc = coords["E2"]
        # displace the endpoint coordinate of a non-preferred pair
        pc.u[-1] += eps * direction[1]
        coords["E2"] = PathCoord(a=pc.a, b=pc.b + eps * direction[0], u=pc.u)
        res = constraint_C(nc, coords)
        assert abs(np.linalg.norm(res) - eps) < 2e-3 * eps


# -- lagrangian --------------------------------------------------------------

def test_lagrangian_constant_on_straight_center():
    case, nc = chart_for("honeycomb-torus")
    coords = coordinates_of(nc, case.net)
    pc = coords["E1"]
    vals = localcoords._lagrangian_jet(case.chart, nc.tubes["E1"], pc,
                                       stencils.velocity(pc.u, loop=False))[0]
    assert np.abs(vals - edge_lengths(case.chart, case.net)["E1"]).max() < 1e-10
    assert vals.min() > 0


def test_lagrangian_integral_matches_length(rng):
    case, nc = chart_for("sphere-theta", n=256)
    coords = coordinates_of(nc, case.net)
    t = np.linspace(0, 1, 257)
    for eid in ("E1", "E2"):
        pc = coords[eid]
        pc.u[:, 0] = 0.2 * nc.tubes[eid].delta_norm * np.sin(np.pi * t)
    net2 = lambda_map(nc, coords)
    a = lagrangian_integral(case.chart, nc, coords)
    b = length(case.chart, net2)
    assert abs(a - b) <= 1e-8 * b


# -- coordinate stationarity residual ----------------------------------------

def test_mean_curvature_zero_at_stationary_nets():
    # the tube's node accelerations are -Gamma(v, v), so H1 vanishes to rounding
    for name in ("honeycomb-torus", "sphere-theta", "sphere-equator", "flat-loop"):
        case, nc = chart_for(name)
        coords = coordinates_of(nc, case.net)
        h1, h2 = mean_curvature_H(case.chart, nc, coords)
        assert max(np.abs(v).max() for v in h1.values()) < 1e-12
        assert max(np.linalg.norm(v) for v in h2.values()) < 1e-4


def _jittered_off_the_knots(name, rng):
    """A chart at N = 32 and coordinates with bent profiles and (a, b) moved
    off the knot lattice of the tubes, where L is smooth in (a, b)."""
    case, nc = chart_for(name, 32)
    t = np.linspace(0, 1, 33)[:, None]
    coords = {}
    for eid, pc in coordinates_of(nc, case.net).items():
        bend = rng.normal() * np.sin(np.pi * t) + 0.5 * rng.normal() * np.cos(np.pi * t)
        coords[eid] = PathCoord(pc.a + 0.0123, pc.b - 0.0171,
                                pc.u + 0.2 * nc.tubes[eid].delta_norm * bend)
    return case, nc, coords


@pytest.mark.parametrize("name", ["honeycomb-torus", "sphere-theta"])
def test_mean_curvature_is_the_gradient_of_the_lagrangian_integral(name, rng):
    case, nc, coords = _jittered_off_the_knots(name, rng)
    h1, _ = mean_curvature_H(case.chart, nc, coords)
    step = 5e-6

    def moved(eid, da=0.0, db=0.0, k=None, du=0.0):
        out = dict(coords)
        pc = coords[eid]
        u = pc.u.copy()
        if k is not None:
            u[k, 0] += du
        out[eid] = PathCoord(pc.a + da, pc.b + db, u)
        return lagrangian_integral(case.chart, nc, out)

    wq = stencils.quadrature_weights(33, loop=False)
    for eid, pc in coords.items():
        # interior rows: the SBP identity D^T W = -W D holds away from the ends
        fd = np.array([(moved(eid, k=k, du=step) - moved(eid, k=k, du=-step)) / (2 * step * wq[k])
                       for k in range(1, 32)])
        assert np.abs(h1[eid][1:-1, 0] - fd).max() <= 1e-6 * np.abs(fd).max(), eid
        # the endpoint integrals of the vertex part
        _, _, _, dl_da, dl_db = localcoords._lagrangian_jet(
            case.chart, nc.tubes[eid], pc, stencils.velocity(pc.u, loop=False))
        for got, (da, db) in ((wq @ dl_da, (step, 0.0)), (wq @ dl_db, (0.0, step))):
            fd = (moved(eid, da, db) - moved(eid, -da, -db)) / (2 * step)
            assert abs(got - fd) <= 1e-8 * abs(fd), eid


@pytest.mark.parametrize("name", ["honeycomb-torus", "sphere-theta"])
def test_transfer_jacobian_is_the_derivative_of_the_transfer_point(name, rng):
    case, nc, coords = _jittered_off_the_knots(name, rng)
    step = 5e-6
    for v in sorted(case.net.graph.vertices):
        pref_eid, pref_i = nc.preferred[v]
        hint = localcoords._endpoint_coordinate(coords[pref_eid], pref_i)[0]
        for eid, i in sorted(case.net.graph.incident_pairs(v)):
            if (eid, i) == (pref_eid, pref_i):
                continue
            coord = localcoords._endpoint_coordinate(coords[eid], i)
            jac = localcoords._transfer_jacobian(nc, eid, pref_eid, coord, hint)
            fd = np.column_stack([
                (localcoords._transfer_point(nc, eid, pref_eid, coord + dp, hint)
                 - localcoords._transfer_point(nc, eid, pref_eid, coord - dp, hint)) / (2 * step)
                for dp in step * np.eye(2)])
            assert np.abs(jac - fd).max() <= 1e-8 * np.abs(fd).max(), (v, eid, i)


def test_mean_curvature_grows_with_jitter(rng):
    case, nc = chart_for("honeycomb-torus")
    t = np.linspace(0, 1, 65)
    norms = []
    for amp in (0.005, 0.02, 0.08):
        coords = coordinates_of(nc, case.net)
        rng_local = np.random.default_rng(5)
        for eid, pc in coords.items():
            pc.u[:, 0] += amp * np.sin(np.pi * t) * rng_local.normal()
        h1, _ = mean_curvature_H(case.chart, nc, coords)
        norms.append(max(np.abs(v).max() for v in h1.values()))
    assert norms[0] < norms[1] < norms[2]


def test_mean_curvature_flat_closed_form():
    # on a flat chart H1 is -n(E) u'' / |f'| for small normal offsets
    case, nc = chart_for("honeycomb-torus")
    coords = coordinates_of(nc, case.net)
    t = np.linspace(0, 1, 65)
    amp = 1e-4
    coords["E1"].u[:, 0] = amp * np.sin(np.pi * t)
    h1, _ = mean_curvature_H(case.chart, nc, coords)
    expected = amp * np.pi**2 * np.sin(np.pi * t) / edge_lengths(case.chart, case.net)["E1"]
    # interior samples: the boundary closures of the grid stencil are
    # lower order and dominate the first few rows
    assert np.abs(h1["E1"][6:-6, 0] - expected[6:-6]).max() < 1e-3 * amp * np.pi**2


def test_equivalence_check_on_test_nets():
    for name in ("honeycomb-torus", "sphere-theta", "sphere-equator"):
        case, nc = chart_for(name)
        coords = coordinates_of(nc, case.net)
        assert stationarity_equivalence_check(case.chart, nc, coords)


def test_equivalence_check_on_jittered(rng):
    case, nc = chart_for("honeycomb-torus")
    t = np.linspace(0, 1, 65)
    for _ in range(5):
        coords = coordinates_of(nc, case.net)
        for eid, pc in coords.items():
            pc.u[:, 0] += 0.03 * np.sin(np.pi * t) * rng.normal()
        assert stationarity_equivalence_check(case.chart, nc, coords)


def test_equivalence_check_takes_the_residuals_it_would_compute():
    # both residuals call the honeycomb stationary, and not once E1 is bent;
    # on the sphere-theta at N = 32 the coordinate vertex residual (1.8e-4)
    # misses the tolerance the ambient residual meets, so the check fails
    verdicts = []
    for name, n, amp in (("honeycomb-torus", 64, 0.0), ("honeycomb-torus", 64, 0.05),
                         ("sphere-theta", 32, 0.0)):
        case, nc = chart_for(name, n)
        coords = coordinates_of(nc, case.net)
        coords["E1"].u[:, 0] += amp * np.sin(np.pi * np.linspace(0, 1, n + 1))
        residuals = (*mean_curvature_H(case.chart, nc, coords), constraint_C(nc, coords))
        verdict = stationarity_equivalence_check(case.chart, nc, coords, residuals=residuals)
        assert verdict == stationarity_equivalence_check(case.chart, nc, coords)
        verdicts.append(verdict)
    assert verdicts == [True, True, False]


def test_coordinate_hessian_matches_ambient(rng):
    from geodesicnets import NetField, hessian_form

    case, nc = chart_for("sphere-theta", n=256)
    coords = coordinates_of(nc, case.net)
    t = np.linspace(0, 1, 257)

    def coord_direction():
        out = {}
        for eid in coords:
            prof = np.zeros((257, 1))
            for k in (1, 2):
                prof[:, 0] += rng.normal() * np.sin(np.pi * k * t)
            out[eid] = (0.0, 0.0, prof)
        return out

    def ambient_field(direction):
        vals = {}
        for eid, (da, db, prof) in direction.items():
            tube = nc.tubes[eid]
            frames = tube.frame(t)
            vals[eid] = np.einsum("pa,pai->pi", prof, frames)
        return NetField(vals)

    def coords_plus(direction, eps):
        out = {k: PathCoord(pc.a, pc.b, pc.u.copy()) for k, pc in coords.items()}
        for eid, (da, db, prof) in direction.items():
            out[eid] = PathCoord(out[eid].a + eps * da, out[eid].b + eps * db,
                                 out[eid].u + eps * prof)
        return out

    dir_x = coord_direction()
    dir_y = coord_direction()
    eps = 1e-4
    vals = {}
    for sa in (1, -1):
        for sb in (1, -1):
            both = {
                eid: (0.0, 0.0, sa * dir_x[eid][2] + sb * dir_y[eid][2])
                for eid in dir_x
            }
            vals[(sa, sb)] = lagrangian_integral(case.chart, nc, coords_plus(both, eps))
    mixed = (vals[(1, 1)] - vals[(1, -1)] - vals[(-1, 1)] + vals[(-1, -1)]) / (4 * eps * eps)
    ambient = hessian_form(case.chart, case.net, ambient_field(dir_x), ambient_field(dir_y))
    assert abs(mixed - ambient) <= 1e-4 * max(abs(mixed), abs(ambient))
