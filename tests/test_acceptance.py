"""Acceptance suite: one test per criterion, one printed verdict line each.

Resolutions are chosen per net so each quantity is measured where its
discretization scheme meets the stated tolerance; kernel counting runs at
the default 64 samples per edge.
"""

import numpy as np
import pytest

from conftest import jitter_net, random_ambient_field

from geodesicnets import (
    SolveOptions,
    break_degeneracy,
    build_condition_C_bump,
    build_net_chart,
    conformal_family,
    continue_family,
    coordinates_of,
    first_variation,
    geodesic_integrate,
    g_norm,
    hessian_fd_oracle,
    hessian_form,
    is_nondegenerate,
    jacobi_kernel,
    length,
    make_case,
    mixed_second_derivative,
    reduced_hessian_fd,
    reduced_kernel_dimension,
    solve_stationary,
    stationarity_equivalence_check,
    stationarity_residual,
    xi,
    xi_prime,
)
from geodesicnets.geometry import RadialBumpField, StereographicSphereChart, SumField, ConstantField
from geodesicnets.jacobi import random_reduced_field
from geodesicnets.localcoords import PathCoord
from geodesicnets.multigraph import WeightedMultigraph
from geodesicnets.net import GeodesicNet, edge_lengths, reparametrize_constant_speed


def _report(line):
    print(f"\n[acceptance] {line}")


def test_criterion_1_stationarity_suite():
    residual_specs = [
        ("honeycomb-torus", 64, 1e-5),
        ("sphere-theta", 64, 1e-5),
        ("sphere-equator", 256, 1e-4),
    ]
    rng = np.random.default_rng(11)
    worst_resid = {}
    worst_fv = {}
    for name, n, tol in residual_specs:
        case = make_case(name, n)
        rep = stationarity_residual(case.chart, case.net)
        assert rep.aggregate <= tol, name
        worst_resid[name] = rep.aggregate
        polished = solve_stationary(case.chart, case.net, SolveOptions(tolerance=1e-9)).net
        worst = 0.0
        for _ in range(100):
            fld = random_reduced_field(case.chart, polished, rng)
            worst = max(worst, abs(first_variation(case.chart, polished, fld)))
        assert worst <= 1e-6, name
        worst_fv[name] = worst
    _report(
        "criterion 1 PASS: residuals "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst_resid.items())
        + "; first variation "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst_fv.items())
    )


def test_criterion_2_hessian_oracle():
    rng = np.random.default_rng(23)
    configs = [
        ("honeycomb-torus", 64, 3e-5),
        ("sphere-equator", 512, 1e-4),
        ("sphere-theta", 1024, 1e-4),
    ]
    summary = {}
    for name, n, step in configs:
        case = make_case(name, n)
        values = []
        sym_defect = 0.0
        for k in range(50):
            x_fld = random_ambient_field(case.chart, case.net, rng)
            y_fld = random_ambient_field(case.chart, case.net, rng)
            a = hessian_form(case.chart, case.net, x_fld, y_fld, check_stationary=False)
            b = hessian_fd_oracle(case.chart, case.net, x_fld, y_fld, step=step)
            values.append((a, b))
            if k < 10:
                c = hessian_form(case.chart, case.net, y_fld, x_fld, check_stationary=False)
                sym_defect = max(sym_defect, abs(a - c))
        scale = max(max(abs(a), abs(b)) for a, b in values)
        worst = max(abs(a - b) for a, b in values) / scale
        assert worst <= 1e-5, name
        assert sym_defect <= 1e-6 * max(1.0, scale), name
        summary[name] = worst
    _report(
        "criterion 2 PASS: hessian vs oracle (50 pairs/net, relative) "
        + ", ".join(f"{k}={v:.2e}" for k, v in summary.items())
    )


def test_criterion_3_kernel_dimensions():
    expected = {"honeycomb-torus": 2, "sphere-equator": 2, "sphere-theta": 3}
    gaps = {}
    for name, dim in expected.items():
        case = make_case(name, 64)
        ker = jacobi_kernel(case.chart, case.net, svd_tol=1e-6)
        assert ker.dimension == dim, f"{name}: shooting {ker.dimension} != {dim}"
        assert ker.gap >= 10.0
        h_mat, _ = reduced_hessian_fd(case.chart, case.net)
        fd_dim, _, fd_gap = reduced_kernel_dimension(h_mat, svd_tol=1e-6)
        assert fd_dim == dim, f"{name}: reduced FD {fd_dim} != {dim}"
        assert fd_gap >= 10.0
        gaps[name] = (ker.gap, fd_gap)
    _report(
        "criterion 3 PASS: kernel dims (shooting == reduced FD) "
        + ", ".join(f"{k}={expected[k]} gaps=({v[0]:.1e},{v[1]:.1e})" for k, v in gaps.items())
    )


def test_criterion_4_verdicts():
    for name in ("honeycomb-torus", "sphere-equator", "sphere-theta"):
        case = make_case(name, 64)
        assert not is_nondegenerate(case.chart, case.net).nondegenerate, name
    rng = np.random.default_rng(2024)
    case = make_case("honeycomb-torus", 64)
    fields = []
    for _ in range(3):
        center = rng.uniform(-0.5, 1.0, size=2)
        radius = rng.uniform(0.25, 0.45)
        amp = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
        fields.append(RadialBumpField(center, radius, amp, chart=case.chart))
    h_fld = SumField(fields)
    amps = [0.0, 0.0125, 0.025, 0.0375, 0.05]
    charts = [conformal_family(case.chart, h_fld, x) if x else case.chart for x in amps]
    results = continue_family(charts, case.net, verify_nondegenerate=False)
    assert is_nondegenerate(charts[-1], results[-1].net, residual_tol=5e-3).nondegenerate
    _report(
        "criterion 4 PASS: all three nets degenerate; honeycomb under the seeded "
        "generic bump metric after continuation is nondegenerate"
    )


def test_criterion_5_condition_c_pipeline():
    agreements = []
    for name in ("honeycomb-torus", "sphere-equator"):
        case = make_case(name, 64)
        ker = jacobi_kernel(case.chart, case.net)
        for j_fld in ker.ambient:
            spec, h_fld = build_condition_C_bump(case.chart, case.net, j_fld)
            closed, fd = mixed_second_derivative(case.chart, h_fld, case.net, j_fld)
            assert closed > 0.0, name
            assert abs(closed - fd) <= 1e-4 * abs(fd), name
            agreements.append(abs(closed - fd) / abs(fd))
        chart2, net2, kernel, history = break_degeneracy(case.chart, case.net)
        assert kernel.nondegenerate, name
        assert history[-1]["bumps"] <= 3, name
    _report(
        f"criterion 5 PASS: condition-(C) pairing positive on every kernel field, "
        f"closed form vs FD worst {max(agreements):.2e}; degeneracy broken in "
        f"<= 3 bumps on both nets"
    )


def test_criterion_6_chart_machinery():
    rng = np.random.default_rng(7)
    case = make_case("sphere-theta", 64)
    nc = build_net_chart(case.chart, case.net)
    tube = nc.tubes["E1"]
    t = np.linspace(0, 1, 65)
    worst_rt = 0.0
    for _ in range(1000):
        a = float(rng.uniform(-0.9, 0.9) * tube.delta_long)
        b = float(1 + rng.uniform(-0.9, 0.9) * tube.delta_long)
        u = np.zeros((65, 1))
        for k in (1, 2, 3):
            u[:, 0] += rng.normal() * np.sin(np.pi * k * t) + rng.normal() * np.cos(np.pi * k * t)
        mx = np.abs(u).max()
        if mx > 0:
            u *= 0.5 * tube.delta_norm / mx
        pc = PathCoord(a=a, b=b, u=u)
        back = xi_prime(xi(pc))
        worst_rt = max(worst_rt, abs(back.a - pc.a), abs(back.b - pc.b),
                       float(np.abs(back.u - pc.u).max()))
    assert worst_rt <= 1e-9

    from scipy.interpolate import CubicSpline

    worst_rp = 0.0
    for trial in range(5):
        pc = PathCoord(a=0.03, b=0.97, u=0.3 * tube.delta_norm * np.sin(np.pi * t)[:, None])
        curve = xi(pc)
        base = xi_prime(curve)
        spline = CubicSpline(t, curve, axis=0)
        amp = rng.uniform(0.02, 0.08)
        k = int(rng.integers(1, 3))
        re_curve = spline(t + amp * np.sin(np.pi * k * t))
        got = xi_prime(re_curve)
        worst_rp = max(worst_rp, abs(got.a - base.a), abs(got.b - base.b),
                       float(np.abs(got.u - base.u).max()))
    assert worst_rp <= 1e-7

    checks = 0
    for name in ("honeycomb-torus", "sphere-theta", "sphere-equator"):
        case = make_case(name, 64)
        nc = build_net_chart(case.chart, case.net)
        coords = coordinates_of(nc, case.net)
        assert stationarity_equivalence_check(case.chart, nc, coords), name
        checks += 1
        for trial in range(7 if name != "sphere-equator" else 6):
            jcoords = coordinates_of(nc, case.net)
            for eid, pc in jcoords.coords.items():
                npts = pc.u.shape[0]
                tt = np.linspace(0, 1, npts)
                profile = np.sin(np.pi * tt) if eid not in case.net.periodic_edges else np.sin(2 * np.pi * tt)
                pc.u[:, 0] += 0.04 * profile * rng.normal()
            assert stationarity_equivalence_check(case.chart, nc, jcoords), name
            checks += 1
    assert checks >= 23
    _report(
        f"criterion 6 PASS: xi roundtrip worst {worst_rt:.2e} over 1000 draws; "
        f"reparametrization invariance worst {worst_rp:.2e}; equivalence check "
        f"true on {checks} nets/variants"
    )


def test_criterion_7_convergence_orders():
    # length quadrature order under grid doubling (graded sphere arc)
    sphere = StereographicSphereChart(radius=1.0)
    errs = []
    for n in (32, 64, 128):
        graph = WeightedMultigraph.build(["P", "Q"], [("E", "P", "Q"), ("E2", "P", "Q")])
        t = np.linspace(0.0, 1.0, n + 1)
        t = t + 0.08 * np.sin(np.pi * t) * t * (1 - t) * 4
        ang = 0.5 * np.pi * t
        arc = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        net = GeodesicNet(
            graph=graph,
            edge_samples={"E": arc, "E2": np.linspace(arc[0], arc[-1], n + 1)},
            vertex_positions={"P": arc[0], "Q": arc[-1]},
        )
        errs.append(abs(edge_lengths(sphere, net)["E"] - 0.5 * np.pi))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 1.9

    # Newton quadratic tail on the perturbed honeycomb
    rng = np.random.default_rng(3)
    case = make_case("honeycomb-torus", 64)
    net = jitter_net(case.net, rng, amp=0.05)
    res = solve_stationary(case.chart, net, SolveOptions(tolerance=1e-12, hessian_refresh=1))
    grads = [tr["gradient_norm"] for tr in res.trace if tr["gradient_norm"] > 1e-13]
    ratios = [grads[i + 1] / grads[i] ** 2 for i in range(len(grads) - 1) if grads[i] < 1e-2]
    assert ratios and max(ratios) < 100.0

    # geodesic integrator speed drift at step 1e-3
    points, velocities = geodesic_integrate(sphere, [0.3, -0.1], [0.5, 0.7], 1.0, 1000)
    speeds = g_norm(sphere, points, velocities)
    drift = abs(speeds[-1] - speeds[0]) / speeds[0]
    assert drift <= 1e-8
    _report(
        f"criterion 7 PASS: quadrature orders {['%.2f' % o for o in orders]}; "
        f"Newton tail ratios {['%.2g' % r for r in ratios]}; speed drift {drift:.2e}"
    )


def test_criterion_8_invariance_battery():
    expected = {"honeycomb-torus": 2, "sphere-equator": 2, "sphere-theta": 3}
    for name, dim in expected.items():
        case = make_case(name, 64)
        for c in (0.5, 2.0):
            scaled = conformal_family(case.chart, ConstantField(1.0), c * c - 1.0)
            assert jacobi_kernel(scaled, case.net).dimension == dim, (name, c)
            base_len = length(case.chart, case.net)
            assert abs(length(scaled, case.net) - c * base_len) <= 1e-10 * base_len
        fine = reparametrize_constant_speed(case.chart, case.net, n_samples=128)
        assert jacobi_kernel(case.chart, fine).dimension == dim, name
    base = length(*((lambda c: (c.chart, c.net))(make_case("sphere-equator", 64))))
    for mult in (1, 2, 3):
        case = make_case("sphere-equator", 64, multiplicity=mult)
        assert jacobi_kernel(case.chart, case.net).dimension == 2
        assert length(case.chart, case.net) == pytest.approx(mult * base, rel=1e-14)
    _report(
        "criterion 8 PASS: kernel dims invariant under metric scaling, refinement "
        "and loop multiplicity; length exactly linear in multiplicity and scaling"
    )
