import numpy as np
import pytest

from conftest import jitter_net

from geodesicnets import (
    BreakOptions,
    SolveOptions,
    break_degeneracy,
    build_condition_C_bump,
    conformal_family,
    continue_family,
    is_nondegenerate,
    jacobi_kernel,
    length,
    make_case,
    mixed_second_derivative,
    solve_stationary,
    stationarity_residual,
)
from geodesicnets.geometry import RadialBumpField, SumField
from geodesicnets.net import TangentialField
from geodesicnets.solver import ContinuationStall, NoNormalPointError, SolverError


# -- solve -------------------------------------------------------------------

def test_solve_jittered_honeycomb(rng):
    case = make_case("honeycomb-torus", 64)
    net = jitter_net(case.net, rng, amp=0.05, vertex_only=True)
    res = solve_stationary(case.chart, net, SolveOptions(tolerance=1e-10, hessian_refresh=1))
    assert res.converged and res.iterations <= 10
    assert stationarity_residual(case.chart, res.net).aggregate <= 1e-10
    # final positions match the symmetric honeycomb up to a global translation
    d_a = res.net.vertex_positions["A"] - case.net.vertex_positions["A"]
    d_b = res.net.vertex_positions["B"] - case.net.vertex_positions["B"]
    assert np.linalg.norm(case.chart.wrap(d_a - d_b)) < 1e-8


def test_solve_computes_lengths_of_accepted_nets_only(rng, monkeypatch):
    import geodesicnets.net as net_mod
    import geodesicnets.solver as solver_mod

    calls = []
    original = net_mod.edge_lengths

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(net_mod, "edge_lengths", counted)
    monkeypatch.setattr(solver_mod, "edge_lengths", counted)
    # a jittered loop whose line search rejects most of its trials
    case = make_case("sphere-equator", 32)
    net = jitter_net(case.net, rng, amp=0.05)
    try:
        res = solve_stationary(case.chart, net, SolveOptions(tolerance=1e-10, max_iterations=20))
    except solver_mod.MaxIterationsError as ex:
        res = ex.result
    accepted = sum("step_size" in row for row in res.trace)
    # the initial reparametrization plus one per accepted step, none per trial
    assert accepted >= 2 and len(calls) == 1 + accepted
    assert res.net.lengths == original(case.chart, res.net)


def test_solve_newton_quadratic_tail(rng):
    case = make_case("honeycomb-torus", 64)
    net = jitter_net(case.net, rng, amp=0.05)
    res = solve_stationary(case.chart, net, SolveOptions(tolerance=1e-12, hessian_refresh=1))
    grads = [t["gradient_norm"] for t in res.trace]
    # quadratic tail: r_{k+1} <= C r_k^2 on the last decisive steps
    tail = [g for g in grads if g > 1e-13]
    ratios = [tail[i + 1] / tail[i] ** 2 for i in range(len(tail) - 1) if tail[i] < 1e-2]
    assert ratios and max(ratios) < 100.0


def test_solve_ellipse_to_equator():
    case = make_case("sphere-equator", 128)
    net = case.net.copy()
    t = np.linspace(0, 1, 129)
    wobble = 0.05 * np.cos(4 * np.pi * t)
    net.edge_samples["E"] = net.edge_samples["E"] * (1.0 + wobble)[:, None]
    net.edge_samples["E"][-1] = net.edge_samples["E"][0]
    net.vertex_positions["V"] = net.edge_samples["E"][0].copy()
    res = solve_stationary(case.chart, net, SolveOptions(tolerance=1e-10))
    assert res.converged
    assert stationarity_residual(case.chart, res.net).aggregate <= 1e-8
    radii = np.linalg.norm(res.net.edge_samples["E"], axis=1)
    assert np.abs(radii - 1.0).max() < 1e-6


def test_solve_stationary_input_is_fixed_point():
    case = make_case("honeycomb-torus", 64)
    res = solve_stationary(case.chart, case.net)
    assert res.iterations <= 1
    worst = max(
        np.abs(res.net.edge_samples[e] - case.net.edge_samples[e]).max()
        for e in res.net.edge_samples
    )
    assert worst < 1e-12


def test_solve_option_validation():
    with pytest.raises(ValueError):
        SolveOptions(tolerance=-1.0)
    with pytest.raises(ValueError):
        SolveOptions(max_iterations=0)


# -- continuation ------------------------------------------------------------

def test_continue_constant_path():
    case = make_case("honeycomb-torus", 64)
    results = continue_family([case.chart] * 3, case.net, verify_nondegenerate=False)
    assert len(results) == 3
    for r in results[1:]:
        worst = max(
            np.abs(r.net.edge_samples[e] - results[0].net.edge_samples[e]).max()
            for e in r.net.edge_samples
        )
        assert worst < 1e-10


def test_continue_amplitude_ramp_and_reverse(rng):
    case = make_case("honeycomb-torus", 64)
    bump = RadialBumpField(np.array([0.5, 0.45]), 0.35, 1.0, chart=case.chart)
    amps = [0.0, 0.01, 0.02, 0.03, 0.04, 0.05]
    charts = [conformal_family(case.chart, bump, x) if x else case.chart for x in amps]
    fwd = continue_family(charts, case.net, verify_nondegenerate=False)
    for r in fwd:
        assert r.gradient_norm <= 1e-8
    back = continue_family(charts[::-1], fwd[-1].net, verify_nondegenerate=False)
    worst = max(
        np.abs(back[-1].net.edge_samples[e] - fwd[0].net.edge_samples[e]).max()
        for e in back[-1].net.edge_samples
    )
    assert worst < 1e-6


def test_continue_sphere_family():
    case = make_case("sphere-equator", 64)
    bump = RadialBumpField(np.array([0.0, 0.9]), 0.5, 1.0, chart=None)
    amps = [0.0, 0.02, 0.04]
    charts = [conformal_family(case.chart, bump, x) if x else case.chart for x in amps]
    results = continue_family(charts, case.net, verify_nondegenerate=False)
    assert all(r.converged for r in results)
    # the continued loop stays a closed curve near the equator
    final = results[-1].net.edge_samples["E"]
    assert np.abs(np.linalg.norm(final, axis=1) - 1.0).max() < 0.2


def test_continue_stall_between_unrelated_metrics():
    case = make_case("honeycomb-torus", 64)
    other = make_case("sphere-equator", 64)
    hard_opts = SolveOptions(max_iterations=1, tolerance=1e-14)
    with pytest.raises((ContinuationStall, SolverError)):
        continue_family([case.chart, other.chart], case.net, hard_opts,
                        verify_nondegenerate=False)


# -- bumps -------------------------------------------------------------------

def test_bump_construction_honeycomb():
    case = make_case("honeycomb-torus", 64)
    ker = jacobi_kernel(case.chart, case.net)
    spec, h_fld = build_condition_C_bump(case.chart, case.net, ker.ambient[0])
    # vanishing along the whole net
    for e in case.net.graph.edges:
        vals = h_fld.value_many(case.net.edge_samples[e.id])
        assert np.abs(vals).max() <= 1e-9
    # support avoids the other edges entirely
    for e in case.net.graph.edges:
        if e.id != spec.edge:
            assert np.abs(h_fld.value_many(case.net.edge_samples[e.id])).max() == 0.0
    # pairing is nonnegative along the anchor, positive at the anchor point
    grads = h_fld.gradient_many(case.net.edge_samples[spec.edge])
    pair = np.einsum("pi,pi->p", grads, ker.ambient[0].edge_values[spec.edge])
    assert pair.min() > -1e-12
    assert pair[spec.t_index] > 0


@pytest.mark.parametrize("name", ["honeycomb-torus", "sphere-theta", "sphere-equator"])
def test_clearance_is_the_minimum_over_the_other_edges(name):
    """One displacement call on all other edges gives the per-edge minimum,
    bitwise; a net with no other edge is clear everywhere."""
    from geodesicnets.solver import _clearance

    case = make_case(name, 32)
    net = jitter_net(case.net, np.random.default_rng(2), amp=0.02)
    for e in net.graph.edges:
        for idx in (3, 16, 28):
            p = net.edge_samples[e.id][idx]
            want = min((float(np.linalg.norm(case.chart.displacement_many(
                np.broadcast_to(p, net.edge_samples[o.id].shape), net.edge_samples[o.id]),
                axis=1).min()) for o in net.graph.edges if o.id != e.id), default=np.inf)
            assert _clearance(case.chart, net, e.id, idx) == want


def test_bump_rejects_tangential_field():
    case = make_case("sphere-equator", 64)
    t = np.linspace(0, 1, 65)
    tang = TangentialField({"E": 0.5 + 0.2 * np.sin(2 * np.pi * t)}).to_net_field(case.net)
    with pytest.raises(NoNormalPointError):
        build_condition_C_bump(case.chart, case.net, tang)


def test_mixed_second_derivative_positive_and_matching():
    for name in ("honeycomb-torus", "sphere-equator"):
        case = make_case(name, 64)
        ker = jacobi_kernel(case.chart, case.net)
        for j_fld in ker.ambient:
            spec, h_fld = build_condition_C_bump(case.chart, case.net, j_fld)
            closed, fd = mixed_second_derivative(case.chart, h_fld, case.net, j_fld)
            assert closed > 0
            assert abs(closed - fd) <= 1e-4 * abs(fd)


def test_mixed_second_derivative_tangential_zero():
    case = make_case("honeycomb-torus", 64)
    ker = jacobi_kernel(case.chart, case.net)
    spec, h_fld = build_condition_C_bump(case.chart, case.net, ker.ambient[0])
    t = np.linspace(0, 1, 65)
    tang = TangentialField(
        {e.id: 0.3 * np.sin(np.pi * t) for e in case.net.graph.edges}
    ).to_net_field(case.net)
    closed, fd = mixed_second_derivative(case.chart, h_fld, case.net, tang)
    assert abs(closed) < 1e-8
    assert abs(fd) < 1e-8


def test_mixed_second_derivative_amplitude_linearity():
    from geodesicnets.geometry import DirectionalBumpField
    from geodesicnets.solver import _anchor_spline_data

    case = make_case("honeycomb-torus", 64)
    ker = jacobi_kernel(case.chart, case.net)
    j_fld = ker.ambient[0]
    spec, h1 = build_condition_C_bump(case.chart, case.net, j_fld)
    pts, vel, center = _anchor_spline_data(case.net, spec.edge, spec.t_index)
    h2 = DirectionalBumpField(center, spec.radius, spec.direction, pts, vel,
                              chart=case.chart, amplitude=2.0)
    c1, f1 = mixed_second_derivative(case.chart, h1, case.net, j_fld)
    c2, f2 = mixed_second_derivative(case.chart, h2, case.net, j_fld)
    assert abs(c2 - 2 * c1) <= 1e-6 * abs(c2)
    assert abs(f2 - 2 * f1) <= 1e-6 * abs(f2)


def test_mixed_second_derivative_rejects_bad_steps():
    case = make_case("honeycomb-torus", 64)
    ker = jacobi_kernel(case.chart, case.net)
    spec, h_fld = build_condition_C_bump(case.chart, case.net, ker.ambient[0])
    with pytest.raises(SolverError):
        mixed_second_derivative(case.chart, h_fld, case.net, ker.ambient[0], steps=(0.0, 1e-4))


# -- degeneracy breaking -----------------------------------------------------

def test_break_degeneracy_honeycomb():
    case = make_case("honeycomb-torus", 64)
    chart2, net2, verdict, history = break_degeneracy(case.chart, case.net)
    assert verdict.nondegenerate
    assert history[-1]["bumps"] <= 3
    dims = [h["kernel_dimension"] for h in history]
    assert all(d2 <= d1 for d1, d2 in zip(dims, dims[1:]))


def test_break_degeneracy_equator():
    case = make_case("sphere-equator", 64)
    chart2, net2, verdict, history = break_degeneracy(case.chart, case.net)
    assert verdict.nondegenerate
    assert history[-1]["bumps"] <= 3
    rep = stationarity_residual(chart2, net2)
    assert rep.aggregate < 5e-3


def test_break_degeneracy_returns_nondegenerate_unchanged():
    case = make_case("honeycomb-torus", 64)
    chart2, net2, verdict, _ = break_degeneracy(case.chart, case.net)
    chart3, net3, verdict3, history3 = break_degeneracy(chart2, net2)
    assert verdict3.nondegenerate
    assert history3 == [{"bumps": 0, "kernel_dimension": 0}]
    assert chart3 is chart2 and net3 is net2


def test_generic_seeded_bumps_continuation_nondegenerate():
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
    verdict = is_nondegenerate(charts[-1], results[-1].net, residual_tol=5e-3)
    assert verdict.nondegenerate
