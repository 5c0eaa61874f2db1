import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edge_frames, jitter_net, jittered

from geodesicnets import (
    SolveOptions,
    break_degeneracy,
    build_condition_C_bump,
    conformal_family,
    continue_family,
    is_nondegenerate,
    jacobi_kernel,
    make_case,
    mixed_second_derivative,
    solve_stationary,
    stationarity_residual,
)
from geodesicnets import net as net_mod
from geodesicnets.cases import CASE_NAMES
from geodesicnets.geometry import RadialBumpField, SumField
from geodesicnets.jacobi import fd_hessian, reduced_gradient
from geodesicnets.net import (
    NetField,
    TangentialField,
    displace,
    reparametrize_constant_speed,
)
from geodesicnets.solver import ContinuationStall, NoNormalPointError, SolverError, _line_search


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


def test_solve_stationary_computes_no_edge_lengths(rng, monkeypatch):
    import geodesicnets.jacobi as jacobi_mod
    import geodesicnets.solver as solver_mod
    import geodesicnets.variation as variation_mod

    calls = []
    original = net_mod.edge_lengths

    def counted(*args):
        calls.append(1)
        return original(*args)

    for mod in (net_mod, solver_mod, jacobi_mod, variation_mod):
        monkeypatch.setattr(mod, "edge_lengths", counted)
    # a jittered loop whose line search rejects most of its trials
    case = make_case("sphere-equator", 32)
    net = jitter_net(case.net, rng, amp=0.05)
    try:
        res = solve_stationary(case.chart, net, SolveOptions(tolerance=1e-10, max_iterations=20))
    except solver_mod.MaxIterationsError as ex:
        res = ex.result
    # neither the accepted steps nor the rejected trials need a length
    assert sum("step_size" in row for row in res.trace) >= 2
    assert calls == []


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
    for field, value in [
        ("tolerance", -1.0), ("tolerance", 0.0), ("tolerance", np.nan), ("tolerance", np.inf),
        ("max_iterations", 0),
        ("backtrack_factor", 0.0), ("backtrack_factor", 1.0), ("backtrack_factor", np.nan),
        ("max_backtracks", 0),
        ("hessian_refresh", 0),
    ]:
        with pytest.raises(ValueError):
            SolveOptions(**{field: value})


def test_solve_options_accept_their_limits():
    SolveOptions(tolerance=1e-300, backtrack_factor=0.999, max_backtracks=1, hessian_refresh=1)


# -- the stacked line-search ladder --------------------------------------------

def sequential_line_search(chart, net, direction, gnorm, opts):
    """The backtracking loop trial by trial, as it was before the ladder
    was stacked: reparametrize, reduced gradient, Armijo test, in turn."""
    alpha = 1.0
    for _ in range(opts.max_backtracks):
        cand = reparametrize_constant_speed(chart, displace(net, direction, alpha))
        cand_basis, cand_grad = reduced_gradient(chart, cand)
        cand_gnorm = float(np.linalg.norm(cand_grad))
        if cand_gnorm < gnorm * (1.0 - 1e-4 * alpha) or cand_gnorm <= opts.tolerance:
            return alpha, cand, cand_basis, cand_grad
        if alpha < 1e-6:
            break
        alpha *= opts.backtrack_factor
    return None


def outcome(search, *args):
    try:
        return search(*args)
    except ValueError as ex:
        return f"ValueError: {ex}"


def assert_same_step(got, want):
    """Both searches refused alike, or accepted the same step with bitwise
    equal net, basis and reduced gradient."""
    if want is None or isinstance(want, str):
        assert got == want
        return
    (alpha, cand, basis, grad), (w_alpha, w_cand, w_basis, w_grad) = got, want
    assert alpha == w_alpha
    assert np.array_equal(grad, w_grad)
    assert list(cand.edge_samples) == list(w_cand.edge_samples)
    frames, w_frames = edge_frames(basis), edge_frames(w_basis)
    for e, s in w_cand.edge_samples.items():
        assert np.array_equal(cand.edge_samples[e], s)
        assert np.array_equal(frames[e], w_frames[e])
    for v, p in w_cand.vertex_positions.items():
        assert np.array_equal(cand.vertex_positions[v], p)
    assert np.array_equal(basis.vertex_block, w_basis.vertex_block)
    assert len(basis) == len(w_basis) and dict(basis.hat_offset) == dict(w_basis.hat_offset)


def ladder_rows(net):
    return sum((s.shape[0] - 1) * net_mod.ARC_UPSAMPLE + 1 for s in net.edge_samples.values())


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(CASE_NAMES), seed=st.integers(0, 2**32 - 1), newton=st.booleans(),
       log_scale=st.floats(-3.0, 1.5), ratio=st.floats(0.5, 2.0),
       factor=st.floats(0.05, 0.95), backtracks=st.integers(1, 30),
       copies=st.sampled_from([1, 2, 3, None]))
def test_stacked_ladder_matches_sequential_trials(name, seed, newton, log_scale, ratio, factor,
                                                  backtracks, copies):
    """Random and scaled Newton directions on jittered nets, with ladders
    of any factor and length, and passes of one copy to the default cap."""
    rng = np.random.default_rng(seed)
    case = make_case(name, 16)
    net = reparametrize_constant_speed(case.chart, jitter_net(case.net, rng, amp=0.02))
    basis, grad = reduced_gradient(case.chart, net)
    if newton:
        coef = -np.linalg.lstsq(fd_hessian(case.chart, net, basis), grad, rcond=1e-8)[0]
    else:
        coef = rng.normal(size=len(basis))
        coef *= 1e-2 / np.abs(coef).max()
    direction = basis.apply(10.0**log_scale * coef)
    gnorm = ratio * float(np.linalg.norm(grad))
    opts = SolveOptions(backtrack_factor=factor, max_backtracks=backtracks)
    want = outcome(sequential_line_search, case.chart, net, direction, gnorm, opts)
    cap = net_mod.MAX_STACKED_ROWS if copies is None else copies * ladder_rows(net)
    with mock.patch.object(net_mod, "MAX_STACKED_ROWS", cap):
        got = outcome(_line_search, case.chart, net, direction, gnorm, opts)
    assert_same_step(got, want)


@pytest.mark.parametrize("name", ["interleaved", "theta3d"])
@pytest.mark.parametrize("scale, ratio", [(1.0, 1.0), (30.0, 1.0), (1.0, 0.5)])
@pytest.mark.parametrize("copies", [1, 3, None])
def test_stacked_ladder_matches_sequential_trials_on_grouped_nets(name, scale, ratio, copies):
    """Two edge groups interleaved in graph order, and a 3-D net: a Newton
    direction accepted at once or later in a pass, or refused."""
    chart, net = jittered(name, n_samples=32)
    net = reparametrize_constant_speed(chart, net)
    basis, grad = reduced_gradient(chart, net)
    coef = -np.linalg.lstsq(fd_hessian(chart, net, basis), grad, rcond=1e-8)[0]
    direction = basis.apply(scale * coef)
    gnorm = ratio * float(np.linalg.norm(grad))
    opts = SolveOptions()
    want = outcome(sequential_line_search, chart, net, direction, gnorm, opts)
    cap = net_mod.MAX_STACKED_ROWS if copies is None else copies * ladder_rows(net)
    with mock.patch.object(net_mod, "MAX_STACKED_ROWS", cap):
        got = outcome(_line_search, chart, net, direction, gnorm, opts)
    assert_same_step(got, want)
    assert (want is None) == (ratio < 1.0)


def collapsing_direction(net, eid, at):
    """Moves eleven samples of a straight edge along it, onto their middle
    one at step size ``at``: a near-zero speed there, a mere
    reparametrization at smaller steps."""
    vals = {e: np.zeros_like(s) for e, s in net.edge_samples.items()}
    s = net.edge_samples[eid]
    window = np.arange(11, 22)
    vals[eid][window] = (s[16] - s[window]) / at
    return NetField(vals)


@pytest.mark.parametrize("at, gnorm, expect", [
    (1.0, 2.0, "error"),     # the first candidate is the faulty one
    (0.25, 2.0, 1.0),        # accepted alone, before the faulty candidate
    (0.25, 0.7, 0.5),        # accepted in the pass that holds the faulty one
    (0.25, 0.5, "error"),    # the faulty one comes first, a later one would pass
    (0.5, 0.5, "error"),     # the faulty one opens the stacked pass
])
def test_near_zero_speed_is_refused_only_before_an_accepted_step(at, gnorm, expect):
    case = make_case("honeycomb-torus", 32)
    direction = collapsing_direction(case.net, "E2", at)
    opts = SolveOptions()
    want = outcome(sequential_line_search, case.chart, case.net, direction, gnorm, opts)
    got = outcome(_line_search, case.chart, case.net, direction, gnorm, opts)
    assert_same_step(got, want)
    if expect == "error":
        assert got == "ValueError: edge 'E2' has a near-zero speed sample; not an immersion"
    else:
        assert got[0] == expect


def test_one_stacked_ladder_pass_stays_within_the_row_cap():
    """Peak traced memory of a ladder whose 21 candidates all fail: at most
    256 bytes per resampling row of one pass (about 4 MB in one pass)."""
    case = make_case("sphere-theta", 64)
    net = reparametrize_constant_speed(case.chart, case.net)
    basis, _ = reduced_gradient(case.chart, net)
    direction = basis.apply(np.random.default_rng(0).normal(size=len(basis)) * 1e-3)
    opts = SolveOptions()
    assert _line_search(case.chart, net, direction, 0.0, opts) is None
    assert 21 * ladder_rows(net) > 3 * net_mod.MAX_STACKED_ROWS
    tracemalloc.start()
    try:
        _line_search(case.chart, net, direction, 0.0, opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * net_mod.MAX_STACKED_ROWS


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
    for steps in ((0.0, 1e-4), (float("nan"), 1e-4), (1e-4, float("nan")), (1e-4, float("inf"))):
        with pytest.raises(SolverError, match="finite and positive"):
            mixed_second_derivative(case.chart, h_fld, case.net, ker.ambient[0], steps=steps)


# -- degeneracy breaking -----------------------------------------------------

def test_break_degeneracy_honeycomb():
    case = make_case("honeycomb-torus", 64)
    chart2, net2, kernel, history = break_degeneracy(case.chart, case.net)
    assert kernel.nondegenerate
    assert history[-1]["bumps"] <= 3
    dims = [h["kernel_dimension"] for h in history]
    assert all(d2 <= d1 for d1, d2 in zip(dims, dims[1:]))


def test_break_degeneracy_equator():
    case = make_case("sphere-equator", 64)
    chart2, net2, kernel, history = break_degeneracy(case.chart, case.net)
    assert kernel.nondegenerate
    assert history[-1]["bumps"] <= 3
    rep = stationarity_residual(chart2, net2)
    assert rep.aggregate < 5e-3


def test_break_degeneracy_pins_the_anchor_of_its_condition_c_bump():
    from geodesicnets.geometry import DirectionalBumpField
    from geodesicnets.solver import _anchor_spline_data

    case = make_case("flat-loop", 32)
    j_fld = is_nondegenerate(case.chart, case.net).ambient[0]
    spec, _ = build_condition_C_bump(case.chart, case.net, j_fld)
    # the pin as built from a second spline of the anchor
    pts, vel, center = _anchor_spline_data(case.net, spec.edge, spec.t_index)
    want = DirectionalBumpField(center, spec.radius, spec.direction, pts, vel,
                                chart=case.chart, power=2)
    chart2, _, _, history = break_degeneracy(case.chart, case.net)
    assert len(history) == 2 and chart2.base is case.chart
    points = center + spec.radius * np.random.default_rng(3).uniform(-1.0, 1.0, size=(256, 2))
    got_jet, want_jet = chart2.field.jet_many(points), want.jet_many(points)
    assert np.abs(want_jet[0]).max() > 0.0
    for got_part, want_part in zip(got_jet, want_jet, strict=True):
        assert np.array_equal(got_part, want_part)


def test_break_degeneracy_returns_nondegenerate_unchanged():
    case = make_case("honeycomb-torus", 64)
    chart2, net2, _, _ = break_degeneracy(case.chart, case.net)
    chart3, net3, kernel3, history3 = break_degeneracy(chart2, net2)
    assert kernel3.nondegenerate
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
    assert is_nondegenerate(charts[-1], results[-1].net, residual_tol=5e-3).nondegenerate
