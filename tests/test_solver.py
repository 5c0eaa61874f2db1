import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from conftest import ConstantField, jitter_net, jittered

from geodesicnets import (
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
from geodesicnets import solver as solver_mod
from geodesicnets.geometry import EuclideanChart, RadialBumpField, SumField
from geodesicnets.jacobi import fd_hessian, reduced_gradient
from geodesicnets.net import (
    NetField,
    displace,
    reparametrize_constant_speed,
    tangential_field,
)
from geodesicnets.solver import (
    ClearanceError,
    ContinuationStall,
    MaxIterationsError,
    NoNormalPointError,
    NoProgressError,
    StationarityLostError,
    _line_search,
)
from geodesicnets.variation import NotStationaryError


# -- solve -------------------------------------------------------------------

def test_solve_jittered_honeycomb(rng, monkeypatch):
    monkeypatch.setattr(solver_mod, "HESSIAN_REFRESH", 1)
    case = make_case("honeycomb-torus", 64)
    net = jitter_net(case.net, rng, amp=0.05, vertex_only=True)
    res = solve_stationary(case.chart, net)
    assert res.converged and res.iterations <= 10
    assert stationarity_residual(case.chart, res.net).aggregate <= 1e-10
    # final positions match the symmetric honeycomb up to a global translation
    d_a = res.net.vertex_positions["A"] - case.net.vertex_positions["A"]
    d_b = res.net.vertex_positions["B"] - case.net.vertex_positions["B"]
    assert np.linalg.norm(case.chart.wrap_many((d_a - d_b)[None])[0]) < 1e-8


def test_solve_stationary_computes_no_edge_lengths(rng, monkeypatch):
    import geodesicnets.jacobi as jacobi_mod
    import geodesicnets.variation as variation_mod

    calls = []
    original = net_mod.edge_lengths

    def counted(*args):
        calls.append(1)
        return original(*args)

    for mod in (net_mod, solver_mod, jacobi_mod, variation_mod):
        monkeypatch.setattr(mod, "edge_lengths", counted)
    monkeypatch.setattr(solver_mod, "MAX_ITERATIONS", 20)
    # a jittered loop whose line search rejects most of its trials
    case = make_case("sphere-equator", 32)
    net = jitter_net(case.net, rng, amp=0.05)
    try:
        res = solve_stationary(case.chart, net)
    except solver_mod.MaxIterationsError as ex:
        res = ex.result
    # neither the accepted steps nor the rejected trials need a length
    assert sum("step_size" in row for row in res.trace) >= 2
    assert calls == []


def test_solve_newton_quadratic_tail(rng, monkeypatch):
    monkeypatch.setattr(solver_mod, "HESSIAN_REFRESH", 1)
    case = make_case("honeycomb-torus", 64)
    net = jitter_net(case.net, rng, amp=0.05)
    res = solve_stationary(case.chart, net, tolerance=1e-12)
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
    res = solve_stationary(case.chart, net)
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
    case = make_case("honeycomb-torus", 16)
    for value in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="^tolerance must be finite and positive$"):
            solve_stationary(case.chart, case.net, tolerance=value)


def test_solve_options_accept_their_limits(monkeypatch):
    """The smallest positive tolerance is accepted: the solve runs, and
    cannot meet it."""
    monkeypatch.setattr(solver_mod, "MAX_ITERATIONS", 1)
    case = make_case("honeycomb-torus", 16)
    with pytest.raises(MaxIterationsError):
        solve_stationary(case.chart, case.net, tolerance=1e-300)


# -- the line search -----------------------------------------------------------

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
    (0.25, 2.0, 1.0),        # accepted before the faulty candidate
    (0.25, 0.7, 0.5),        # accepted just before the faulty candidate
    (0.25, 0.5, "error"),    # the faulty one comes first, a later one would pass
    (0.5, 0.5, "error"),     # the faulty one is the second candidate
])
def test_near_zero_speed_is_refused_only_before_an_accepted_step(at, gnorm, expect):
    case = make_case("honeycomb-torus", 32)
    direction = collapsing_direction(case.net, "E2", at)
    args = (case.chart, case.net, direction, gnorm, solver_mod.TOLERANCE)
    if expect == "error":
        with pytest.raises(ValueError, match="^edge 'E2' has a near-zero speed sample; not an immersion$"):
            _line_search(*args)
        return
    alpha, cand, _, grad = _line_search(*args)
    assert alpha == expect
    assert np.linalg.norm(grad) < gnorm * (1.0 - 1e-4 * alpha)
    assert np.array_equal(grad, reduced_gradient(case.chart, cand)[1])


def test_line_search_builds_one_candidate_per_step_size_tried(monkeypatch):
    """Four Newton steps overshoot at alpha = 1 and 1/2, and alpha = 1/4 is
    the Newton step: three candidate nets are built, the third accepted."""
    chart, net = jittered("honeycomb-torus", n_samples=32)
    net = reparametrize_constant_speed(chart, net)
    basis, grad = reduced_gradient(chart, net)
    coef = -np.linalg.lstsq(fd_hessian(chart, net, basis), grad, rcond=1e-8)[0]
    direction, gnorm = basis.apply(4.0 * coef), float(np.linalg.norm(grad))
    built = []

    def counted(*args):
        built.append(args)
        return displace(*args)

    monkeypatch.setattr(solver_mod, "displace", counted)
    alpha, cand, _, _ = _line_search(chart, net, direction, gnorm, solver_mod.TOLERANCE)
    assert alpha == 0.25 and len(built) == 3
    moved = displace(net, direction, 0.25)
    for e, s in reparametrize_constant_speed(chart, moved).edge_samples.items():
        assert np.array_equal(cand.edge_samples[e], s)


def resampling_rows(net):
    return sum((s.shape[0] - 1) * net_mod.ARC_UPSAMPLE + 1 for s in net.edge_samples.values())


def test_a_failed_line_search_holds_one_candidate_at_a_time():
    """Peak traced memory of a search whose 21 candidates all fail: at most
    256 bytes per resampling row of one candidate."""
    case = make_case("sphere-theta", 64)
    net = reparametrize_constant_speed(case.chart, case.net)
    basis, _ = reduced_gradient(case.chart, net)
    direction = basis.apply(np.random.default_rng(0).normal(size=len(basis)) * 1e-3)
    tol = solver_mod.TOLERANCE
    assert _line_search(case.chart, net, direction, 0.0, tol) is None
    tracemalloc.start()
    try:
        _line_search(case.chart, net, direction, 0.0, tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * resampling_rows(net)


# -- continuation ------------------------------------------------------------

def test_continue_constant_path():
    case = make_case("honeycomb-torus", 64)
    results = continue_family(case.chart, ConstantField(1.0), [0.0] * 3, case.net)
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
    fwd = continue_family(case.chart, bump, amps, case.net)
    for r in fwd:
        assert r.gradient_norm <= 1e-8
    back = continue_family(case.chart, bump, amps[::-1], fwd[-1].net)
    worst = max(
        np.abs(back[-1].net.edge_samples[e] - fwd[0].net.edge_samples[e]).max()
        for e in back[-1].net.edge_samples
    )
    assert worst < 1e-6


def test_continue_sphere_family():
    case = make_case("sphere-equator", 64)
    bump = RadialBumpField(np.array([0.0, 0.9]), 0.5, 1.0, chart=EuclideanChart(2))
    results = continue_family(case.chart, bump, [0.0, 0.02, 0.04], case.net)
    assert all(r.converged for r in results)
    # the continued loop stays a closed curve near the equator
    final = results[-1].net.edge_samples["E"]
    assert np.abs(np.linalg.norm(final, axis=1) - 1.0).max() < 0.2


def _recorded_bump(case):
    """The bump field of the recorded honeycomb ``continue`` document."""
    return SumField([RadialBumpField(np.array([0.5, 0.05]), 0.2, 0.4, chart=case.chart)])


def test_continue_from_a_nondegenerate_net_returns_every_step():
    """Continuation judges no kernel: break_degeneracy's nondegenerate
    honeycomb is followed through a bump family whose bumped nets fail the
    default stationarity gate of is_nondegenerate (residual 2.7e-3)."""
    case = make_case("honeycomb-torus", 32)
    chart2, net2, _, _ = break_degeneracy(case.chart, case.net)
    h_fld = _recorded_bump(case)
    results = continue_family(chart2, h_fld, [0.0, 0.25, 0.5, 0.75, 1.0], net2)
    assert [r.converged for r in results] == [True] * 5


FLOOR_MESSAGE = "metric step fell below the floor without convergence"


def _solved_amplitudes(case, h_fld, amps, net):
    """The amplitudes continue_family solves at, in call order, until it stalls."""
    with mock.patch.object(solver_mod, "solve_stationary",
                           wraps=solver_mod.solve_stationary) as solve:
        with pytest.raises(ContinuationStall, match=FLOOR_MESSAGE):
            continue_family(case.chart, h_fld, amps, net)
    return [getattr(c.args[0], "amplitude", 0.0) for c in solve.call_args_list]


def test_continue_bisects_a_step_back_to_amplitude_zero(monkeypatch):
    """A failed step from the bumped metric to the base one is halved in the
    amplitude, towards the converged end, down to the floor."""
    case = make_case("honeycomb-torus", 32)
    h_fld = _recorded_bump(case)
    net1 = solve_stationary(conformal_family(case.chart, h_fld, 1.0), case.net).net
    monkeypatch.setattr(solver_mod, "MAX_ITERATIONS", 1)
    solved = _solved_amplitudes(case, h_fld, [1.0, 0.0], net1)
    assert solved == [1.0, 0.0] + [1.0 - 2.0**-k for k in range(1, solver_mod.MAX_HALVINGS + 1)]


def test_continue_bisects_a_step_up_from_amplitude_zero(monkeypatch):
    monkeypatch.setattr(solver_mod, "MAX_ITERATIONS", 4)
    case = make_case("honeycomb-torus", 32)
    h_fld = _recorded_bump(case)
    solved = _solved_amplitudes(case, h_fld, [0.0, 1.0], case.net)
    assert solved == [0.0] + [2.0**-k for k in range(solver_mod.MAX_HALVINGS + 1)]


# -- bumps -------------------------------------------------------------------

def test_bump_construction_honeycomb():
    case = make_case("honeycomb-torus", 64)
    ker = jacobi_kernel(case.chart, case.net)
    eid, idx, h_fld = build_condition_C_bump(case.chart, case.net, ker.ambient[0])
    # vanishing along the whole net
    for e in case.net.graph.edges:
        vals = h_fld.value_many(case.net.edge_samples[e.id])
        assert np.abs(vals).max() <= 1e-9
    # support avoids the other edges entirely
    for e in case.net.graph.edges:
        if e.id != eid:
            assert np.abs(h_fld.value_many(case.net.edge_samples[e.id])).max() == 0.0
    # pairing is nonnegative along the anchor, positive at the anchor point
    grads = h_fld.gradient_many(case.net.edge_samples[eid])
    pair = np.einsum("pi,pi->p", grads, ker.ambient[0].edge_values[eid])
    assert pair.min() > -1e-12
    assert pair[idx] > 0


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
    tang = tangential_field(case.net, {"E": 0.5 + 0.2 * np.sin(2 * np.pi * t)})
    with pytest.raises(NoNormalPointError):
        build_condition_C_bump(case.chart, case.net, tang)


def _honeycomb_bump_parts():
    """The honeycomb at N = 32, a normal field J on E1 with the given
    profile, and a maker of directional bumps anchored on E1."""
    from geodesicnets.geometry import DirectionalBumpField
    from geodesicnets.solver import _anchor_spline_data

    case = make_case("honeycomb-torus", 32)
    pts, vel, _ = _anchor_spline_data(case.net, "E1", 16)

    def j_field(profile):
        return NetField({e: (profile[:, None] * [0.0, 1.0] if e == "E1" else np.zeros((33, 2)))
                         for e in case.net.edge_samples})

    def bump(center, radius, direction, shift=(0.0, 0.0)):
        return DirectionalBumpField(np.add(center, shift), radius, direction,
                                    pts + np.asarray(shift), vel, chart=case.chart)

    return case, j_field, bump


@pytest.mark.parametrize("kind, reason", [
    ("good", None),
    ("support on E2", "support touches edge 'E2'"),
    ("anchor off the net", "bump does not vanish along its anchor edge"),
    ("reversed direction", "sign condition violated on the anchor edge"),
    ("J zero at the anchor", "no strict positivity at the anchor point"),
])
def test_verify_bump_refusals(kind, reason):
    from geodesicnets.solver import _verify_bump

    case, j_field, bump = _honeycomb_bump_parts()
    e1 = case.net.edge_samples["E1"]
    up, t = np.array([0.0, 1.0]), np.linspace(0.0, 1.0, 33)
    j_fld, idx, h_fld = j_field(np.ones(33)), 16, bump(e1[16], 0.1, up)
    if kind == "support on E2":
        # near A, a ball of radius 0.3 reaches E2 (and E3)
        idx, h_fld = 6, bump(e1[6], 0.3, up)
    elif kind == "anchor off the net":
        h_fld = bump(e1[16], 0.1, up, shift=0.05 * up)
    elif kind == "reversed direction":
        h_fld = bump(e1[16], 0.1, -up)
    elif kind == "J zero at the anchor":
        j_fld = j_field((t - 0.5) ** 2)
    assert _verify_bump(case.chart, case.net, "E1", idx, h_fld, j_fld) == (reason is None, reason)


def _failing_verify(monkeypatch, failures):
    """Replace ``_verify_bump``: its first ``failures`` calls fail with
    "refusal k", the later ones run the real check.  Returns the list of
    the radius of every bump it was given."""
    radii = []
    real = solver_mod._verify_bump

    def verify(chart, net, eid, idx, h_fld, j_field):
        radii.append(h_fld.radius)
        if len(radii) <= failures:
            return False, f"refusal {len(radii)}"
        return real(chart, net, eid, idx, h_fld, j_field)

    monkeypatch.setattr(solver_mod, "_verify_bump", verify)
    return radii


def test_bump_construction_halves_the_radius_after_a_refusal(monkeypatch):
    case = make_case("honeycomb-torus", 32)
    j_fld = is_nondegenerate(case.chart, case.net).ambient[0]
    want = build_condition_C_bump(case.chart, case.net, j_fld)
    radii = _failing_verify(monkeypatch, 1)
    eid, idx, h_fld = build_condition_C_bump(case.chart, case.net, j_fld)
    assert (eid, idx) == want[:2]
    assert radii == [want[2].radius, 0.5 * want[2].radius] == [radii[0], h_fld.radius]


def test_bump_construction_names_the_last_refusal(monkeypatch):
    case = make_case("honeycomb-torus", 32)
    j_fld = is_nondegenerate(case.chart, case.net).ambient[0]
    radii = _failing_verify(monkeypatch, np.inf)
    with pytest.raises(ClearanceError, match=r"^no admissible bump anchor found \(") as err:
        build_condition_C_bump(case.chart, case.net, j_fld)
    assert str(err.value).endswith(f"(refusal {len(radii)})")
    # every candidate is tried MAX_SHRINK times, halving the radius
    assert len(radii) % solver_mod.MAX_SHRINK == 0
    assert radii[1] == 0.5 * radii[0]


def test_mixed_second_derivative_positive_and_matching():
    for name in ("honeycomb-torus", "sphere-equator"):
        case = make_case(name, 64)
        ker = jacobi_kernel(case.chart, case.net)
        for j_fld in ker.ambient:
            _, _, h_fld = build_condition_C_bump(case.chart, case.net, j_fld)
            closed, fd = mixed_second_derivative(case.chart, h_fld, case.net, j_fld)
            assert closed > 0
            assert abs(closed - fd) <= 1e-4 * abs(fd)


def test_mixed_second_derivative_tangential_zero():
    case = make_case("honeycomb-torus", 64)
    ker = jacobi_kernel(case.chart, case.net)
    _, _, h_fld = build_condition_C_bump(case.chart, case.net, ker.ambient[0])
    t = np.linspace(0, 1, 65)
    tang = tangential_field(case.net, {e.id: 0.3 * np.sin(np.pi * t) for e in case.net.graph.edges})
    closed, fd = mixed_second_derivative(case.chart, h_fld, case.net, tang)
    assert abs(closed) < 1e-8
    assert abs(fd) < 1e-8


def test_mixed_second_derivative_amplitude_linearity():
    case = make_case("honeycomb-torus", 64)
    ker = jacobi_kernel(case.chart, case.net)
    j_fld = ker.ambient[0]
    _, _, h1 = build_condition_C_bump(case.chart, case.net, j_fld)
    h2 = SumField([h1, h1])
    c1, f1 = mixed_second_derivative(case.chart, h1, case.net, j_fld)
    c2, f2 = mixed_second_derivative(case.chart, h2, case.net, j_fld)
    assert abs(c2 - 2 * c1) <= 1e-6 * abs(c2)
    assert abs(f2 - 2 * f1) <= 1e-6 * abs(f2)


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
    eid, idx, h_fld = build_condition_C_bump(case.chart, case.net, j_fld)
    # the pin as built from a second spline of the anchor
    pts, vel, center = _anchor_spline_data(case.net, eid, idx)
    want = DirectionalBumpField(center, h_fld.radius, h_fld.direction, pts, vel,
                                chart=case.chart, power=2)
    chart2, _, _, history = break_degeneracy(case.chart, case.net)
    assert len(history) == 2 and chart2.base is case.chart
    points = center + h_fld.radius * np.random.default_rng(3).uniform(-1.0, 1.0, size=(256, 2))
    got_jet, want_jet = chart2.field.jet_many(points, 2), want.jet_many(points, 2)
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


# The amplitudes break_degeneracy tries for one bump, in order.
RUNGS = [solver_mod.BUMP_AMPLITUDE * 0.5**k for k in range(5)]


def _ladder(monkeypatch, solve_fails=lambda x: False, kernel_grows=lambda x: False,
            off_the_gate=lambda x: False):
    """The honeycomb at N = 32, with break_degeneracy's solves raising
    MaxIterationsError, its kernels reading dimension 3, or its solved nets
    failing the stationarity gate, at the bump amplitudes chosen.  Returns
    the case and the list that records the amplitude of every solve tried."""
    tried = []
    real_solve, real_judge = solver_mod.solve_stationary, solver_mod.is_nondegenerate

    def solve(chart, net):
        tried.append(chart.amplitude)
        if solve_fails(chart.amplitude):
            raise MaxIterationsError("failed on purpose", result=None)
        return real_solve(chart, net)

    def judge(chart, net, **kwargs):
        amplitude = getattr(chart, "amplitude", 0.0)
        if off_the_gate(amplitude):
            raise NotStationaryError("net is not stationary (residual 0.08)")
        kernel = real_judge(chart, net, **kwargs)
        if kernel_grows(amplitude):
            return replace(kernel, dimension=3)
        return kernel

    monkeypatch.setattr(solver_mod, "solve_stationary", solve)
    monkeypatch.setattr(solver_mod, "is_nondegenerate", judge)
    return make_case("honeycomb-torus", 32), tried


@pytest.mark.parametrize("fault", ["solve_fails", "kernel_grows"])
def test_break_degeneracy_halves_the_amplitude_to_the_first_rung_that_passes(monkeypatch, fault):
    case, tried = _ladder(monkeypatch, **{fault: lambda x: x > RUNGS[2]})
    _, _, kernel, history = break_degeneracy(case.chart, case.net)
    assert tried[:3] == RUNGS[:3]
    assert history[1]["amplitude"] == RUNGS[2]
    assert all(h["amplitude"] == RUNGS[2] for h in history[1:])
    assert kernel.nondegenerate


@pytest.mark.parametrize("fault,reason", [
    pytest.param("solve_fails", f": the solve at amplitude {RUNGS[-1]:g} failed: failed on purpose",
                 id="solve_fails"),
    pytest.param("kernel_grows", " without growing the kernel", id="kernel_grows"),
])
def test_break_degeneracy_refuses_a_bump_when_every_rung_fails(monkeypatch, fault, reason):
    case, tried = _ladder(monkeypatch, **{fault: lambda x: x > 0.0})
    with pytest.raises(NoProgressError) as info:
        break_degeneracy(case.chart, case.net)
    assert str(info.value) == "bump 1 could not be applied" + reason
    assert tried == RUNGS


def test_break_degeneracy_names_the_smallest_rung_when_the_faults_differ(monkeypatch):
    # the larger rungs grow the kernel, the smaller ones fail to solve
    case, tried = _ladder(monkeypatch, kernel_grows=lambda x: x > RUNGS[2],
                          solve_fails=lambda x: x <= RUNGS[2])
    with pytest.raises(NoProgressError, match=f"at amplitude {RUNGS[-1]:g} failed"):
        break_degeneracy(case.chart, case.net)
    assert tried == RUNGS


def test_break_degeneracy_refuses_a_solved_net_off_the_gate(monkeypatch):
    # the bumped solve returns a net that fails the stationarity gate: a
    # numerical failure, raised at once, not a reason to halve the amplitude
    case, tried = _ladder(monkeypatch, off_the_gate=lambda x: x > 0.0)
    with pytest.raises(StationarityLostError,
                       match=f"solved net under bump 1 \\(amplitude {RUNGS[0]:g}\\) failed the gate"):
        break_degeneracy(case.chart, case.net)
    assert tried == RUNGS[:1]


def test_break_degeneracy_gives_up_after_the_last_bump(monkeypatch):
    case = make_case("honeycomb-torus", 32)
    start = is_nondegenerate(case.chart, case.net)
    monkeypatch.setattr(solver_mod, "is_nondegenerate", lambda chart, net, **kwargs: start)
    with pytest.raises(NoProgressError,
                       match=f"kernel still 2-dimensional after {solver_mod.MAX_BUMPS} bumps"):
        break_degeneracy(case.chart, case.net)


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
    results = continue_family(case.chart, h_fld, amps, case.net)
    chart = conformal_family(case.chart, h_fld, amps[-1])
    assert is_nondegenerate(chart, results[-1].net, residual_tol=5e-3).nondegenerate
