import tracemalloc

import numpy as np
import pytest

from conftest import jitter_net, metric_tensor_jet, random_ambient_field
from test_stencils import _sbp42_reference

from geodesicnets import (
    CASE_NAMES,
    NetField,
    TangentialField,
    apply_A_E,
    apply_B_v,
    first_variation,
    hessian_fd_oracle,
    hessian_form,
    length,
    make_case,
    stationarity_residual,
    vertex_balance,
)
from geodesicnets.geometry import christoffel_apply, g_dot, g_norm
from geodesicnets.jacobi import parallel_frame, random_reduced_field
from geodesicnets.net import displace, edge_lengths
from geodesicnets.solver import SolveOptions, solve_stationary
from geodesicnets.variation import length_sample_gradient
from geodesicnets import stencils as st


def unit_normal_field(case):
    net = case.net
    eid = net.graph.edges[0].id
    s = net.edge_samples[eid]
    v = st.velocity(s, loop_shift=net.loop_shift(eid))
    frames = parallel_frame(case.chart, s, v)
    return NetField({eid: frames[:, 0, :].copy()})


# -- first variation ---------------------------------------------------------

def test_first_variation_vanishes_on_stationary_honeycomb(rng):
    case = make_case("honeycomb-torus", 64)
    for _ in range(10):
        fld = random_ambient_field(case.chart, case.net, rng)
        assert abs(first_variation(case.chart, case.net, fld)) < 1e-7


def test_first_variation_translation_on_flat_loop():
    case = make_case("flat-loop", 64)
    const = NetField({"E": np.tile([0.3, -0.4], (65, 1))})
    assert abs(first_variation(case.chart, case.net, const)) < 1e-9


def test_first_variation_matches_length_derivative(rng):
    # the discrete first variation is the exact derivative of the discrete
    # length, so the central-difference oracle agrees to step error
    case = make_case("sphere-theta", 64)
    net = jitter_net(case.net, rng, amp=0.03)
    fld = random_ambient_field(case.chart, net, rng)
    fv = first_variation(case.chart, net, fld)
    s = 1e-5
    fd = (length(case.chart, displace(net, fld, s)) - length(case.chart, displace(net, fld, -s))) / (2 * s)
    assert abs(fv - fd) <= 1e-6 * max(abs(fv), abs(fd))


def test_first_variation_shape_mismatch():
    case = make_case("honeycomb-torus", 64)
    bad = NetField({e.id: np.zeros((12, 2)) for e in case.net.graph.edges})
    with pytest.raises(ValueError):
        first_variation(case.chart, case.net, bad)


# -- balance -----------------------------------------------------------------

def test_balance_honeycomb_vertices():
    case = make_case("honeycomb-torus", 64)
    for v in ("A", "B"):
        assert np.linalg.norm(vertex_balance(case.chart, case.net, v)) < 1e-6


def test_balance_detects_vertex_perturbation(rng):
    case = make_case("honeycomb-torus", 64)
    net = case.net.copy()
    shift = np.array([0.05, 0.0])
    for e in net.graph.edges:
        s = net.edge_samples[e.id]
        t = np.linspace(0, 1, s.shape[0])
        if e.endpoint(0) == "A":
            s += np.outer(1 - t, shift)
    net.vertex_positions["A"] = net.vertex_positions["A"] + shift
    assert np.linalg.norm(vertex_balance(case.chart, net, "A")) > 1e-2


def test_balance_is_minus_weighted_inward_tangents():
    for name in CASE_NAMES:
        case = make_case(name, 64, multiplicity=2)  # the loop cases take the multiplicity
        net = case.net
        for v in net.graph.vertices:
            # the signed sum of endpoint unit velocities, written out
            expect = np.zeros(net.dim)
            for eid, i in net.graph.incident_pairs(v):
                s = net.edge_samples[eid]
                shift = net.loop_shift(eid)
                if shift is not None:
                    vel = st.velocity(s, loop_shift=shift)
                else:
                    vel = st.velocity_ho(s)
                tang = vel[0] if i == 0 else vel[-1]
                p = s[0] if i == 0 else s[-1]
                tang = tang / g_norm(case.chart, p[None, :], tang[None, :])[0]
                expect += (-1.0) ** (i + 1) * net.graph.edge(eid).multiplicity * tang
            assert np.array_equal(vertex_balance(case.chart, net, v), expect)


def test_balance_collinear_subdivision_cancels():
    from geodesicnets.multigraph import WeightedMultigraph
    from geodesicnets.net import GeodesicNet
    from geodesicnets.cases import HEX_LATTICE
    from geodesicnets.geometry import FlatTorusChart

    chart = FlatTorusChart(HEX_LATTICE)
    graph = WeightedMultigraph.build(["V", "M"], [("E1", "V", "M"), ("E2", "M", "V")])
    lam = HEX_LATTICE[0]
    t = np.linspace(0, 1, 65)[:, None]
    net = GeodesicNet(
        graph=graph,
        edge_samples={"E1": t * 0.5 * lam, "E2": 0.5 * lam + t * 0.5 * lam},
        vertex_positions={"V": np.zeros(2), "M": 0.5 * lam},
    )
    assert np.linalg.norm(vertex_balance(chart, net, "M")) < 1e-10


# -- stationarity residual ---------------------------------------------------

def test_residual_reports():
    for name, n, tol in [("honeycomb-torus", 64, 1e-6), ("sphere-equator", 256, 1e-4)]:
        case = make_case(name, n)
        rep = stationarity_residual(case.chart, case.net)
        assert rep.aggregate <= tol


def _endpoint_derivative_reference(samples, end):
    """One-sided 7-point first derivative at an open end, its own Fornberg call."""
    h = 1.0 / (samples.shape[0] - 1)
    grid = np.arange(7.0)
    if end == 0:
        return np.tensordot(st.fd_weights(0.0, grid, 1), samples[:7], axes=(0, 0)) / h
    return np.tensordot(st.fd_weights(6.0, grid, 1), samples[-7:], axes=(0, 0)) / h


def _stationarity_reference(chart, net):
    """Edge residuals and balance with the inline 6th-order stencils."""
    c1 = st.fd_weights(3.0, np.arange(7.0), 1)
    c2 = st.fd_weights(3.0, np.arange(7.0), 2)
    offsets = (-3, -2, -1, 0, 1, 2, 3)
    residuals, worst = {}, []
    for e in net.graph.edges:
        s = net.edge_samples[e.id]
        n = s.shape[0]
        h = 1.0 / (n - 1)
        shift = net.loop_shift(e.id)
        if shift is not None:
            ext = np.concatenate([s[-4:-1] - shift, s, s[1:4] + shift], axis=0)
            v = sum(cj * ext[3 + off : 3 + off + n] for off, cj in zip(offsets, c1)) / h
            acc = sum(cj * ext[3 + off : 3 + off + n] for off, cj in zip(offsets, c2)) / h**2
            pts = s
        else:
            v = sum(cj * s[3 + off : n - 3 + off] for off, cj in zip(offsets, c1)) / h
            acc = sum(cj * s[3 + off : n - 3 + off] for off, cj in zip(offsets, c2)) / h**2
            pts = s[3:-3]
        cov = acc + christoffel_apply(chart.factor_jet_many(pts, 1)[1], v, v)
        residuals[e.id] = cov
        worst.append(float((g_norm(chart, pts, cov) / g_dot(chart, pts, v, v)).max()))
    balance = {}
    for vtx in net.graph.vertices:
        out = np.zeros(net.dim)
        for eid, i in net.graph.incident_pairs(vtx):
            s = net.edge_samples[eid]
            shift = net.loop_shift(eid)
            if shift is not None:
                vel = st.velocity(s, loop_shift=shift)
                tang = vel[0] if i == 0 else vel[-1]
            else:
                tang = _endpoint_derivative_reference(s, i)
            p = s[0] if i == 0 else s[-1]
            tang = tang / g_norm(chart, p[None, :], tang[None, :])[0]
            if i == 1:
                tang = -tang
            out += net.graph.edge(eid).multiplicity * tang
        balance[vtx] = -out
        p = net.vertex_positions[vtx]
        worst.append(float(g_norm(chart, p[None, :], balance[vtx][None, :])[0]))
    return residuals, balance, max(worst)


@pytest.mark.parametrize("name", CASE_NAMES)
def test_residual_matches_inline_stencil_reference(name):
    case = make_case(name, 64)
    rep = stationarity_residual(case.chart, case.net)
    residuals, balance, aggregate = _stationarity_reference(case.chart, case.net)
    for eid, cov in residuals.items():
        assert np.array_equal(rep.edge_residuals[eid], cov)
    for v, bal in balance.items():
        assert np.array_equal(rep.vertex_balance[v], bal)
        assert np.array_equal(vertex_balance(case.chart, case.net, v), bal)
    assert rep.aggregate == aggregate


def test_residual_flags_jitter(rng):
    case = make_case("honeycomb-torus", 64)
    net = jitter_net(case.net, rng, amp=0.05)
    assert stationarity_residual(case.chart, net).aggregate > 1e-2


def test_balance_invariant_under_lattice_translation():
    case = make_case("honeycomb-torus", 64)
    net = case.net.copy()
    lam = case.chart.lattice[0]
    for e in net.graph.edges:
        net.edge_samples[e.id] += lam
    for v in net.vertex_positions:
        net.vertex_positions[v] = net.vertex_positions[v] + lam
    b0 = vertex_balance(case.chart, case.net, "A")
    b1 = vertex_balance(case.chart, net, "A")
    assert np.abs(b0 - b1).max() < 1e-12


# -- A_E and B_v -------------------------------------------------------------

def test_apply_A_E_flat_linear_normal():
    case = make_case("honeycomb-torus", 64)
    t = np.linspace(0, 1, 65)
    normal = np.array([0.0, 1.0])
    fld = NetField({e.id: np.zeros((65, 2)) for e in case.net.graph.edges})
    fld.edge_values["E1"][:] = np.outer(t, normal)
    out = apply_A_E(case.chart, case.net, "E1", fld)
    assert np.abs(out).max() < 1e-10


def test_apply_A_E_jacobi_solution_annihilated():
    case = make_case("sphere-equator", 256)
    fld = unit_normal_field(case)
    t = np.linspace(0, 1, 257)
    fld = NetField({"E": np.sin(2 * np.pi * t)[:, None] * fld.edge_values["E"]})
    out = apply_A_E(case.chart, case.net, "E", fld)
    assert g_norm(case.chart, case.net.edge_samples["E"], out).max() < 1e-4 * 2 * np.pi


def test_apply_A_E_constant_normal_magnitude():
    # parallel unit normal on the equator: A(Y) = -(n/l) R(f',Y)f' with
    # g-norm l(E) in the unit-interval parametrization
    case = make_case("sphere-equator", 256)
    fld = unit_normal_field(case)
    out = apply_A_E(case.chart, case.net, "E", fld)
    norms = g_norm(case.chart, case.net.edge_samples["E"], out)
    l_e = edge_lengths(case.chart, case.net)["E"]
    assert np.abs(norms - l_e).max() < 1e-4 * l_e


def test_apply_A_E_output_perpendicular(rng):
    case = make_case("sphere-equator", 128)
    fld = random_ambient_field(case.chart, case.net, rng)
    out = apply_A_E(case.chart, case.net, "E", fld)
    s = case.net.edge_samples["E"]
    v = st.velocity(s, loop_shift=case.net.loop_shift("E"))
    pairing = g_dot(case.chart, s, out, v) / (g_norm(case.chart, s, out).clip(1e-300) * g_norm(case.chart, s, v))
    assert np.abs(pairing).max() < 1e-8


def test_apply_B_v_constant_field_vanishes():
    case = make_case("honeycomb-torus", 64)
    fld = NetField({e.id: np.tile([0.2, 0.5], (65, 1)) for e in case.net.graph.edges})
    for v in ("A", "B"):
        assert np.abs(apply_B_v(case.chart, case.net, v, fld)).max() < 1e-10


def test_apply_B_v_tangential_field_vanishes(rng):
    case = make_case("sphere-theta", 64)
    prof = {e.id: 0.3 * np.sin(np.pi * np.linspace(0, 1, 65)) * rng.normal() for e in case.net.graph.edges}
    fld = TangentialField(prof).to_net_field(case.net)
    for v in ("N", "S"):
        assert np.abs(apply_B_v(case.chart, case.net, v, fld)).max() < 1e-8


def test_apply_B_v_single_edge_ramp():
    case = make_case("honeycomb-torus", 64)
    t = np.linspace(0, 1, 65)
    normal = np.array([0.0, 1.0])  # normal to the straight edge E1
    fld = NetField({e.id: np.zeros((65, 2)) for e in case.net.graph.edges})
    fld.edge_values["E1"][:] = np.outer(t, normal)
    out = apply_B_v(case.chart, case.net, "B", fld)
    expected = normal / edge_lengths(case.chart, case.net)["E1"]
    assert np.abs(out - expected).max() < 1e-6


# -- hessian -----------------------------------------------------------------

def test_hessian_tangential_null(rng):
    case = make_case("sphere-equator", 512)
    x_fld = random_ambient_field(case.chart, case.net, rng)
    t = np.linspace(0, 1, 513)
    tang = TangentialField({"E": 0.5 * np.sin(2 * np.pi * t)}).to_net_field(case.net)
    val = hessian_form(case.chart, case.net, x_fld, tang)
    assert abs(val) < 1e-7


def test_hessian_constant_normal_value():
    case = make_case("sphere-equator", 256)
    fld = unit_normal_field(case)
    val = hessian_form(case.chart, case.net, fld, fld)
    assert abs(val - (-2 * np.pi)) < 1e-3 * 2 * np.pi
    # per unit length it is -1
    assert abs(val / edge_lengths(case.chart, case.net)["E"] + 1.0) < 1e-3


def test_hessian_symmetry(rng):
    case = make_case("sphere-equator", 256)
    x_fld = random_ambient_field(case.chart, case.net, rng)
    y_fld = random_ambient_field(case.chart, case.net, rng)
    a = hessian_form(case.chart, case.net, x_fld, y_fld)
    b = hessian_form(case.chart, case.net, y_fld, x_fld)
    assert abs(a - b) <= 1e-6 * max(1.0, abs(a))


def test_hessian_null_shift_by_tangential(rng):
    case = make_case("sphere-equator", 512)
    x_fld = random_ambient_field(case.chart, case.net, rng)
    y_fld = random_ambient_field(case.chart, case.net, rng)
    t = np.linspace(0, 1, 513)
    tang = TangentialField({"E": 0.4 * np.cos(2 * np.pi * t) + 0.2}).to_net_field(case.net)
    a = hessian_form(case.chart, case.net, x_fld, y_fld)
    b = hessian_form(case.chart, case.net, x_fld, y_fld.plus(tang))
    assert abs(a - b) < 1e-6 * max(1.0, abs(a))


def test_hessian_oracle_agreement(rng):
    for name, n, step in [("honeycomb-torus", 64, 3e-5), ("sphere-equator", 512, 1e-4)]:
        case = make_case(name, n)
        scale = 0.0
        pairs = []
        for _ in range(10):
            x_fld = random_ambient_field(case.chart, case.net, rng)
            y_fld = random_ambient_field(case.chart, case.net, rng)
            a = hessian_form(case.chart, case.net, x_fld, y_fld, check_stationary=False)
            b = hessian_fd_oracle(case.chart, case.net, x_fld, y_fld, step=step)
            pairs.append((a, b))
            scale = max(scale, abs(a), abs(b))
        for a, b in pairs:
            assert abs(a - b) <= 1e-5 * scale


def test_hessian_oracle_zero_and_bilinear(rng):
    case = make_case("honeycomb-torus", 64)
    zero = NetField({e.id: np.zeros((65, 2)) for e in case.net.graph.edges})
    assert hessian_fd_oracle(case.chart, case.net, zero, zero) == 0.0
    x_fld = random_ambient_field(case.chart, case.net, rng)
    y_fld = random_ambient_field(case.chart, case.net, rng)
    one = hessian_fd_oracle(case.chart, case.net, x_fld, y_fld, step=3e-5)
    two = hessian_fd_oracle(case.chart, case.net, x_fld.scaled(2.0), y_fld, step=3e-5)
    assert abs(two - 2 * one) <= 1e-5 * max(1.0, abs(two))


@pytest.mark.parametrize("step", [0.0, 1e-13, float("nan"), float("inf")])
def test_hessian_oracle_rejects_bad_steps(step):
    case = make_case("honeycomb-torus", 32)
    zero = NetField({e.id: np.zeros((33, 2)) for e in case.net.graph.edges})
    with pytest.raises(ValueError, match="finite and at least 1e-12"):
        hessian_fd_oracle(case.chart, case.net, zero, zero, step=step)


def test_hessian_rejects_far_from_stationary(rng):
    case = make_case("honeycomb-torus", 64)
    net = jitter_net(case.net, rng, amp=0.05)
    fld = random_ambient_field(case.chart, net, rng)
    with pytest.raises(ValueError):
        hessian_form(case.chart, net, fld, fld)


def test_first_variation_small_after_polish(rng):
    case = make_case("sphere-theta", 64)
    res = solve_stationary(case.chart, case.net, SolveOptions(tolerance=1e-10))
    for _ in range(10):
        fld = random_reduced_field(case.chart, res.net, rng)
        assert abs(first_variation(case.chart, res.net, fld)) <= 1e-6


# -- exact length gradient ---------------------------------------------------

def _gradient_reference(chart, net):
    """Length gradient with dense derivative matrices: D^T @ (w * g v / speed).

    Also returns, per edge, the largest entry of the covector g v / speed
    that D^T acts on, the scale of the rounding in either form.
    """
    out, scale = {}, {}
    for e in net.graph.edges:
        s = net.edge_samples[e.id]
        n = s.shape[0]
        h = 1.0 / (n - 1)
        shift = net.loop_shift(e.id)
        w = st.quadrature_weights(n, loop=shift is not None)
        v = st.velocity(s, loop_shift=shift)
        speed = g_norm(chart, s, v)
        g, dg, _ = metric_tensor_jet(chart, s)
        u = np.einsum("pij,pj->pi", g, v) / speed[:, None]
        grad = w[:, None] * np.einsum("pcij,pi,pj->pc", dg, v, v) / (2.0 * speed[:, None])
        if shift is None:
            grad += _sbp42_reference(n, h).T @ (w[:, None] * u)
        else:
            m = n - 1
            d_per = sum(c * np.roll(np.eye(m), k, axis=1)
                        for k, c in zip(range(-2, 3), st._CENTRAL4)) / h
            u_ind = u[:m].copy()
            u_ind[0] = 0.5 * (u[0] + u[-1])
            grad[0] += grad[-1]
            grad[:m] += d_per.T @ (h * u_ind)
            grad[-1] = 0.0
        out[e.id] = e.multiplicity * grad
        scale[e.id] = e.multiplicity * np.abs(u).max()
    return out, scale


@pytest.mark.parametrize("jitter", [0.0, 0.03])
@pytest.mark.parametrize("name", CASE_NAMES)
def test_length_gradient_matches_dense_transpose(name, jitter):
    case = make_case(name, 64, multiplicity=2)  # the loop cases take the multiplicity
    net = jitter_net(case.net, np.random.default_rng(3), amp=jitter) if jitter else case.net
    grad = length_sample_gradient(case.chart, net)
    ref, scale = _gradient_reference(case.chart, net)
    for eid, g in grad.items():
        assert np.abs(g - ref[eid]).max() <= 1e-14 * scale[eid]


@pytest.mark.parametrize("name", ["honeycomb-torus", "sphere-theta", "sphere-equator"])
def test_derivative_layer_memory_is_linear(name):
    # one dense (4097 x 4097) derivative matrix would take 134 MB
    tracemalloc.start()
    try:
        case = make_case(name, 4096)
        edge_lengths(case.chart, case.net)
        length_sample_gradient(case.chart, case.net)
        stationarity_residual(case.chart, case.net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6
