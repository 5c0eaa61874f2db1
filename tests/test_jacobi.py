import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import ConstantField, interleaved_theta, lifted_sphere, theta3d_doc

from geodesicnets import (
    NetField,
    classify_field,
    hessian_form,
    is_nondegenerate,
    jacobi_kernel,
    jacobi_ode_coefficients,
    make_case,
    parallel_frame,
    reduced_hessian_fd,
    reduced_kernel_dimension,
)
from geodesicnets import jacobi as jac
from geodesicnets import stencils as st
from geodesicnets.geometry import (
    StereographicSphereChart,
    conformal_family,
    curvature_apply,
    curvature_form,
    g_dot,
    g_norm,
    geodesic_integrate,
    linear_rk4_flow,
)
from geodesicnets.jacobi import (
    _propagate,
    approximate_embeddedness,
    assemble_jacobi_system,
    random_reduced_field,
    reduced_basis_fields,
)
from geodesicnets.net import edge_lengths, length, reparametrize_constant_speed


def edge_frame(case, eid):
    net = case.net
    s = net.edge_samples[eid]
    v = st.velocity(s, loop=eid in net.periodic_edges)
    return s, v, parallel_frame(case.chart, s, v, case.chart.factor_jet_many(s, 0)[0])


# -- frames ------------------------------------------------------------------

def test_frame_constant_on_flat_edge():
    case = make_case("honeycomb-torus", 64)
    s, v, frames = edge_frame(case, "E1")
    assert np.abs(frames - frames[0]).max() < 1e-12


def test_frame_unit_norm_on_equator():
    case = make_case("sphere-equator", 128)
    s, v, frames = edge_frame(case, "E")
    norms = g_norm(case.chart, s, frames[:, 0, :])
    assert np.abs(norms - 1.0).max() < 1e-8


def test_frame_orthogonal_to_tangent():
    case = make_case("sphere-theta", 64)
    s, v, frames = edge_frame(case, "E1")
    pair = g_dot(case.chart, s, frames[:, 0, :], v)
    assert np.abs(pair).max() < 1e-10


def test_frame_loop_holonomy_identity():
    for name in ("flat-loop", "sphere-equator"):
        case = make_case(name, 128)
        s, v, frames = edge_frame(case, "E")
        g0 = case.chart.metric_many(s[:1])[0]
        o = frames[-1, 0] @ g0 @ frames[0, 0]
        assert abs(abs(o) - 1.0) < 1e-6
        assert abs(o - 1.0) < 1e-6  # orientable cases: identity


def test_frame_in_three_dimensions_is_orthonormal_and_normal():
    chart = StereographicSphereChart(1.0, dim=3)
    points, velocities = geodesic_integrate(chart, [0.1, 0.2, -0.1], [0.5, -0.3, 0.4], 1.0, 256)
    frames = parallel_frame(chart, points, velocities, chart.factor_jet_many(points, 0)[0])
    assert frames.shape == (257, 2, 3)
    g = chart.metric_many(points)
    gram = np.einsum("pai,pij,pbj->pab", frames, g, frames)
    assert np.abs(gram - np.eye(2)).max() < 1e-10
    tangent = velocities / g_norm(chart, points, velocities)[:, None]
    assert np.abs(np.einsum("pai,pij,pj->pa", frames, g, tangent)).max() < 1e-10


# -- curvature coefficients --------------------------------------------------

def test_jacobi_coefficients_flat_zero():
    case = make_case("honeycomb-torus", 64)
    s, v, frames = edge_frame(case, "E1")
    k_mat = jacobi_ode_coefficients(case.chart.factor_jet_many(s, 2), v, frames)
    assert np.abs(k_mat).max() < 1e-12


def test_jacobi_coefficients_equator_constant():
    case = make_case("sphere-equator", 128)
    s, v, frames = edge_frame(case, "E")
    k_mat = jacobi_ode_coefficients(case.chart.factor_jet_many(s, 2), v, frames)
    l_e = edge_lengths(case.chart, case.net)["E"]
    # K in arc-length normalization is the unit sectional curvature
    assert np.abs(k_mat[:, 0, 0] / l_e**2 - 1.0).max() < 1e-5


def test_jacobi_coefficients_quadratic_in_speed():
    case = make_case("sphere-equator", 128)
    s, v, frames = edge_frame(case, "E")
    k1 = jacobi_ode_coefficients(case.chart.factor_jet_many(s, 2), v, frames)
    k2 = jacobi_ode_coefficients(case.chart.factor_jet_many(s, 2), 2.0 * v, frames)
    assert np.abs(k2 - 4.0 * k1).max() < 1e-8 * np.abs(k2).max()


def test_jacobi_coefficients_symmetric():
    case = make_case("sphere-theta", 64)
    s, v, frames = edge_frame(case, "E2")
    k_mat = jacobi_ode_coefficients(case.chart.factor_jet_many(s, 2), v, frames)
    assert np.abs(k_mat - np.swapaxes(k_mat, 1, 2)).max() < 1e-8


# -- the propagator ----------------------------------------------------------

def _propagate_reference(K_fine, h_fine, record_stride):
    """One RK4 step at a time on (u, u'), with the stages written out."""
    m = K_fine.shape[1]
    psi = np.eye(2 * m)
    records = [psi.copy()]
    h = 2.0 * h_fine

    def rhs(Kt, y):
        out = np.empty_like(y)
        out[:m] = y[m:]
        out[m:] = -Kt @ y[:m]
        return out

    for j in range(0, K_fine.shape[0] - 1, 2):
        K0, K1, K2 = K_fine[j], K_fine[j + 1], K_fine[j + 2]
        k1 = rhs(K0, psi)
        k2 = rhs(K1, psi + 0.5 * h * k1)
        k3 = rhs(K1, psi + 0.5 * h * k2)
        k4 = rhs(K2, psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if (j + 2) % record_stride == 0:
            records.append(psi.copy())
    return np.array(records)


def _smooth_symmetric_k(rng, n_fine, m):
    t = np.linspace(0.0, 1.0, n_fine + 1)
    k_mat = np.zeros((n_fine + 1, m, m))
    for k in range(3):
        c = rng.normal(size=(2, m, m))
        c = c + np.swapaxes(c, 1, 2)
        k_mat += np.sin(np.pi * (k + 1) * t)[:, None, None] * c[0]
        k_mat += np.cos(np.pi * k * t)[:, None, None] * c[1]
    return 5.0 * k_mat


@pytest.mark.parametrize("m", [1, 2])
def test_propagate_matches_stepwise_reference(m, rng):
    n_coarse, refine = 64, 8
    if m == 1:
        case = make_case("sphere-theta", n_coarse)
        fine = st.upsample_curve(case.net.edge_samples["E1"], refine, loop=False)
        vf = st.derivative_ho(fine, 1, loop=False)
        jet = case.chart.factor_jet_many(fine, 2)
        k_fine = jacobi_ode_coefficients(jet, vf, parallel_frame(case.chart, fine, vf, jet[0]))
    else:
        k_fine = _smooth_symmetric_k(rng, n_coarse * refine, m)
    h_fine = 1.0 / (k_fine.shape[0] - 1)
    psi = _propagate(k_fine, h_fine, refine)
    ref = _propagate_reference(k_fine, h_fine, refine)
    assert psi.shape == ref.shape == (n_coarse + 1, 2 * m, 2 * m)
    assert np.abs(psi - ref).max() <= 1e-12 * np.abs(ref).max()


def _shooting_net(name, n_samples):
    """(chart, net): a built-in case; ``interleaved_theta`` (two edge groups);
    the theta net in flat 3-space, bare or under a radial bump
    ("theta3d-bump"); or sphere-theta under a radial or a directional bump."""
    from geodesicnets import specfile
    from geodesicnets.geometry import DirectionalBumpField, RadialBumpField
    from geodesicnets.solver import _anchor_spline_data

    if name == "interleaved":
        return interleaved_theta(n_samples)
    if name.startswith("theta3d"):
        spec = specfile.parse_spec(theta3d_doc())
        chart, net = spec.chart(), spec.net
        if name == "theta3d-bump":
            bump = RadialBumpField([0.5, 0.1, 0.1], 0.4, 1.0, chart=chart)
            chart = conformal_family(chart, bump, 0.5)
        return chart, net
    case = make_case("sphere-theta" if name.endswith("-bump") else name, n_samples)
    if name == "radial-bump":
        bump = RadialBumpField(case.net.edge_samples["E1"][n_samples // 3] + 0.05, 0.4, 1.0,
                               chart=case.chart)
        return conformal_family(case.chart, bump, 0.4), case.net
    if name == "directional-bump":
        pts, vel, center = _anchor_spline_data(case.net, "E1", 5 * n_samples // 8)
        bump = DirectionalBumpField(center, 0.2, [0.6, 0.8], pts, vel, chart=case.chart, power=1)
        return conformal_family(case.chart, bump, 0.3), case.net
    return case.chart, case.net


def _curvature_k_reference(chart, samples, velocities, frames):
    """K = <R(f', e_a) f', e_b>_g by ``curvature_apply``, in any dimension."""
    lam, dphi, ddphi = chart.factor_jet_many(samples, 2)
    vel = velocities[:, None, :]
    curv = curvature_apply(curvature_form(dphi, ddphi)[:, None], vel, frames, vel)
    k_mat = lam[:, None, None] * np.einsum("...i,...i->...", curv[:, :, None], frames[:, None])
    return 0.5 * (k_mat + np.swapaxes(k_mat, 1, 2))


def _fine_edge(chart, net, eid, refine):
    """(fine samples, their velocities, parallel frames) of one edge."""
    loop = eid in net.periodic_edges
    fine = st.upsample_curve(net.edge_samples[eid], refine, loop=loop)
    vf = st.derivative_ho(fine, 1, loop=loop)
    return fine, vf, parallel_frame(chart, fine, vf, chart.factor_jet_many(fine, 0)[0])


def _edge_data_reference(chart, net, eid, refine):
    """The shooting data of one edge on its own, K by ``curvature_apply`` and
    the full prefix product: (length, frames at the two end samples, psi at
    the coarse nodes, end factors)."""
    s = net.edge_samples[eid]
    fine, vf, frames_f = _fine_edge(chart, net, eid, refine)
    k_fine = _curvature_k_reference(chart, fine, vf, frames_f)
    m = k_fine.shape[1]
    a_mat = np.zeros((k_fine.shape[0], 2 * m, 2 * m))
    a_mat[:, :m, m:] = np.eye(m)
    a_mat[:, m:, :m] = -k_fine
    psi = linear_rk4_flow(a_mat[::2], a_mat[1::2], 2.0 / (fine.shape[0] - 1), stride=1)
    w = st.quadrature_weights(fine.shape[0], loop=eid in net.periodic_edges)
    return (float(w @ g_norm(chart, fine, vf)), frames_f[[0, -1]], psi[:: refine // 2],
            chart.factor_jet_many(s[[0, -1]], 0)[0])


_SHOOTING_NETS = ([(name, n) for name in ("honeycomb-torus", "sphere-theta", "sphere-equator",
                                          "flat-loop") for n in (32, 64)]
                  + [("interleaved", 32), ("theta3d", 16), ("theta3d-bump", 16),
                     ("radial-bump", 32), ("directional-bump", 32)])


@pytest.mark.parametrize("name, n", _SHOOTING_NETS)
def test_grouped_shooting_data_matches_per_edge_reference(name, n):
    """One pass per edge group gives every edge's end frames, length and end
    factors bit for bit, and its propagation too in three dimensions; on
    surfaces the closed-form K moves psi at rounding level only."""
    chart, net = _shooting_net(name, n)
    refine = jac.SHOOTING_REFINE
    data = net.map_groups(lambda grp: jac._group_data(chart, grp, refine))
    for e in net.graph.edges:
        length, frames, psi, ends = _edge_data_reference(chart, net, e.id, refine)
        got = data[e.id]
        assert got.multiplicity == e.multiplicity
        assert got.length == length
        assert np.array_equal(got.frames, frames)
        assert np.array_equal(got.endpoints_lam, ends)
        if net.dim > 2:
            assert np.array_equal(got.psi, psi)
        else:
            assert np.abs(got.psi - psi).max() <= 1e-13 * np.abs(psi).max()


@pytest.mark.parametrize("name", ["theta3d", "lifted-sphere-theta"])
def test_three_dimensional_frames_take_one_transport_jet_per_group(name, monkeypatch):
    """Above two dimensions the frames of a whole edge group come from one
    stacked transport: ``_group_data`` takes one order-2 jet of the fine
    samples and one order-1 jet of their nodes and half-steps per group,
    and ``reduced_gradient`` one order-1 jet for the gradient and one for
    the transport per group, whatever the number of edges."""
    if name == "theta3d":
        chart, net = _shooting_net(name, 16)
    else:
        chart, net = lifted_sphere("sphere-theta", 32)
    calls = []
    original = chart.factor_jet_many

    def counted(points, order):
        calls.append((order, points.shape[0]))
        return original(points, order)

    monkeypatch.setattr(chart, "factor_jet_many", counted)
    groups = net.edge_groups()
    for grp in groups:
        e, m = len(grp.ids), (grp.samples.shape[1] - 1) * jac.SHOOTING_REFINE + 1
        calls.clear()
        jac._group_data(chart, grp, jac.SHOOTING_REFINE)
        assert calls == [(2, e * m), (1, e * (2 * m - 1))]
    calls.clear()
    jac.reduced_gradient(chart, net)
    want = [(1, len(g.ids) * m) for g in groups for m in (g.samples.shape[1], 2 * g.samples.shape[1] - 1)]
    assert calls == want


@pytest.mark.parametrize("name, dimension", [("sphere-theta", 6), ("sphere-equator", 4)])
def test_curved_three_dimensional_kernels_by_both_routes(name, dimension):
    """Sphere nets drawn in the unit 3-sphere, where transport is not the
    identity: shooting and the reduced Hessian count the same kernel, the
    2-D count plus the rotations that move the equatorial 2-sphere."""
    chart, net = lifted_sphere(name, 64)
    ker = jacobi_kernel(chart, net)
    assert ker.dimension == dimension
    assert not ker.ill_separated
    assert reduced_kernel_dimension(reduced_hessian_fd(chart, net)[0])[0] == dimension


@pytest.mark.parametrize("name", ["sphere-theta", "sphere-equator", "radial-bump",
                                  "directional-bump"])
def test_surface_coefficient_closed_form_matches_curvature_reference(name):
    chart, net = _shooting_net(name, 64)
    for e in net.graph.edges:
        fine, vf, frames = _fine_edge(chart, net, e.id, jac.SHOOTING_REFINE)
        got = jacobi_ode_coefficients(chart.factor_jet_many(fine, 2), vf, frames)
        want = _curvature_k_reference(chart, fine, vf, frames)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("name", ["honeycomb-torus", "flat-loop", "euclidean"])
def test_surface_coefficient_is_exactly_zero_on_flat_charts(name):
    from geodesicnets.geometry import EuclideanChart

    case = make_case("honeycomb-torus" if name == "euclidean" else name, 64)
    chart = EuclideanChart(2) if name == "euclidean" else case.chart
    for e in case.net.graph.edges:
        fine, vf, frames = _fine_edge(chart, case.net, e.id, jac.SHOOTING_REFINE)
        assert not jacobi_ode_coefficients(chart.factor_jet_many(fine, 2), vf, frames).any()


# -- the shooting system -----------------------------------------------------

def test_system_dimensions_honeycomb():
    case = make_case("honeycomb-torus", 64)
    sysm = assemble_jacobi_system(case.chart, case.net, jac.RESIDUAL_TOL)
    assert sysm.matrix.shape == (10, 10)


def test_equator_monodromy_is_identity():
    case = make_case("sphere-equator", 64)
    sysm = assemble_jacobi_system(case.chart, case.net, jac.RESIDUAL_TOL)
    # the system matrix is monodromy minus identity
    assert np.abs(sysm.matrix).max() < 1e-6


def test_system_curvature_block_scales_with_radius():
    from geodesicnets.geometry import StereographicSphereChart
    from geodesicnets.net import GeodesicNet
    from geodesicnets.multigraph import WeightedMultigraph

    mono = {}
    for radius in (1.0, 2.0):
        chart = StereographicSphereChart(radius=radius)
        graph = WeightedMultigraph.build(["V"], [("E", "V", "V", 1)])
        t = np.linspace(0, 1, 129)
        samples = radius * np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], axis=1)
        samples[-1] = samples[0]
        net = GeodesicNet(graph=graph, edge_samples={"E": samples},
                          vertex_positions={"V": samples[0]},
                          periodic_edges=frozenset({"E"}))
        s = net.edge_samples["E"]
        v = st.velocity(s, loop=True)
        frames = parallel_frame(chart, s, v, chart.factor_jet_many(s, 0)[0])
        k_mat = jacobi_ode_coefficients(chart.factor_jet_many(s, 2), v, frames)
        mono[radius] = float(k_mat[:, 0, 0].mean()) / edge_lengths(chart, net)["E"] ** 2
    # sectional curvature scales with 1/r^2
    assert abs(mono[1.0] / mono[2.0] - 4.0) < 1e-3


def test_kernel_dimensions_all_nets():
    expected = {"honeycomb-torus": 2, "sphere-equator": 2, "sphere-theta": 3}
    for name, dim in expected.items():
        case = make_case(name, 64)
        ker = jacobi_kernel(case.chart, case.net)
        assert ker.dimension == dim, name
        assert ker.gap >= 10.0


def test_honeycomb_kernel_spans_translations():
    case = make_case("honeycomb-torus", 64)
    ker = jacobi_kernel(case.chart, case.net)
    # translation fields: constant equal vectors on every edge
    basis = []
    for fld in ker.ambient:
        stacked = np.concatenate([fld.edge_values[e.id] for e in case.net.graph.edges])
        basis.append(stacked.ravel())
    t_fields = []
    for comp in range(2):
        vec = np.zeros(2)
        vec[comp] = 1.0
        t_fields.append(np.tile(vec, (3 * 65, 1)).ravel())
    q_mat, _ = np.linalg.qr(np.stack(t_fields, axis=1))
    for vec in basis:
        proj = q_mat @ (q_mat.T @ vec)
        assert np.linalg.norm(proj) / np.linalg.norm(vec) > 0.999


def test_equator_kernel_profiles():
    case = make_case("sphere-equator", 64)
    ker = jacobi_kernel(case.chart, case.net)
    t = np.linspace(0, 1, 65)
    basis = np.stack([np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)], axis=1)
    q_mat, _ = np.linalg.qr(basis)
    for red in ker.basis:
        prof = red.u["E"][:, 0]
        proj = q_mat @ (q_mat.T @ prof)
        assert np.linalg.norm(proj) / np.linalg.norm(prof) > 0.999


def test_kernel_elements_annihilate_hessian(rng):
    case = make_case("sphere-equator", 256)
    ker = jacobi_kernel(case.chart, case.net)
    for j_fld in ker.ambient:
        for _ in range(25):
            x_fld = random_reduced_field(case.chart, case.net, rng)
            val = hessian_form(case.chart, case.net, x_fld, j_fld)
            assert abs(val) <= 1e-5


def _random_reduced_field_reference(case, rng):
    """``random_reduced_field`` edge by edge: the same draws, ramps and sine
    (and cosine) profiles in each edge's own ``parallel_frame``."""
    net = case.net
    z = {} if net.periodic_edges else {v: rng.normal(size=net.dim) for v in net.graph.vertices}
    vals = {}
    for e in net.graph.edges:
        s, _, frames = edge_frame(case, e.id)
        t = np.linspace(0.0, 1.0, s.shape[0])
        out = np.zeros_like(s)
        prof = np.zeros((s.shape[0], net.dim - 1))
        if z:
            out += np.outer(1 - t, z[e.endpoint(0)]) + np.outer(t, z[e.endpoint(1)])
            for k in range(1, 4):
                prof += np.outer(np.sin(np.pi * k * t), rng.normal(size=net.dim - 1))
        else:
            for k in range(1, 4):
                prof += np.outer(np.sin(2 * np.pi * k * t), rng.normal(size=net.dim - 1))
                prof += np.outer(np.cos(2 * np.pi * k * t), rng.normal(size=net.dim - 1))
        vals[e.id] = out + np.einsum("pa,pai->pi", prof, frames)
    fld = NetField(vals)
    return fld.scaled(1.0 / fld.max_norm(case.chart, net))


@pytest.mark.parametrize("name", ["honeycomb-torus", "sphere-theta", "sphere-equator", "flat-loop"])
def test_random_reduced_field_matches_edge_by_edge_reference(name):
    # B sums the ramp and hat columns in another order: rounding only
    case = make_case(name, 32)
    got = random_reduced_field(case.chart, case.net, np.random.default_rng(3))
    want = _random_reduced_field_reference(case, np.random.default_rng(3))
    for e, val in want.edge_values.items():
        assert np.abs(got.edge_values[e] - val).max() <= 16 * np.finfo(float).eps


# -- classification ----------------------------------------------------------

def test_classify_field_tangential():
    case = make_case("flat-loop", 64)
    s = case.net.edge_samples["E"]
    v = st.velocity(s, loop="E" in case.net.periodic_edges)
    fld = NetField({"E": 0.3 * v})
    kind, normal = classify_field(case.chart, case.net, fld)
    assert kind == "tangential"
    assert np.abs(normal.edge_values["E"]).max() < 1e-10


def test_classify_field_translation_non_tangential():
    case = make_case("honeycomb-torus", 64)
    fld = NetField({e.id: np.tile([1.0, 0.0], (65, 1)) for e in case.net.graph.edges})
    kind, _ = classify_field(case.chart, case.net, fld)
    assert kind == "non-tangential"


def test_classify_field_normal_profile():
    case = make_case("sphere-equator", 64)
    s, v, frames = edge_frame(case, "E")
    t = np.linspace(0, 1, 65)
    fld = NetField({"E": np.sin(2 * np.pi * t)[:, None] * frames[:, 0, :]})
    kind, _ = classify_field(case.chart, case.net, fld)
    assert kind == "non-tangential"


# -- verdicts ----------------------------------------------------------------

def test_degenerate_verdicts():
    for name, dim in [("honeycomb-torus", 2), ("sphere-equator", 2), ("sphere-theta", 3)]:
        case = make_case(name, 64)
        kernel = is_nondegenerate(case.chart, case.net)
        assert not kernel.nondegenerate
        assert kernel.dimension == dim


def _embedding_gap_reference(chart, net):
    """Smallest sample distance that ``approximate_embeddedness`` weighs, one
    sample at a time against every sample of every edge, with a guard per
    edge: pairs at most the guard apart on one edge, and pairs each closer
    than its edge's guard to an end at a shared vertex, are skipped."""
    eids = [e.id for e in net.graph.edges]
    best = np.inf
    for i, e1 in enumerate(eids):
        s1 = net.edge_samples[e1]
        for e2 in eids[i:]:
            s2 = net.edge_samples[e2]
            n1, n2 = s1.shape[0], s2.shape[0]
            g1, g2 = max(2, n1 // 16), max(2, n2 // 16)
            for k, p in enumerate(s1):
                d = np.linalg.norm(chart.displacement_many(np.broadcast_to(p, s2.shape), s2), axis=1)
                if e1 == e2:
                    d[max(0, k - g1) : k + g1 + 1] = np.inf
                ends = [net.graph.edge(e1).endpoint(0)] if k < g1 else []
                ends += [net.graph.edge(e1).endpoint(1)] if k > n1 - 1 - g1 else []
                for v in ends:
                    if net.graph.edge(e2).endpoint(0) == v:
                        d[:g2] = np.inf
                    if net.graph.edge(e2).endpoint(1) == v:
                        d[n2 - g2 :] = np.inf
                best = min(best, float(d.min()))
    return best


def _with_threshold(monkeypatch, chart, net, threshold):
    """Set ``EMBEDDEDNESS_FRACTION`` so that the check's threshold on this
    net is the given distance."""
    shortest = min(edge_lengths(chart, net).values())
    monkeypatch.setattr(jac, "EMBEDDEDNESS_FRACTION", threshold / shortest)


@pytest.mark.parametrize("name", ["honeycomb-torus", "sphere-theta", "sphere-equator", "flat-loop"])
def test_blocked_embeddedness_matches_per_sample_reference(name, monkeypatch):
    case = make_case(name, 64)
    gap = _embedding_gap_reference(case.chart, case.net)
    assert approximate_embeddedness(case.chart, case.net)
    _with_threshold(monkeypatch, case.chart, case.net, gap * (1 - 1e-12))
    assert approximate_embeddedness(case.chart, case.net)
    _with_threshold(monkeypatch, case.chart, case.net, gap * (1 + 1e-12))
    assert not approximate_embeddedness(case.chart, case.net)


def test_embeddedness_accepts_a_good_star_net_with_self_loops():
    """A and B joined by two bowed edges, with a circle at each: the two
    ends of a self-loop meet at its vertex by construction."""
    from geodesicnets.geometry import EuclideanChart
    from geodesicnets.multigraph import GraphClass, WeightedMultigraph, classify
    from geodesicnets.net import GeodesicNet

    graph = WeightedMultigraph.build(
        ["A", "B"], [("E1", "A", "B"), ("E2", "A", "B"), ("E3", "A", "A"), ("E4", "B", "B")])
    t = np.linspace(0.0, 1.0, 33)[:, None]
    bow = 0.3 * np.sin(np.pi * t)
    circle = 0.3 * np.hstack([np.cos(2 * np.pi * t) - 1.0, np.sin(2 * np.pi * t)])
    a, b = np.zeros(2), np.array([1.0, 0.0])
    samples = {"E1": np.hstack([t, bow]), "E2": np.hstack([t, -bow]), "E3": a + circle,
               "E4": b + circle * np.array([-1.0, 1.0])}
    for e in ("E3", "E4"):
        samples[e][-1] = samples[e][0]
    net = GeodesicNet(graph, samples, {"A": a, "B": b})
    assert classify(graph) is GraphClass.GOOD_STAR
    assert approximate_embeddedness(EuclideanChart(2), net)
    # the circle at A stretched until its middle reaches B is refused
    samples["E3"] = samples["E3"] + np.sin(np.pi * t) * np.array([1.6, 0.0])
    samples["E3"][-1] = samples["E3"][0]
    assert not approximate_embeddedness(EuclideanChart(2), replace(net, edge_samples=samples))


@pytest.mark.parametrize("order", [("E1", "E2", "E3"), ("E2", "E3", "E1")])
def test_embeddedness_guards_each_edge_by_its_own_sample_count(order, monkeypatch):
    """The honeycomb with E1 at N = 16 and E2, E3 at N = 256: each edge's
    guard follows its own count, so the verdict does not depend on which
    edge is listed first."""
    from geodesicnets.multigraph import WeightedMultigraph

    coarse, fine = make_case("honeycomb-torus", 16), make_case("honeycomb-torus", 256)
    samples = dict(fine.net.edge_samples, E1=coarse.net.edge_samples["E1"])
    graph = WeightedMultigraph.build(["A", "B"], [(e, "A", "B") for e in order])
    net = replace(coarse.net, graph=graph, edge_samples=samples)
    # a guard of 2, taken from E1, would weigh sample 2 of E2 against A, 2/256 away
    _with_threshold(monkeypatch, coarse.chart, net, 0.05)
    assert approximate_embeddedness(coarse.chart, net)
    assert _embedding_gap_reference(coarse.chart, net) > 0.05


def test_not_good_graph_rejected():
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
    # both certification routes refuse it, not only the verdict
    def assemble(chart, net):
        return assemble_jacobi_system(chart, net, jac.RESIDUAL_TOL)

    for certify in (is_nondegenerate, jacobi_kernel, assemble, reduced_hessian_fd):
        with pytest.raises(ValueError, match="only defined for good graphs"):
            certify(chart, net)


# -- reduced FD hessian oracle -----------------------------------------------

def test_reduced_fd_matches_shooting_dimensions():
    expected = {"honeycomb-torus": 2, "sphere-equator": 2, "sphere-theta": 3}
    for name, dim in expected.items():
        case = make_case(name, 64)
        h_mat, labels = reduced_hessian_fd(case.chart, case.net)
        fd_dim, svals, gap = reduced_kernel_dimension(h_mat)
        assert fd_dim == dim, name
        assert gap >= 10.0
        assert np.abs(h_mat - h_mat.T).max() <= 1e-8 * np.abs(h_mat).max()


def test_kernel_spectrum_is_the_svd_of_the_symmetric_hessian():
    expected = {"honeycomb-torus": 2, "sphere-equator": 2, "sphere-theta": 3}
    for name, dim in expected.items():
        case = make_case(name, 64)
        h_mat, _ = reduced_hessian_fd(case.chart, case.net)
        assert np.array_equal(h_mat, h_mat.T)
        fd_dim, values, gap = reduced_kernel_dimension(h_mat)
        svals = np.linalg.svd(h_mat, compute_uv=False)
        assert np.all(np.diff(values) <= 0.0)
        assert np.abs(values - svals).max() <= 1e-12 * svals[0]
        # the acceptance gates: the expected count, a gap of at least 10
        assert fd_dim == dim and gap >= 10.0, name


def _old_to_net_field(red, chart, net):
    """The per-field reconstruction: every edge's velocity, frame and unit
    tangent recomputed for each kernel vector, and a loop edge's last row
    set to its first."""
    vals = {}
    for e in net.graph.edges:
        s = net.edge_samples[e.id]
        v = st.velocity(s, loop=e.id in net.periodic_edges)
        frames = parallel_frame(chart, s, v, chart.factor_jet_many(s, 0)[0])
        that = v / g_norm(chart, s, v)[:, None]
        t = np.linspace(0.0, 1.0, s.shape[0])
        if red.z:
            a0 = float(g_dot(chart, s[0][None, :], red.z[e.endpoint(0)][None, :],
                             that[0][None, :])[0])
            a1 = float(g_dot(chart, s[-1][None, :], red.z[e.endpoint(1)][None, :],
                             that[-1][None, :])[0])
            alpha = (1 - t) * a0 + t * a1
        else:
            alpha = np.zeros_like(t)
        vals[e.id] = alpha[:, None] * that + np.einsum("pa,pai->pi", red.u[e.id], frames)
        if e.id in net.periodic_edges:
            vals[e.id][-1] = vals[e.id][0]
    return vals


@pytest.mark.parametrize("name, n", [("sphere-equator", 48), ("sphere-equator", 64),
                                     ("flat-loop", 48), ("flat-loop", 64)])
def test_loop_kernel_fields_repeat_their_seam_row(name, n):
    """The seam of a loop edge is one point: every reconstructed kernel
    field takes the same value at both of its ends, bit for bit, so the
    loop-aware stencils read no shift from it."""
    case = make_case(name, n)
    ker = jacobi_kernel(case.chart, case.net)
    assert ker.dimension >= 1
    for fld in ker.ambient:
        vals = fld.edge_values["E"]
        assert np.array_equal(vals[-1], vals[0])


@pytest.mark.parametrize("name", ["honeycomb-torus", "sphere-theta", "sphere-equator", "flat-loop",
                                  "interleaved"])
def test_shooting_and_reconstruction_take_one_jet_per_edge_group(name, monkeypatch):
    """The shooting system takes one order-2 factor jet of each edge group's
    stacked fine samples, the reconstruction one coarse jet per group for
    all kernel fields, and the fields equal the edge-by-edge ones bit for bit."""
    if name == "interleaved":
        chart, net = interleaved_theta()
    else:
        case = make_case(name, 48)
        chart, net = case.chart, case.net
    groups = net.edge_groups()
    fine = sorted(len(g.ids) * ((g.samples.shape[1] - 1) * jac.SHOOTING_REFINE + 1) for g in groups)
    coarse = sorted(g.samples.shape[0] * g.samples.shape[1] for g in groups)
    calls = []
    original = chart.factor_jet_many

    def counted(points, order):
        calls.append((order, points.shape[0]))
        return original(points, order)

    monkeypatch.setattr(chart, "factor_jet_many", counted)
    # the resampled E2 leaves the interleaved net's residual at 1.1e-3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sysm = assemble_jacobi_system(chart, net, 1e-2)
    # one order-2 jet on the stacked fine samples of every group, none other
    assert sorted(m for order, m in calls if order == 2) == fine
    _, _, vt = np.linalg.svd(sysm.matrix)
    basis = [jac._reconstruct(net, sysm, vec) for vec in vt[-2:]]
    calls.clear()
    ambient = jac._ambient_fields(chart, net, basis)
    # one coarse jet per group for all fields
    assert sorted(m for _, m in calls) == coarse
    monkeypatch.undo()
    for red, amb in zip(basis, ambient):
        want = _old_to_net_field(red, chart, net)
        assert list(amb.edge_values) == list(want)
        assert all(np.array_equal(amb.edge_values[e], want[e]) for e in want)


def test_reduced_fd_equator_eigenvectors(rng):
    case = make_case("sphere-equator", 64)
    h_mat, labels = reduced_hessian_fd(case.chart, case.net)
    w, vecs = np.linalg.eigh(h_mat)
    idx = np.argsort(np.abs(w))[:2]
    t = np.arange(64) / 64
    basis = np.stack([np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)], axis=1)
    q_mat, _ = np.linalg.qr(basis)
    for i in idx:
        vec = vecs[:, i]
        proj = q_mat @ (q_mat.T @ vec)
        assert np.linalg.norm(proj) / np.linalg.norm(vec) > 0.999


def _reduced_hessian_by_lengths(chart, net, step, refine=8):
    """Plain second central differences of the refined length over every
    pair of columns of B: the O(d^2) reference of ``reduced_hessian_fd``,
    independent of the length gradient."""
    basis, _ = reduced_basis_fields(chart, net)
    d = len(basis)
    base, t_mats = {}, {}
    for e, s in net.edge_samples.items():
        loop = e in net.periodic_edges
        base[e] = st.upsample_curve(s, refine, loop=loop)
        t_mats[e] = st.upsample_operator(s.shape[0], refine, loop)[0]

    def l_of(i, a, j, b):
        coef = np.zeros(d)
        coef[i] += a
        coef[j] += b
        fine = {e: base[e] + t_mats[e] @ x for e, x in basis.apply(coef).edge_values.items()}
        return length(chart, replace(net, edge_samples=fine))

    h_mat = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            h_mat[i, j] = h_mat[j, i] = (
                l_of(i, step, j, step) - l_of(i, step, j, -step)
                - l_of(i, -step, j, step) + l_of(i, -step, j, -step)
            ) / (4 * step * step)
    return h_mat


def test_reduced_fd_modes_agree():
    case = make_case("sphere-equator", 16)
    h_g, _ = reduced_hessian_fd(case.chart, case.net)
    h_l = _reduced_hessian_by_lengths(case.chart, case.net, step=1e-4)
    assert np.abs(h_g - h_l).max() <= 1e-5 * np.abs(h_g).max()


@pytest.mark.parametrize("name", ["sphere-theta", "sphere-equator"])
def test_certification_never_builds_christoffel_tensors(name, monkeypatch):
    """Both certification routes run on the conformal factor jet alone."""
    from geodesicnets import geometry

    def refuse(self, points):
        raise AssertionError("christoffel_many called")

    for cls in vars(geometry).values():
        if isinstance(cls, type) and "christoffel_many" in vars(cls):
            monkeypatch.setattr(cls, "christoffel_many", refuse)
    case = make_case(name, 64)
    chart = conformal_family(case.chart, ConstantField(1.0), 0.5)
    assert jacobi_kernel(chart, case.net).dimension == jacobi_kernel(case.chart, case.net).dimension
    reduced_hessian_fd(chart, case.net)


# -- invariances -------------------------------------------------------------

def test_kernel_invariant_under_constant_scaling():
    for name, dim in [("honeycomb-torus", 2), ("sphere-equator", 2)]:
        case = make_case(name, 64)
        for c in (0.5, 2.0):
            scaled = conformal_family(case.chart, ConstantField(1.0), c**2 - 1.0)
            ker = jacobi_kernel(scaled, case.net)
            assert ker.dimension == dim


def test_kernel_invariant_under_refinement():
    case = make_case("sphere-theta", 64)
    fine = reparametrize_constant_speed(case.chart, case.net, n_samples=128)
    assert jacobi_kernel(case.chart, fine).dimension == 3


def test_kernel_invariant_under_multiplicity():
    for mult in (1, 2, 3):
        case = make_case("sphere-equator", 64, multiplicity=mult)
        assert jacobi_kernel(case.chart, case.net).dimension == 2


def test_a_nan_sample_fails_the_residual_gates():
    """A NaN set after parsing: NotStationaryError before any SVD, from the
    shooting assembly and from the second variation alike."""
    from geodesicnets import specfile, stationarity_residual
    from geodesicnets.variation import NotStationaryError

    spec = specfile.parse_spec(specfile.spec_from_case("honeycomb-torus", 32))
    chart, net = spec.chart(), spec.net
    net.edge_samples["E2"][10, 1] = np.nan
    assert np.isnan(stationarity_residual(chart, net).aggregate)
    with pytest.raises(NotStationaryError, match="residual nan"):
        assemble_jacobi_system(chart, net, jac.RESIDUAL_TOL)
    with pytest.raises(NotStationaryError, match="residual nan"):
        jacobi_kernel(chart, net)
    zero = NetField({e: np.zeros_like(s) for e, s in net.edge_samples.items()})
    with pytest.raises(NotStationaryError, match="residual nan"):
        hessian_form(chart, net, zero, zero)
