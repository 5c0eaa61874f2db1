from dataclasses import replace

import numpy as np
import pytest

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
    ConstantField,
    StereographicSphereChart,
    conformal_family,
    g_dot,
    g_norm,
    geodesic_integrate,
)
from geodesicnets.jacobi import (
    _edge_fine_data,
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
    shift = net.loop_shift(eid)
    v = st.velocity(s, loop_shift=shift)
    return s, v, parallel_frame(case.chart, s, v)


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
    frames = parallel_frame(chart, points, velocities)
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
    k_mat = jacobi_ode_coefficients(case.chart, s, v, frames)
    assert np.abs(k_mat).max() < 1e-12


def test_jacobi_coefficients_equator_constant():
    case = make_case("sphere-equator", 128)
    s, v, frames = edge_frame(case, "E")
    k_mat = jacobi_ode_coefficients(case.chart, s, v, frames)
    l_e = edge_lengths(case.chart, case.net)["E"]
    # K in arc-length normalization is the unit sectional curvature
    assert np.abs(k_mat[:, 0, 0] / l_e**2 - 1.0).max() < 1e-5


def test_jacobi_coefficients_quadratic_in_speed():
    case = make_case("sphere-equator", 128)
    s, v, frames = edge_frame(case, "E")
    k1 = jacobi_ode_coefficients(case.chart, s, v, frames)
    k2 = jacobi_ode_coefficients(case.chart, s, 2.0 * v, frames)
    assert np.abs(k2 - 4.0 * k1).max() < 1e-8 * np.abs(k2).max()


def test_jacobi_coefficients_symmetric():
    case = make_case("sphere-theta", 64)
    s, v, frames = edge_frame(case, "E2")
    k_mat = jacobi_ode_coefficients(case.chart, s, v, frames)
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
        k_fine = _edge_fine_data(case.chart, case.net, "E1", refine)[4]
    else:
        k_fine = _smooth_symmetric_k(rng, n_coarse * refine, m)
    h_fine = 1.0 / (k_fine.shape[0] - 1)
    psi = _propagate(k_fine, h_fine, refine)
    ref = _propagate_reference(k_fine, h_fine, refine)
    assert psi.shape == ref.shape == (n_coarse + 1, 2 * m, 2 * m)
    assert np.abs(psi - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("refine", [3, 5])
@pytest.mark.parametrize("name", ["honeycomb-torus", "sphere-theta", "sphere-equator"])
def test_odd_refine_refused(name, refine):
    case = make_case(name, 64)
    with pytest.raises(ValueError, match="refine"):
        assemble_jacobi_system(case.chart, case.net, refine=refine)
    with pytest.raises(ValueError, match="refine"):
        jacobi_kernel(case.chart, case.net, refine=refine)


# -- the shooting system -----------------------------------------------------

def test_system_dimensions_honeycomb():
    case = make_case("honeycomb-torus", 64)
    sysm = assemble_jacobi_system(case.chart, case.net)
    assert sysm.matrix.shape == (10, 10)


def test_equator_monodromy_is_identity():
    case = make_case("sphere-equator", 64)
    sysm = assemble_jacobi_system(case.chart, case.net)
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
        v = st.velocity(s, loop_shift=net.loop_shift("E"))
        frames = parallel_frame(chart, s, v)
        k_mat = jacobi_ode_coefficients(chart, s, v, frames)
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
    v = st.velocity(s, loop_shift=case.net.loop_shift("E"))
    fld = NetField({"E": 0.3 * v})
    kind, tang, normal = classify_field(case.chart, case.net, fld)
    assert kind == "tangential"
    assert np.abs(tang.profiles["E"] - 0.3).max() < 1e-10


def test_classify_field_translation_non_tangential():
    case = make_case("honeycomb-torus", 64)
    fld = NetField({e.id: np.tile([1.0, 0.0], (65, 1)) for e in case.net.graph.edges})
    kind, _, _ = classify_field(case.chart, case.net, fld)
    assert kind == "non-tangential"


def test_classify_field_normal_profile():
    case = make_case("sphere-equator", 64)
    s, v, frames = edge_frame(case, "E")
    t = np.linspace(0, 1, 65)
    fld = NetField({"E": np.sin(2 * np.pi * t)[:, None] * frames[:, 0, :]})
    kind, _, _ = classify_field(case.chart, case.net, fld)
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
    sample at a time against every sample of every edge."""
    eids = [e.id for e in net.graph.edges]
    guard = max(2, net.edge_samples[eids[0]].shape[0] // 16)
    best = np.inf
    for i, e1 in enumerate(eids):
        s1 = net.edge_samples[e1]
        for e2 in eids[i:]:
            s2 = net.edge_samples[e2]
            n1, n2 = s1.shape[0], s2.shape[0]
            for k, p in enumerate(s1):
                d = np.linalg.norm(chart.displacement_many(np.broadcast_to(p, s2.shape), s2), axis=1)
                if e1 == e2:
                    d[max(0, k - guard) : k + guard + 1] = np.inf
                    if e1 in net.periodic_edges:
                        if k < guard:
                            d[n2 - (guard - k) - 1 :] = np.inf
                        if k > n2 - 1 - guard:
                            d[: guard - (n2 - 1 - k) + 1] = np.inf
                else:
                    ends = [net.graph.edge(e1).endpoint(0)] if k < guard else []
                    ends += [net.graph.edge(e1).endpoint(1)] if k > n1 - 1 - guard else []
                    for v in ends:
                        if net.graph.edge(e2).endpoint(0) == v:
                            d[: guard + 1] = np.inf
                        if net.graph.edge(e2).endpoint(1) == v:
                            d[n2 - guard - 1 :] = np.inf
                best = min(best, float(d.min()))
    return best


@pytest.mark.parametrize("name", ["honeycomb-torus", "sphere-theta", "sphere-equator", "flat-loop"])
def test_blocked_embeddedness_matches_per_sample_reference(name):
    case = make_case(name, 64)
    gap = _embedding_gap_reference(case.chart, case.net)
    assert approximate_embeddedness(case.chart, case.net)
    assert approximate_embeddedness(case.chart, case.net, gap * (1 - 1e-12))
    assert not approximate_embeddedness(case.chart, case.net, gap * (1 + 1e-12))


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
    for certify in (is_nondegenerate, jacobi_kernel, assemble_jacobi_system, reduced_hessian_fd):
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
    tangent recomputed for each kernel vector."""
    vals = {}
    for e in net.graph.edges:
        s = net.edge_samples[e.id]
        v = st.velocity(s, loop_shift=net.loop_shift(e.id))
        frames = parallel_frame(chart, s, v)
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
    return vals


@pytest.mark.parametrize("name", ["honeycomb-torus", "sphere-theta", "sphere-equator", "flat-loop"])
def test_kernel_reconstruction_frames_each_edge_once(name, monkeypatch):
    case = make_case(name, 48)
    calls = []
    original = jac.parallel_frame

    def counted(chart, samples, velocities):
        calls.append(samples.shape[0])
        return original(chart, samples, velocities)

    monkeypatch.setattr(jac, "parallel_frame", counted)
    ker = jacobi_kernel(case.chart, case.net)
    assert ker.dimension >= 1
    # one fine frame per edge for the shooting system, one coarse frame per
    # edge for all kernel vectors
    coarse = [n for n in calls if n == 49]
    assert len(coarse) == len(case.net.graph.edges) == len(calls) - len(coarse)
    monkeypatch.undo()
    for red, amb in zip(ker.basis, ker.ambient):
        want = _old_to_net_field(red, case.chart, case.net)
        assert amb.edge_values.keys() == want.keys()
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
        shift = net.loop_shift(e)
        base[e] = st.upsample_curve(s, refine, loop_shift=shift)
        t_mats[e] = st.upsample_operator(s.shape[0], refine, shift is not None)[0]

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


def test_reduced_fd_invalid_step():
    case = make_case("sphere-equator", 16)
    for step in (0.0, -1e-5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="invalid step"):
            reduced_hessian_fd(case.chart, case.net, step=step)


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
        assemble_jacobi_system(chart, net)
    with pytest.raises(NotStationaryError, match="residual nan"):
        jacobi_kernel(chart, net)
    zero = NetField({e: np.zeros_like(s) for e, s in net.edge_samples.items()})
    with pytest.raises(NotStationaryError, match="residual nan"):
        hessian_form(chart, net, zero, zero)
