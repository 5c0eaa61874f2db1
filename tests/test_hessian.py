"""The reduced map B and the column-compressed FD Hessian builder.

The reference here is the per-column build the builder replaced: one
NetField per reduced column, two gradients per column, each gradient
paired with every field.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import jitter_net, theta3d_doc

from geodesicnets import RadialBumpField, ScalarField, conformal_family, make_case
from geodesicnets import reduced_hessian_fd, specfile, stencils
from geodesicnets import jacobi as jac
from geodesicnets import net as net_mod
from geodesicnets.jacobi import fd_hessian, parallel_frame, reduced_basis_fields
from geodesicnets.multigraph import GraphClass, classify
from geodesicnets.net import GeodesicNet, NetField, displace
from geodesicnets.solver import HESSIAN_STEP
from geodesicnets.variation import length_sample_gradient

CASES = ("honeycomb-torus", "sphere-theta", "sphere-equator")


def reference_fields(chart, net):
    """The reduced basis as one NetField per column, built column by column."""
    n = net.dim
    fields = []
    frames_by_edge = {}
    for e in net.graph.edges:
        s = net.edge_samples[e.id]
        shift = net.loop_shift(e.id)
        v = stencils.velocity(s, loop_shift=shift)
        frames_by_edge[e.id] = parallel_frame(chart, s, v)

    def zero_field():
        return {e.id: np.zeros_like(net.edge_samples[e.id]) for e in net.graph.edges}

    if classify(net.graph) is not GraphClass.LOOP_WITH_MULTIPLICITY:
        for vtx in net.graph.vertices:
            for c in range(n):
                vals = zero_field()
                for eid, i in net.graph.incident_pairs(vtx):
                    t = np.linspace(0.0, 1.0, net.edge_samples[eid].shape[0])
                    vals[eid][:, c] += (1 - t) if i == 0 else t
                fields.append(NetField(vals))
    else:
        for vtx in net.graph.vertices:
            eid, i = net.graph.incident_pairs(vtx)[0]
            fr = frames_by_edge[eid][0] if i == 0 else frames_by_edge[eid][-1]
            for a in range(n - 1):
                vals = zero_field()
                for eid2, i2 in net.graph.incident_pairs(vtx):
                    vals[eid2][0 if i2 == 0 else -1] += fr[a]
                fields.append(NetField(vals))
    for e in net.graph.edges:
        frames = frames_by_edge[e.id]
        for j in range(1, net.edge_samples[e.id].shape[0] - 1):
            for a in range(n - 1):
                vals = zero_field()
                vals[e.id][j] = frames[j, a]
                fields.append(NetField(vals))
    return fields


def reference_oracle(chart, net, step=1e-5, refine=8):
    """Per-column reduced FD Hessian: 2 d gradients, each paired with every field."""
    fields = reference_fields(chart, net)
    functional = jac._RefinedLength(chart, net, refine)
    d = len(fields)

    def paired(sign, j):
        disp = NetField({e: sign * step * v for e, v in fields[j].edge_values.items()})
        grad = functional.gradient(disp)
        out = np.empty(d)
        for i, f in enumerate(fields):
            out[i] = sum(float(np.sum(grad[e] * f.edge_values[e])) for e in grad)
        return out

    h_mat = np.empty((d, d))
    for j in range(d):
        h_mat[:, j] = (paired(1.0, j) - paired(-1.0, j)) / (2 * step)
    return 0.5 * (h_mat + h_mat.T)


def reference_newton(chart, net, step):
    """Per-column Newton matrix on the coarse grid, as the solver built it."""
    fields = reference_fields(chart, net)
    stack = {e: np.stack([f.edge_values[e] for f in fields]) for e in net.edge_samples}

    def reduced_gradient(moved):
        grad = length_sample_gradient(chart, moved)
        return sum(np.einsum("pn,dpn->d", g, stack[e]) for e, g in grad.items())

    d = len(fields)
    hess = np.empty((d, d))
    for j in range(d):
        gp = reduced_gradient(displace(net, fields[j], step))
        gm = reduced_gradient(displace(net, fields[j], -step))
        hess[:, j] = (gp - gm) / (2 * step)
    return 0.5 * (hess + hess.T)


def reference_pattern(chart, net, refine):
    """Hat-hat entries the coupling pattern allows (True) or rules out."""
    basis, labels = reduced_basis_fields(chart, net)
    d, nv = len(basis), basis.n_vertex
    allowed = np.zeros((d, d), dtype=bool)
    for e in basis.edges:
        npts, nm1, _ = basis.frames[e].shape
        _, coupled = jac._hat_colouring(npts, refine, e in net.periodic_edges)
        off = basis.hat_offset[e]
        for j, reach in enumerate(coupled):
            rows = off + (reach[:, None] * nm1 + np.arange(nm1)).ravel()
            for a in range(nm1):
                allowed[rows, off + j * nm1 + a] = True
    return allowed[nv:, nv:]


def assert_matches(h_new, h_ref, nv):
    """Hat-hat block bitwise equal; every other entry within 1e-8 of max|H|."""
    assert h_new.shape == h_ref.shape
    assert np.array_equal(h_new[nv:, nv:], h_ref[nv:, nv:])
    assert np.abs(h_new - h_ref).max() <= 1e-8 * np.abs(h_ref).max()


@pytest.mark.parametrize("name", CASES)
def test_basis_columns_match_reference_fields(name):
    case = make_case(name, 24)
    basis, labels = reduced_basis_fields(case.chart, case.net)
    fields = reference_fields(case.chart, case.net)
    assert len(basis) == len(fields) == len(labels)
    rng = np.random.default_rng(3)
    grad = {e: rng.normal(size=s.shape) for e, s in case.net.edge_samples.items()}
    pulled = basis.pullback(grad)
    for j, f in enumerate(fields):
        coef = np.zeros(len(basis))
        coef[j] = 1.0
        col = basis.apply(coef)
        for e in case.net.edge_samples:
            assert np.array_equal(col.edge_values[e], f.edge_values[e])
        paired = sum(float(np.sum(grad[e] * f.edge_values[e])) for e in grad)
        assert abs(pulled[j] - paired) <= 1e-13 * max(1.0, abs(paired))


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("n_samples", (24, 33))
@pytest.mark.parametrize("refine", (2, 8))
def test_compressed_oracle_matches_per_column_build(name, n_samples, refine):
    case = make_case(name, n_samples)
    h_new, _ = reduced_hessian_fd(case.chart, case.net, refine=refine)
    h_ref = reference_oracle(case.chart, case.net, refine=refine)
    basis, _ = reduced_basis_fields(case.chart, case.net)
    nv = basis.n_vertex
    assert_matches(h_new, h_ref, nv)
    # the structural pattern covers every nonzero of the reference
    hat_ref = h_ref[nv:, nv:]
    assert not np.any((hat_ref != 0.0) & ~reference_pattern(case.chart, case.net, refine))


def count_gradients(monkeypatch) -> list:
    """Gradient evaluations of the FD oracle: the list gets the number of
    displaced copies of every stacked pass."""
    calls = []
    original = jac._RefinedLength.gradients

    def counted(self, disp):
        calls.append(len(next(iter(disp.values()))))
        return original(self, disp)

    monkeypatch.setattr(jac._RefinedLength, "gradients", counted)
    return calls


@pytest.mark.parametrize("name", CASES)
def test_gradient_count_does_not_grow_with_samples(name, monkeypatch):
    calls = count_gradients(monkeypatch)
    counts = []
    for n_samples in (32, 96):
        case = make_case(name, n_samples)
        calls.clear()
        h_mat, _ = reduced_hessian_fd(case.chart, case.net)
        counts.append(sum(calls))
        n_vertex = reduced_basis_fields(case.chart, case.net)[0].n_vertex
        if case.net.periodic_edges:
            # the conflict graph is a circulant band of half-width k, so no
            # colouring needs more than 2k + 1 colours
            lo, hi = stencils.hessian_coupling(n_samples + 1, 8, True)
            k = 2 * int(hi[0])
            assert sum(calls) <= 2 * (n_vertex + 2 * k + 1)
        assert sum(calls) < 2 * h_mat.shape[0]  # the per-column build makes 2 d
    if not case.net.periodic_edges:
        assert counts[0] == counts[1]


def test_newton_matrix_matches_per_column_build():
    case = make_case("honeycomb-torus", 32)
    rng = np.random.default_rng(11)
    basis, _ = reduced_basis_fields(case.chart, case.net)
    coef = np.zeros(len(basis))
    coef[basis.n_vertex:] = 1e-3 * rng.normal(size=len(basis) - basis.n_vertex)
    net = displace(case.net, basis.apply(coef), 1.0)
    basis, _ = reduced_basis_fields(case.chart, net)
    h_new = fd_hessian(case.chart, net, basis, step=HESSIAN_STEP)
    assert_matches(h_new, reference_newton(case.chart, net, HESSIAN_STEP), basis.n_vertex)


def test_hat_colouring_is_structurally_orthogonal():
    for loop in (False, True):
        colour, coupled = jac._hat_colouring(40, 8, loop)
        for c in set(colour.tolist()):
            rows = np.concatenate([coupled[j] for j in np.flatnonzero(colour == c)])
            assert len(rows) == len(np.unique(rows))


def test_loop_colouring_uses_balanced_blocks():
    for refine in (1, 8):
        width = int(stencils.hessian_coupling(40, refine, True)[1][0])
        for n in range(16, 513):
            colour, coupled = jac._hat_colouring(n + 1, refine, True)
            for c in set(colour.tolist()):
                rows = np.concatenate([coupled[j] for j in np.flatnonzero(colour == c)])
                assert len(rows) == len(np.unique(rows))
            blocks = n // (2 * width + 1)
            if blocks >= 2:
                assert len(set(colour.tolist())) <= -(-n // blocks)
    # 16 colours at N = 64, refine 8: the sphere-equator oracle makes 2 * (1 + 16) gradients
    assert jac._hat_colouring(65, 8, True)[0].max() + 1 == 16


def test_sphere_equator_oracle_gradient_count(monkeypatch):
    calls = count_gradients(monkeypatch)
    case = make_case("sphere-equator", 64)
    reduced_hessian_fd(case.chart, case.net)
    assert sum(calls) == 34


# -- one trial of the Newton line search ---------------------------------------

class CountingField(ScalarField):
    """A scalar field that counts its evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def jet_many(self, points, order=2):
        self.calls += 1
        return self.inner.jet_many(points, order)

    def bounds(self):
        return self.inner.bounds()


def assert_same_gradient(chart, net):
    """``reduced_gradient`` equals, bitwise, the pullback of the sample
    gradient through the basis built from edge-by-edge ``parallel_frame``s."""
    basis, grad = jac.reduced_gradient(chart, net)
    frames = {}
    for e in basis.edges:
        s, shift = net.edge_samples[e], net.loop_shift(e)
        frames[e] = parallel_frame(chart, s, stencils.velocity(s, loop_shift=shift))
    ref_basis, _ = jac._reduced_basis(net, frames)
    assert np.array_equal(grad, ref_basis.pullback(length_sample_gradient(chart, net)))
    assert np.array_equal(basis.vertex_block, ref_basis.vertex_block)
    assert basis.dim == ref_basis.dim and dict(basis.hat_offset) == dict(ref_basis.hat_offset)
    for e in basis.edges:
        assert np.array_equal(basis.frames[e], ref_basis.frames[e])


@pytest.mark.parametrize("name", CASES + ("flat-loop",))
def test_reduced_gradient_equals_pullback_of_sample_gradient(name):
    case = make_case(name, 32)
    # the loop cases keep per-net vertex columns: the marked vertex's frame
    assert_same_gradient(case.chart, jitter_net(case.net, np.random.default_rng(5), amp=0.02))


def test_reduced_gradient_evaluates_each_bump_once_per_group():
    case = make_case("honeycomb-torus", 32)
    inner = CountingField(RadialBumpField([0.5, 0.05], 0.2, 1.0, chart=case.chart))
    outer = CountingField(RadialBumpField([0.4, 0.1], 0.25, -0.5, chart=case.chart))
    # bump on bump: the outer chart's jet recurses through its base once
    chart = conformal_family(conformal_family(case.chart, inner, 0.4), outer, 0.3)
    net = jitter_net(case.net, np.random.default_rng(6), amp=0.02)
    jac.reduced_gradient(chart, net)
    # the three edges have one sample count: one group
    assert inner.calls == outer.calls == len(net.edge_groups()) == 1
    assert_same_gradient(chart, net)


@pytest.mark.parametrize("name", CASES)
def test_refined_length_at_refine_one_uses_no_operator(name):
    """At refine 1 the displaced samples and the gradient are used as they
    are, bitwise what the identity operator gave."""
    case = make_case(name, 24)
    net = jitter_net(case.net, np.random.default_rng(3), amp=0.02)
    basis, _ = reduced_basis_fields(case.chart, net)
    disp = basis.apply(np.random.default_rng(4).normal(size=len(basis)) * 1e-3)
    functional = jac._RefinedLength(case.chart, net, 1)
    assert functional.t_mats is None
    eye = {e: np.eye(s.shape[0]) for e, s in net.edge_samples.items()}
    moved = displace(net, NetField({e: eye[e] @ d for e, d in disp.edge_values.items()}), 1.0)
    want = {e: eye[e].T @ g for e, g in length_sample_gradient(case.chart, moved).items()}
    got = functional.gradient(disp)
    assert all(np.array_equal(got[e], want[e]) for e in want)


def test_cached_basis_layout_is_read_only():
    case = make_case("honeycomb-torus", 32)
    basis, labels = reduced_basis_fields(case.chart, case.net)
    again, _ = jac.reduced_gradient(case.chart, case.net)
    assert again.vertex_block is basis.vertex_block
    with pytest.raises(ValueError):
        basis.vertex_block[0, 0] += 1.0
    with pytest.raises(TypeError):
        basis.hat_offset["E1"] = 0
    labels.append(None)  # every caller gets its own list
    assert len(reduced_basis_fields(case.chart, case.net)[1]) == len(basis)


# -- stacked probes --------------------------------------------------------------

def per_probe_fd_hessian(chart, net, basis, step=1e-5, refine=1):
    """The compressed builder probe by probe, as it was before the probes
    were stacked: two gradients per probe, each pulled back alone."""
    functional = jac._RefinedLength(chart, net, refine)
    d = len(basis)
    nv = basis.n_vertex
    h_mat = np.zeros((d, d))

    def difference(cols):
        coef = np.zeros(d)
        coef[cols] = 1.0
        gp = basis.pullback(functional.gradient(basis.apply(step * coef)))
        gm = basis.pullback(functional.gradient(basis.apply(-step * coef)))
        return (gp - gm) / (2 * step)

    for j in range(nv):
        h_mat[:, j] = difference([j])
    for members in jac._hat_groups(basis, net, refine):
        delta = difference([col for col, _ in members])
        for col, rows in members:
            h_mat[rows, col] = delta[rows]
    h_mat[:nv, nv:] = h_mat[nv:, :nv].T
    return 0.5 * (h_mat + h_mat.T)


def fine_rows(net, refine):
    return sum((s.shape[0] - 1) * refine + 1 for s in net.edge_samples.values())


def jittered(name, n_samples=24, seed=8):
    """(chart, net): a built-in case, or the theta net in flat 3-space, jittered."""
    if name == "theta3d":
        spec = specfile.parse_spec(theta3d_doc())
        chart, net = spec.chart(), spec.net
    else:
        case = make_case(name, n_samples)
        chart, net = case.chart, case.net
    return chart, jitter_net(net, np.random.default_rng(seed), amp=0.02)


@pytest.mark.parametrize("name", CASES + ("flat-loop", "theta3d"))
@pytest.mark.parametrize("refine", (1, 2, 8))
def test_stacked_probes_match_the_per_probe_build_bitwise(name, refine, monkeypatch):
    chart, net = jittered(name)
    basis, _ = reduced_basis_fields(chart, net)
    want = per_probe_fd_hessian(chart, net, basis, refine=refine)
    assert np.array_equal(fd_hessian(chart, net, basis, refine=refine), want)
    # k copies per pass: the probes span several passes, the last one short
    n_probes = 2 * (basis.n_vertex + len(jac._hat_groups(basis, net, refine)))
    k = next(k for k in range(3, n_probes) if n_probes % k)
    monkeypatch.setattr(net_mod, "MAX_STACKED_ROWS", k * fine_rows(net, refine))
    assert n_probes > 2 * k
    assert np.array_equal(fd_hessian(chart, net, basis, refine=refine), want)


@pytest.mark.parametrize("name", CASES + ("flat-loop", "theta3d"))
def test_refined_gradient_is_the_gradient_of_the_fine_net(name):
    """One displaced copy: T^T times the sample gradient of the net built
    from the upsampled samples plus T times the displacement, bitwise."""
    chart, net = jittered(name, seed=3)
    basis, _ = reduced_basis_fields(chart, net)
    disp = basis.apply(np.random.default_rng(4).normal(size=len(basis)) * 1e-3)
    t_mats, fine = {}, {}
    for e in net.graph.edges:
        s, shift = net.edge_samples[e.id], net.loop_shift(e.id)
        t_mats[e.id] = stencils.upsample_operator(s.shape[0], 8, shift is not None)[0]
        fine[e.id] = (stencils.upsample_curve(s, 8, loop_shift=shift)
                      + t_mats[e.id] @ disp.edge_values[e.id])
    fine_net = GeodesicNet(graph=net.graph, edge_samples=fine,
                           vertex_positions=net.vertex_positions,
                           periodic_edges=net.periodic_edges)
    want = {e: t_mats[e].T @ g for e, g in length_sample_gradient(chart, fine_net).items()}
    got = jac._RefinedLength(chart, net, 8).gradient(disp)
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[e], want[e]) for e in want)


def test_one_stacked_pass_stays_within_the_row_cap():
    """Peak traced memory of the oracle: three d x d arrays for H plus at
    most 512 bytes per row of one stacked pass, although the probes hold
    several times the cap (all of them in one pass take about 12 MB here)."""
    case = make_case("honeycomb-torus", 64)
    basis, _ = reduced_basis_fields(case.chart, case.net)
    fd_hessian(case.chart, case.net, basis, refine=8)  # the operator caches
    n_probes = 2 * (basis.n_vertex + len(jac._hat_groups(basis, case.net, 8)))
    assert n_probes * fine_rows(case.net, 8) > 4 * net_mod.MAX_STACKED_ROWS
    tracemalloc.start()
    try:
        h_mat = fd_hessian(case.chart, case.net, basis, refine=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * h_mat.nbytes + 512 * net_mod.MAX_STACKED_ROWS
