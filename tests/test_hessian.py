"""The reduced map B and the column-compressed FD Hessian builder.

The references here are the per-column build the builder replaced (one
NetField per reduced column, one probe-pair difference per column,
paired with every field) and the build that took two full gradients per
probe and subtracted them after the linear operators.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import edge_frames, jitter_net, jittered

from geodesicnets import RadialBumpField, ScalarField, conformal_family, make_case
from geodesicnets import reduced_hessian_fd, stencils
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


def stacked(net, values):
    """Per-edge arrays (N+1, n) in the group layout of one copy."""
    return [np.array([values[e] for e in grp.ids]) for grp in net.edge_groups()]


def per_edge(net, stacks):
    """The group layout of one copy as per-edge arrays."""
    return {e: s for grp, stack in zip(net.edge_groups(), stacks) for e, s in zip(grp.ids, stack)}


def pullback(net, basis, grad):
    """B^T g for a per-edge sample gradient g."""
    return basis.pullback_many(stacked(net, grad))[0]


def reference_oracle(chart, net, step=1e-5, refine=8):
    """Per-column reduced FD Hessian: one probe-pair difference per column,
    paired with every field."""
    fields = reference_fields(chart, net)
    functional = jac._RefinedLength(chart, net, refine)
    d = len(fields)

    h_mat = np.empty((d, d))
    for j in range(d):
        disp = stacked(net, {e: step * v for e, v in fields[j].edge_values.items()})
        diff = per_edge(net, functional.differences(disp))
        for i, f in enumerate(fields):
            paired = sum(float(np.sum(diff[e] * f.edge_values[e])) for e in diff)
            h_mat[i, j] = paired / (2 * step)
    return 0.5 * (h_mat + h_mat.T)


def reference_newton(chart, net, step):
    """Per-column Newton matrix on the coarse grid: one probe-pair
    difference per column, paired with the stacked fields."""
    fields = reference_fields(chart, net)
    stack = {e: np.stack([f.edge_values[e] for f in fields]) for e in net.edge_samples}
    functional = jac._RefinedLength(chart, net, 1)
    d = len(fields)
    hess = np.empty((d, d))
    for j in range(d):
        diff = per_edge(net, functional.differences(
            stacked(net, {e: step * v for e, v in fields[j].edge_values.items()})))
        hess[:, j] = sum(np.einsum("pn,dpn->d", g, stack[e]) for e, g in diff.items()) / (2 * step)
    return 0.5 * (hess + hess.T)


def fine_net_gradient(chart, net, refine, disp):
    """T^T times the sample gradient of the net built from the upsampled
    samples plus T times the displacement: the refined gradient, on the
    fine net itself."""
    fine, t_mats = {}, {}
    for e in net.graph.edges:
        s, shift = net.edge_samples[e.id], net.loop_shift(e.id)
        t_mats[e.id] = (np.eye(s.shape[0]) if refine == 1 else
                        stencils.upsample_operator(s.shape[0], refine, shift is not None)[0])
        fine[e.id] = (stencils.upsample_curve(s, refine, loop_shift=shift)
                      + t_mats[e.id] @ disp.edge_values[e.id])
    fine_net = GeodesicNet(graph=net.graph, edge_samples=fine,
                           vertex_positions=net.vertex_positions,
                           periodic_edges=net.periodic_edges)
    return {e: t_mats[e].T @ g for e, g in length_sample_gradient(chart, fine_net).items()}


def compressed_hessian(net, basis, refine, difference):
    """The column-compressed assembly of ``fd_hessian`` from difference(cols),
    the central difference of the reduced gradient along those columns."""
    d, nv = len(basis), basis.n_vertex
    h_mat = np.zeros((d, d))
    for j in range(nv):
        h_mat[:, j] = difference([j])
    for cols, rows, at in jac._hat_groups(basis, net, refine):
        h_mat[rows, at] = difference(list(cols))[rows]
    h_mat[:nv, nv:] = h_mat[nv:, :nv].T
    return 0.5 * (h_mat + h_mat.T)


def two_gradient_fd_hessian(chart, net, basis, step=1e-5, refine=1):
    """The compressed builder with two full gradients per probe, each
    pulled back alone and then subtracted: the builder before the probe
    pairs were differenced first."""
    def difference(cols):
        coef = np.zeros(len(basis))
        coef[cols] = step
        gp = pullback(net, basis, fine_net_gradient(chart, net, refine, basis.apply(coef)))
        gm = pullback(net, basis, fine_net_gradient(chart, net, refine, basis.apply(-coef)))
        return (gp - gm) / (2 * step)

    return compressed_hessian(net, basis, refine, difference)


def reference_pattern(chart, net, refine):
    """Hat-hat entries the coupling pattern allows (True) or rules out."""
    basis, labels = reduced_basis_fields(chart, net)
    d, nv = len(basis), basis.n_vertex
    allowed = np.zeros((d, d), dtype=bool)
    nm1 = net.dim - 1
    for e in basis.hat_offset:
        npts = net.edge_samples[e].shape[0]
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
    pulled = pullback(case.net, basis, grad)
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
    """Probe pairs of the FD oracle: the list gets the number of pairs of
    every stacked pass; each pair evaluates the integrand at two copies."""
    calls = []
    original = jac._RefinedLength.differences

    def counted(self, disp):
        calls.append(len(disp[0]) // len(self.groups[0].ids))
        return original(self, disp)

    monkeypatch.setattr(jac._RefinedLength, "differences", counted)
    return calls


@pytest.mark.parametrize("name", CASES)
def test_gradient_count_does_not_grow_with_samples(name, monkeypatch):
    calls = count_gradients(monkeypatch)
    counts = []
    for n_samples in (32, 96):
        case = make_case(name, n_samples)
        calls.clear()
        h_mat, _ = reduced_hessian_fd(case.chart, case.net)
        copies = 2 * sum(calls)
        counts.append(copies)
        n_vertex = reduced_basis_fields(case.chart, case.net)[0].n_vertex
        if case.net.periodic_edges:
            # the conflict graph is a circulant band of half-width k, so no
            # colouring needs more than 2k + 1 colours
            lo, hi = stencils.hessian_coupling(n_samples + 1, 8, True)
            k = 2 * int(hi[0])
            assert copies <= 2 * (n_vertex + 2 * k + 1)
        assert copies < 2 * h_mat.shape[0]  # the per-column build makes 2 d
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
    # 16 colours at N = 64, refine 8: the sphere-equator oracle makes 1 + 16 probe pairs
    assert jac._hat_colouring(65, 8, True)[0].max() + 1 == 16


def test_sphere_equator_oracle_gradient_count(monkeypatch):
    calls = count_gradients(monkeypatch)
    case = make_case("sphere-equator", 64)
    reduced_hessian_fd(case.chart, case.net)
    # 17 probe pairs, 34 integrand copies
    assert sum(calls) == 17


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
    """``reduced_gradient`` builds the basis of ``reference_fields``: its
    frames are the edge-by-edge ``parallel_frame``s, its vertex block holds
    the reference vertex columns over the samples in graph order, and its
    hat columns start where the labels say.  Its gradient equals, bitwise,
    the pullback of the sample gradient through that basis."""
    basis, grad = jac.reduced_gradient(chart, net)
    labels = reduced_basis_fields(chart, net)[1]
    fields = reference_fields(chart, net)
    frames = edge_frames(basis)
    assert list(basis.hat_offset) == [e.id for e in net.graph.edges]
    assert frames.keys() == basis.hat_offset.keys()
    for e in basis.hat_offset:
        s, shift = net.edge_samples[e], net.loop_shift(e)
        assert np.array_equal(frames[e], parallel_frame(chart, s, stencils.velocity(s, loop_shift=shift)))
        assert basis.hat_offset[e] == labels.index(("u", e, 1, 0))
    assert len(basis) == len(labels) == len(fields)
    ref_block = np.stack([np.concatenate([f.edge_values[e].ravel() for e in basis.hat_offset])
                          for f in fields[: basis.n_vertex]], axis=1)
    assert np.array_equal(basis.vertex_block, ref_block[None])
    assert np.array_equal(grad, pullback(net, basis, length_sample_gradient(chart, net)))


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
    """At refine 1 the probe displacements and the differences are used as
    they are, bitwise what the identity operator gives."""
    case = make_case(name, 24)
    net = jitter_net(case.net, np.random.default_rng(3), amp=0.02)
    basis, _ = reduced_basis_fields(case.chart, net)
    disp = basis.apply_many(np.random.default_rng(4).normal(size=(3, len(basis))) * 1e-3)
    functional = jac._RefinedLength(case.chart, net, 1)
    assert functional.t_mats is None
    got = functional.differences(disp)
    functional.t_mats = [np.eye(grp.samples.shape[1]) for grp in functional.groups]
    want = functional.differences(disp)
    assert len(got) == len(want) == len(net.edge_groups())
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


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
    were stacked: one probe-pair difference per probe, pulled back alone."""
    functional = jac._RefinedLength(chart, net, refine)

    def difference(cols):
        coef = np.zeros(len(basis))
        coef[cols] = step
        disp = stacked(net, basis.apply(coef).edge_values)
        return basis.pullback_many(functional.differences(disp))[0] / (2 * step)

    return compressed_hessian(net, basis, refine, difference)


def fine_rows(net, refine):
    return sum((s.shape[0] - 1) * refine + 1 for s in net.edge_samples.values())


@pytest.mark.parametrize("name", CASES + ("flat-loop", "theta3d", "interleaved"))
@pytest.mark.parametrize("refine", (1, 2, 8))
def test_stacked_probes_match_the_per_probe_build_bitwise(name, refine, monkeypatch):
    chart, net = jittered(name)
    basis, _ = reduced_basis_fields(chart, net)
    want = per_probe_fd_hessian(chart, net, basis, refine=refine)
    assert np.array_equal(fd_hessian(chart, net, basis, refine=refine), want)
    # k probe pairs, 2 k fine copies, per pass: the pairs span several
    # passes, the last one short
    n_pairs = basis.n_vertex + len(jac._hat_groups(basis, net, refine))
    k = next(k for k in range(2, n_pairs) if n_pairs % k)
    monkeypatch.setattr(net_mod, "MAX_STACKED_ROWS", 2 * k * fine_rows(net, refine))
    assert n_pairs > 2 * k
    assert np.array_equal(fd_hessian(chart, net, basis, refine=refine), want)


class CountingOperator:
    """A matrix that counts the stacked rows it is applied to, by name."""

    def __init__(self, mat, log, name):
        self.mat, self.log, self.name = mat, log, name

    def __matmul__(self, other):
        self.log[self.name] += other.shape[0]
        return self.mat @ other

    @property
    def T(self):
        return CountingOperator(self.mat.T, self.log, self.name + "^T")


def counted(monkeypatch, owner, attr, log, name, rows):
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        log[name] += rows(*args, **kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)


@pytest.mark.parametrize("name", CASES)
def test_each_probe_pair_applies_the_linear_maps_once(name, monkeypatch):
    """B, T and D once per probe, the integrand at both signs, and D^T,
    T^T and B^T once per probe pair, counted in stacked edge rows."""
    case = make_case(name, 32)
    basis, _ = reduced_basis_fields(case.chart, case.net)
    n_pairs = basis.n_vertex + len(jac._hat_groups(basis, case.net, 8))
    n_edges = len(case.net.graph.edges)
    log = dict.fromkeys(["B", "B^T", "T", "T^T", "D", "integrand"], 0)
    counted(monkeypatch, jac.ReducedBasis, "apply_many", log, "B", lambda self, c: len(c))
    counted(monkeypatch, jac.ReducedBasis, "pullback_many", log, "B^T",
            lambda self, g: len(g[0]) // len(self.ids[0]))
    counted(monkeypatch, stencils, "velocity", log, "D", lambda s, loop_shift=None: s.shape[0])
    counted(monkeypatch, jac, "length_integrand", log, "integrand",
            lambda chart, x, v, w: x.shape[0])
    operator = stencils.upsample_operator
    monkeypatch.setattr(stencils, "upsample_operator", lambda *args: (
        CountingOperator(operator(*args)[0], log, "T"), operator(*args)[1]))
    fd_hessian(case.chart, case.net, basis, refine=8)
    # the base fine samples go through T, and their velocities through D,
    # once per Hessian; D^T is a D of the (periodic) field
    assert log == {"B": n_pairs, "B^T": n_pairs, "T": n_edges * (n_pairs + 1),
                   "T^T": n_edges * n_pairs, "D": n_edges * (2 * n_pairs + 1),
                   "integrand": 2 * n_edges * n_pairs}


@pytest.mark.parametrize("name", CASES + ("flat-loop", "theta3d"))
@pytest.mark.parametrize("refine", (1, 2, 8))
def test_difference_first_hessian_matches_the_two_gradient_build(name, refine):
    """Differencing the integrand before the linear operators moves H by
    rounding only."""
    chart, net = jittered(name)
    basis, _ = reduced_basis_fields(chart, net)
    want = two_gradient_fd_hessian(chart, net, basis, refine=refine)
    got = fd_hessian(chart, net, basis, refine=refine)
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


@pytest.mark.parametrize("name", CASES + ("flat-loop", "theta3d"))
def test_refined_gradient_is_the_gradient_of_the_fine_net(name):
    """One probe pair: the difference of the refined gradient at +-delta is
    T^T times the difference of the sample gradients of the nets built from
    the upsampled samples plus and minus T times delta."""
    chart, net = jittered(name, seed=3)
    basis, _ = reduced_basis_fields(chart, net)
    disp = basis.apply(np.random.default_rng(4).normal(size=len(basis)) * 1e-3)
    plus = fine_net_gradient(chart, net, 8, disp)
    minus = fine_net_gradient(chart, net, 8, disp.scaled(-1.0))
    got = per_edge(net, jac._RefinedLength(chart, net, 8).differences(
        stacked(net, disp.edge_values)))
    assert got.keys() == plus.keys()
    for e in plus:
        want = plus[e] - minus[e]
        assert np.abs(got[e] - want).max() <= 1e-12 * np.abs(plus[e]).max()


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


# -- the basis of K stacked copies ---------------------------------------------

def stacked_copies(net, nets):
    """The edge groups of nets, which share net's graph and sample counts,
    stacked copy-major by ``EdgeGroup.copies``."""
    copies = [other.edge_groups() for other in nets]
    return [grp.copies(np.concatenate([groups[i].samples for groups in copies]))
            for i, grp in enumerate(net.edge_groups())]


@pytest.mark.parametrize("name", ("interleaved", "theta3d", "sphere-equator"))
def test_basis_of_stacked_copies_is_each_copy_alone_bitwise(name):
    """B, B^T and the reduced gradients of K stacked configurations equal,
    bitwise, those of every configuration alone; so do the rows of a
    one-copy basis applied to many coefficient rows."""
    nets = [jittered(name, n_samples=32, seed=seed)[1] for seed in (1, 2, 3)]
    chart = jittered(name, n_samples=32)[0]
    k = len(nets)
    basis, grads = jac.stacked_reduced_gradients(chart, nets[0], stacked_copies(nets[0], nets))
    assert grads.shape == (k, len(basis))
    rng = np.random.default_rng(5)
    coefs = rng.normal(size=(k, len(basis)))
    moved = basis.apply_many(coefs)
    gradients = [rng.normal(size=stack.shape) for stack in moved]
    pulled = basis.pullback_many(gradients)
    for c, net in enumerate(nets):
        alone, grad = jac.reduced_gradient(chart, net)
        assert np.array_equal(grads[c], grad)
        copy = basis.copy_at(c)
        assert np.array_equal(copy.vertex_block, alone.vertex_block)
        assert all(np.array_equal(f, g) for f, g in zip(copy.frames, alone.frames))
        rows = [slice(c * len(ids), (c + 1) * len(ids)) for ids in basis.ids]
        for got, want in zip([m[r] for m, r in zip(moved, rows)], alone.apply_many(coefs[c : c + 1])):
            assert np.array_equal(got, want)
        assert np.array_equal(pulled[c], alone.pullback_many([g[r] for g, r in zip(gradients, rows)])[0])
        # one copy, many rows
        assert np.array_equal(alone.pullback_many(alone.apply_many(coefs))[c],
                              alone.pullback_many(alone.apply_many(coefs[c : c + 1]))[0])
    if name == "interleaved":
        assert [len(ids) for ids in basis.ids] == [2, 1]
        assert list(basis.hat_offset) == ["E1", "E2", "E3"]
