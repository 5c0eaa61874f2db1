"""The reduced map B and the column-compressed exact Hessian builder.

The references here are the per-column build the builder replaced (one
NetField per reduced column, one Hessian-vector product per column,
paired with every field) and central differences of full gradients,
whose error must fall as the step squared down to the exact product.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import edge_frames, jitter_net, jittered

from geodesicnets import (
    DirectionalBumpField, RadialBumpField, ScalarField, conformal_family, make_case,
)
from geodesicnets import reduced_hessian_fd, stencils
from geodesicnets import jacobi as jac
from geodesicnets.jacobi import fd_hessian, parallel_frame, reduced_basis_fields
from geodesicnets.multigraph import GraphClass, classify
from geodesicnets.net import GeodesicNet, NetField, displace
from geodesicnets.solver import _anchor_spline_data
from geodesicnets.variation import length_sample_gradient

CASES = ("honeycomb-torus", "sphere-theta", "sphere-equator")


def reference_fields(chart, net):
    """The reduced basis as one NetField per column, built column by column."""
    n = net.dim
    fields = []
    frames_by_edge = {}
    for e in net.graph.edges:
        s = net.edge_samples[e.id]
        v = stencils.velocity(s, loop=e.id in net.periodic_edges)
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


def reference_oracle(chart, net, refine=8):
    """Per-column reduced Hessian: one Hessian-vector product per column,
    paired with every field."""
    fields = reference_fields(chart, net)
    functional = jac._RefinedLength(chart, net, refine)
    d = len(fields)

    h_mat = np.empty((d, d))
    for j in range(d):
        prod = per_edge(net, functional.products(stacked(net, fields[j].edge_values)))
        for i, f in enumerate(fields):
            h_mat[i, j] = sum(float(np.sum(prod[e] * f.edge_values[e])) for e in prod)
    return 0.5 * (h_mat + h_mat.T)


def reference_newton(chart, net):
    """Per-column Newton matrix on the coarse grid: one Hessian-vector
    product per column, paired with the stacked fields."""
    fields = reference_fields(chart, net)
    stack = {e: np.stack([f.edge_values[e] for f in fields]) for e in net.edge_samples}
    functional = jac._RefinedLength(chart, net, 1)
    d = len(fields)
    hess = np.empty((d, d))
    for j in range(d):
        prod = per_edge(net, functional.products(stacked(net, fields[j].edge_values)))
        hess[:, j] = sum(np.einsum("pn,dpn->d", g, stack[e]) for e, g in prod.items())
    return 0.5 * (hess + hess.T)


def fine_net_gradient(chart, net, refine, disp):
    """T^T times the sample gradient of the net built from the upsampled
    samples plus T times the displacement: the refined gradient, on the
    fine net itself."""
    fine, t_mats = {}, {}
    for e in net.graph.edges:
        s, loop = net.edge_samples[e.id], e.id in net.periodic_edges
        t_mats[e.id] = (np.eye(s.shape[0]) if refine == 1 else
                        stencils.upsample_operator(s.shape[0], refine, loop)[0])
        fine[e.id] = (stencils.upsample_curve(s, refine, loop=loop)
                      + t_mats[e.id] @ disp.edge_values[e.id])
    fine_net = GeodesicNet(graph=net.graph, edge_samples=fine,
                           vertex_positions=net.vertex_positions,
                           periodic_edges=net.periodic_edges)
    return {e: t_mats[e].T @ g for e, g in length_sample_gradient(chart, fine_net).items()}


def compressed_hessian(net, basis, refine, product):
    """The column-compressed assembly of ``fd_hessian`` from product(cols),
    the reduced Hessian applied to the sum of those columns."""
    d, nv = len(basis), basis.n_vertex
    h_mat = np.zeros((d, d))
    for j in range(nv):
        h_mat[:, j] = product([j])
    for cols, rows, at in jac._hat_groups(basis, net, refine):
        h_mat[rows, at] = product(list(cols))[rows]
    h_mat[:nv, nv:] = h_mat[nv:, :nv].T
    return 0.5 * (h_mat + h_mat.T)


def two_gradient_fd_hessian(chart, net, basis, step, refine=1):
    """The compressed builder from central differences of two full
    gradients per probe, each pulled back alone and then subtracted."""
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
    basis, _ = reduced_basis_fields(case.chart, case.net)
    h_new = fd_hessian(case.chart, case.net, basis, refine=refine)
    h_ref = reference_oracle(case.chart, case.net, refine=refine)
    nv = basis.n_vertex
    assert_matches(h_new, h_ref, nv)
    # the structural pattern covers every nonzero of the reference
    hat_ref = h_ref[nv:, nv:]
    assert not np.any((hat_ref != 0.0) & ~reference_pattern(case.chart, case.net, refine))


def count_gradients(monkeypatch) -> list:
    """Probes of the oracle: the list gets the number of probes of every
    stacked pass."""
    calls = []
    original = jac._RefinedLength.products

    def counted(self, disp):
        calls.append(len(disp[0]) // len(self.groups[0].ids))
        return original(self, disp)

    monkeypatch.setattr(jac._RefinedLength, "products", counted)
    return calls


@pytest.mark.parametrize("name", CASES)
def test_gradient_count_does_not_grow_with_samples(name, monkeypatch):
    calls = count_gradients(monkeypatch)
    counts = []
    for n_samples in (32, 96):
        case = make_case(name, n_samples)
        calls.clear()
        h_mat, _ = reduced_hessian_fd(case.chart, case.net)
        probes = sum(calls)
        counts.append(probes)
        n_vertex = reduced_basis_fields(case.chart, case.net)[0].n_vertex
        if case.net.periodic_edges:
            # the conflict graph is a circulant band of half-width k, so no
            # colouring needs more than 2k + 1 colours
            lo, hi = stencils.hessian_coupling(n_samples + 1, 8, True)
            k = 2 * int(hi[0])
            assert probes <= n_vertex + 2 * k + 1
        assert probes < h_mat.shape[0]  # the per-column build makes d
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
    h_new = fd_hessian(case.chart, net, basis)
    assert_matches(h_new, reference_newton(case.chart, net), basis.n_vertex)


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
    # 16 colours at N = 64, refine 8: the sphere-equator oracle makes 1 + 16 probes
    assert jac._hat_colouring(65, 8, True)[0].max() + 1 == 16


def test_sphere_equator_oracle_gradient_count(monkeypatch):
    calls = count_gradients(monkeypatch)
    case = make_case("sphere-equator", 64)
    reduced_hessian_fd(case.chart, case.net)
    # 17 probes
    assert sum(calls) == 17


# -- one trial of the Newton line search ---------------------------------------

class CountingField(ScalarField):
    """A scalar field that counts its evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def jet_many(self, points, order):
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
        s, loop = net.edge_samples[e], e in net.periodic_edges
        assert np.array_equal(frames[e], parallel_frame(chart, s, stencils.velocity(s, loop=loop)))
        assert basis.hat_offset[e] == labels.index(("u", e, 1, 0))
    assert len(basis) == len(labels) == len(fields)
    ref_block = np.stack([np.concatenate([f.edge_values[e].ravel() for e in basis.hat_offset])
                          for f in fields[: basis.n_vertex]], axis=1)
    assert np.array_equal(basis.vertex_block, ref_block)
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
    """At refine 1 the probe displacements and the products are used as
    they are, bitwise what the identity operator gives."""
    case = make_case(name, 24)
    net = jitter_net(case.net, np.random.default_rng(3), amp=0.02)
    basis, _ = reduced_basis_fields(case.chart, net)
    disp = basis.apply_many(np.random.default_rng(4).normal(size=(3, len(basis))) * 1e-3)
    functional = jac._RefinedLength(case.chart, net, 1)
    assert functional.t_mats == [None] * len(functional.groups)
    got = functional.products(disp)
    functional.t_mats = [np.eye(grp.samples.shape[1]) for grp in functional.groups]
    want = functional.products(disp)
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

def per_probe_fd_hessian(chart, net, basis, refine=1):
    """The compressed builder probe by probe, as it was before the probes
    were stacked: one Hessian-vector product per probe, pulled back alone."""
    functional = jac._RefinedLength(chart, net, refine)

    def product(cols):
        coef = np.zeros(len(basis))
        coef[cols] = 1.0
        disp = stacked(net, basis.apply(coef).edge_values)
        return basis.pullback_many(functional.products(disp))[0]

    return compressed_hessian(net, basis, refine, product)


def fine_rows(net, refine):
    return sum((s.shape[0] - 1) * refine + 1 for s in net.edge_samples.values())


@pytest.mark.parametrize("name", CASES + ("flat-loop", "theta3d", "interleaved"))
@pytest.mark.parametrize("refine", (1, 2, 8))
def test_stacked_probes_match_the_per_probe_build_bitwise(name, refine, monkeypatch):
    chart, net = jittered(name)
    basis, _ = reduced_basis_fields(chart, net)
    want = per_probe_fd_hessian(chart, net, basis, refine=refine)
    assert np.array_equal(fd_hessian(chart, net, basis, refine=refine), want)
    # k probes, k fine copies, per pass: the probes span several passes,
    # the last one short
    n_probes = basis.n_vertex + len(jac._hat_groups(basis, net, refine))
    k = next(k for k in range(2, n_probes) if n_probes % k)
    monkeypatch.setattr(jac, "MAX_STACKED_ROWS", k * fine_rows(net, refine))
    assert n_probes > 2 * k
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
    """The factor jet once per Hessian; B, T, D, the integrand derivative,
    D^T, T^T and B^T once per probe, counted in stacked edge rows."""
    case = make_case(name, 32)
    basis, _ = reduced_basis_fields(case.chart, case.net)
    n_probes = basis.n_vertex + len(jac._hat_groups(basis, case.net, 8))
    n_edges = len(case.net.graph.edges)
    log = dict.fromkeys(["B", "B^T", "T", "T^T", "D", "derivative", "jet"], 0)
    counted(monkeypatch, jac.ReducedBasis, "apply_many", log, "B", lambda self, c: len(c))
    counted(monkeypatch, jac.ReducedBasis, "pullback_many", log, "B^T",
            lambda self, g: len(g[0]) // len(self.ids[0]))
    counted(monkeypatch, stencils, "velocity", log, "D", lambda s, loop=False: s.shape[0])
    counted(monkeypatch, jac, "_integrand_derivative", log, "derivative",
            lambda base, dx, dv: dx.shape[0])
    counted(monkeypatch, case.chart, "factor_jet_many", log, "jet", lambda points, order: 1)
    operator = stencils.upsample_operator
    monkeypatch.setattr(stencils, "upsample_operator", lambda *args: (
        CountingOperator(operator(*args)[0], log, "T"), operator(*args)[1]))
    fd_hessian(case.chart, case.net, basis, refine=8)
    # the base fine samples go through T, and their velocities through D,
    # once per Hessian; D^T is a D of the (periodic) field
    assert log == {"B": n_probes, "B^T": n_probes, "T": n_edges * (n_probes + 1),
                   "T^T": n_edges * n_probes, "D": n_edges * (2 * n_probes + 1),
                   "derivative": n_edges * n_probes, "jet": len(case.net.edge_groups())}


def fd_errors(exact, gradient, steps):
    """max |(gradient(h) - gradient(-h)) / 2h - exact| for each step h."""
    return [np.abs((gradient(h) - gradient(-h)) / (2 * h) - exact).max() for h in steps]


def assert_falls_as_step_squared(errors, exact):
    """Each tenfold smaller step cuts the error at least 50-fold, until it
    reaches rounding (1e-9 of the exact value)."""
    floor = 1e-9 * np.abs(exact).max()
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= max(coarse / 50, floor)


@pytest.mark.parametrize("name", CASES + ("flat-loop", "theta3d"))
@pytest.mark.parametrize("refine", (1, 2, 8))
def test_difference_first_hessian_matches_the_two_gradient_build(name, refine):
    """The central differences of two full gradients per probe converge to
    the exact Hessian as the step squared."""
    chart, net = jittered(name)
    basis, _ = reduced_basis_fields(chart, net)
    exact = fd_hessian(chart, net, basis, refine=refine)
    errors = [np.abs(two_gradient_fd_hessian(chart, net, basis, h, refine) - exact).max()
              for h in (1e-3, 1e-4)]
    assert_falls_as_step_squared(errors, exact)


@pytest.mark.parametrize("name", CASES + ("flat-loop", "theta3d"))
def test_refined_gradient_is_the_gradient_of_the_fine_net(name):
    """One probe: the product is the derivative of T^T times the sample
    gradient of the net built from the upsampled samples plus T times the
    displacement, the central differences converging as the step squared."""
    chart, net = jittered(name, seed=3)
    basis, _ = reduced_basis_fields(chart, net)
    disp = basis.apply(np.random.default_rng(4).normal(size=len(basis)))
    got = per_edge(net, jac._RefinedLength(chart, net, 8).products(stacked(net, disp.edge_values)))
    exact = np.stack([got[e] for e in net.edge_samples])

    def gradient(h):
        return np.stack(list(fine_net_gradient(chart, net, 8, disp.scaled(h)).values()))

    assert_falls_as_step_squared(fd_errors(exact, gradient, (1e-3, 1e-4, 1e-5)), exact)


def bumped(kind, n_samples):
    """honeycomb-torus under a radial (continue) or directional (perturb)
    bump over edge E1.  The directional bump vanishes on its anchor, the
    edge itself, so it gets ten times the amplitude: each moves H by at
    least 0.3 % on a net jittered by 0.02."""
    case = make_case("honeycomb-torus", n_samples)
    if kind == "radial":
        field, amplitude = RadialBumpField([0.5, 0.05], 0.2, 1.0, chart=case.chart), 0.4
    else:
        pts, vel, center = _anchor_spline_data(case.net, "E1", n_samples // 2)
        field = DirectionalBumpField(center, 0.2, [0.6, 0.8], pts, vel, chart=case.chart)
        amplitude = 4.0
    return conformal_family(case.chart, field, amplitude), case.net


@pytest.mark.parametrize("name", ("honeycomb-torus", "sphere-theta", "radial", "directional"))
@pytest.mark.parametrize("n_samples", (32, 64))
def test_newton_matrix_is_the_limit_of_gradient_differences(name, n_samples):
    """H times a random direction of unit max norm against central
    differences of the reduced gradient along it, B held fixed, on built-in
    and bumped charts: the error falls as the step squared."""
    if name in ("radial", "directional"):
        chart, net = bumped(name, n_samples)
    else:
        case = make_case(name, n_samples)
        chart, net = case.chart, case.net
    net = jitter_net(net, np.random.default_rng(5), amp=0.02)
    basis, _ = reduced_basis_fields(chart, net)
    coef = np.random.default_rng(1).normal(size=len(basis))
    coef /= basis.apply(coef).max_norm(chart, net)
    exact = fd_hessian(chart, net, basis) @ coef

    def gradient(h):
        moved = displace(net, basis.apply(coef), h)
        return pullback(net, basis, length_sample_gradient(chart, moved))

    assert_falls_as_step_squared(fd_errors(exact, gradient, (1e-2, 1e-3, 1e-4)), exact)


def test_one_stacked_pass_stays_within_the_row_cap():
    """Peak traced memory of the oracle: three d x d arrays for H plus at
    most 512 bytes per row of one stacked pass, although the probes hold
    several times the cap (all of them in one pass take about 12 MB here)."""
    case = make_case("honeycomb-torus", 64)
    basis, _ = reduced_basis_fields(case.chart, case.net)
    fd_hessian(case.chart, case.net, basis, refine=8)  # the operator caches
    n_probes = 2 * (basis.n_vertex + len(jac._hat_groups(basis, case.net, 8)))
    assert n_probes * fine_rows(case.net, 8) > 4 * jac.MAX_STACKED_ROWS
    tracemalloc.start()
    try:
        h_mat = fd_hessian(case.chart, case.net, basis, refine=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * h_mat.nbytes + 512 * jac.MAX_STACKED_ROWS


# -- one basis, many coefficient rows -------------------------------------------

@pytest.mark.parametrize("name", ("interleaved", "theta3d", "sphere-equator"))
def test_basis_of_stacked_copies_is_each_copy_alone_bitwise(name):
    """B and B^T over K stacked coefficient rows (the fd_hessian probes)
    equal, bitwise, B and B^T of every row alone."""
    chart, net = jittered(name, n_samples=32)
    basis, _ = jac.reduced_gradient(chart, net)
    rng = np.random.default_rng(5)
    coefs = rng.normal(size=(3, len(basis)))
    moved = basis.apply_many(coefs)
    gradients = [rng.normal(size=stack.shape) for stack in moved]
    pulled = basis.pullback_many(gradients)
    for c in range(len(coefs)):
        rows = [slice(c * len(ids), (c + 1) * len(ids)) for ids in basis.ids]
        for got, want in zip([m[r] for m, r in zip(moved, rows)], basis.apply_many(coefs[c : c + 1])):
            assert np.array_equal(got, want)
        assert np.array_equal(pulled[c], basis.pullback_many([g[r] for g, r in zip(gradients, rows)])[0])
    if name == "interleaved":
        assert [len(ids) for ids in basis.ids] == [2, 1]
        assert list(basis.hat_offset) == ["E1", "E2", "E3"]
