"""The reduced map B and the assembled exact Hessian builder.

The references here are a per-column build (one NetField per reduced
column, one exact Hessian-vector product per column, paired with every
field) and central differences of full gradients, whose error must fall
as the step squared down to the exact product.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import edge_frames, jitter_net, jittered, upsample_matrix

from geodesicnets import (
    DirectionalBumpField, RadialBumpField, ScalarField, conformal_family, make_case,
)
from geodesicnets import stencils
from geodesicnets import jacobi as jac
from geodesicnets.jacobi import length_hessian, parallel_frame, reduced_basis_fields
from geodesicnets.multigraph import GraphClass, classify
from geodesicnets.net import GeodesicNet, NetField, displace
from geodesicnets.solver import _anchor_spline_data
from geodesicnets.variation import integrate_length_terms, length_sample_gradient

CASES = ("honeycomb-torus", "sphere-theta", "sphere-equator")
NETS = CASES + ("flat-loop", "theta3d", "interleaved")


class RefinedLength:
    """Exact Hessian-vector products of the refined-grid length, one probe
    at a time: the reference of ``length_hessian``.

    The fine samples are the upsampled net x0 plus T (the dense reference
    ``upsample_matrix``) times the displacement, and the coarse gradient is
    T^T times the fine one; at refine 1, T is the identity and is not
    formed.  Only the ``length_integrand`` is nonlinear, so a probe delta
    takes dx = T delta, dv = D dx, the derivatives of the terms at x0 and
    v0 = D x0, the linear part and T^T, each once.  With speed s = e^phi
    |v|, vh = v / |v|, p = grad(phi).dx and q = vh.dv: ds = s (p + q / |v|),
    da = w (ds grad(phi) + s Hess(phi) dx) and du = e^phi (p vh + (dv - q
    vh) / |v|)."""

    def __init__(self, chart, net, refine):
        self.groups = net.edge_groups()
        self.base = []
        for grp in self.groups:
            x0 = stencils.upsample_curve(grp.samples, refine, loop=grp.loop)
            v0 = stencils.velocity(x0, loop=grp.loop)
            w = stencils.quadrature_weights(x0.shape[1], loop=grp.loop)
            lam, dphi, ddphi = chart.factor_jet_many(x0.reshape(-1, x0.shape[-1]), 2)
            ef = np.sqrt(lam).reshape(x0.shape[:2])
            inv = 1.0 / np.linalg.norm(v0, axis=-1)
            ws = w * ef / inv
            self.base.append((w, ef, inv, ws, dphi.reshape(x0.shape), v0 * inv[..., None],
                              ws[..., None, None] * ddphi.reshape(x0.shape + x0.shape[-1:])))
        # linear part only: displacement fields never wrap
        self.t_mats = [None if refine == 1 else
                       upsample_matrix(grp.samples.shape[1], refine, grp.loop)
                       for grp in self.groups]

    def products(self, disp: list) -> list:
        """H delta in the coarse samples, for a displacement delta in the
        group layout of ``ReducedBasis``, (E, N+1, n) per group."""
        out = []
        for grp, base, t_mat, d in zip(self.groups, self.base, self.t_mats, disp):
            dx = d if t_mat is None else t_mat @ d
            dv = stencils.velocity(dx, loop=grp.loop)
            grad = integrate_length_terms(*integrand_derivative(base, dx, dv), base[0],
                                          grp.loop, grp.multiplicities)
            out.append(grad if t_mat is None else t_mat.T @ grad)
        return out


def integrand_derivative(base, dx, dv):
    """(da, du), the derivatives of the ``length_integrand`` terms a and u
    at the base of ``RefinedLength`` in the directions (dx, dv), (E, M, n),
    one coordinate at a time."""
    _, ef, inv, ws, dphi, vh, ws_hess = base
    n = dx.shape[-1]
    p = sum(dphi[..., i] * dx[..., i] for i in range(n))
    q = sum(vh[..., i] * dv[..., i] for i in range(n))
    w_ds, t = ws * (p + q * inv), ef * (p - q * inv)
    da, du = np.empty(dx.shape), np.empty(dx.shape)
    for i in range(n):
        da[..., i] = w_ds * dphi[..., i] + sum(ws_hess[..., i, j] * dx[..., j] for j in range(n))
        du[..., i] = t * vh[..., i] + ef * inv * dv[..., i]
    return da, du


def reference_fields(chart, net):
    """The reduced basis as one NetField per column, built column by column."""
    n = net.dim
    fields = []
    frames_by_edge = {}
    for e in net.graph.edges:
        s = net.edge_samples[e.id]
        v = stencils.velocity(s, loop=e.id in net.periodic_edges)
        frames_by_edge[e.id] = parallel_frame(chart, s, v, chart.factor_jet_many(s, 0)[0])

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
    return basis.pullback(stacked(net, grad))


def reference_oracle(chart, net, refine=8):
    """Per-column reduced Hessian: one Hessian-vector product per column,
    paired with every field."""
    fields = reference_fields(chart, net)
    functional = RefinedLength(chart, net, refine)
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
    functional = RefinedLength(chart, net, 1)
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
        t_mats[e.id] = upsample_matrix(s.shape[0], refine, loop)
        fine[e.id] = (stencils.upsample_curve(s, refine, loop=loop)
                      + t_mats[e.id] @ disp.edge_values[e.id])
    fine_net = GeodesicNet(graph=net.graph, edge_samples=fine,
                           vertex_positions=net.vertex_positions,
                           periodic_edges=net.periodic_edges)
    return {e: t_mats[e].T @ g for e, g in length_sample_gradient(chart, fine_net).items()}


def two_gradient_fd_hessian(chart, net, basis, step, refine=1):
    """The reduced Hessian from central differences of two full gradients
    per column, each pulled back alone and then subtracted."""
    def difference(j):
        coef = np.zeros(len(basis))
        coef[j] = step
        gp = pullback(net, basis, fine_net_gradient(chart, net, refine, basis.apply(coef)))
        gm = pullback(net, basis, fine_net_gradient(chart, net, refine, basis.apply(-coef)))
        return (gp - gm) / (2 * step)

    h_mat = np.stack([difference(j) for j in range(len(basis))], axis=1)
    return 0.5 * (h_mat + h_mat.T)


def assert_matches(h_new, h_ref):
    """Every entry within 1e-14 of max|H|, and H exactly symmetric."""
    assert h_new.shape == h_ref.shape
    assert np.array_equal(h_new, h_new.T)
    assert np.abs(h_new - h_ref).max() <= 1e-14 * np.abs(h_ref).max()


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
    """The oracle's builder on the built-in nets as they are, against one
    exact product per column."""
    case = make_case(name, n_samples)
    basis, _ = reduced_basis_fields(case.chart, case.net)
    assert_matches(length_hessian(case.chart, case.net, basis, refine=refine),
                   reference_oracle(case.chart, case.net, refine=refine))


@pytest.mark.parametrize("name", NETS + ("radial", "directional"))
@pytest.mark.parametrize("refine", (1, 2, 8))
def test_assembled_hessian_matches_the_per_column_reference(name, refine):
    """The assembly against one exact product per column, on jittered nets
    of every edge kind (loops, 3-space, two interleaved edge groups) and on
    both bumped charts, at every refinement."""
    if name in ("radial", "directional"):
        chart, net = bumped(name, 24)
        net = jitter_net(net, np.random.default_rng(8), amp=0.02)
    else:
        chart, net = jittered(name)
    basis, _ = reduced_basis_fields(chart, net)
    assert_matches(length_hessian(chart, net, basis, refine=refine),
                   reference_oracle(chart, net, refine=refine))


def test_newton_matrix_matches_per_column_build():
    case = make_case("honeycomb-torus", 32)
    rng = np.random.default_rng(11)
    basis, _ = reduced_basis_fields(case.chart, case.net)
    coef = np.zeros(len(basis))
    coef[basis.n_vertex:] = 1e-3 * rng.normal(size=len(basis) - basis.n_vertex)
    net = displace(case.net, basis.apply(coef), 1.0)
    basis, _ = reduced_basis_fields(case.chart, net)
    assert_matches(length_hessian(case.chart, net, basis, refine=1), reference_newton(case.chart, net))


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
        want = parallel_frame(chart, s, stencils.velocity(s, loop=loop), chart.factor_jet_many(s, 0)[0])
        assert np.array_equal(frames[e], want)
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
def test_refined_length_at_refine_one_uses_no_operator(name, monkeypatch):
    """At refine 1 the Newton matrix forms no upsampling operator: its
    windows hold the derivative band alone."""
    case = make_case(name, 24)
    net = jitter_net(case.net, np.random.default_rng(3), amp=0.02)
    basis, _ = reduced_basis_fields(case.chart, net)
    want = reference_newton(case.chart, net)

    def refuse(*args):
        raise AssertionError("upsample_operator at refine 1")

    monkeypatch.setattr(stencils, "upsample_operator", refuse)
    for grp in net.edge_groups():
        stencils.refined_windows.__wrapped__(grp.samples.shape[1], 1, grp.loop)
    assert_matches(length_hessian(case.chart, net, basis, refine=1), want)


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


def fine_rows(net, refine):
    return sum((s.shape[0] - 1) * refine + 1 for s in net.edge_samples.values())


@pytest.mark.parametrize("name", NETS)
@pytest.mark.parametrize("refine", (1, 2, 8))
def test_stacked_probes_match_the_per_probe_build_bitwise(name, refine, monkeypatch):
    """The bins of fine rows stacked into passes of ``HESSIAN_PASS_ROWS``
    give, bitwise, the H of one bin per pass: at the default cap, and at a
    cap that spreads the first group's bins over several passes, the last
    one short.  Vertex columns gather terms of every edge of a group, so
    this holds only if the terms are summed in one order."""
    chart, net = jittered(name)
    basis, _ = reduced_basis_fields(chart, net)
    monkeypatch.setattr(jac, "HESSIAN_PASS_ROWS", 1)
    want = length_hessian(chart, net, basis, refine=refine)
    monkeypatch.undo()
    assert np.array_equal(length_hessian(chart, net, basis, refine=refine), want)
    grp = net.edge_groups()[0]
    table = stencils.refined_windows(grp.samples.shape[1], refine, grp.loop)[1]
    bins, size = table.shape[0], table.shape[1] // 2
    k = next(k for k in range(2, bins) if bins % k)
    monkeypatch.setattr(jac, "HESSIAN_PASS_ROWS", k * len(grp.ids) * size)
    assert bins > k
    assert np.array_equal(length_hessian(chart, net, basis, refine=refine), want)


def counted(monkeypatch, owner, attr, log, name):
    """Count the calls of owner.attr into log[name]."""
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        log[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)


@pytest.mark.parametrize("name", CASES)
def test_assembly_evaluates_each_map_once_per_group(name, monkeypatch):
    """One upsampling, one SBP derivative and one factor jet per edge
    group: the per-sample blocks are evaluated once, and no Hessian-vector
    product is made."""
    case = make_case(name, 32)
    basis, _ = reduced_basis_fields(case.chart, case.net)
    log = dict.fromkeys(["T", "D", "jet"], 0)
    counted(monkeypatch, stencils, "upsample_curve", log, "T")
    counted(monkeypatch, stencils, "velocity", log, "D")
    counted(monkeypatch, case.chart, "factor_jet_many", log, "jet")
    length_hessian(case.chart, case.net, basis, refine=8)
    groups = len(case.net.edge_groups())
    assert log == {"T": groups, "D": groups, "jet": groups}


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
    """The central differences of two full gradients per column converge
    to the exact Hessian as the step squared."""
    chart, net = jittered(name)
    basis, _ = reduced_basis_fields(chart, net)
    exact = length_hessian(chart, net, basis, refine=refine)
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
    got = per_edge(net, RefinedLength(chart, net, 8).products(stacked(net, disp.edge_values)))
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
    exact = length_hessian(chart, net, basis, refine=1) @ coef

    def gradient(h):
        moved = displace(net, basis.apply(coef), h)
        return pullback(net, basis, length_sample_gradient(chart, moved))

    assert_falls_as_step_squared(fd_errors(exact, gradient, (1e-2, 1e-3, 1e-4)), exact)


def test_assembly_stays_within_its_memory_bound():
    """Peak traced memory of the oracle on honeycomb-torus at N = 64, its
    window table cached: three d x d arrays plus 512 bytes per fine sample
    row of its edge group (1.67 MB; the column-compressed builder it
    replaced peaked at 1.19 MB)."""
    case = make_case("honeycomb-torus", 64)
    basis, _ = reduced_basis_fields(case.chart, case.net)
    length_hessian(case.chart, case.net, basis, refine=8)  # the window table caches
    tracemalloc.start()
    try:
        h_mat = length_hessian(case.chart, case.net, basis, refine=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * h_mat.nbytes + 512 * fine_rows(case.net, 8)
