import tracemalloc

import numpy as np
import pytest

from conftest import extend_reference, upsample_matrix, upsample_reference

from geodesicnets import stencils as st


def _sbp42_reference(n, h):
    """Dense SBP(4,2) derivative matrix, row by row from its coefficient blocks."""
    d_mat = np.zeros((n, n))
    for i in range(4):
        d_mat[i, :6] = st._SBP42_ROWS[i]
        d_mat[n - 1 - i, n - 6 :] = -st._SBP42_ROWS[i][::-1]
    for i in range(4, n - 4):
        d_mat[i, i - 2 : i + 3] = st._CENTRAL4
    return d_mat / h


def _banded_matrix(n):
    """D as the banded layer applies it: its action on the unit vectors."""
    return st.velocity(np.eye(n), loop=False)


def test_sbp_pair_identity_exact():
    n = 41
    d_mat, w = _banded_matrix(n), st.quadrature_weights(n, loop=False)
    q = np.diag(w) @ d_mat
    b = q + q.T
    expect = np.zeros((n, n))
    expect[0, 0] = -1.0
    expect[-1, -1] = 1.0
    assert np.abs(b - expect).max() < 1e-14


def test_quadrature_weights_sum():
    w = st.quadrature_weights(65, loop=False)
    assert abs(w.sum() - 1.0) < 1e-14
    wl = st.quadrature_weights(65, loop=True)
    assert abs(wl.sum() - 1.0) < 1e-14


def test_derivative_exact_on_quadratics_and_interior_cubics():
    n = 33
    t = np.linspace(0, 1, n)
    d_mat = _banded_matrix(n)
    f2 = 3 * t**2 - t + 0.5
    assert np.abs(d_mat @ f2 - (6 * t - 1)).max() < 1e-11
    f3 = 2 * t**3 - t**2 + 0.5 * t - 1
    df3 = 6 * t**2 - 2 * t + 0.5
    assert np.abs((d_mat @ f3 - df3)[4:-4]).max() < 1e-11


def test_periodic_velocity_order():
    errs = []
    for n in (32, 64):
        t = np.arange(n + 1) / n
        c = np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], axis=1)
        v = st.velocity(c, loop=True)
        vt = 2 * np.pi * np.stack([-np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)], axis=1)
        errs.append(np.abs(v - vt).max())
    order = np.log2(errs[0] / errs[1])
    assert order > 3.7


def test_derivative_ho_endpoint_accuracy():
    # every row of both orders, the one-sided end rows of the open edge included
    t = np.linspace(0, 1, 65)
    f = np.sin(2.0 * t + 0.3)[:, None]
    assert np.abs(st.derivative_ho(f, 1, loop=False)[:, 0] - 2.0 * np.cos(2.0 * t + 0.3)).max() < 1e-8
    assert np.abs(st.derivative_ho(f, 2, loop=False)[:, 0] + 4.0 * f[:, 0]).max() < 1e-6


def test_endpoint_first_derivative_matches():
    t = np.linspace(0, 1, 65)
    f = np.exp(0.7 * t)[:, None]
    v = st.derivative_ho(f, 1, loop=False)[:, 0]
    assert abs(v[0] - 0.7) < 1e-9
    assert abs(v[-1] - 0.7 * np.exp(0.7)) < 1e-9


@pytest.mark.parametrize("n", [12, 13, 33, 65, 513])
def test_banded_velocity_matches_dense_reference(n):
    rng = np.random.default_rng(n)
    d_mat = _sbp42_reference(n, 1.0 / (n - 1))
    for x in (rng.normal(size=(n, 1)), rng.normal(size=(n, 3))):
        ref = d_mat @ x
        assert np.abs(st.velocity(x, loop=False) - ref).max() <= 1e-15 * np.abs(ref).max()


def test_open_grids_below_the_floor_are_refused():
    for n in (st.MIN_SAMPLES - 1, 5):
        with pytest.raises(ValueError, match="at least"):
            st.velocity(np.zeros((n, 2)), loop=False)
        with pytest.raises(ValueError, match="at least"):
            st.quadrature_weights(n, loop=False)


def test_upsample_preserves_nodes_and_accuracy():
    t = np.linspace(0, 1, 33)
    c = np.stack([t, np.sin(2 * t)], axis=1)
    fine = st.upsample_curve(c, 4, loop=False)
    assert np.abs(fine[::4] - c).max() == 0.0
    tf = np.linspace(0, 1, 129)
    assert np.abs(fine[:, 1] - np.sin(2 * tf)).max() < 5e-9


def test_upsample_loop_through_seam():
    n = 32
    t = np.arange(n + 1) / n
    # the lift advances by (2, 0) over one turn
    c = np.stack([2 * t, np.sin(2 * np.pi * t)], axis=1)
    fine = st.upsample_curve(c, 4, loop=True)
    tf = np.arange(4 * n + 1) / (4 * n)
    assert np.abs(fine[:, 1] - np.sin(2 * np.pi * tf)).max() < 1e-6


@pytest.mark.parametrize("factor", [2, 3, 8])
@pytest.mark.parametrize("loop", [False, True])
def test_upsampling_returns_the_coarse_samples_bitwise(loop, factor):
    """Every factor-th fine sample is the coarse sample itself, bit for bit,
    for stacked edges and for one edge alone."""
    rng = np.random.default_rng(factor)
    curves = rng.normal(size=(3, 33, 2))
    if loop:
        curves[:, -1] = curves[:, 0] + rng.normal(size=(3, 2))
    assert np.array_equal(st.upsample_curve(curves, factor, loop)[..., ::factor, :], curves)
    for edge in curves:
        assert np.array_equal(st.upsample_curve(edge, factor, loop)[::factor], edge)


@pytest.mark.parametrize("loop", [False, True])
def test_upsampling_forms_no_fine_by_coarse_array(loop):
    """Cold builds of the upsampling map and the refined windows at N = 1025
    and factor 8 stay far below the 67 MB of a dense T."""
    n, factor = 1025, 8
    samples = np.random.default_rng(1).normal(size=(n, 2))
    for run in (lambda: st.upsample_curve(samples, factor, loop),
                lambda: st.refined_windows.__wrapped__(n, factor, loop)):
        st.upsample_operator.cache_clear()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def test_fornberg_interpolation_weights():
    x = np.arange(6.0)
    w = st.fd_weights(2.5, x, 0)
    f = x**4 - 2 * x + 1
    assert abs(w @ f - (2.5**4 - 2 * 2.5 + 1)) < 1e-10


def _scatter_upsample(n, factor, loop):
    """T and c of fine = T x + c * shift, scattered from the banded pieces of
    ``upsample_operator``: on loops, an extended column before the first
    sample or past the last reads the sample one period away, shifted."""
    cols, wgt = st.upsample_operator(n, factor, loop)
    at = cols - st._BACK if loop else cols
    seam = (at > n - 1).astype(int) - (at < 0)
    t_mat = np.zeros(((n - 1) * factor + 1, n))
    c_vec = np.zeros(t_mat.shape[0])
    for k in range(n - 1):
        rows = k * factor + np.arange(factor + 1)
        t_mat[rows[:, None], at[k] - (n - 1) * seam[k]] = wgt[k]
        c_vec[rows] = wgt[k] @ seam[k]
    return t_mat, c_vec


@pytest.mark.parametrize("loop", [False, True])
@pytest.mark.parametrize("factor", [2, 4, 8])
@pytest.mark.parametrize("n", [12, 33, 65])
def test_upsample_operator_matches_reference(n, factor, loop):
    t_mat, c_vec = _scatter_upsample(n, factor, loop)
    ref_t = upsample_matrix(n, factor, loop)
    if loop:
        ref_c = upsample_reference(np.zeros((n, 1)), factor, loop_shift=np.ones(1))[:, 0]
    else:
        ref_c = np.zeros(ref_t.shape[0])
    assert np.array_equal(t_mat, ref_t)
    assert np.array_equal(c_vec, ref_c)


@pytest.mark.parametrize("loop", [False, True])
@pytest.mark.parametrize("factor", [2, 8])
@pytest.mark.parametrize("n", [12, 33, 65])
def test_point_evaluation_matches_upsampling(n, factor, loop):
    rng = np.random.default_rng(n * factor)
    samples = rng.normal(size=(n, 2))
    if loop:
        samples[-1] = samples[0] + np.array([1.0, -0.5])
    fine = st.upsample_curve(samples, factor, loop=loop)
    t = np.arange(fine.shape[0]) / (fine.shape[0] - 1)
    assert np.abs(st.evaluate_curve(samples, t, loop=loop) - fine).max() < 1e-14


def test_running_integral_and_inverse_interpolation():
    # the 6-point interpolant reproduces polynomials of degree 5
    t = np.linspace(0.0, 1.0, 41)
    f = 1.0 + t**5 - 0.5 * t**2
    exact = t + t**6 / 6.0 - t**3 / 6.0
    assert np.abs(st.running_integral(f, loop=False) - exact).max() < 1e-14
    # a loop value sequence integrates through the seam; its mean is exact
    per = 2.0 + np.sin(2.0 * np.pi * t)
    assert abs(st.running_integral(per, loop=True)[-1] - 2.0) < 1e-14
    # the parameters at which an increasing map reaches given values, off the nodes
    targets = np.random.default_rng(3).uniform(0.0, np.sinh(1.0), 50)
    assert np.abs(st.inverse_interpolate(np.sinh(t), targets) - np.arcsinh(targets)).max() < 1e-9


def _curve_operators(curves, t, loop):
    """Every edge-grid operator on curves (..., N+1, d), at parameters t (..., P)."""
    return {
        "velocity": st.velocity(curves, loop=loop),
        "derivative_ho 1": st.derivative_ho(curves, 1, loop=loop),
        "derivative_ho 2": st.derivative_ho(curves, 2, loop=loop),
        "upsample": st.upsample_curve(curves, 8, loop=loop),
        "evaluate": st.evaluate_curve(curves, t, loop=loop),
    }


@pytest.mark.parametrize("loop", [False, True])
def test_stacked_edges_match_single_edges_bitwise(loop):
    """A group of edges with one sample count gives every edge the bits it
    gets alone, for every edge-grid operator."""
    rng = np.random.default_rng(11)
    n, edges = 33, 3
    curves = rng.normal(size=(edges, n, 2))
    if loop:
        curves[:, -1] = curves[:, 0] + rng.normal(size=(edges, 2))
    values = np.cumsum(rng.uniform(0.5, 1.5, size=(edges, 4 * n)), axis=1)
    targets = np.sort(rng.uniform(values[:, :1], values[:, -1:], size=(edges, 20)), axis=1)
    t = np.sort(rng.uniform(0.0, 1.0, size=(edges, 20)), axis=1)
    stacked = {
        **_curve_operators(curves, t, loop),
        "integral": st.running_integral(values, loop=loop),
        "inverse": st.inverse_interpolate(values, targets),
    }
    for e in range(edges):
        alone = {
            **_curve_operators(curves[e], t[e], loop),
            "integral": st.running_integral(values[e], loop=loop),
            "inverse": st.inverse_interpolate(values[e], targets[e]),
        }
        assert stacked.keys() == alone.keys()
        for name, got in stacked.items():
            assert got.shape[1:] == alone[name].shape, name
            assert np.array_equal(got[e], alone[name]), name


def _seam_reference(curves, t, shift, monkeypatch):
    """The loop operators with every seam continued by the explicit shifts
    (..., d) instead of the shifts read from the samples."""
    with monkeypatch.context() as m:
        m.setattr(st, "_extend_loop", lambda samples, pad: extend_reference(samples, shift, pad))
        return _curve_operators(curves, t, True)


@pytest.mark.parametrize("edges", [None, 4])
def test_loop_operators_read_the_lattice_shift_from_the_samples(edges, monkeypatch):
    """On loop curves whose closing sample is the first plus a nonzero lattice
    shift, every operator equals the explicit-shift reference bitwise.  The
    samples are dyadic, so the closing row holds the shift exactly."""
    rng = np.random.default_rng(5)
    lead = () if edges is None else (edges,)
    curves = rng.integers(-256, 256, size=lead + (33, 2)) / 64.0
    shift = rng.choice([-2.0, -1.0, 1.0, 3.0], size=lead + (2,))
    curves[..., -1, :] = curves[..., 0, :] + shift
    t = rng.uniform(0.0, 1.0, size=lead + (25,))
    ref = _seam_reference(curves, t, shift, monkeypatch)
    for name, got in _curve_operators(curves, t, True).items():
        assert np.array_equal(got, ref[name]), name


@pytest.mark.parametrize("edges", [None, 4])
def test_loop_field_with_repeated_seam_row_does_not_wrap(edges, monkeypatch):
    """A field along a loop repeats its seam row: every operator gives the
    bits of the zero-shift extension."""
    rng = np.random.default_rng(6)
    lead = () if edges is None else (edges,)
    field = rng.normal(size=lead + (33, 3))
    field[..., -1, :] = field[..., 0, :]
    t = rng.uniform(0.0, 1.0, size=lead + (25,))
    ref = _seam_reference(field, t, np.zeros(lead + (3,)), monkeypatch)
    for name, got in _curve_operators(field, t, True).items():
        assert np.array_equal(got, ref[name]), name


def test_cached_operators_are_read_only():
    for arr in (*st.upsample_operator(33, 4, True), *st.upsample_operator(33, 4, False),
                *st._cell_layout(33, True), st._weights6(1), st._weights6(2), st._cell_integrals(),
                st._window_starts(33, False), st._window_starts(33, True),
                st._node_denominators()):
        with pytest.raises(ValueError):
            arr[0] += 1


def test_gauss_rule_is_numpys_leggauss_bitwise():
    gx, gw = np.polynomial.legendre.leggauss(3)
    assert np.array_equal(st._GAUSS3_NODES, gx)
    assert np.array_equal(st._GAUSS3_WEIGHTS, gw)


def test_fixed_node_row_weights_match_explicit_rows():
    x = np.random.default_rng(4).uniform(0.0, 5.0, 40)
    rows = np.broadcast_to(st._NODES, (x.size, st._NODES.size))
    assert np.array_equal(st._lagrange(x), st._lagrange(x, rows))


def _brute_coupling(n, factor, loop):
    """Coarse coupling of the refined length from dense boolean products."""
    t_mat = upsample_matrix(n, factor, loop)
    moved = (t_mat != 0).astype(int)
    n_fine = t_mat.shape[0]
    if loop:
        # identify the duplicated seam sample with sample 0, coarse and fine
        fold_c = np.eye(n, n - 1, dtype=int) + np.eye(n, n - 1, k=-(n - 1), dtype=int)
        fold_f = np.eye(n_fine, n_fine - 1, dtype=int) + np.eye(n_fine, n_fine - 1,
                                                                 k=-(n_fine - 1), dtype=int)
        moved = fold_f.T @ moved @ fold_c
        reads = sum(np.roll(np.eye(n_fine - 1, dtype=int), k, axis=1) for k in range(-2, 3))
    else:
        d_mat = _sbp42_reference(n_fine, 1.0 / (n_fine - 1))
        reads = ((d_mat != 0) | np.eye(n_fine, dtype=bool)).astype(int)
    terms = (reads @ moved) > 0
    return (terms.T.astype(int) @ terms.astype(int)) > 0


def _dense_windows(n, factor, loop):
    """``refined_windows`` scattered back: the fine rows of T and D T over
    the coarse samples, the seam sample folded onto sample 0 on loops."""
    start, table = st.refined_windows(n, factor, loop)
    size = n - 1 if loop else n
    bins, rows, width = table.shape
    dense = np.zeros((bins * rows // 2, 2, size))
    for b, block in enumerate(table):
        for j in range(width):
            dense[b * rows // 2 : (b + 1) * rows // 2, :, (start[b] + j) % size] += \
                block[:, j].reshape(-1, 2)
    return dense


@pytest.mark.parametrize("loop", (False, True))
@pytest.mark.parametrize("n", (12, 25))
@pytest.mark.parametrize("factor", (1, 2, 3, 8))
def test_refined_windows_hold_the_rows_of_t_and_dt(n, factor, loop):
    """The window table is T and the SBP derivative of its columns (of
    fields that repeat the seam row, on loops) up to rounding, zero past
    the last fine row, and read-only."""
    t_mat = upsample_matrix(n, factor, loop)
    if loop:
        t_mat = t_mat @ np.vstack([np.eye(n - 1), np.eye(n - 1)[:1]])
    want = np.stack([t_mat, st.velocity(t_mat.T[..., None], loop=loop)[..., 0].T], axis=1)
    dense = _dense_windows(n, factor, loop)
    assert not dense[len(want):].any()
    assert np.abs(dense[: len(want)] - want).max() <= 1e-15 * np.abs(want).max()
    start, table = st.refined_windows(n, factor, loop)
    if not loop:
        assert start.min() >= 0 and start.max() + table.shape[2] <= n
    with pytest.raises(ValueError):
        table[0, 0, 0] = 1.0


@pytest.mark.parametrize("loop", (False, True))
@pytest.mark.parametrize("n", (13, 24))
@pytest.mark.parametrize("factor", (1, 2, 8))
def test_hessian_coupling_covers_brute_force_pattern(n, factor, loop):
    """Every two coarse samples that one term of the refined length
    couples share a bin window of ``refined_windows``."""
    brute = _brute_coupling(n, factor, loop)
    start, table = st.refined_windows(n, factor, loop)
    windows = np.zeros_like(brute)
    for b, block in enumerate(table):
        reach = (start[b] + np.flatnonzero(np.any(block != 0, axis=0))) % brute.shape[0]
        windows[np.ix_(reach, reach)] = True
    assert not np.any(brute & ~windows)
