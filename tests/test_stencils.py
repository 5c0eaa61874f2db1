import numpy as np
import pytest

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
    return st.velocity(np.eye(n))


def test_sbp_pair_identity_exact():
    n, h = 41, 1.0 / 40
    d_mat, w = _banded_matrix(n), st.quadrature_weights(n, h)
    q = np.diag(w) @ d_mat
    b = q + q.T
    expect = np.zeros((n, n))
    expect[0, 0] = -1.0
    expect[-1, -1] = 1.0
    assert np.abs(b - expect).max() < 1e-14


def test_quadrature_weights_sum():
    w = st.quadrature_weights(65, 1 / 64)
    assert abs(w.sum() - 1.0) < 1e-14
    wl = st.quadrature_weights(65, 1 / 64, loop=True)
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
        v = st.velocity(c, loop_shift=np.zeros(2))
        vt = 2 * np.pi * np.stack([-np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)], axis=1)
        errs.append(np.abs(v - vt).max())
    order = np.log2(errs[0] / errs[1])
    assert order > 3.7


def test_velocity_ho_endpoint_accuracy():
    n = 65
    t = np.linspace(0, 1, n)
    f = np.sin(2.0 * t + 0.3)
    v = st.velocity_ho(f)
    assert abs(v[0] - 2.0 * np.cos(0.3)) < 1e-8
    assert abs(v[-1] - 2.0 * np.cos(2.3)) < 1e-8


def test_endpoint_first_derivative_matches():
    t = np.linspace(0, 1, 65)
    f = np.exp(0.7 * t)
    v = st.velocity_ho(f)
    assert abs(v[0] - 0.7) < 1e-9
    assert abs(v[-1] - 0.7 * np.exp(0.7)) < 1e-9


@pytest.mark.parametrize("n", [12, 13, 33, 65, 513])
def test_banded_velocity_matches_dense_reference(n):
    rng = np.random.default_rng(n)
    d_mat = _sbp42_reference(n, 1.0 / (n - 1))
    for x in (rng.normal(size=n), rng.normal(size=(n, 3))):
        ref = d_mat @ x
        assert np.abs(st.velocity(x) - ref).max() <= 1e-15 * np.abs(ref).max()


def test_open_grids_below_the_floor_are_refused():
    for n in (st.MIN_SAMPLES - 1, 5):
        with pytest.raises(ValueError, match="at least"):
            st.velocity(np.zeros((n, 2)))
        with pytest.raises(ValueError, match="at least"):
            st.quadrature_weights(n, 1.0 / (n - 1))


def test_upsample_preserves_nodes_and_accuracy():
    t = np.linspace(0, 1, 33)
    c = np.stack([t, np.sin(2 * t)], axis=1)
    fine = st.upsample_curve(c, 4)
    assert np.abs(fine[::4] - c).max() == 0.0
    tf = np.linspace(0, 1, 129)
    assert np.abs(fine[:, 1] - np.sin(2 * tf)).max() < 5e-9


def test_upsample_loop_through_seam():
    n = 32
    t = np.arange(n + 1) / n
    shift = np.array([2.0, 0.0])
    c = np.stack([2 * t, np.sin(2 * np.pi * t)], axis=1)
    fine = st.upsample_curve(c, 4, loop_shift=shift)
    tf = np.arange(4 * n + 1) / (4 * n)
    assert np.abs(fine[:, 1] - np.sin(2 * np.pi * tf)).max() < 1e-6


def test_fornberg_interpolation_weights():
    x = np.arange(6.0)
    w = st.fd_weights(2.5, x, 0)
    f = x**4 - 2 * x + 1
    assert abs(w @ f - (2.5**4 - 2 * 2.5 + 1)) < 1e-10


def _upsample_reference(samples, factor, loop_shift=None):
    """Sample-by-sample 6-point Lagrange upsampling, one Fornberg call per point."""
    n = samples.shape[0]
    m = (n - 1) * factor
    pad = 3
    if loop_shift is not None:
        ext = st._extend_loop(samples, loop_shift, pad)
        base = pad
    else:
        ext = samples
        base = 0
    out = np.empty((m + 1,) + samples.shape[1:], dtype=float)
    out[::factor] = samples
    for r in range(1, factor):
        tau = r / factor
        for k in range(n - 1):
            lo = base + k - 2
            hi = lo + 6
            if loop_shift is None:
                lo = min(max(lo, 0), n - 6)
                hi = lo + 6
                xi = (base + k + tau) - lo
            else:
                xi = 2.0 + tau
            wgt = st.fd_weights(xi, np.arange(6, dtype=float), 0)
            out[k * factor + r] = np.tensordot(wgt, ext[lo:hi], axes=(0, 0))
    return out


@pytest.mark.parametrize("loop", [False, True])
@pytest.mark.parametrize("factor", [2, 4, 8])
@pytest.mark.parametrize("n", [12, 33, 65])
def test_upsample_operator_matches_reference(n, factor, loop):
    t_mat, c_vec = st.upsample_operator(n, factor, loop)
    shift = np.zeros(1) if loop else None
    ref_t = np.stack(
        [_upsample_reference(col[:, None], factor, loop_shift=shift)[:, 0] for col in np.eye(n)],
        axis=1,
    )
    if loop:
        ref_c = _upsample_reference(np.zeros((n, 1)), factor, loop_shift=np.ones(1))[:, 0]
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
    shift = None
    if loop:
        shift = np.array([1.0, -0.5])
        samples[-1] = samples[0] + shift
    fine = st.upsample_curve(samples, factor, loop_shift=shift)
    t = np.arange(fine.shape[0]) / (fine.shape[0] - 1)
    assert np.abs(st.evaluate_curve(samples, t, loop_shift=shift) - fine).max() < 1e-14


def test_running_integral_and_inverse_interpolation():
    # the 6-point interpolant reproduces polynomials of degree 5
    t = np.linspace(0.0, 1.0, 41)
    f = 1.0 + t**5 - 0.5 * t**2
    exact = t + t**6 / 6.0 - t**3 / 6.0
    assert np.abs(st.running_integral(f) - exact).max() < 1e-14
    # a loop value sequence integrates through the seam; its mean is exact
    per = 2.0 + np.sin(2.0 * np.pi * t)
    assert abs(st.running_integral(per, loop=True)[-1] - 2.0) < 1e-14
    # the parameters at which an increasing map reaches given values, off the nodes
    targets = np.random.default_rng(3).uniform(0.0, np.sinh(1.0), 50)
    assert np.abs(st.inverse_interpolate(np.sinh(t), targets) - np.arcsinh(targets)).max() < 1e-9


@pytest.mark.parametrize("loop", [False, True])
def test_stacked_edges_match_single_edges_bitwise(loop):
    """A group of edges with one sample count gives every edge the bits it
    gets alone, for each operator the arc-length reparametrization uses."""
    rng = np.random.default_rng(11)
    n, edges = 33, 3
    curves = rng.normal(size=(edges, n, 2))
    shifts = None
    if loop:
        shifts = rng.normal(size=(edges, 2))
        curves[:, -1] = curves[:, 0] + shifts
    values = np.cumsum(rng.uniform(0.5, 1.5, size=(edges, 4 * n)), axis=1)
    targets = np.sort(rng.uniform(values[:, :1], values[:, -1:], size=(edges, 20)), axis=1)
    t = np.sort(rng.uniform(0.0, 1.0, size=(edges, 20)), axis=1)
    stacked = {
        "velocity": st.velocity(curves, loop_shift=shifts),
        "upsample": st.upsample_curve(curves, 8, loop_shift=shifts),
        "evaluate": st.evaluate_curve(curves, t, loop_shift=shifts),
        "integral": st.running_integral(values, loop=loop),
        "inverse": st.inverse_interpolate(values, targets),
    }
    for e in range(edges):
        shift = None if shifts is None else shifts[e]
        alone = {
            "velocity": st.velocity(curves[e], loop_shift=shift),
            "upsample": st.upsample_curve(curves[e], 8, loop_shift=shift),
            "evaluate": st.evaluate_curve(curves[e], t[e], loop_shift=shift),
            "integral": st.running_integral(values[e], loop=loop),
            "inverse": st.inverse_interpolate(values[e], targets[e]),
        }
        for name, got in stacked.items():
            assert np.array_equal(got[e], alone[name]), name


def test_cached_operators_are_read_only():
    t_mat, c_vec = st.upsample_operator(33, 4, True)
    for arr in (t_mat, c_vec, st._weights6(1), st._weights6(2), st._cell_integrals(),
                st._window_starts(33, False), st._window_starts(33, True),
                st._node_denominators()):
        with pytest.raises(ValueError):
            arr[0] += 1


def test_fixed_node_row_weights_match_explicit_rows():
    x = np.random.default_rng(4).uniform(0.0, 5.0, 40)
    rows = np.broadcast_to(st._NODES, (x.size, st._NODES.size))
    assert np.array_equal(st._lagrange(x), st._lagrange(x, rows))


def _brute_coupling(n, factor, loop):
    """Coarse coupling of the refined length from dense boolean products."""
    t_mat, _ = st.upsample_operator(n, factor, loop)
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


@pytest.mark.parametrize("loop", (False, True))
@pytest.mark.parametrize("n", (13, 24))
@pytest.mark.parametrize("factor", (1, 2, 8))
def test_hessian_coupling_covers_brute_force_pattern(n, factor, loop):
    brute = _brute_coupling(n, factor, loop)
    lo, hi = st.hessian_coupling(n, factor, loop)
    size = brute.shape[0]
    windows = np.zeros_like(brute)
    for p in range(size):
        windows[p, np.arange(lo[p], hi[p] + 1) % size] = True
    assert not np.any(brute & ~windows)
    if loop:
        assert np.array_equal(windows, brute)
