import numpy as np
import pytest

from geodesicnets import stencils as st


def test_sbp_pair_identity_exact():
    n, h = 41, 1.0 / 40
    d_mat, w = st.sbp42(n, h)
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
    d_mat, _ = st.sbp42(n, 1 / (n - 1))
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


def test_second_derivative_smooth():
    n = 65
    t = np.linspace(0, 1, n)
    f = np.cos(3 * t)
    d2 = st.second_derivative(f)
    assert np.abs(d2 + 9 * np.cos(3 * t)).max() < 1e-5


def test_endpoint_first_derivative_matches():
    t = np.linspace(0, 1, 65)
    f = np.exp(0.7 * t)
    assert abs(st.endpoint_first_derivative(f, 0) - 0.7) < 1e-9
    assert abs(st.endpoint_first_derivative(f, 1) - 0.7 * np.exp(0.7)) < 1e-9


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


def test_cached_operators_are_read_only():
    t_mat, c_vec = st.upsample_operator(33, 4, True)
    d_mat, w = st.sbp42(33, 1 / 32)
    d_per = st.periodic_diff_matrix(32, 1 / 32)
    for arr in (t_mat, c_vec, d_mat, w, d_per):
        with pytest.raises(ValueError):
            arr[0] += 1.0
