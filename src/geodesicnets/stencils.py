"""Finite-difference stencils and quadrature on uniform edge grids.

Every edge of a net is sampled on a uniform parameter grid over [0, 1].
The first-derivative operator and the quadrature weights used for lengths
form a summation-by-parts pair, so the discrete integration-by-parts
identity holds exactly; this keeps discrete first variations equal to
exact derivatives of the discrete length.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "fd_weights",
    "sbp42",
    "periodic_diff_matrix",
    "quadrature_weights",
    "velocity",
    "velocity_ho",
    "second_derivative",
    "endpoint_first_derivative",
    "upsample_curve",
]


def fd_weights(xi: float, x: np.ndarray, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at ``xi`` on nodes ``x``.

    Fornberg's recursion; m = 0 gives interpolation weights.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if m >= n:
        raise ValueError("need more nodes than derivative order")
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - xi
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - xi
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m].copy()


# Diagonal-norm SBP(4,2) first-derivative coefficients: 4th-order interior,
# 2nd-order one-sided boundary rows, trapezoid-like norm with modified end
# weights.  Q + Q^T = diag(-1, 0, ..., 0, 1) holds exactly.
_SBP42_NORM = np.array([17.0 / 48.0, 59.0 / 48.0, 43.0 / 48.0, 49.0 / 48.0])
_SBP42_ROWS = np.array(
    [
        [-24.0 / 17.0, 59.0 / 34.0, -4.0 / 17.0, -3.0 / 34.0, 0.0, 0.0],
        [-1.0 / 2.0, 0.0, 1.0 / 2.0, 0.0, 0.0, 0.0],
        [4.0 / 43.0, -59.0 / 86.0, 0.0, 59.0 / 86.0, -4.0 / 43.0, 0.0],
        [3.0 / 98.0, 0.0, -59.0 / 98.0, 0.0, 32.0 / 49.0, -4.0 / 49.0],
    ]
)
_CENTRAL4 = np.array([1.0 / 12.0, -2.0 / 3.0, 0.0, 2.0 / 3.0, -1.0 / 12.0])


@lru_cache(maxsize=32)
def sbp42(n_samples: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense SBP(4,2) derivative matrix and quadrature weights for an open edge.

    Returns (D, w) with D of shape (n, n) and w of shape (n,), where
    n = ``n_samples``.  w sums exactly to (n - 1) * h.  Both cached arrays
    are read-only.
    """
    n = n_samples
    if n < 12:
        raise ValueError("open-edge grids need at least 12 samples")
    D = np.zeros((n, n))
    for i in range(4):
        D[i, :6] = _SBP42_ROWS[i]
        D[n - 1 - i, n - 6 :] = -_SBP42_ROWS[i][::-1]
    for i in range(4, n - 4):
        D[i, i - 2 : i + 3] = _CENTRAL4
    D /= h
    w = np.full(n, h)
    w[:4] = _SBP42_NORM * h
    w[-4:] = _SBP42_NORM[::-1] * h
    D.flags.writeable = False
    w.flags.writeable = False
    return D, w


@lru_cache(maxsize=32)
def periodic_diff_matrix(n_samples: int, h: float) -> np.ndarray:
    """4th-order central derivative matrix on a periodic grid.

    Acts on the n independent samples of a loop edge (the duplicated
    closing sample is excluded).  The cached matrix is read-only.
    """
    n = n_samples
    D = np.zeros((n, n))
    for i in range(n):
        for off, c in zip((-2, -1, 0, 1, 2), _CENTRAL4):
            D[i, (i + off) % n] += c
    D /= h
    D.flags.writeable = False
    return D


def quadrature_weights(n_samples: int, h: float, loop: bool = False) -> np.ndarray:
    """Quadrature weights matching the derivative operator on the same grid."""
    if loop:
        # closing sample duplicated: split its weight between the two copies
        w = np.full(n_samples, h)
        w[0] = 0.5 * h
        w[-1] = 0.5 * h
        return w
    _, w = sbp42(n_samples, h)
    return w.copy()


def _extend_loop(samples: np.ndarray, shift: np.ndarray | float, pad: int) -> np.ndarray:
    """Periodic extension of a loop edge's unwrapped samples.

    ``samples[-1]`` must equal ``samples[0] + shift``; the lift is continued
    on both sides by the same shift.
    """
    head = samples[-1 - pad : -1] - shift
    tail = samples[1 : 1 + pad] + shift
    return np.concatenate([head, samples, tail], axis=0)


def velocity(samples: np.ndarray, loop_shift=None) -> np.ndarray:
    """First parameter-derivative of samples on the unit interval.

    samples: (N+1, ...) array at parameters k/N.  For loop edges pass the
    lattice shift so periodic stencils are used across the seam.
    """
    n = samples.shape[0]
    h = 1.0 / (n - 1)
    if loop_shift is not None:
        ext = _extend_loop(samples, loop_shift, 2)
        out = sum(
            c * ext[2 + off : 2 + off + n]
            for off, c in zip((-2, -1, 0, 1, 2), _CENTRAL4)
            if c != 0.0
        )
        return out / h
    D, _ = sbp42(n, h)
    return np.tensordot(D, samples, axes=(1, 0))


def velocity_ho(samples: np.ndarray, loop_shift=None) -> np.ndarray:
    """6th-order first derivative (one-sided near open ends).

    For geometric construction work (frames, tube splines, endpoint
    tangents); the SBP ``velocity`` remains the operator paired with the
    length quadrature.
    """
    n = samples.shape[0]
    h = 1.0 / (n - 1)
    c = fd_weights(3.0, np.arange(7.0), 1)
    offsets = (-3, -2, -1, 0, 1, 2, 3)
    if loop_shift is not None:
        ext = _extend_loop(samples, loop_shift, 3)
        out = sum(cj * ext[3 + off : 3 + off + n] for off, cj in zip(offsets, c))
        return out / h
    if n < 8:
        raise ValueError("need at least 8 samples")
    out = np.zeros_like(samples, dtype=float)
    out[3:-3] = sum(cj * samples[3 + off : n - 3 + off] for off, cj in zip(offsets, c))
    grid = np.arange(7, dtype=float)
    for i in range(3):
        w0 = fd_weights(float(i), grid, 1)
        out[i] = np.tensordot(w0, samples[:7], axes=(0, 0))
        w1 = fd_weights(float(6 - i), grid, 1)
        out[n - 1 - i] = np.tensordot(w1, samples[-7:], axes=(0, 0))
    return out / h


def second_derivative(samples: np.ndarray, loop_shift=None) -> np.ndarray:
    """Second parameter-derivative, 4th order (one-sided rows near open ends)."""
    n = samples.shape[0]
    h = 1.0 / (n - 1)
    if loop_shift is not None:
        c = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
        ext = _extend_loop(samples, loop_shift, 2)
        out = sum(
            cj * ext[2 + off : 2 + off + n]
            for off, cj in zip((-2, -1, 0, 1, 2), c)
        )
        return out / h**2
    if n < 8:
        raise ValueError("need at least 8 samples")
    out = np.zeros_like(samples, dtype=float)
    c = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    core = sum(cj * samples[2 + off : 2 + off + (n - 4)] for off, cj in zip((-2, -1, 0, 1, 2), c))
    out[2:-2] = core
    grid = np.arange(7, dtype=float)
    for i in (0, 1):
        wgt = fd_weights(float(i), grid, 2)
        out[i] = np.tensordot(wgt, samples[:7], axes=(0, 0))
        wgt_r = fd_weights(float(6 - i), grid, 2)
        out[n - 1 - i] = np.tensordot(wgt_r, samples[-7:], axes=(0, 0))
    return out / h**2


def endpoint_first_derivative(samples: np.ndarray, end: int) -> np.ndarray:
    """One-sided 6th-order first derivative at an edge endpoint (end 0 or 1).

    Uses the 7 samples nearest the end (all of them on shorter edges).
    """
    n = samples.shape[0]
    h = 1.0 / (n - 1)
    npts = min(7, n)
    grid = np.arange(npts, dtype=float)
    if end == 0:
        wgt = fd_weights(0.0, grid, 1)
        return np.tensordot(wgt, samples[:npts], axes=(0, 0)) / h
    wgt = fd_weights(float(npts - 1), grid, 1)
    return np.tensordot(wgt, samples[-npts:], axes=(0, 0)) / h


@lru_cache(maxsize=64)
def upsample_operator(n_samples: int, factor: int, loop: bool):
    """Cached affine pieces of the upsampling map: fine = T @ x + c * shift.

    Fine sample ``k * factor + r`` is interpolated from the 6-point window
    starting at ``lo_k``: centred on coarse interval k, clamped at the ends
    of open edges, wrapped across the seam of loop edges (where the lattice
    shift enters through c).  The weights depend only on the position
    ``xi`` inside the window, so there is one Fornberg call per distinct
    ``xi`` (5 per sub-step on open edges, 1 on loop edges), not one per
    fine sample.  The cached arrays are read-only.
    """
    n = n_samples
    k = np.arange(n - 1)
    lo = k - 2 if loop else np.clip(k - 2, 0, n - 6)
    cols = lo[:, None] + np.arange(6)
    if loop:
        # window index -j is sample n-1-j minus the shift; n-1+j is sample j plus it
        seam = (cols > n - 1).astype(int) - (cols < 0)
        cols = cols - (n - 1) * seam
    t_mat = np.zeros(((n - 1) * factor + 1, n))
    t_mat[::factor] = np.eye(n)
    c_vec = np.zeros(t_mat.shape[0])
    nodes = np.arange(6, dtype=float)
    for r in range(1, factor):
        tau = r / factor
        xi = np.full(n - 1, 2.0 + tau) if loop else (k + tau) - lo
        uniq, which = np.unique(xi, return_inverse=True)
        wgt = np.stack([fd_weights(float(x), nodes, 0) for x in uniq])[which]
        rows = k * factor + r
        np.add.at(t_mat, (rows[:, None], cols), wgt)
        if loop:
            c_vec[rows] = (wgt * seam).sum(axis=1)
    t_mat.flags.writeable = False
    c_vec.flags.writeable = False
    return t_mat, c_vec


def upsample_curve(samples: np.ndarray, factor: int, loop_shift=None) -> np.ndarray:
    """Resample a curve on a ``factor`` times finer uniform grid.

    Sliding 6-point Lagrange interpolation (O(h^6) for smooth data); loop
    edges are interpolated through the periodic seam.
    """
    if factor == 1:
        return samples.copy()
    t_mat, c_vec = upsample_operator(samples.shape[0], factor, loop_shift is not None)
    out = t_mat @ samples
    if loop_shift is not None:
        out += np.multiply.outer(c_vec, np.asarray(loop_shift, dtype=float))
    return out
