"""Finite-difference stencils and quadrature on uniform edge grids.

Every edge of a net is sampled on a uniform parameter grid over [0, 1].
The first-derivative operator D and the quadrature weights w used for
lengths form a summation-by-parts pair, diag(w) D + D^T diag(w) =
diag(-1, 0, ..., 0, 1), so the discrete integration-by-parts identity holds
exactly; this keeps discrete first variations equal to exact derivatives
of the discrete length.  Every derivative is applied as a sliding stencil
(a band); no (N x N) matrix is formed, and D^T is taken from the identity.
The 6-point windows of the upsampling map also give point evaluation,
running integrals and inverse interpolation, for arc-length work.

The edge-grid operators take one edge or a group of edges with the same
sample count stacked on leading axes: curves are (..., N+1, d), scalar
samples (..., N+1), and a single edge is a group of one.

A loop edge (a smooth closed geodesic) is stored as an unwrapped lift: its
closing sample N is its first plus a lattice shift.  The operators take a
``loop`` flag and read that shift from the samples, as the last row minus
the first, to continue the lift across the seam.  A field along a loop
that repeats its seam row reads a zero shift, so it does not wrap.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "MIN_SAMPLES",
    "fd_weights",
    "quadrature_weights",
    "velocity",
    "derivative_ho",
    "upsample_curve",
    "evaluate_curve",
    "running_integral",
    "inverse_interpolate",
    "refined_windows",
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
# weights.  Q + Q^T = diag(-1, 0, ..., 0, 1) holds exactly for Q = diag(w) D.
_SBP42_NORM = np.array([17.0 / 48.0, 59.0 / 48.0, 43.0 / 48.0, 49.0 / 48.0])
_SBP42_ROWS = np.array(
    [
        [-24.0 / 17.0, 59.0 / 34.0, -4.0 / 17.0, -3.0 / 34.0, 0.0, 0.0],
        [-1.0 / 2.0, 0.0, 1.0 / 2.0, 0.0, 0.0, 0.0],
        [4.0 / 43.0, -59.0 / 86.0, 0.0, 59.0 / 86.0, -4.0 / 43.0, 0.0],
        [3.0 / 98.0, 0.0, -59.0 / 98.0, 0.0, 32.0 / 49.0, -4.0 / 49.0],
    ]
)
# the last four rows, on the last six samples
_SBP42_END = -_SBP42_ROWS[::-1, ::-1]
_CENTRAL4 = np.array([1.0 / 12.0, -2.0 / 3.0, 0.0, 2.0 / 3.0, -1.0 / 12.0])

# Fewest samples an edge may have: the SBP(4,2) boundary blocks of both
# ends must not overlap.
MIN_SAMPLES = 12


def _require_open(n: int) -> None:
    if n < MIN_SAMPLES:
        raise ValueError(f"open-edge grids need at least {MIN_SAMPLES} samples")


def _stencil(ext: np.ndarray, coeffs: np.ndarray, rows: int) -> np.ndarray:
    """``rows`` outputs of a sliding stencil along the sample axis of curves
    (..., M, d); output k reads samples k to k + len(coeffs) - 1."""
    out = 0
    for k, c in enumerate(coeffs):
        if c != 0.0:
            out = out + c * ext[..., k : k + rows, :]
    return out


def quadrature_weights(n_samples: int, loop: bool) -> np.ndarray:
    """Quadrature weights matching the derivative operator on the uniform
    grid of n_samples over [0, 1]."""
    h = 1.0 / (n_samples - 1)
    w = np.full(n_samples, h)
    if loop:
        # closing sample duplicated: split its weight between the two copies
        w[0] = 0.5 * h
        w[-1] = 0.5 * h
        return w
    _require_open(n_samples)
    w[:4] = _SBP42_NORM * h
    w[-4:] = _SBP42_NORM[::-1] * h
    return w


def _extend_loop(samples: np.ndarray, pad: int) -> np.ndarray:
    """Periodic extension of loop edges' unwrapped curves (..., N+1, d) by
    ``pad`` samples on both sides.

    The seam shift of every edge is its last sample minus its first; the
    lift is continued on both sides by that shift.
    """
    shift = samples[..., -1:, :] - samples[..., :1, :]
    head = samples[..., -1 - pad : -1, :] - shift
    tail = samples[..., 1 : 1 + pad, :] + shift
    return np.concatenate([head, samples, tail], axis=-2)


def velocity(samples: np.ndarray, loop: bool) -> np.ndarray:
    """SBP first parameter-derivative D of curves (..., N+1, d) sampled at
    parameters k/N on the unit interval.

    Open edges get the SBP(4,2) band: the central 4th-order stencil inside
    and the one-sided boundary blocks in the first and last four rows.  On
    loop edges the central stencil runs across the seam.  No matrix is
    formed.
    """
    n = samples.shape[-2]
    h = 1.0 / (n - 1)
    if loop:
        return _stencil(_extend_loop(samples, 2), _CENTRAL4, n) / h
    _require_open(n)
    out = np.empty(samples.shape)
    out[..., 2:-2, :] = _stencil(samples, _CENTRAL4, n - 4)
    out[..., :4, :] = _SBP42_ROWS @ samples[..., :6, :]
    out[..., -4:, :] = _SBP42_END @ samples[..., -6:, :]
    out /= h
    return out


@lru_cache(maxsize=2)
def _weights6(m: int) -> np.ndarray:
    """7-point Fornberg weights of the m-th derivative: row r is the
    stencil at node r of the window (row 3 is the central one)."""
    grid = np.arange(7.0)
    wgt = np.stack([fd_weights(float(r), grid, m) for r in range(7)])
    wgt.flags.writeable = False
    return wgt


def derivative_ho(samples: np.ndarray, m: int, loop: bool) -> np.ndarray:
    """6th-order m-th parameter-derivative (m = 1 or 2) of curves (..., N+1, d)
    by 7-point stencils, every row.

    Central stencils inside an edge and across the seam of loop edges;
    one-sided stencils on the first and last seven samples in the first and
    last three rows of open edges.  For geometric work (tangents, frames,
    tube splines, covariant accelerations); the SBP ``velocity`` remains the
    operator paired with the length quadrature.
    """
    n = samples.shape[-2]
    h = 1.0 / (n - 1)
    wgt = _weights6(m)
    if loop:
        return _stencil(_extend_loop(samples, 3), wgt[3], n) / h**m
    if n < 8:
        raise ValueError("need at least 8 samples")
    out = np.empty(samples.shape)
    out[..., 3:-3, :] = _stencil(samples, wgt[3], n - 6) / h**m
    for row in range(3):
        out[..., row, :] = wgt[row] @ samples[..., :7, :] / h**m
        out[..., row - 3, :] = wgt[row + 4] @ samples[..., -7:, :] / h**m
    return out


# Fine samples inside coarse interval k are interpolated from the _WINDOW
# coarse samples starting _BACK before k (clamped to open edges).
_WINDOW = 6
_BACK = 2
# The fixed node row of a window, as positions inside it.
_NODES = np.arange(_WINDOW, dtype=float)


@lru_cache(maxsize=64)
def _window_starts(n: int, loop: bool) -> np.ndarray:
    """First coarse sample of the interpolation window of every interval (read-only)."""
    k = np.arange(n - 1)
    lo = k - _BACK if loop else np.clip(k - _BACK, 0, n - _WINDOW)
    lo.flags.writeable = False
    return lo


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
    lo = _window_starts(n, loop)
    cols = lo[:, None] + np.arange(_WINDOW)
    if loop:
        # window index -j is sample n-1-j minus the shift; n-1+j is sample j plus it
        seam = (cols > n - 1).astype(int) - (cols < 0)
        cols = cols - (n - 1) * seam
    t_mat = np.zeros(((n - 1) * factor + 1, n))
    t_mat[::factor] = np.eye(n)
    c_vec = np.zeros(t_mat.shape[0])
    for r in range(1, factor):
        tau = r / factor
        xi = np.full(n - 1, _BACK + tau) if loop else (k + tau) - lo
        uniq, which = np.unique(xi, return_inverse=True)
        wgt = np.stack([fd_weights(float(x), _NODES, 0) for x in uniq])[which]
        rows = k * factor + r
        np.add.at(t_mat, (rows[:, None], cols), wgt)
        if loop:
            c_vec[rows] = (wgt * seam).sum(axis=1)
    t_mat.flags.writeable = False
    c_vec.flags.writeable = False
    return t_mat, c_vec


_BIN = 8  # fine sample rows per bin of refined_windows


@lru_cache(maxsize=64)
def refined_windows(n_samples: int, factor: int, loop: bool):
    """The rows of T and D T on coarse windows, bin by bin: (start, table).

    T upsamples by ``factor`` (the identity at 1) and D is the fine grid's
    ``velocity``.  Bin b holds fine rows 8b to 8b + 7, zero past the last,
    and ``table[b, 2 i + k, j]`` is row 8b + i of T (k = 0) or D T (k = 1)
    at coarse sample ``start[b] + j``; their other entries are zero.  Loop
    starts are unwrapped: take samples modulo n - 1, as a field repeats its
    seam row.  No (fine rows x samples) array beside T is formed; the
    cached arrays are read-only.
    """
    n, m = n_samples, (n_samples - 1) * factor + 1
    period = m - 1 if loop else m
    # fine row r of T: weights on the 6-point window at lo[r]
    r = np.arange(period)
    lo = _window_starts(n, loop)[np.minimum(r // factor, n - 2)]
    cols = lo[:, None] + np.arange(_WINDOW)
    if factor == 1:
        wgt = (cols == r[:, None]).astype(float)
    else:
        seam = (cols > n - 1).astype(int) - (cols < 0) if loop else 0
        wgt = upsample_operator(n, factor, loop)[0][r[:, None], cols - (n - 1) * seam]
    first, last = (wgt != 0).argmax(axis=1), _WINDOW - 1 - (wgt[:, ::-1] != 0).argmax(axis=1)
    # fine row k reads itself for T, then its D band (a central row's 6th read is itself, at 0)
    k = np.arange(m)
    reads = k[:, None] + np.array([0, -2, -1, 0, 1, 2, 0])
    coef = np.tile(np.concatenate([[1.0], _CENTRAL4 * (m - 1), [0.0]]), (m, 1))
    if not loop:
        reads[:4, 1:], coef[:4, 1:] = np.arange(_WINDOW), _SBP42_ROWS * (m - 1)
        reads[-4:, 1:], coef[-4:, 1:] = m - _WINDOW + np.arange(_WINDOW), _SBP42_END * (m - 1)
    wraps, base = np.divmod(reads, period)
    at = lo[base] + (n - 1) * wraps
    # the coarse samples each bin reaches
    bins = np.arange(0, m, _BIN)
    start = np.minimum.reduceat((at + first[base]).min(axis=1), bins)
    width = int((np.maximum.reduceat((at + last[base]).max(axis=1), bins) - start).max()) + 1
    start = start if loop else np.minimum(start, n - width)
    # windows reach up to _WINDOW - 1 before start (node rows) and past the end
    table = np.zeros((bins.size * _BIN, 2, width + 2 * _WINDOW))
    off = at - np.repeat(start, _BIN)[:m, None] + _WINDOW
    for j in range(reads.shape[1]):
        table[k[:, None], min(j, 1), off[:, j, None] + np.arange(_WINDOW)] += coef[:, j, None] * wgt[base[:, j]]
    table = np.ascontiguousarray(table[:, :, _WINDOW : _WINDOW + width]).reshape(bins.size, 2 * _BIN, width)
    table.flags.writeable = False
    start.flags.writeable = False
    return start, table


def upsample_curve(samples: np.ndarray, factor: int, loop: bool) -> np.ndarray:
    """Resample curves (..., N+1, d) on a ``factor`` times finer uniform grid.

    Sliding 6-point Lagrange interpolation (O(h^6) for smooth data); loop
    edges are interpolated through the periodic seam.
    """
    if factor == 1:
        return samples.copy()
    t_mat, c_vec = upsample_operator(samples.shape[-2], factor, loop)
    out = t_mat @ samples
    if loop:
        out += c_vec[:, None] * (samples[..., -1:, :] - samples[..., :1, :])
    return out


def _denominators(nodes: np.ndarray) -> np.ndarray:
    """Products over k != j of (nodes[j] - nodes[k]), per node row."""
    width = nodes.shape[-1]
    gaps = nodes[..., :, None] - nodes[..., None, :]
    gaps.reshape(-1, width * width)[:, :: width + 1] = 1.0  # the diagonals
    return gaps.prod(axis=-1)


@lru_cache(maxsize=1)
def _node_denominators() -> np.ndarray:
    """``_denominators`` of the fixed node row: integers, so exact (read-only)."""
    denom = _denominators(_NODES)
    denom.flags.writeable = False
    return denom


def _lagrange(x: np.ndarray, nodes: np.ndarray | None = None) -> np.ndarray:
    """Lagrange basis weights at points x (P,) on node rows (P, W), or on the
    fixed row ``_NODES`` when nodes is None."""
    diff = x[:, None] - (_NODES if nodes is None else nodes)
    # running products of the differences to the nodes before j (row 0)
    # and, from the far end, after j (row 1)
    prods = np.empty((2,) + diff.shape)
    prods[:, :, 0] = 1.0
    prods[0, :, 1:] = diff[:, :-1]
    prods[1, :, 1:] = diff[:, :0:-1]
    np.multiply.accumulate(prods, axis=2, out=prods)
    denom = _node_denominators() if nodes is None else _denominators(nodes)
    return prods[0] * prods[1, :, ::-1] / denom


def _gather(stacked: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows idx (..., J) of every stacked edge of (..., L, w), as one array
    (edges * J, w): a single ``np.take`` on the flattened rows."""
    length, width = stacked.shape[-2:]
    starts = np.arange(0, stacked.size // width, length).reshape(idx.shape[:-1] + (1,))
    return np.take(stacked.reshape(-1, width), (idx + starts).ravel(), axis=0)


def evaluate_curve(samples: np.ndarray, t: np.ndarray, loop: bool) -> np.ndarray:
    """The ``upsample_curve`` interpolant of curves (..., N+1, d) at
    parameters t (..., P) in [0, 1], one row of t per stacked edge.

    Same 6-point windows and seam handling, so on the fine grid it returns
    ``upsample_curve`` up to rounding.
    """
    n = samples.shape[-2]
    x = np.asarray(t, dtype=float) * (n - 1)
    k = np.minimum(np.maximum(np.floor(x).astype(int), 0), n - 2)
    lo = _window_starts(n, loop)[k]
    wgt = _lagrange((x - k + (k - lo)).ravel())
    if loop:
        samples = _extend_loop(samples, _BACK)
        lo = lo + _BACK
    # only the windows of the intervals that hold a t, one row per t
    cols = (lo[..., None] + np.arange(_WINDOW)).reshape(lo.shape[:-1] + (-1,))
    win = _gather(samples, cols).reshape(-1, _WINDOW, samples.shape[-1])
    return np.einsum("pj,pj...->p...", wgt, win).reshape(x.shape + samples.shape[-1:])


# The 3-point Gauss-Legendre rule on [-1, 1], bitwise numpy's leggauss(3),
# written out so that numpy.polynomial is never imported.
_GAUSS3_NODES = np.array([-0.7745966692414834, 0.0, 0.7745966692414834])
_GAUSS3_WEIGHTS = np.array([0.5555555555555557, 0.8888888888888888, 0.5555555555555557])


@lru_cache(maxsize=1)
def _cell_integrals() -> np.ndarray:
    """Row o: integrals over [o, o + 1] of the 6 Lagrange basis polynomials
    on nodes 0..5 (3-point Gauss-Legendre, exact for degree 5)."""
    gx, gw = _GAUSS3_NODES, _GAUSS3_WEIGHTS
    rows = [0.5 * gw @ _lagrange(o + 0.5 * (gx + 1.0)) for o in range(_WINDOW - 1)]
    tab = np.stack(rows)
    tab.flags.writeable = False
    return tab


@lru_cache(maxsize=64)
def _cell_layout(n: int, loop: bool):
    """The interpolation window of every interval, as ``upsample_operator``
    takes it: sample indices (n-1, 6), into the samples continued by _BACK
    across the seam on loop edges, and the ``_cell_integrals`` row of each
    interval's offset inside its window.  Read-only."""
    lo = _window_starts(n, loop)
    idx = (lo + _BACK if loop else lo)[:, None] + np.arange(_WINDOW)
    weights = _cell_integrals()[np.arange(n - 1) - lo]
    idx.flags.writeable = False
    weights.flags.writeable = False
    return idx, weights


def running_integral(values: np.ndarray, loop: bool) -> np.ndarray:
    """Integral from 0 to each grid parameter of the ``upsample_curve``
    interpolant of scalar values (..., N+1) sampled uniformly over [0, 1]."""
    n = values.shape[-1]
    idx, weights = _cell_layout(n, loop)
    if loop:
        values = np.concatenate([values[..., -1 - _BACK : -1], values, values[..., 1 : 1 + _BACK]],
                                axis=-1)
    # one row per cell of every edge, with the per-edge signature "kj,kj->k"
    win = np.take(values, idx, axis=-1).reshape(-1, _WINDOW)
    cells = np.einsum("kj,kj->k", np.tile(weights, (win.shape[0] // (n - 1), 1)), win) / (n - 1)
    cells = cells.reshape(values.shape[:-1] + (n - 1,))
    return np.concatenate([np.zeros(cells.shape[:-1] + (1,)), np.cumsum(cells, axis=-1)], axis=-1)


def _search_rows(values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """``np.searchsorted`` of every row of targets (..., P) in the same row
    of values (..., N+1)."""
    rows = zip(values.reshape(-1, values.shape[-1]), targets.reshape(-1, targets.shape[-1]))
    return np.array([np.searchsorted(v, t) for v, t in rows]).reshape(targets.shape)


def inverse_interpolate(values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Parameters in [0, 1] at which increasing uniform samples (..., N+1)
    reach targets (..., P), row by row.

    6-point Lagrange interpolation of the parameter as a function of the
    value, on clamped windows (as on open edges).
    """
    n = values.shape[-1]
    targets = np.asarray(targets, dtype=float)
    k = np.minimum(np.maximum(_search_rows(values, targets) - 1, 0), n - 2)
    cols = _window_starts(n, False)[k][..., None] + np.arange(_WINDOW)
    nodes = _gather(values[..., None], cols.reshape(cols.shape[:-2] + (-1,)))
    wgt = _lagrange(targets.ravel(), nodes.reshape(-1, _WINDOW))
    params = np.einsum("pj,pj->p", wgt, cols.reshape(-1, _WINDOW)) / (n - 1)
    return params.reshape(targets.shape)
