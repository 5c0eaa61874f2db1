"""Finding stationary nets, metric continuation, and degeneracy breaking.

The solve works in reduced coordinates relative to the running net
(vertex displacements plus interior normal offsets; loop nets use normal
offsets only).  Each iteration re-anchors at the constant-speed
reparametrization, assembles the exact gradient and Hessian of the
discrete length, takes the Newton step, and backtracks on the gradient
norm, one candidate net after another.  Near-null Hessian directions are
excluded from the step, so symmetry orbits (translations, rotations) do
not wander.

Degeneracy breaking perturbs the metric conformally with a bump that
vanishes along the net, pairs positively with a chosen Jacobi field, and
is supported away from all other edges; the net is then continued to the
perturbed metric and the kernel is re-measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import stencils
from .geometry import (
    DirectionalBumpField,
    MetricChart,
    ScalarField,
    conformal_family,
    g_norm,
    min_distance,
)
from .jacobi import SVD_TOL, classify_field, fd_hessian, is_nondegenerate, reduced_gradient
from .net import (
    GeodesicNet,
    NetField,
    displace,
    edge_lengths,
    length,
    reparametrize_constant_speed,
)
from .variation import NotStationaryError, _mixed_difference

__all__ = [
    "SolveResult",
    "SolverError",
    "MaxIterationsError",
    "SingularSystemError",
    "ContinuationStall",
    "NoProgressError",
    "NoNormalPointError",
    "ClearanceError",
    "StationarityLostError",
    "solve_stationary",
    "continue_family",
    "build_condition_C_bump",
    "mixed_second_derivative",
    "break_degeneracy",
]

# A Newton solve stops when the reduced gradient norm is at most its
# tolerance (TOLERANCE by default) or after MAX_ITERATIONS iterations, and
# rebuilds its Newton matrix every HESSIAN_REFRESH iterations.  An
# eigenvalue of the Newton matrix counts as null at most NULL_THRESHOLD
# times the largest one, or TIKHONOV_FLOOR.  The line search tries the step
# sizes 1, BACKTRACK, BACKTRACK^2, ... up to and including the first below
# MIN_STEP; a solve ends at the first line search that fails on a fresh
# Newton matrix, and a continuation step is bisected at most MAX_HALVINGS
# times.  Degeneracy breaking stacks at most
# MAX_BUMPS bumps, halves an anchor's radius at most MAX_SHRINK times, and
# halves each bump's amplitude from BUMP_AMPLITUDE down to
# MIN_AMPLITUDE_FACTOR of it; its kernel verdicts gate on the stationarity
# residual at BREAK_RESIDUAL_TOL by default.  mixed_second_derivative works
# on the grid MIXED_REFINE times finer, with the difference step MIXED_STEP
# in both the amplitude and the displacement.
TOLERANCE = 1e-10
MAX_ITERATIONS = 60
HESSIAN_REFRESH = 4
NULL_THRESHOLD = 1e-8
TIKHONOV_FLOOR = 1e-10
BACKTRACK = 0.5
MIN_STEP = 1e-6
MAX_HALVINGS = 8
MAX_SHRINK = 6
MAX_BUMPS = 4
BUMP_AMPLITUDE = 0.02
MIN_AMPLITUDE_FACTOR = 1.0 / 16.0
BREAK_RESIDUAL_TOL = 5e-3
MIXED_REFINE = 8
MIXED_STEP = 1e-4


class SolverError(RuntimeError):
    pass


class MaxIterationsError(SolverError):
    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


class SingularSystemError(SolverError):
    pass


class ContinuationStall(SolverError):
    pass


class NoProgressError(SolverError):
    pass


class NoNormalPointError(SolverError):
    pass


class ClearanceError(SolverError):
    pass


class StationarityLostError(SolverError):
    """A net the solver returned fails the stationarity gate: a numerical
    failure, unlike a non-stationary net supplied by the caller."""


@dataclass
class SolveResult:
    net: GeodesicNet
    converged: bool
    iterations: int
    gradient_norm: float
    trace: list = field(default_factory=list)


def solve_stationary(chart: MetricChart, init: GeodesicNet,
                     tolerance: float = TOLERANCE) -> SolveResult:
    """Newton iteration to a critical point of the discrete length.

    Convergence is measured on the reduced gradient norm, at most
    ``tolerance`` (finite and positive); the returned net is constant-speed
    reparametrized.  A line search that fails on a stale Newton matrix is
    retried on a fresh one; one that fails on a fresh matrix ends the solve
    with ``MaxIterationsError``.
    """
    # written so that NaN fails the test
    if not 0 < tolerance < np.inf:
        raise ValueError("tolerance must be finite and positive")
    net = reparametrize_constant_speed(chart, init)
    basis, grad = reduced_gradient(chart, net)
    trace = []
    evals = evecs = None
    stale = 0

    for it in range(MAX_ITERATIONS + 1):
        gnorm = float(np.linalg.norm(grad))
        trace.append({"iteration": it, "gradient_norm": gnorm})
        if gnorm <= tolerance:
            return SolveResult(net=net, converged=True, iterations=it,
                               gradient_norm=gnorm, trace=trace)
        if it == MAX_ITERATIONS:
            break
        d = len(basis)
        if evals is None or stale >= HESSIAN_REFRESH:
            hess = fd_hessian(chart, net, basis)
            evals, evecs = np.linalg.eigh(hess)
            stale = 0
        emax = float(np.abs(evals).max())
        null = np.abs(evals) <= max(NULL_THRESHOLD * emax, TIKHONOV_FLOOR)
        g_eig = evecs.T @ grad
        null_frac = np.linalg.norm(g_eig[null]) / max(gnorm, 1e-300)
        if null.any() and null_frac > 0.9:
            raise SingularSystemError(
                f"gradient lies in the Hessian null space (dimension {int(null.sum())})"
            )
        coef_eig = np.zeros(d)
        act = ~null
        coef_eig[act] = -g_eig[act] / evals[act]
        direction = basis.apply(evecs @ coef_eig)
        step = _line_search(chart, net, direction, gnorm, tolerance)
        if step is None and stale > 0:
            # retry with a fresh Newton matrix
            evals = None
            continue
        if step is None:
            raise MaxIterationsError(
                f"line search stalled at iteration {it} (gradient {gnorm:.3e})",
                result=SolveResult(net=net, converged=False, iterations=it,
                                   gradient_norm=gnorm, trace=trace),
            )
        # the accepted candidate's basis and gradient serve the next iteration
        alpha, net, basis, grad = step
        trace[-1]["step_size"] = alpha
        stale += 1
        if alpha < 0.5:
            stale = HESSIAN_REFRESH
    raise MaxIterationsError(
        f"no convergence in {MAX_ITERATIONS} iterations (gradient {gnorm:.3e})",
        result=SolveResult(net=net, converged=False, iterations=MAX_ITERATIONS,
                           gradient_norm=gnorm, trace=trace),
    )


def _line_search(chart, net, direction, gnorm, tolerance):
    """(step size, accepted net, its basis and reduced gradient), or None.

    Backtracking on the gradient norm (Armijo): for alpha = 1, BACKTRACK,
    ..., up to and including the first alpha below MIN_STEP, the candidate
    is the constant-speed reparametrization of the net moved by alpha times
    the direction; the first whose reduced gradient passes is accepted.  A
    candidate with a near-zero speed raises the ValueError of
    ``reparametrize_constant_speed``.
    """
    alpha = 1.0
    while True:
        cand = reparametrize_constant_speed(chart, displace(net, direction, alpha))
        basis, grad = reduced_gradient(chart, cand)
        gn = float(np.linalg.norm(grad))
        if gn < gnorm * (1.0 - 1e-4 * alpha) or gn <= tolerance:
            return alpha, cand, basis, grad
        if alpha < MIN_STEP:
            return None
        alpha *= BACKTRACK


def continue_family(base: MetricChart, field: ScalarField, amplitudes: list[float],
                    net: GeodesicNet) -> list[SolveResult]:
    """Warm-started solves at ``conformal_family(base, field, x)`` for each
    amplitude x in turn; a step whose solve fails is halved in x."""
    results = [solve_stationary(conformal_family(base, field, amplitudes[0]), net)]
    for x_prev, x_next in zip(amplitudes[:-1], amplitudes[1:]):
        results.append(_continue_step(base, field, x_prev, x_next, results[-1].net, 0))
    return results


def _continue_step(base, field, x_prev, x_next, net, depth) -> SolveResult:
    """Solve at amplitude x_next from net, solved at x_prev; on failure,
    bisect the step and go through the midpoint, up to ``MAX_HALVINGS``
    levels below depth 0.  Returns the solve that reached x_next."""
    try:
        return solve_stationary(conformal_family(base, field, x_next), net)
    except (MaxIterationsError, SingularSystemError):
        if depth >= MAX_HALVINGS:
            raise ContinuationStall(
                "metric step fell below the floor without convergence (bifurcation?)"
            )
        x_mid = 0.5 * (x_prev + x_next)
        mid = _continue_step(base, field, x_prev, x_mid, net, depth + 1)
        return _continue_step(base, field, x_mid, x_next, mid.net, depth + 1)


# ---------------------------------------------------------------------------
# condition-(C) bumps
# ---------------------------------------------------------------------------

def _clearance(chart, net, eid, idx):
    """Distance from one anchor sample to every sample of the other edges.

    The anchor edge itself is allowed to pass through the bump support:
    the bump vanishes along it by construction, and sign violations from
    re-entering arcs are caught by the explicit verification.
    """
    others = [net.edge_samples[e.id] for e in net.graph.edges if e.id != eid]
    if not others:
        return np.inf
    return min_distance(chart, net.edge_samples[eid][idx : idx + 1], np.concatenate(others))


def build_condition_C_bump(chart: MetricChart, net: GeodesicNet, j_field: NetField):
    """Conformal bump for a Jacobi field: supported in a small ball around an
    interior net point, vanishing along the net, with <grad h, J> >= 0.

    Returns (anchor edge id, anchor sample index, DirectionalBumpField).
    """
    kind, normal = classify_field(chart, net, j_field)
    if kind == "tangential":
        raise NoNormalPointError("the field has no normal component to anchor a bump")
    lengths = edge_lengths(chart, net)
    candidates = []
    for e in net.graph.edges:
        s = net.edge_samples[e.id]
        perp = normal.edge_values[e.id]
        norms = g_norm(chart, s, perp)
        n_here = s.shape[0]
        margin = max(3, n_here // 16)
        for idx in range(margin, n_here - margin):
            # prefer central anchors among near-equal normal components
            centrality = abs(idx - (n_here - 1) / 2) / (n_here - 1)
            candidates.append((round(float(norms[idx]), 9), -centrality, e.id, idx))
    candidates.sort(reverse=True)
    top = [(c[0], c[2], c[3]) for c in candidates[: max(8, len(candidates) // 16)]]
    last_error = None
    for score, eid, idx in top:
        if score <= 0:
            break
        clear = _clearance(chart, net, eid, idx)
        if clear <= 0:
            continue
        r = min(0.45 * clear, 0.2 * lengths[eid])
        perp = normal.edge_values[eid][idx]
        w = perp / np.linalg.norm(perp)
        anchor_pts, anchor_vel, center = _anchor_spline_data(net, eid, idx)
        for _ in range(MAX_SHRINK):
            h_fld = DirectionalBumpField(center, r, w, anchor_pts, anchor_vel, chart=chart)
            ok, why = _verify_bump(chart, net, eid, idx, h_fld, j_field)
            if ok:
                return eid, idx, h_fld
            last_error = why
            r = 0.5 * h_fld.radius  # the field may have capped r by the curvature bound
        # try the next candidate point
    raise ClearanceError(
        f"no admissible bump anchor found ({last_error or 'net too crowded'})"
    )


def _anchor_spline_data(net, eid, idx):
    """Fine anchor samples and velocities; loop edges are rolled so the
    anchor sits centrally and the support never crosses the seam."""
    s = net.edge_samples[eid]
    if eid not in net.periodic_edges:
        fine = stencils.upsample_curve(s, 4)
        vf = stencils.derivative_ho(fine, 1)
        return fine, vf, s[idx].copy()
    shift = s[-1] - s[0]
    n_ind = s.shape[0] - 1
    base = s[:-1]
    j = np.arange(n_ind)
    k_signed = j + idx - n_ind // 2
    rolled = base[k_signed % n_ind] + (k_signed // n_ind)[:, None] * shift
    rolled = np.concatenate([rolled, rolled[:1] + shift], axis=0)
    fine = stencils.upsample_curve(rolled, 4, loop=True)
    vf = stencils.derivative_ho(fine, 1, loop=True)
    return fine, vf, rolled[n_ind // 2].copy()


def _verify_bump(chart, net, eid, idx, h_fld, j_field):
    # h vanishes along the whole net
    for e in net.graph.edges:
        vals = h_fld.value_many(net.edge_samples[e.id])
        if np.abs(vals).max(initial=0.0) > 1e-9:
            return False, (f"support touches edge {e.id!r}" if e.id != eid
                           else "bump does not vanish along its anchor edge")
    # sign condition along the anchor edge
    s = net.edge_samples[eid]
    grads = h_fld.gradient_many(s)
    pair = np.einsum("pi,pi->p", grads, j_field.edge_values[eid])
    if pair.min() < -1e-10 * max(np.abs(pair).max(), 1.0):
        return False, "sign condition violated on the anchor edge"
    if pair[idx] <= 0:
        return False, "no strict positivity at the anchor point"
    return True, None


def mixed_second_derivative(g0: MetricChart, h_fld, net: GeodesicNet,
                            j_field: NetField) -> tuple[float, float]:
    """d^2/dx ds of the length under (conformal amplitude x, displacement s J).

    Returns (closed_form, finite_difference): the quadrature of
    (1/2) <grad h, J> L along the net, and the central mixed difference of
    the refined discrete length with the step ``MIXED_STEP`` in x and s;
    both on the same grid, ``MIXED_REFINE`` times finer than the net's.
    """
    fine_samples = {}
    fine_j = {}
    for e in net.graph.edges:
        s = net.edge_samples[e.id]
        loop = e.id in net.periodic_edges
        fine_samples[e.id] = stencils.upsample_curve(s, MIXED_REFINE, loop=loop)
        fine_j[e.id] = stencils.upsample_curve(j_field.edge_values[e.id], MIXED_REFINE, loop=loop)
    fine_net = replace(net, edge_samples=fine_samples)
    fld = NetField(fine_j)
    closed = 0.0
    for e in net.graph.edges:
        s = fine_samples[e.id]
        loop = e.id in net.periodic_edges
        v = stencils.velocity(s, loop=loop)
        speed = g_norm(g0, s, v)
        w = stencils.quadrature_weights(s.shape[0], loop=loop)
        pair = np.einsum("pi,pi->p", h_fld.gradient_many(s), fine_j[e.id])
        closed += 0.5 * e.multiplicity * float(w @ (pair * speed))

    def l_at(x, sdisp):
        g_x = conformal_family(g0, h_fld, x)
        moved = displace(fine_net, fld, sdisp) if sdisp != 0.0 else fine_net
        return length(g_x, moved)

    return closed, _mixed_difference(l_at, MIXED_STEP)


def break_degeneracy(chart: MetricChart, net: GeodesicNet, svd_tol: float = SVD_TOL,
                     residual_tol: float = BREAK_RESIDUAL_TOL):
    """Stack conformal bumps until the Jacobi kernel is empty.

    Each step anchors a bump via the transversality construction for one
    kernel field, then applies its one-signed (squared-pairing) variant:
    that keeps the net exactly stationary, so it cannot dodge the bump by
    sliding along its symmetry orbit, while the transverse second
    variation gains a positive term that lifts the kernel eigenvalue.

    Returns (chart, net, kernel, history), the kernel that of the last net.
    Accepted steps never increase the kernel dimension; a step that would,
    or whose solve fails, is retried at half amplitude.  A bump no amplitude
    takes raises ``NoProgressError`` with the reason of the smallest one.
    """
    kernel = is_nondegenerate(chart, net, svd_tol=svd_tol, residual_tol=residual_tol)
    history = [{"bumps": 0, "kernel_dimension": kernel.dimension}]
    if kernel.nondegenerate:
        return chart, net, kernel, history
    cur_chart, cur_net = chart, net
    for bump_count in range(1, MAX_BUMPS + 1):
        eid, _, h_fld = build_condition_C_bump(cur_chart, cur_net, kernel.ambient[0])
        # the one-signed variant of the same bump, on the same anchor
        h_pin = DirectionalBumpField(
            h_fld.center, h_fld.radius, h_fld.direction, h_fld.anchor.values,
            h_fld.anchor.derivatives, chart=cur_chart, power=2,
        )
        x = BUMP_AMPLITUDE
        while x >= BUMP_AMPLITUDE * MIN_AMPLITUDE_FACTOR:
            g_new = conformal_family(cur_chart, h_pin, x)
            try:
                res = solve_stationary(g_new, cur_net)
                new_kernel = is_nondegenerate(g_new, res.net, svd_tol=svd_tol,
                                              residual_tol=residual_tol)
            except SolverError as ex:
                why = f": the solve at amplitude {x:g} failed: {ex}"
            except NotStationaryError as ex:
                raise StationarityLostError(
                    f"solved net under bump {bump_count} (amplitude {x:g}) failed the gate: {ex}"
                ) from ex
            else:
                if new_kernel.dimension <= kernel.dimension:
                    break
                why = " without growing the kernel"
            x *= 0.5
        else:
            raise NoProgressError(f"bump {bump_count} could not be applied{why}")
        cur_chart, cur_net, kernel = g_new, res.net, new_kernel
        history.append(
            {
                "bumps": bump_count,
                "kernel_dimension": kernel.dimension,
                "amplitude": x,
                "edge": eid,
                "radius": h_fld.radius,
            }
        )
        if kernel.nondegenerate:
            return cur_chart, cur_net, kernel, history
    raise NoProgressError(
        f"kernel still {kernel.dimension}-dimensional after {MAX_BUMPS} bumps"
    )
