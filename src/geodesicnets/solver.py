"""Finding stationary nets, metric continuation, and degeneracy breaking.

The solve works in reduced coordinates relative to the running net
(vertex displacements plus interior normal offsets; loop nets use normal
offsets only).  Each iteration re-anchors at the constant-speed
reparametrization, assembles the exact gradient of the discrete length,
differences it for the Newton matrix, and backtracks on the gradient
norm.  Near-null Hessian directions are excluded from the step, so
symmetry orbits (translations, rotations) do not wander.

Degeneracy breaking perturbs the metric conformally with a bump that
vanishes along the net, pairs positively with a chosen Jacobi field, and
is supported away from all other edges; the net is then continued to the
perturbed metric and the kernel is re-measured.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import stencils
from .geometry import (
    ConformalChart,
    DirectionalBumpField,
    MetricChart,
    conformal_family,
    g_norm,
    min_distance,
)
from .jacobi import (
    classify_field,
    fd_hessian,
    is_nondegenerate,
    reduced_gradient,
    stacked_reduced_gradients,
)
from .net import (
    ARC_UPSAMPLE,
    GeodesicNet,
    NetField,
    constant_speed_samples,
    copies_per_pass,
    displace,
    edge_lengths,
    length,
    reparametrize_constant_speed,
)
from .variation import NotStationaryError

__all__ = [
    "SolveOptions",
    "SolveResult",
    "BumpSpec",
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

# The Newton matrix differences the gradient with step HESSIAN_STEP; its
# eigenvalue counts as null at most NULL_THRESHOLD times the largest one,
# or TIKHONOV_FLOOR; failed Newton steps escalate the damping at most
# LM_MAX_BOOSTS times, and a continuation step is bisected at most
# MAX_HALVINGS times.  Degeneracy breaking stacks at most MAX_BUMPS bumps,
# halves an anchor's radius at most MAX_SHRINK times, and halves each
# bump's amplitude from BUMP_AMPLITUDE down to MIN_AMPLITUDE_FACTOR of it.
# mixed_second_derivative works on the grid MIXED_REFINE times finer.
HESSIAN_STEP = 1e-5
NULL_THRESHOLD = 1e-8
TIKHONOV_FLOOR = 1e-10
LM_MAX_BOOSTS = 12
MAX_HALVINGS = 8
MAX_SHRINK = 6
MAX_BUMPS = 4
BUMP_AMPLITUDE = 0.02
MIN_AMPLITUDE_FACTOR = 1.0 / 16.0
MIXED_REFINE = 8


class SolverError(RuntimeError):
    pass


class MaxIterationsError(SolverError):
    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class SingularSystemError(SolverError):
    def __init__(self, message, kernel_dimension=0):
        super().__init__(message)
        self.kernel_dimension = kernel_dimension


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
class SolveOptions:
    max_iterations: int = 60
    tolerance: float = 1e-10
    backtrack_factor: float = 0.5
    max_backtracks: int = 24
    hessian_refresh: int = 4      # rebuild the Newton matrix every k iterations

    def __post_init__(self):
        # written so that NaN fails every test
        if not 0 < self.tolerance < np.inf:
            raise ValueError("tolerance must be finite and positive")
        if not self.max_iterations >= 1:
            raise ValueError("max iterations must be at least 1")
        if not 0 < self.backtrack_factor < 1:
            raise ValueError("backtrack factor must lie strictly between 0 and 1")
        if not self.max_backtracks >= 1:
            raise ValueError("max backtracks must be at least 1")
        if not self.hessian_refresh >= 1:
            raise ValueError("hessian refresh must be at least 1")


@dataclass
class SolveResult:
    net: GeodesicNet
    converged: bool
    iterations: int
    gradient_norm: float
    trace: list = field(default_factory=list)


def solve_stationary(chart: MetricChart, init: GeodesicNet,
                     opts: SolveOptions | None = None) -> SolveResult:
    """Newton iteration to a critical point of the discrete length.

    Convergence is measured on the reduced gradient norm; the returned net
    is constant-speed reparametrized.
    """
    opts = opts or SolveOptions()
    net = reparametrize_constant_speed(chart, init)
    basis, grad = reduced_gradient(chart, net)
    trace = []
    evals = evecs = None
    stale = 0

    for it in range(opts.max_iterations + 1):
        gnorm = float(np.linalg.norm(grad))
        trace.append({"iteration": it, "gradient_norm": gnorm})
        if gnorm <= opts.tolerance:
            return SolveResult(net=net, converged=True, iterations=it,
                               gradient_norm=gnorm, trace=trace)
        if it == opts.max_iterations:
            break
        d = len(basis)
        if evals is None or stale >= opts.hessian_refresh:
            hess = fd_hessian(chart, net, basis, step=HESSIAN_STEP)
            evals, evecs = np.linalg.eigh(hess)
            stale = 0
        emax = float(np.abs(evals).max())
        null = np.abs(evals) <= max(NULL_THRESHOLD * emax, TIKHONOV_FLOOR)
        g_eig = evecs.T @ grad
        null_frac = np.linalg.norm(g_eig[null]) / max(gnorm, 1e-300)
        if null.any() and null_frac > 0.9:
            raise SingularSystemError(
                f"gradient lies in the Hessian null space (dimension {int(null.sum())})",
                kernel_dimension=int(null.sum()),
            )
        coef_eig = np.zeros(d)
        act = ~null
        coef_eig[act] = -g_eig[act] / evals[act]
        direction = basis.apply(evecs @ coef_eig)
        step = _line_search(chart, net, direction, gnorm, opts)
        if step is None and stale > 0:
            # retry with a fresh Newton matrix before damping
            evals = None
            stale = opts.hessian_refresh
            continue
        if step is None:
            # damped least-squares steps on the gradient norm
            mu = max(1e-6 * emax**2, 1e-14)
            for _ in range(LM_MAX_BOOSTS):
                coef = -(evals * g_eig) / (evals**2 + mu)
                direction = basis.apply(evecs @ coef)
                step = _line_search(chart, net, direction, gnorm, opts)
                if step is not None:
                    break
                mu *= 10.0
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
            stale = opts.hessian_refresh
    raise MaxIterationsError(
        f"no convergence in {opts.max_iterations} iterations (gradient {gnorm:.3e})",
        result=SolveResult(net=net, converged=False, iterations=opts.max_iterations,
                           gradient_norm=gnorm, trace=trace),
    )


def _line_search(chart, net, direction, gnorm, opts):
    """(step size, accepted net, its basis and reduced gradient), or None.

    Backtracking on the gradient norm (Armijo) over the ladder alpha = f^k,
    k < max_backtracks, which ends after the first alpha below 1e-6.
    alpha = 1 is tried alone; the rest of the ladder goes in ladder order,
    stacked as many candidates per pass as ``net.MAX_STACKED_ROWS``
    resampling rows hold, one pass per edge group.  Every candidate's
    reduced gradient is bitwise that of the candidate alone; the first that
    passes is accepted, and only it gets its net and basis built.
    """
    ladder = []
    alpha = 1.0
    for _ in range(opts.max_backtracks):
        ladder.append(alpha)
        if alpha < 1e-6:
            break
        alpha *= opts.backtrack_factor
    groups = net.edge_groups()
    size = copies_per_pass(sum(len(grp.ids) * ((grp.samples.shape[1] - 1) * ARC_UPSAMPLE + 1)
                               for grp in groups))

    def first_accepted(alphas):
        moved = [displace(net, direction, alpha) for alpha in alphas]
        moved_groups = [m.edge_groups() for m in moved]
        resampled = []
        for i, grp in enumerate(groups):
            stacked = grp.copies(np.concatenate([mg[i].samples for mg in moved_groups]))
            resampled.append(grp.copies(constant_speed_samples(chart, stacked)))
        basis, grads = stacked_reduced_gradients(chart, net, resampled)
        for c, (alpha, grad) in enumerate(zip(alphas, grads)):
            gn = float(np.linalg.norm(grad))
            if gn < gnorm * (1.0 - 1e-4 * alpha) or gn <= opts.tolerance:
                cand = moved[c].with_groups([grp.copy_at(c) for grp in resampled])
                return alpha, cand, basis.copy_at(c), grad
        return None

    def attempt(alphas):
        try:
            return first_accepted(alphas)
        except ValueError:
            if len(alphas) == 1:
                raise
            # a near-zero speed in the pass: candidate by candidate, the error
            # is raised only when no candidate before the faulty one passes
            return next((s for s in (attempt([a]) for a in alphas) if s is not None), None)

    for start, stop in [(0, 1)] + [(i, i + size) for i in range(1, len(ladder), size)]:
        step = attempt(ladder[start:stop])
        if step is not None:
            return step
    return None


def _interpolate_charts(g0: MetricChart, g1: MetricChart, frac: float) -> MetricChart | None:
    if g0 is g1:
        return g0
    if (
        isinstance(g0, ConformalChart)
        and isinstance(g1, ConformalChart)
        and g0.base is g1.base
        and g0.field is g1.field
    ):
        amp = (1 - frac) * g0.amplitude + frac * g1.amplitude
        return ConformalChart(g0.base, g0.field, amp)
    if isinstance(g1, ConformalChart) and g1.base is g0:
        return ConformalChart(g0, g1.field, frac * g1.amplitude)
    return None


def continue_family(g_path: list[MetricChart], f0: GeodesicNet,
                    opts: SolveOptions | None = None,
                    verify_nondegenerate: bool | None = None) -> list[SolveResult]:
    """Warm-started solve along a metric path with step halving on failure."""
    opts = opts or SolveOptions()
    res0 = solve_stationary(g_path[0], f0, opts)
    results = [res0]
    start_nondeg = None
    if verify_nondegenerate is None:
        try:
            start_nondeg = is_nondegenerate(g_path[0], res0.net).nondegenerate
        except ValueError:
            start_nondeg = False
    else:
        start_nondeg = verify_nondegenerate
    net = res0.net
    for g_prev, g_next in zip(g_path[:-1], g_path[1:]):
        res = _continue_step(g_prev, g_next, net, opts)
        if start_nondeg:
            nondegenerate = is_nondegenerate(g_next, res.net).nondegenerate
            res.trace.append({"nondegenerate": nondegenerate})
            if not nondegenerate:
                warnings.warn("continuation lost nondegeneracy")
        results.append(res)
        net = res.net
    return results


def _continue_step(g_prev, g_next, net, opts, depth=0) -> SolveResult:
    """Solve at g_next from net; on failure, bisect the metric step and go
    through the midpoint.  Returns the solve that reached g_next."""
    try:
        return solve_stationary(g_next, net, opts)
    except (MaxIterationsError, SingularSystemError):
        if depth >= MAX_HALVINGS:
            raise ContinuationStall(
                "metric step fell below the floor without convergence (bifurcation?)"
            )
        g_mid = _interpolate_charts(g_prev, g_next, 0.5)
        if g_mid is None:
            raise ContinuationStall("cannot bisect between unrelated metrics")
        mid = _continue_step(g_prev, g_mid, net, opts, depth + 1)
        return _continue_step(g_mid, g_next, mid.net, opts, depth + 1)


# ---------------------------------------------------------------------------
# condition-(C) bumps
# ---------------------------------------------------------------------------

@dataclass
class BumpSpec:
    edge: str
    t_index: int
    center: np.ndarray
    direction: np.ndarray
    radius: float


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

    Returns (BumpSpec, DirectionalBumpField).
    """
    kind, _, normal = classify_field(chart, net, j_field)
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
            r = h_fld.radius  # may have been capped by the curvature bound
            ok, why = _verify_bump(chart, net, eid, idx, h_fld, j_field)
            if ok:
                spec = BumpSpec(edge=eid, t_index=idx, center=center, direction=w, radius=r)
                return spec, h_fld
            last_error = why
            r *= 0.5
        # try the next candidate point
    raise ClearanceError(
        f"no admissible bump anchor found ({last_error or 'net too crowded'})"
    )


def _anchor_spline_data(net, eid, idx):
    """Fine anchor samples and velocities; loop edges are rolled so the
    anchor sits centrally and the support never crosses the seam."""
    s = net.edge_samples[eid]
    shift = net.loop_shift(eid)
    if shift is None:
        fine = stencils.upsample_curve(s, 4)
        vf = stencils.velocity_ho(fine)
        return fine, vf, s[idx].copy()
    n_ind = s.shape[0] - 1
    base = s[:-1]
    j = np.arange(n_ind)
    k_signed = j + idx - n_ind // 2
    rolled = base[k_signed % n_ind] + (k_signed // n_ind)[:, None] * shift
    rolled = np.concatenate([rolled, rolled[:1] + shift], axis=0)
    fine = stencils.upsample_curve(rolled, 4, loop_shift=shift)
    vf = stencils.velocity_ho(fine, loop_shift=shift)
    return fine, vf, rolled[n_ind // 2].copy()


def _verify_bump(chart, net, eid, idx, h_fld, j_field, tol=1e-9):
    # h vanishes along the whole net
    for e in net.graph.edges:
        vals = h_fld.value_many(net.edge_samples[e.id])
        if e.id != eid and np.abs(vals).max(initial=0.0) > tol:
            return False, f"support touches edge {e.id!r}"
        if e.id == eid and np.abs(vals).max(initial=0.0) > tol:
            return False, "bump does not vanish along its anchor edge"
    # sign condition along the anchor edge
    s = net.edge_samples[eid]
    grads = h_fld.gradient_many(s)
    pair = np.einsum("pi,pi->p", grads, j_field.edge_values[eid])
    if pair.min() < -1e-10 * max(np.abs(pair).max(), 1.0):
        return False, "sign condition violated on the anchor edge"
    if pair[idx] <= 0:
        return False, "no strict positivity at the anchor point"
    return True, None


def mixed_second_derivative(g0: MetricChart, h_fld, net: GeodesicNet, j_field: NetField,
                            steps: tuple[float, float] = (1e-4, 1e-4)) -> tuple[float, float]:
    """d^2/dx ds of the length under (conformal amplitude x, displacement s J).

    Returns (closed_form, finite_difference): the quadrature of
    (1/2) <grad h, J> L along the net, and the central mixed difference of
    the refined discrete length; both on the same grid, ``MIXED_REFINE``
    times finer than the net's.
    """
    step_x, step_s = steps
    if not (0 < step_x < np.inf and 0 < step_s < np.inf):  # written so that NaN fails too
        raise SolverError("FD steps must be finite and positive")
    fine_samples = {}
    fine_j = {}
    for e in net.graph.edges:
        shift = net.loop_shift(e.id)
        fine_samples[e.id] = stencils.upsample_curve(net.edge_samples[e.id], MIXED_REFINE,
                                                     loop_shift=shift)
        fine_j[e.id] = stencils.upsample_curve(
            j_field.edge_values[e.id], MIXED_REFINE,
            loop_shift=None if shift is None else np.zeros(net.dim),
        )
    fine_net = replace(net, edge_samples=fine_samples)
    fld = NetField(fine_j)
    closed = 0.0
    for e in net.graph.edges:
        s = fine_samples[e.id]
        shift = fine_net.loop_shift(e.id)
        v = stencils.velocity(s, loop_shift=shift)
        speed = g_norm(g0, s, v)
        w = stencils.quadrature_weights(s.shape[0], loop=shift is not None)
        pair = np.einsum("pi,pi->p", h_fld.gradient_many(s), fine_j[e.id])
        closed += 0.5 * e.multiplicity * float(w @ (pair * speed))

    def l_at(x, sdisp):
        g_x = ConformalChart(g0, h_fld, x) if x != 0.0 else g0
        moved = displace(fine_net, fld, sdisp) if sdisp != 0.0 else fine_net
        return length(g_x, moved)

    fd = (
        l_at(step_x, step_s) - l_at(step_x, -step_s) - l_at(-step_x, step_s) + l_at(-step_x, -step_s)
    ) / (4 * step_x * step_s)
    return closed, fd


@dataclass
class BreakOptions:
    svd_tol: float = 1e-6
    residual_tol: float = 5e-3
    solve: SolveOptions = field(default_factory=SolveOptions)


def break_degeneracy(chart: MetricChart, net: GeodesicNet,
                     opts: BreakOptions | None = None):
    """Stack conformal bumps until the Jacobi kernel is empty.

    Each step anchors a bump via the transversality construction for one
    kernel field, then applies its one-signed (squared-pairing) variant:
    that keeps the net exactly stationary, so it cannot dodge the bump by
    sliding along its symmetry orbit, while the transverse second
    variation gains a positive term that lifts the kernel eigenvalue.

    Returns (chart, net, kernel, history), the kernel that of the last net.
    Accepted steps never increase the kernel dimension; a step that would
    is retried at half amplitude.
    """
    opts = opts or BreakOptions()
    kernel = is_nondegenerate(chart, net, svd_tol=opts.svd_tol, residual_tol=opts.residual_tol)
    history = [{"bumps": 0, "kernel_dimension": kernel.dimension}]
    if kernel.nondegenerate:
        return chart, net, kernel, history
    cur_chart, cur_net = chart, net
    for bump_count in range(1, MAX_BUMPS + 1):
        spec, h_fld = build_condition_C_bump(cur_chart, cur_net, kernel.ambient[0])
        # the one-signed variant of the same bump, on the same anchor
        h_pin = DirectionalBumpField(
            h_fld.center, h_fld.radius, h_fld.direction, h_fld.anchor.values,
            h_fld.anchor.derivatives, chart=cur_chart, power=2,
        )
        x = BUMP_AMPLITUDE
        accepted = None
        while x >= BUMP_AMPLITUDE * MIN_AMPLITUDE_FACTOR:
            g_new = conformal_family(cur_chart, h_pin, x)
            try:
                res = solve_stationary(g_new, cur_net, opts.solve)
                new_kernel = is_nondegenerate(g_new, res.net, svd_tol=opts.svd_tol,
                                              residual_tol=opts.residual_tol)
            except SolverError:
                x *= 0.5
                continue
            except NotStationaryError as ex:
                raise StationarityLostError(
                    f"solved net under bump {bump_count} (amplitude {x:g}) failed the gate: {ex}"
                ) from ex
            if new_kernel.dimension <= kernel.dimension:
                accepted = (g_new, res.net, new_kernel, x)
                break
            x *= 0.5
        if accepted is None:
            raise NoProgressError(
                f"bump {bump_count} could not be applied without growing the kernel"
            )
        cur_chart, cur_net, kernel, x_used = accepted
        history.append(
            {
                "bumps": bump_count,
                "kernel_dimension": kernel.dimension,
                "amplitude": x_used,
                "edge": spec.edge,
                "radius": spec.radius,
            }
        )
        if kernel.nondegenerate:
            return cur_chart, cur_net, kernel, history
    raise NoProgressError(
        f"kernel still {kernel.dimension}-dimensional after {MAX_BUMPS} bumps"
    )
