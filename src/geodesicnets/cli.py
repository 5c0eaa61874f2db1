"""Command-line front end.

One spec file describes one experiment; every command reads a spec, runs
one pipeline stage and writes a deterministic results document (plus an
optional CSV of per-edge samples).

Exit codes: 0 success, 2 validation failure, 3 solver or numerical failure
(also a ``solve`` whose net fails the stationarity tolerance, whose results
document is still written, and a report holding a non-finite number, which
is not written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import jacobi, localcoords, solver, specfile
from .multigraph import classify
from .net import edge_lengths, length
from .variation import stationarity_residual

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="geodesicnets",
        description="stationary geodesic networks: residuals, Jacobi kernels, "
        "degeneracy breaking, metric continuation",
    )
    sub = p.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", required=True, help="net-spec JSON path")
    common.add_argument("--out", help="results JSON path")
    common.add_argument("--csv", help="per-edge sample CSV path")
    common.add_argument("--tol", type=float, help="stationarity tolerance override")
    common.add_argument("--svd-tol", type=float, help="kernel SVD tolerance override")
    common.add_argument("--seed", type=int,
                        help="seed of the random draws (overrides options.seed; default 0)")
    for name, helptext in [
        ("check", "stationarity residual report"),
        ("solve", "Newton solve to a stationary net"),
        ("jacobi", "Jacobi kernel and nondegeneracy verdict"),
        ("perturb", "conformal-bump degeneracy breaking"),
        ("continue", "continuation along the amplitude schedule"),
        ("chart-roundtrip", "path-coordinate chart test battery"),
        ("export-plot", "write per-edge samples as CSV"),
    ]:
        sub.add_parser(name, parents=[common], help=helptext)
    gen = sub.add_parser("generate", help="write a built-in case as a net-spec file")
    gen.add_argument("--case", required=True, help="honeycomb-torus | sphere-theta | sphere-equator | flat-loop")
    gen.add_argument("--n-samples", type=int, default=64)
    gen.add_argument("--out", required=True)
    return p


def _resolve(spec, args):
    options = dict(spec.options)
    for key in ("tol", "svd_tol", "seed"):
        if getattr(args, key) is not None:
            options[key] = getattr(args, key)
    options.setdefault("tol", 1e-8)
    options.setdefault("svd_tol", 1e-6)
    options.setdefault("seed", 0)
    # the stationarity gate of the command's kernel verdicts
    options.setdefault("residual_tol", solver.BreakOptions.residual_tol
                       if args.command == "perturb" else 1e-3)
    specfile.check_tolerances(options)
    return options


def _report_stationarity(chart, net, tol):
    rep = stationarity_residual(chart, net)
    doc = rep.as_dict()
    doc["tolerance"] = tol
    doc["stationary"] = bool(rep.aggregate <= tol)
    return doc


def _verdict(ker) -> str:
    return "nondegenerate" if ker.nondegenerate else "degenerate"


def _kernel_doc(ker, svd_tol):
    return {
        "dimension": ker.dimension,
        "singular_values": [float(x) for x in ker.singular_values],
        "threshold": ker.threshold,
        "svd_tol": svd_tol,
        "spectral_gap": None if not np.isfinite(ker.gap) else ker.gap,
        "ill_separated": ker.ill_separated,
    }


def _non_finite_key(value, key: str):
    """The key path of the first non-finite number in a report, or None."""
    if isinstance(value, dict):
        items = ((f"{key}.{k}", v) for k, v in value.items())
    elif isinstance(value, list):
        items = ((f"{key}[{i}]", v) for i, v in enumerate(value))
    else:
        return key if isinstance(value, float) and not math.isfinite(value) else None
    return next((bad for bad in (_non_finite_key(v, k) for k, v in items) if bad), None)


def _finish(args, command, options, report, net=None, fields=None):
    bad = _non_finite_key(report, "report")
    if bad:
        # strict JSON has no NaN or Infinity
        raise FloatingPointError(f"{bad} is not finite; no results document written")
    doc = specfile.results_document(command, options, report)
    if args.out:
        specfile.write_document(doc, args.out)
    else:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    if args.csv and net is not None:
        specfile.export_plot_csv(net, args.csv, fields=fields)
    return EXIT_OK


def _cmd_check(spec, args, options):
    chart = spec.chart()
    report = {
        "graph_class": classify(spec.graph).value,
        "stationarity": _report_stationarity(chart, spec.net, options["tol"]),
        "lengths": edge_lengths(chart, spec.net),
        "total_length": length(chart, spec.net),
    }
    return _finish(args, "check", options, report, net=spec.net)


def _cmd_solve(spec, args, options):
    chart = spec.chart()
    sopts = solver.SolveOptions(tolerance=min(options["tol"], 1e-9))
    res = solver.solve_stationary(chart, spec.net, sopts)
    report = {
        "converged": res.converged,
        "iterations": res.iterations,
        "gradient_norm": res.gradient_norm,
        "gradient_tolerance": sopts.tolerance,
        "trace": res.trace,
        "stationarity": _report_stationarity(chart, res.net, options["tol"]),
    }
    code = _finish(args, "solve", options, report, net=res.net)
    if not report["stationarity"]["stationary"]:
        raise solver.StationarityLostError(
            f"the solved net is not stationary (residual {report['stationarity']['aggregate']:.3g})")
    return code


def _cmd_jacobi(spec, args, options):
    chart = spec.chart()
    ker = jacobi.jacobi_kernel(chart, spec.net, svd_tol=options["svd_tol"],
                               residual_tol=options["residual_tol"])
    report = {
        "kernel": _kernel_doc(ker, options["svd_tol"]),
        "verdict": _verdict(ker),
        "stationarity": _report_stationarity(chart, spec.net, options["tol"]),
    }
    fields = None
    if ker.dimension:
        fields = ker.ambient[0].edge_values
    return _finish(args, "jacobi", options, report, net=spec.net, fields=fields)


def _cmd_perturb(spec, args, options):
    chart = spec.chart()
    bopts = solver.BreakOptions(svd_tol=options["svd_tol"], residual_tol=options["residual_tol"])
    _, net2, ker, history = solver.break_degeneracy(chart, spec.net, bopts)
    report = {
        "history": history,
        "verdict": _verdict(ker),
        "kernel_dimension": ker.dimension,
        "kernel": _kernel_doc(ker, options["svd_tol"]),
    }
    return _finish(args, "perturb", options, report, net=net2)


def _cmd_continue(spec, args, options):
    if spec.bump_field is None or not spec.amplitude_schedule:
        raise specfile.SpecError("continue needs metric.bumps and metric.amplitude_schedule")
    charts = [spec.chart(x) for x in spec.amplitude_schedule]
    results = solver.continue_family(charts, spec.net)
    report = {
        "amplitudes": spec.amplitude_schedule,
        "steps": [
            {
                "amplitude": x,
                "iterations": r.iterations,
                "gradient_norm": r.gradient_norm,
                "stationarity": _report_stationarity(c, r.net, options["tol"]),
            }
            for x, c, r in zip(spec.amplitude_schedule, charts, results)
        ],
    }
    return _finish(args, "continue", options, report, net=results[-1].net)


def _cmd_chart_roundtrip(spec, args, options):
    chart = spec.chart()
    nc = localcoords.build_net_chart(chart, spec.net)
    coords = localcoords.coordinates_of(nc, spec.net)
    rng = np.random.default_rng(options["seed"])
    worst = 0.0
    eid = spec.graph.edges[0].id
    tube = nc.tubes[eid]
    npts = spec.net.edge_samples[eid].shape[0]
    tgrid = np.linspace(0.0, 1.0, npts)
    for _ in range(200):
        a = float(rng.uniform(-0.9, 0.9) * tube.delta_long)
        b = float(1.0 + rng.uniform(-0.9, 0.9) * tube.delta_long)
        u = np.zeros((npts, spec.net.dim - 1))
        for k in (1, 2, 3):
            u[:, 0] += rng.normal() * np.sin(np.pi * k * tgrid)
        mx = np.abs(u).max()
        if mx > 0:
            u *= 0.5 * tube.delta_norm / mx
        pc = localcoords.PathCoord(a=a, b=b, u=u)
        rt = localcoords.xi_prime(localcoords.xi(pc))
        worst = max(worst, abs(rt.a - a), abs(rt.b - b), float(np.abs(rt.u - u).max()))
    h1, h2 = localcoords.mean_curvature_H(chart, nc, coords)
    c_res = localcoords.constraint_C(nc, coords)
    report = {
        "roundtrip_worst": worst,
        "roundtrip_tolerance": 1e-9,
        "constraint_norm": c_res.norm,
        "interior_residual_max": max(float(np.abs(v).max()) for v in h1.values()),
        "vertex_residual_max": max(float(np.linalg.norm(v)) for v in h2.values()),
        "equivalence_check": localcoords.stationarity_equivalence_check(
            chart, nc, coords, residuals=(h1, h2, c_res)),
    }
    ok = worst <= 1e-9 and report["equivalence_check"]
    code = _finish(args, "chart-roundtrip", options, report, net=spec.net)
    return code if ok else EXIT_VALIDATION


def _cmd_export_plot(spec, args, options):
    if not args.csv:
        raise specfile.SpecError("export-plot needs --csv")
    return _finish(args, "export-plot", options, {"exported": True}, net=spec.net)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "generate":
            doc = specfile.spec_from_case(args.case, n_samples=args.n_samples)
            specfile.write_document(doc, args.out)
            return EXIT_OK
        spec = specfile.load_spec(args.spec)
        options = _resolve(spec, args)
        handler = {
            "check": _cmd_check,
            "solve": _cmd_solve,
            "jacobi": _cmd_jacobi,
            "perturb": _cmd_perturb,
            "continue": _cmd_continue,
            "chart-roundtrip": _cmd_chart_roundtrip,
            "export-plot": _cmd_export_plot,
        }[args.command]
        return handler(spec, args, options)
    except (solver.SolverError, np.linalg.LinAlgError) as ex:
        # LinAlgError is a ValueError, but a numerical failure, not bad input
        print(f"solver error: {ex}", file=sys.stderr)
        return EXIT_SOLVER
    except ArithmeticError as ex:
        # an overflow, or a report with a non-finite number
        print(f"numerical failure: {ex}", file=sys.stderr)
        return EXIT_SOLVER
    except (specfile.SpecError, ValueError, KeyError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
