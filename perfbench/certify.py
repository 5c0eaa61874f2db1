"""The lib-certify worker: one warm library session.

Usage: python3 perfbench/certify.py --seed N --seconds S --out PATH
       [--setup-only] [--trace TRACE_OUT]

Set-up imports the package, builds the cases with ``make_case`` (through
``specfile.spec_from_case``), moves each by a seeded isometry, and warms
every cached edge operator with one shooting pass.  Each timed pass then
certifies every kernel by two routes: ``jacobi_kernel`` (shooting) and
``reduced_hessian_fd`` with ``reduced_kernel_dimension`` (brute force).
The result document goes to PATH as JSON.
"""

import argparse
import json
import sys
import time

# (case, samples per edge, expected kernel dimension)
CASES = (("honeycomb-torus", 64, 2), ("sphere-theta", 64, 3), ("sphere-equator", 64, 2))


def _certify(g, chart, net) -> tuple[int, int]:
    shooting = g.jacobi_kernel(chart, net).dimension
    h_mat, _ = g.reduced_hessian_fd(chart, net)
    return shooting, g.reduced_kernel_dimension(h_mat)[0]


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace")
    args = p.parse_args()

    start = time.perf_counter()
    import numpy as np

    import geodesicnets as g
    from geodesicnets import specfile

    import_s = time.perf_counter() - start
    import inputs

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    rng = np.random.default_rng(args.seed)
    cases = []
    for name, n_samples, expected in CASES:
        spec = specfile.parse_spec(inputs.isometric(specfile.spec_from_case(name, n_samples), rng))
        cases.append((name, expected, spec.chart(), spec.net))
    for _, _, chart, net in cases:
        g.jacobi_kernel(chart, net)
    setup_s = time.perf_counter() - start

    passes = []
    measure_start = time.perf_counter()
    while not args.setup_only:
        pass_start = time.perf_counter()
        ops = []
        for name, expected, chart, net in cases:
            op_start = time.perf_counter()
            try:
                dims, error = _certify(g, chart, net), None
            except Exception as exc:  # a failed certification is a result, not a crash
                dims, error = None, f"{type(exc).__name__}: {exc}"
            ops.append({"case": name, "expected": expected, "dims": dims, "error": error,
                        "s": time.perf_counter() - op_start})
        now = time.perf_counter()
        passes.append({"s": now - pass_start, "ops": ops})
        # traced runs make exactly one pass, so their counts repeat
        if tracer or now - measure_start >= args.seconds:
            break

    doc = {"import_s": import_s, "setup_s": setup_s, "passes": passes}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    if tracer:
        tracer.dump(args.trace, {"import_s": import_s, "wall_s": time.perf_counter() - start})
    return 0


if __name__ == "__main__":
    sys.exit(main())
