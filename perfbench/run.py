"""geodesicnets benchmark: cold CLI, Newton and certification workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``cli-cold``, ``cli-newton``, ``lib-certify`` or ``all``.  The load
is a closed loop: one client runs the operations one after another and
starts at most one child process at a time.  Inputs come from ``--seed``
only.  Every output is checked; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
one traced pass gives the per-layer ones.  The lines before it report
the environment, every operation and every metric by name and unit.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-cold", "cli-newton", "lib-certify")
SETUP_REPEATS = 3          # set-ups per run (generate rounds or library sessions)
CHILD_TIMEOUT_S = 120.0    # one CLI child; the measured lib-certify session gets
SESSION_MARGIN_S = 120.0   # --seconds plus this margin
STATIONARITY_RULE = 1e-6
ROUNDTRIP_RULE = 1e-9
# Kernel dimension of each built-in stationary net, by either route.
KERNEL_DIMENSION = {"honeycomb-torus": 2, "sphere-theta": 3, "sphere-equator": 2}
# Operations that fail at the seed commit: label -> (start of the failure
# reason, cause).  They stay in the workloads and count as failed; only a
# failure whose reason starts this way leaves the run correct.
KNOWN_DEFECTS = {
    "solve:sphere-theta": ("exit 3: solver error: line search stalled",
                           "ROADMAP item 3: Newton stalls on the odd-even mode"),
    "continue:honeycomb-torus": ("bumped steps above",
                                 "ROADMAP item 3: bumped steps miss the 1e-6 rule"),
}
# One BLAS thread: a single client at a time, and bit-repeatable counts.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stderr: str


@dataclass
class Op:
    label: str          # "command:case"
    command: str
    wall_s: float
    ok: bool
    reason: str = ""


@dataclass
class Run:
    """Everything one workload run measured."""
    setup_s: list = field(default_factory=list)
    passes: list = field(default_factory=list)     # list[list[Op]]
    pass_s: list = field(default_factory=list)
    rss_mb: float = 0.0
    processes: int = 0
    import_s: list = field(default_factory=list)
    trace_docs: list = field(default_factory=list)
    results_bytes: int = 0
    traced_wall_s: float = 0.0

    def note(self, child: Child) -> Child:
        self.rss_mb = max(self.rss_mb, child.rss_mb)
        self.processes += 1
        return child

    def add_trace(self, path: Path) -> None:
        doc = json.loads(path.read_text())
        self.trace_docs.append(doc)
        self.import_s.append(doc["import_s"])
        self.traced_wall_s += doc["wall_s"]


class Bench:
    def __init__(self, workdir: Path, seed: int, seconds: float, trace: bool):
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
        self.run = Run()

    def child(self, argv: list[str], tag: str, timeout: float = CHILD_TIMEOUT_S) -> Child:
        """Run one process to completion; wall time and peak RSS from wait4."""
        err_path = self.workdir / f"{tag}.stderr"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(errors="replace").strip()
        return self.run.note(Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, stderr))

    # -- CLI workloads -------------------------------------------------------

    def cli(self, args: list[str], tag: str) -> Child:
        if self.trace:
            trace_path = self.workdir / f"{tag}.trace.json"
            res = self.child([sys.executable, str(BENCH / "cli_child.py"), str(trace_path), "--",
                              *args], tag)
            if trace_path.exists():
                self.run.add_trace(trace_path)
            return res
        return self.child([sys.executable, "-m", "geodesicnets.cli", *args], tag)

    def generate(self, cases: list[tuple[str, int]]) -> dict[str, dict]:
        """Write the base specs SETUP_REPEATS times; setup_s is the median round."""
        docs = {}
        for rnd in range(SETUP_REPEATS):
            total = 0.0
            for case, n in cases:
                path = self.workdir / f"{case}-{n}.json"
                res = self.child([sys.executable, "-m", "geodesicnets.cli", "generate",
                                  "--case", case, "--n-samples", str(n), "--out", str(path)],
                                 f"generate-{case}-{rnd}")
                if res.code != 0:
                    raise RuntimeError(f"generate {case} failed: {res.stderr}")
                total += res.wall_s
                docs[case] = json.loads(path.read_text())
            self.run.setup_s.append(total)
        return docs

    def write_inputs(self, specs: dict[str, dict]) -> dict[str, Path]:
        """Write each input spec and check that ``specfile.load_spec`` takes it."""
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from geodesicnets import specfile

        paths = {}
        for label, doc in specs.items():
            path = self.workdir / f"input-{label.replace(':', '-')}.json"
            path.write_text(json.dumps(doc))
            specfile.load_spec(str(path))
            paths[label] = path
        return paths

    def cli_pass(self, ops: list[tuple[str, Path, list[str]]], index: int) -> list[Op]:
        out = []
        for label, spec, extra in ops:
            command = label.split(":")[0]
            result_path = self.workdir / f"result-{index}-{label.replace(':', '-')}.json"
            result_path.unlink(missing_ok=True)
            res = self.cli([command, "--spec", str(spec), "--out", str(result_path), *extra],
                           f"pass{index}-{label.replace(':', '-')}")
            if res.code != 0:
                tail = res.stderr.splitlines()[-1] if res.stderr else ""
                out.append(Op(label, command, res.wall_s, False, f"exit {res.code}: {tail}"))
                continue
            try:
                doc = json.loads(result_path.read_text())
                reason = check_cli(label, doc["report"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable results document: {exc!r}"
            else:
                self.run.results_bytes += _results_bytes(doc)
            out.append(Op(label, command, res.wall_s, reason is None, reason or ""))
        return out

    def timed_passes(self, one_pass) -> None:
        """Passes while less than ``seconds`` has gone by; traced runs make one."""
        measure_start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            self.run.passes.append(one_pass(len(self.run.passes)))
            now = time.perf_counter()
            self.run.pass_s.append(now - pass_start)
            if self.trace or now - measure_start >= self.seconds:
                return

    def cli_cold(self) -> None:
        import numpy as np

        import inputs

        base = self.generate([("honeycomb-torus", 64), ("sphere-equator", 64)])
        rng = np.random.default_rng(self.seed)
        paths = self.write_inputs({case: inputs.isometric(base[case], rng)
                                   for case in ("honeycomb-torus", "sphere-equator")})
        ops = [
            ("check:honeycomb-torus", paths["honeycomb-torus"], []),
            ("jacobi:honeycomb-torus", paths["honeycomb-torus"], []),
            ("chart-roundtrip:honeycomb-torus", paths["honeycomb-torus"], ["--seed", str(self.seed)]),
            ("jacobi:sphere-equator", paths["sphere-equator"], []),
        ]
        self.timed_passes(lambda i: self.cli_pass(ops, i))

    def cli_newton(self) -> None:
        import numpy as np

        import inputs

        base = self.generate([("honeycomb-torus", 32), ("flat-loop", 32), ("sphere-theta", 32)])
        shape = np.random.default_rng(inputs.SHAPE_SEED)
        specs = {f"solve:{case}": inputs.perturbed(base[case], shape)
                 for case in ("honeycomb-torus", "flat-loop", "sphere-theta")}
        specs["perturb:honeycomb-torus"] = base["honeycomb-torus"]
        specs["continue:honeycomb-torus"] = inputs.with_continue_bump(
            inputs.perturbed(base["honeycomb-torus"], shape))
        rng = np.random.default_rng(self.seed)
        paths = self.write_inputs({label: inputs.isometric(doc, rng, half_turns=True)
                                   for label, doc in specs.items()})
        ops = [(label, path, []) for label, path in paths.items()]
        self.timed_passes(lambda i: self.cli_pass(ops, i))

    # -- library workload ----------------------------------------------------

    def lib_certify(self) -> None:
        """SETUP_REPEATS sessions; only the last one goes on to the timed passes."""
        worker = [sys.executable, str(BENCH / "certify.py"), "--seed", str(self.seed)]
        for k in range(SETUP_REPEATS):
            last = k == SETUP_REPEATS - 1
            out = self.workdir / f"certify-{k}.json"
            argv = [*worker, "--seconds", str(self.seconds), "--out", str(out)]
            if not last:
                argv.append("--setup-only")
            elif self.trace:
                argv += ["--trace", str(self.workdir / "certify.trace.json")]
            res = self.child(argv, f"certify-{k}",
                             self.seconds + SESSION_MARGIN_S if last else CHILD_TIMEOUT_S)
            if res.code != 0:
                raise RuntimeError(f"lib-certify session failed: {res.stderr}")
            doc = json.loads(out.read_text())
            self.run.setup_s.append(doc["setup_s"])
        for p in doc["passes"]:
            self.run.pass_s.append(p["s"])
            self.run.passes.append([certify_op(op) for op in p["ops"]])
        if self.trace:
            self.run.add_trace(self.workdir / "certify.trace.json")


# -- output checks -------------------------------------------------------------

def _results_bytes(doc: dict) -> int:
    """Size of a results document as the CLI writes it, timestamp left empty."""
    return len(json.dumps(dict(doc, timestamp=""), indent=2, sort_keys=True)) + 1


def check_cli(label: str, report: dict) -> str | None:
    """Reason the output of a CLI operation breaks its rule, or None."""
    command, case = label.split(":")
    if command == "check":
        if not report["stationarity"]["stationary"]:
            return f"stationarity {report['stationarity']['aggregate']:.3g} on a stationary input"
    elif command == "jacobi":
        dim = report["kernel"]["dimension"]
        if dim != KERNEL_DIMENSION[case]:
            return f"kernel dimension {dim}, expected {KERNEL_DIMENSION[case]}"
    elif command == "chart-roundtrip":
        if not report["roundtrip_worst"] <= ROUNDTRIP_RULE:
            return f"round-trip error {report['roundtrip_worst']:.3g} > {ROUNDTRIP_RULE:g}"
        if not report["equivalence_check"]:
            return "equivalence check failed"
    elif command == "solve":
        res = report["stationarity"]["aggregate"]
        if not res <= STATIONARITY_RULE:
            return f"stationarity residual {res:.3g} > {STATIONARITY_RULE:g}"
    elif command == "perturb":
        history = [h["kernel_dimension"] for h in report["history"]]
        if report["verdict"] != "nondegenerate" or history != [2, 1, 0]:
            return f"verdict {report['verdict']}, kernel history {history}"
    elif command == "continue":
        bad = [s for s in report["steps"] if not s["stationarity"]["aggregate"] <= STATIONARITY_RULE]
        if bad:
            # the unbumped step (amplitude 0) failing is not the known defect
            kind = "bumped steps" if all(s["amplitude"] > 0 for s in bad) else "steps"
            return (f"{kind} above the {STATIONARITY_RULE:g} rule (amplitude: residual) "
                    + ", ".join(f"{s['amplitude']:g}: {s['stationarity']['aggregate']:.3g}"
                                for s in bad))
    return None


def known_failure(op: Op) -> bool:
    expected = KNOWN_DEFECTS.get(op.label)
    return not op.ok and expected is not None and op.reason.startswith(expected[0])


def certify_op(op: dict) -> Op:
    label = f"certify:{op['case']}"
    if op["error"]:
        return Op(label, "certify", op["s"], False, op["error"])
    shooting, brute = op["dims"]
    if shooting != op["expected"] or brute != op["expected"]:
        return Op(label, "certify", op["s"], False,
                  f"kernel dimensions {shooting} (shooting) and {brute} (reduced FD), "
                  f"expected {op['expected']}")
    return Op(label, "certify", op["s"], True)


# -- report --------------------------------------------------------------------

def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):  # the layout differs between numpy versions
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        # the ceiling keeps git from reporting a repository that encloses the checkout
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
                                ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"], "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit}


PER_COMMAND = {"cli-cold": ("check", "jacobi", "chart-roundtrip"),
               "cli-newton": ("solve", "perturb", "continue"),
               "lib-certify": ("certify",)}
METRIC_OF_COMMAND = {"chart-roundtrip": "roundtrip_s"}


def end_to_end(workload: str, run: Run) -> dict:
    """Every end-to-end metric: name -> (value, unit, samples)."""
    ops = [op for ops in run.passes for op in ops]
    out = {
        "setup_s": (statistics.median(run.setup_s), "s", len(run.setup_s)),
        "pass_s": (statistics.median(run.pass_s), "s", len(run.pass_s)),
        "peak_rss_mb": (run.rss_mb, "MB", run.processes),
        "ops_failed_frac": (sum(not op.ok for op in ops) / len(ops), "ratio", len(ops)),
    }
    for command in PER_COMMAND[workload]:
        per_pass = [sum(op.wall_s for op in ops if op.command == command) for ops in run.passes]
        name = METRIC_OF_COMMAND.get(command, f"{command}_s")
        out[name] = (statistics.median(per_pass), "s", len(per_pass))
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".perfbench"))
    try:
        bench = Bench(workdir, seed, seconds, trace)
        {"cli-cold": bench.cli_cold, "cli-newton": bench.cli_newton,
         "lib-certify": bench.lib_certify}[workload]()
        run = bench.run
        ops = [op for ops in run.passes for op in ops]
        for op in ops:
            status = "ok" if op.ok else "FAIL"
            known = f"  [known: {KNOWN_DEFECTS[op.label][1]}]" if known_failure(op) else ""
            print(f"# {workload} op {op.label} {status} {op.wall_s:.4f} s {op.reason}{known}".rstrip())
        print(f"# {workload} setups " + " ".join(f"{s:.4f}" for s in run.setup_s) + " s")
        summary = {
            "correct": all(op.ok or known_failure(op) for op in ops),
            "attempted": len(ops),
            "failed": sum(not op.ok for op in ops),
        }
        if trace:
            import layers
            import tracer

            span_cost, count_cost = tracer.per_call_overhead()
            metrics = layers.layer_metrics(run.trace_docs, run.import_s,
                                           run.results_bytes,
                                           span_cost, count_cost, run.traced_wall_s)
            summary["metrics"] = {k: (v, layers.unit_of(k), 1) for k, v in metrics.items()}
        else:
            summary["metrics"] = end_to_end(workload, run)
        for name, (value, unit, samples) in summary["metrics"].items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"# {workload} metric {name} {shown} {unit} (samples {samples})")
        return summary
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench").rmdir()


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "geodesicnets" / "__init__.py").is_file():
        print(f"error: no geodesicnets sources under {SRC}", file=sys.stderr)
        return 2
    try:
        listing = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    listed = listing["per_layer" if args.trace else "end_to_end"]

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# env " + " ".join(f"{k}={v!r}" for k, v in environment().items()))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {},
    }
    for w, r in results.items():
        # one workload: exactly the metrics BENCHMARK.json lists; "all": every
        # metric of every workload, prefixed with its name
        if args.workload == "all":
            chosen, prefix = list(r["metrics"]), f"{w}."
        else:
            chosen, prefix = [m["name"] for m in listed if m["name"] in r["metrics"]], ""
        for name in chosen:
            value, unit, _ = r["metrics"][name]
            if value is not None:
                final["metrics"][prefix + name] = {"value": value, "unit": unit}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
