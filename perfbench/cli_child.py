"""Run one ``geodesicnets`` command with every layer traced.

Usage: python3 perfbench/cli_child.py TRACE_OUT -- ARGS...

ARGS are the ``geodesicnets`` command-line arguments.  The spans go to
TRACE_OUT when the command ends; the exit code is the command's own.
"""

import sys
import time


def main() -> int:
    trace_out, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py TRACE_OUT -- ARGS...")
    start = time.perf_counter()
    import geodesicnets  # noqa: F401  (timed: the import every command pays)

    import_s = time.perf_counter() - start
    from geodesicnets import cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(trace_out, {"import_s": import_s, "wall_s": time.perf_counter() - start})


if __name__ == "__main__":
    sys.exit(main())
