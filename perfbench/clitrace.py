"""Run one cayley CLI command with the layer tracer installed.

Usage: python clitrace.py TRACE_OUT.json -- CLI ARGS...

Stdout, stderr and the exit code are those of `python -m cayley.cli CLI ARGS`;
the tracer's totals and spans are written to TRACE_OUT.json at exit.
"""

import sys

from tracer import Tracer


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: clitrace.py TRACE_OUT.json -- CLI ARGS...")
    tracer = Tracer()
    tracer.install()
    import cayley.cli

    tracer.op = 0
    try:
        return cayley.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.uninstall()
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())
