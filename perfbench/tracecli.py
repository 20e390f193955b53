"""Run one qptycho CLI command with span tracing installed.

Usage: python3 perfbench/tracecli.py SPANS.npz <qptycho command and options>

The spans are written to SPANS.npz when the command ends, for the parent
benchmark process to merge. ``PYTHONPATH`` must already reach ``src/``.
"""
import sys

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from qptycho import cli

    try:
        return cli.main(argv)
    finally:
        tracer.save(spans_path)


if __name__ == "__main__":
    sys.exit(main())
