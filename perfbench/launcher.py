"""Run ``sigfatigue.cli.main`` with the benchmark's span wrappers installed.

    python perfbench/launcher.py SPANS.json CLI-ARGUMENT...

Behaves like ``python -m sigfatigue.cli CLI-ARGUMENT...`` and also writes
the spans of the call to SPANS.json.  The import of ``sigfatigue.cli``
happens before the wrappers exist, so it is not part of any span.
"""

import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import sigfatigue.cli

    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        return sigfatigue.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
