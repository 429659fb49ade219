"""Run one sbmfit CLI command in a fresh interpreter with span tracing on.

    python3 perfbench/traced_cli.py SPAN_FILE OP_ID fit graph.txt --k 2 ...

Times `import sbmfit.cli` as the span cli.import, wraps the package's
public functions, runs `sbmfit.cli.main` on the remaining arguments and
writes the spans to SPAN_FILE once, on the way out.
"""

import sys

from tracing import Tracer, save_spans


def main():
    span_file, op, *argv = sys.argv[1:]
    tracer = Tracer()
    tracer.set_op(op)
    tracer.enabled = True
    idx = tracer.span_begin("cli.import")
    import sbmfit.cli

    tracer.span_end(idx)
    tracer.install()
    try:
        return sbmfit.cli.main(argv)
    finally:
        tracer.enabled = False
        save_spans(span_file, tracer.arrays())


if __name__ == "__main__":
    sys.exit(main())
