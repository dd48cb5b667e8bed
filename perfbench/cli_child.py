"""Run one ``ionoptics`` CLI step with its library calls traced.

Usage: python -X importtime perfbench/cli_child.py SPANS_JSON CLI_ARGS...

Times ``import ionoptics.cli``, wraps the entry points listed in
``spans.WRAPS`` (and the CLI's own bindings of them), runs the step
through ``ionoptics.cli.main`` and writes the spans, counts and import
time to SPANS_JSON. Exits with the CLI's exit code.
"""

import json
import sys
from time import perf_counter

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    from ionoptics import cli
    import_s = perf_counter() - t0

    tracer = spans.Tracer()
    tracer.install(aliases=(cli,))
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, **tracer.dump()}, fh)


if __name__ == "__main__":
    sys.exit(main())
