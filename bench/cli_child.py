"""Traced stand-in for ``python -m choqlat.cli`` in one cli-cold child.

Usage: python bench/cli_child.py TRACE_FILE ARGS...

Times ``import choqlat.cli``, installs the span wrappers, runs
``choqlat.cli.main(ARGS)`` and writes the import time, the ``main`` time
and the spans to TRACE_FILE as JSON, also when ``main`` raises.
"""

import time

start = time.perf_counter_ns()
import choqlat.cli  # noqa: E402

imported = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def run(trace_file: str, argv: list[str]) -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    began = time.perf_counter_ns()
    try:
        return choqlat.cli.main(argv)
    finally:
        record = {
            "import_ns": imported - start,
            "main_ns": time.perf_counter_ns() - began,
            **tracer.snapshot(),
        }
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


if __name__ == "__main__":
    raise SystemExit(run(sys.argv[1], sys.argv[2:]))
