"""Smoke check of the benchmark itself: a very short run of every workload.

Usage, from the root of a checkout:  python3 bench/smoke.py

Asserts that every metric in BENCHMARK.json is printed with its unit, that
the report carries all six end-to-end metrics (error_rate included) with
sample counts, that score-batch and cross-check fail no op, and that on
cli-cold with --known-defects the error rate is exactly the share of 1e400
ops. Exits 1 on the first broken promise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = "1"


def run(workload, trace, *extra):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", SECONDS, "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise AssertionError(f"{workload}: exit {done.returncode}\n{done.stderr}")
    report_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(report_line)["report"], json.loads(result_line)


def check_metrics(label, metrics, expected):
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: metric["unit"] for name, metric in metrics.items()}
    if got != want:
        raise AssertionError(f"{label}: metrics {got} differ from BENCHMARK.json {want}")
    for name, metric in metrics.items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
            raise AssertionError(f"{label}: malformed metric {name}: {metric}")


def check_run(label, report, result):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if result["attempted"] < 1 or result["failed"] != report["error_rate"]["failed"]:
        raise AssertionError(f"{label}: counts {result['attempted']}, {result['failed']}")
    names = set(report["end_to_end"]) | {"error_rate"}
    six = {"ops_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s", "error_rate", "peak_rss_mb"}
    if names != six:
        raise AssertionError(f"{label}: report end-to-end metrics {sorted(names)}")
    samples = report["samples"]
    if samples["ops"] < 1 or samples["setups"] < 1:
        raise AssertionError(f"{label}: sample counts {samples}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload} --trace {trace}"
            report, result = run(workload, trace)
            check_run(label, report, result)
            check_metrics(label, result["metrics"], expected)
            if result["failed"] or not result["correct"]:
                raise AssertionError(f"{label}: failed ops {report['failures']}")
            print(f"ok  {label}: {result['attempted']} ops, error_rate 0")

    label = "cli-cold --known-defects"
    report, result = run("cli-cold", 0, "--known-defects")
    check_run(label, report, result)
    defects = report["ops_by_kind"].get("1e400", 0)
    if defects < 1 or report["error_rate"]["value"] != defects / result["attempted"]:
        raise AssertionError(
            f"{label}: error_rate {report['error_rate']} is not the share of"
            f" {defects} 1e400 ops; failed ops by kind {report['failed_by_kind']}"
        )
    print(f"ok  {label}: error_rate {report['error_rate']['value']:.4f} = {defects} 1e400 ops"
          f" / {result['attempted']}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"FAIL {exc}")
        sys.exit(1)
