"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload score-batch --seed 1 --seconds 30 --trace 0

The ops run closed-loop, one at a time, from this process. Times are
reported at reference speed: a fixed pure-Python loop, timed between ops
(``pace.py``), measures how fast the shared machine is running at the
moment, and every time is scaled to a machine where that loop takes
``pace.REFERENCE_MS``. The report also gives the wall-clock figures.

Every output is checked against the independent reference in
``reference.py``; a wrong value, a dual-path mismatch, an unexpected exit
code or error code, a traceback or an exception counts the op as failed.
The second-to-last line of standard output is a full report (machine
record, sample counts, error rate, failures); the last line is the result
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
the first half of the run is untraced and the second half traced, and the
metrics are the per-layer ones plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pace import NEIGHBOURS, REFERENCE_MS, Pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("score-batch", "cross-check", "cli-cold")
# The machine's speed drifts between runs and within them, so set-up is
# timed in two batches, before and after the timed loop, each of at least
# SETUP_MIN_REPEATS set-ups lasting SETUP_MIN_S; setup_s is their median.
SETUP_MIN_REPEATS, SETUP_MIN_S, SETUP_MAX_REPEATS = 3, 0.75, 100
# Wall time between two reference-loop samples in a timed loop; an op that
# takes longer is a segment of its own.
PACE_EVERY_S = 0.025
FAILURES_SHOWN = 5

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# name -> (unit, span, "total" | "self" | "calls", divisor). A span measured
# in the timed loop is divided by its calls ("call") or by the ops ("op");
# a span that runs only during set-up is reported per set-up.
LAYER_SPANS = {
    "interpolation.profile_us": ("us", "interpolation.profile", "total", "call"),
    "interpolation.triangulate_us": ("us", "interpolation.triangulate", "total", "call"),
    "interpolation.natural_extension_self_us": (
        "us", "interpolation.natural_extension", "self", "call"
    ),
    "interpolation.moebius_form_eval_us": (
        "us", "interpolation.moebius_form_eval", "total", "call"
    ),
    "bipolar.profile_us": ("us", "bipolar.profile", "total", "call"),
    "bipolar.select_tile_us": ("us", "bipolar.select_tile", "total", "call"),
    "bipolar.evaluate_self_us": ("us", "bipolar.evaluate", "self", "call"),
    "bipolar.moebius_form_eval_us": ("us", "bipolar.moebius_form_eval", "total", "call"),
    "kary.interpolate_point_self_us": ("us", "kary.interpolate_point", "self", "call"),
    "kary.interpolate_signed_point_self_us": (
        "us", "kary.interpolate_signed_point", "self", "call"
    ),
    "kary.locate_point_us": ("us", "kary.locate_point", "total", "call"),
    "kary.bipolar_level_profile_us": ("us", "kary.bipolar_level_profile", "total", "call"),
    "kary.grid_shape_us": ("us", "kary.grid_shape", "total", "call"),
    "kary.base_builds_per_op": ("count", "kary.build_base", "calls", "op"),
    "fileio.parse_self_ms": ("ms", "fileio.parse", "self", "op"),
    "birkhoff.enumerate_ms": ("ms", "birkhoff.enumerate", "total", "call"),
    "moebius.capacity_build_ms": ("ms", "moebius.capacity_build", "total", "call"),
    "bipolar.admissible_pairs_ms": ("ms", "bipolar.admissible_pairs", "total", "call"),
    "bipolar.capacity_build_ms": ("ms", "bipolar.capacity_build", "total", "call"),
    "moebius.transform_ms": ("ms", "moebius.transform", "total", "call"),
    "moebius.bipolar_transform_ms": ("ms", "moebius.bipolar_transform", "total", "call"),
    "moebius.rota_calls_per_op": ("count", "moebius.rota", "calls", "op"),
    "cli.handler_self_ms": ("ms", "cli.handler", "self", "call"),
}
LAYER_CLI = {
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "cli.interpreter_ms": "ms",
    "cli.bare_python_ms": "ms",
}
LAYER_SIZES = {
    "birkhoff.lattice_size": "count",
    "bipolar.extension_size": "count",
    "interpolation.chain_length": "count",
    "rationals.max_denominator_bits": "bits",
}
LAYER_TRACE = {"trace.ops_per_s_delta": "1/s", "trace.overhead_pct": "%"}
UNIT_SCALE = {"us": 1e-3, "ms": 1e-6}


def load_choqlat():
    """Import ``choqlat`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "choqlat" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'choqlat'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import choqlat

    if Path(choqlat.__file__).resolve().parent != SRC / "choqlat":
        sys.exit(f"error: imported choqlat from {choqlat.__file__}, not from {SRC}")


def _child_seconds(argv, env=None, repeats=5) -> float:
    """Median wall time of a short child process."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, check=True,
            capture_output=True, timeout=60,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def machine_record() -> dict:
    """What separates machine drift from a program change."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "choqlat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdin=subprocess.DEVNULL,
            capture_output=True, text=True, timeout=30,
        )
        sha = done.stdout.strip() or None
    from cli_cold import child_env

    env = child_env()
    importing = (
        "import time; t = time.perf_counter(); import choqlat;"
        " print(time.perf_counter() - t)"
    )
    import_times = []
    for _ in range(5):
        done = subprocess.run(
            [sys.executable, "-c", importing], cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            check=True, capture_output=True, text=True, timeout=60,
        )
        import_times.append(float(done.stdout))
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_at_start": list(os.getloadavg()),
        "bare_python_ms": _child_seconds([sys.executable, "-c", "pass"]) * 1e3,
        "import_choqlat_ms": statistics.median(import_times) * 1e3,
    }


def make_workload(name, seed, known_defects):
    rng = random.Random(seed)
    if name == "score-batch":
        from score_batch import ScoreBatch

        return ScoreBatch(rng)
    if name == "cross-check":
        from cross_check import CrossCheck

        return CrossCheck(rng)
    from cli_cold import CliCold

    return CliCold(rng, ROOT, known_defects)


def timed_setups(workload) -> dict:
    """Wall and reference-speed set-up times. Each set-up sits between
    ``pace.NEIGHBOURS`` reference-loop samples on either side."""
    wall, scaled, pace = [], [], Pace()
    while len(wall) < SETUP_MIN_REPEATS or (
        sum(wall) < SETUP_MIN_S and len(wall) < SETUP_MAX_REPEATS
    ):
        gc.collect()
        for _ in range(NEIGHBOURS):
            pace.sample()
        last = len(pace.samples) - 1
        start = time.perf_counter()
        workload.setup()
        wall.append(time.perf_counter() - start)
        for _ in range(NEIGHBOURS):
            pace.sample()
        scaled.append(wall[-1] * pace.scale(last))
    return {"wall_s": wall, "scaled_s": scaled}


def closed_loop(workload, seconds) -> dict:
    """Run whole cycles of ops until ``seconds`` have passed; one op at a time.

    The reference loop runs between ops once PACE_EVERY_S has passed since
    its last run; the time it takes is left out of the ops' time."""
    latencies, segment_of, segments = [], [], []
    failures, by_kind, failed_by_kind = [], {}, {}
    pace = Pace()
    gc.collect()
    start = time.perf_counter()
    pace.sample()
    segment_start = time.perf_counter()
    index = 0
    while True:
        for kind, call, check in workload.cycle(index):
            began = time.perf_counter_ns()
            try:
                result = call()
            except Exception as exc:  # any exception is a failed op
                latencies.append(time.perf_counter_ns() - began)
                message = f"{kind}: {type(exc).__name__}: {exc}"
            else:
                latencies.append(time.perf_counter_ns() - began)
                try:
                    message = check(result)
                except Exception as exc:  # output not in the expected shape
                    message = f"{kind}: unreadable output: {type(exc).__name__}: {exc}"
            by_kind[kind] = by_kind.get(kind, 0) + 1
            if message:
                failures.append(message)
                failed_by_kind[kind] = failed_by_kind.get(kind, 0) + 1
            segment_of.append(len(segments))
            now = time.perf_counter()
            if now - segment_start >= PACE_EVERY_S:
                segments.append(now - segment_start)
                pace.sample()
                segment_start = time.perf_counter()
        index += 1
        if time.perf_counter() - start >= seconds:
            break
    segments.append(time.perf_counter() - segment_start)
    pace.sample()
    return {
        "latencies_ns": latencies,
        "segment_of": segment_of,
        "segments_s": segments,
        "pace": pace,
        "elapsed_s": sum(segments),
        "failures": failures,
        "by_kind": by_kind,
        "failed_by_kind": failed_by_kind,
    }


def warm_up(workload):
    """One untimed cycle, so lazy set-up and first-run caches are done."""
    for _, call, _ in workload.cycle(0):
        try:
            call()
        except Exception:  # failures are counted in the timed loop
            pass


def _timings(ms, elapsed_s, setups_s, peak_rss_mb) -> dict:
    deciles = statistics.quantiles(ms, n=10, method="inclusive") if len(ms) > 1 else ms * 9
    return {
        "ops_per_s": len(ms) / elapsed_s,
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": deciles[8],
        "setup_s": statistics.median(setups_s),
        "peak_rss_mb": peak_rss_mb,
    }


def _scales(loop) -> list[float]:
    return [loop["pace"].scale(i) for i in range(len(loop["segments_s"]))]


def scaled_elapsed_s(loop) -> float:
    """Loop time at reference speed."""
    return sum(s * scale for s, scale in zip(loop["segments_s"], _scales(loop)))


def end_to_end(loop, setups, peak_rss_mb) -> tuple[dict, dict]:
    """(reference-speed, wall-clock) end-to-end metrics of one loop."""
    scales = _scales(loop)
    wall_ms = [t / 1e6 for t in loop["latencies_ns"]]
    scaled_ms = [t * scales[i] for t, i in zip(wall_ms, loop["segment_of"])]
    scaled = _timings(scaled_ms, scaled_elapsed_s(loop), setups["scaled_s"], peak_rss_mb)
    wall = _timings(wall_ms, loop["elapsed_s"], setups["wall_s"], peak_rss_mb)
    return scaled, wall


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def _span_value(spec, setup_phase, setups, op_phase, ops) -> float:
    unit, span, field, divisor = spec
    calls, total, child = op_phase["stats"].get(span, (0, 0, 0))
    if not calls:
        calls, total, child = setup_phase["stats"].get(span, (0, 0, 0))
        if not calls or field == "calls":
            return 0.0
        divisor, ops = "op", setups
    if field == "calls":
        return calls / ops
    amount = (total if field == "total" else total - child) * UNIT_SCALE[unit]
    return amount / (calls if divisor == "call" else ops)


def layer_metrics(setup_phase, setups, op_phase, ops, cli=None) -> dict:
    """Every per-layer metric; a layer the workload never reaches reads 0."""
    values = {
        name: _span_value(spec, setup_phase, setups, op_phase, ops)
        for name, spec in LAYER_SPANS.items()
    }
    for name in LAYER_SIZES:
        values[name] = max(setup_phase["sizes"].get(name, 0), op_phase["sizes"].get(name, 0))
    for name in LAYER_CLI:
        values[name] = (cli or {}).get(name, 0.0)
    return values


def traced_in_process(workload, seconds):
    """Set up once and run the loop with every span wrapper installed."""
    import tracing

    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        before = tracer.snapshot()
        workload.setup()
        after_setup = tracer.snapshot()
        warm_up(workload)
        warmed = tracer.snapshot()
        loop = closed_loop(workload, seconds)
        done = tracer.snapshot()
    finally:
        restore()
    setup_phase = tracing.difference(after_setup, before)
    op_phase = tracing.difference(done, warmed)
    return loop, layer_metrics(setup_phase, 1, op_phase, len(loop["latencies_ns"]))


def traced_cli(workload, seconds, bare_python_ms):
    """Run the loop through the traced child, bench/cli_child.py, and merge its traces."""
    workload.traced = True
    warm_up(workload)
    workload.child_traces.clear()
    loop = closed_loop(workload, seconds)
    traces = workload.child_traces
    stats, sizes = {}, {}
    for trace in traces:
        for name, values in trace["stats"].items():
            stats[name] = [a + b for a, b in zip(stats.get(name, (0, 0, 0)), values)]
        for name, size in trace["sizes"].items():
            sizes[name] = max(sizes.get(name, 0), size)
    count = max(len(traces), 1)
    import_ms = sum(t["import_ns"] for t in traces) / count / 1e6
    main_ms = sum(t["main_ns"] for t in traces) / count / 1e6
    wall_ms = sum(loop["latencies_ns"]) / max(len(loop["latencies_ns"]), 1) / 1e6
    cli = {
        "cli.import_ms": import_ms,
        "cli.main_ms": main_ms,
        "cli.interpreter_ms": wall_ms - import_ms - main_ms,
        "cli.bare_python_ms": bare_python_ms,
    }
    empty = {"stats": {}, "sizes": {}}
    return loop, layer_metrics(empty, 1, {"stats": stats, "sizes": sizes}, count, cli)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--known-defects",
        action="store_true",
        help="cli-cold: add the 1e400 profile, which fails today, to every cycle",
    )
    args = parser.parse_args(argv)
    load_choqlat()

    machine = machine_record()
    workload = make_workload(args.workload, args.seed, args.known_defects)
    try:
        setups = timed_setups(workload)
        warm_up(workload)
        seconds = args.seconds / 2 if args.trace else args.seconds
        loop = closed_loop(workload, seconds)
        for key, values in timed_setups(workload).items():
            setups[key] += values
        untraced, wall = end_to_end(loop, setups, peak_rss_mb(args.workload == "cli-cold"))
        runs = [loop]
        if args.trace:
            if args.workload == "cli-cold":
                traced, layers = traced_cli(workload, seconds, machine["bare_python_ms"])
            else:
                traced, layers = traced_in_process(workload, seconds)
            runs.append(traced)
            traced_rate = len(traced["latencies_ns"]) / scaled_elapsed_s(traced)
            layers["trace.ops_per_s_delta"] = traced_rate - untraced["ops_per_s"]
            layers["trace.overhead_pct"] = (
                100 * (untraced["ops_per_s"] - traced_rate) / untraced["ops_per_s"]
            )
    finally:
        workload.close()

    attempted = sum(len(run["latencies_ns"]) for run in runs)
    failures = [message for run in runs for message in run["failures"]]
    if args.trace:
        units = {
            **{name: spec[0] for name, spec in LAYER_SPANS.items()},
            **LAYER_CLI,
            **LAYER_SIZES,
            **LAYER_TRACE,
        }
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
    else:
        metrics = {name: {"value": untraced[name], "unit": u} for name, u in END_TO_END.items()}

    by_kind: dict = {}
    failed_by_kind: dict = {}
    for run in runs:
        for kind, count in run["by_kind"].items():
            by_kind[kind] = by_kind.get(kind, 0) + count
        for kind, count in run["failed_by_kind"].items():
            failed_by_kind[kind] = failed_by_kind.get(kind, 0) + count
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "reference_loop_ms": {
            "reference": REFERENCE_MS,
            "median": loop["pace"].median_ms(),
            "samples": len(loop["pace"].samples),
        },
        "end_to_end": {
            name: {"value": untraced[name], "unit": unit} for name, unit in END_TO_END.items()
        },
        "end_to_end_wall": {
            name: {"value": wall[name], "unit": unit} for name, unit in END_TO_END.items()
        },
        "samples": {
            "ops": len(loop["latencies_ns"]),
            "setups": len(setups["wall_s"]),
            "traced_ops": attempted - len(loop["latencies_ns"]),
        },
        "error_rate": {
            "value": len(failures) / attempted,
            "failed": len(failures),
            "attempted": attempted,
        },
        "ops_by_kind": by_kind,
        "failed_by_kind": failed_by_kind,
        "failures": failures[:FAILURES_SHOWN],
    }
    if args.workload == "cli-cold":
        from cli_cold import EXCLUDED, KNOWN_DEFECT

        report["excluded_inputs"] = EXCLUDED
        report["known_defect"] = {**KNOWN_DEFECT, "timed": args.known_defects}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
