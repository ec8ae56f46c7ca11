"""The repository's benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--runs K] [--seed N]

``NAME`` is ``offline-cold``, ``offline-warm`` or ``serve-replay`` (see
``offline.py``, ``replay.py`` and ``workloads.json``). A run starts the
program from this checkout's ``src/`` in fresh interpreters, measures
for about ``--seconds`` and checks every output; it prints a report and,
as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, from untraced
processes. With ``--trace 1`` the program runs with span recorders
around each layer's public functions (``tracer.py``) and the metrics are
the per-layer ones, plus the traced set-up and run time against which
the tracing overhead is judged.

``--workload all`` runs each workload ``--runs`` times untraced (seeds
N, N+1, ...) and once traced, and prints every end-to-end metric's
median, quartiles and sample count, the per-layer tables and the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback

import offline
import replay
from harness import ROOT, SRC, load_config
from layers import UNITS as LAYER_UNITS
from stats import summary

WORKLOADS = ("offline-cold", "offline-warm", "serve-replay")
# The end-to-end metrics of BENCHMARK.json, judged run against run.
E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "max_rate_qps": "1/s",
    "peak_rss_mb": "MB",
}
# Printed in the report only. On the shared 2-CPU host the benchmark was
# tuned on, whole runs slowed by up to 30%; over ten seeds these short-
# window figures spread by 0.25-0.58 of their median (quartile distance),
# past the largest bound a judged metric may have. ``l1_hit_share``
# describes the traffic mix that the serve latencies depend on.
REPORTED_UNITS = {
    "examples_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "peak_p95_ms": "ms",
    "l1_hit_share": "ratio",
    "distinct_p50_ms": "ms",
}
UNITS = {**E2E_UNITS, **REPORTED_UNITS}
EXTRA_LAYER_UNITS = {
    "serve.query_ms": "ms",
    "serve.wait_ms": "ms",
    "serve.l1_hit_share": "ratio",
    "gen_late_max_ms": "ms",
    "trace.setup_s": "s",
    "trace.run_s": "s",
}


def run_workload(name: str, seed: int, seconds: float, trace: bool, config: dict) -> dict:
    if name == "serve-replay":
        return add_layers(replay.run(seed, seconds, trace, config))
    return add_layers(offline.run(name, seed, seconds, trace, config))


def add_layers(result: dict) -> dict:
    """Adds ``layers``: the per-layer metric values, the base of each
    ratio and the layer table, when the run was traced and completed."""
    spans = result.get("trace")
    if spans is None or not result["samples"]:
        return result
    values, bases = spans.metrics()
    extra = result.get("extra", {})
    values["persist.store_bytes"] = result["store_bytes"]
    for key in ("serve.query_ms", "serve.wait_ms", "serve.l1_hit_share", "gen_late_max_ms"):
        values[key] = extra.get(key) or 0.0
    bases.update(result.get("extra_bases", {}))
    values["trace.setup_s"] = result["samples"]["setup_s"]["value"]
    values["trace.run_s"] = result["samples"]["run_s"]["value"]
    result["layers"] = (values, bases, spans.layer_table())
    return result


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_run(name: str, seed: int, result: dict, trace: bool) -> None:
    print(f"== {name}  seed {seed}  {'traced' if trace else 'untraced'}")
    print(f"{'metric':<19}{'unit':<7}{'value':>12}{'q1':>12}{'q3':>12}{'n':>7}")
    for metric, sample in result["samples"].items():
        print(
            f"{metric:<19}{UNITS[metric]:<7}{_fmt(sample['value']):>12}"
            f"{_fmt(sample.get('q1', '')):>12}{_fmt(sample.get('q3', '')):>12}{sample['n']:>7}"
        )
    for phase in result.get("phases", ()):
        print(
            f"  phase {phase['phase']:<10} {phase['rate_qps']:>5} qps  n {phase['n']:>4}"
            f"  ok {phase['ok']:>4}  l1 {phase['l1']:>4}"
            f"  p50 {phase['p50_ms']:8.1f} ms  p95 {phase['p95_ms']:8.1f} ms"
            f"  achieved {phase['achieved_qps']:6.2f} qps  late max {phase['late_max_ms']:7.1f} ms"
            f"  backlog {phase['backlog']}  {'pass' if phase['passes'] else 'FAIL'}"
        )
    if "layers" in result:
        values, bases, table = result["layers"]
        print(f"{'layer':<12}{'spans':>9}{'busy_s':>12}{'self_s':>12}")
        for row in table:
            print(f"{row['layer']:<12}{row['spans']:>9}{row['busy_s']:>12.4f}{row['self_s']:>12.4f}")
        for key, value in values.items():
            base = f"   ({bases[key]})" if key in bases else ""
            print(f"  {key:<26}{_fmt(value):>14}{base}")
    print(f"ops attempted {result['attempted']}  failed {len(result['failures'])}")
    for failure in result["failures"][:20]:
        print(f"  FAILED: {failure}")


def result_line(result: dict, trace: bool) -> dict:
    if trace and "layers" in result:
        values = result["layers"][0]
        units = {**LAYER_UNITS, **EXTRA_LAYER_UNITS}
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    else:
        metrics = {
            k: {"value": result["samples"][k]["value"], "unit": unit}
            for k, unit in E2E_UNITS.items()
            if k in result["samples"]
        }
    failed = len(result["failures"])
    return {
        "correct": failed == 0,
        "attempted": max(1, result["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float, runs: int, config: dict) -> dict:
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        values: "dict[str, list]" = {}
        for i in range(runs):
            result = run_workload(name, seed + i, seconds, False, config)
            print_run(name, seed + i, result, trace=False)
            attempted += result["attempted"]
            failed += len(result["failures"])
            for metric, sample in result["samples"].items():
                values.setdefault(metric, []).append(sample["value"])
        traced = run_workload(name, seed, seconds, True, config)
        print_run(name, seed, traced, trace=True)
        attempted += traced["attempted"]
        failed += len(traced["failures"])
        print(f"== {name}: {runs} untraced runs")
        print(f"{'metric':<19}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}{'n':>5}")
        for metric, series in values.items():
            s = summary(series)
            metrics[f"{name}.{metric}"] = {"value": s["value"], "unit": UNITS[metric]}
            print(
                f"{metric:<19}{UNITS[metric]:<7}{_fmt(s['value']):>12}"
                f"{_fmt(s['q1']):>12}{_fmt(s['q3']):>12}{s['n']:>5}"
            )
        for metric in ("setup_s", "run_s"):
            if traced["samples"] and values.get(metric):
                ratio = traced["samples"][metric]["value"] / summary(values[metric])["value"]
                print(
                    f"tracing overhead {metric}: traced {_fmt(traced['samples'][metric]['value'])}"
                    f" / untraced median {_fmt(summary(values[metric])['value'])} = {ratio:.3f}"
                )
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: "list[str] | None" = None) -> int:
    config = load_config()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=config["default_seed"])
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=3, help="untraced runs per workload (all)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so every session still reaps its
    # processes and deletes its directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "runtime" / "cli.py").is_file():
        print(f"perfbench: no program sources at {SRC.relative_to(ROOT)}/repro", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            line = run_all(args.seed, args.seconds, args.runs, config)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), config)
            print_run(args.workload, args.seed, result, bool(args.trace))
            line = result_line(result, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
