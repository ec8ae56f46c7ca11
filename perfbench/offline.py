"""The offline workloads: ``repro-run`` from spawn to exit.

``offline-cold``: ``--joint --mode human`` into an empty store each
repetition, so every generation misses and is written to the store.

``offline-warm``: ``--task table --mode abstain`` against a store that
the run's set-up fills once with the same command and compacts with
``repro-cache compact``, so every generation is a disk hit.

Each repetition is a fresh interpreter with a fresh artifact; the run
repeats until ``--seconds`` would be exceeded (at least twice), and
reports medians over the repetitions.
"""

from __future__ import annotations

import hashlib
import json
import time

from harness import Session, tree_bytes
from layers import Trace
from stats import percentile, summary

COMMON = ("--benchmark", "bird", "--split", "dev", "--scale", "small")
ARGS = {
    "offline-cold": ("--joint", "--mode", "human"),
    "offline-warm": ("--task", "table", "--mode", "abstain"),
}
N_DEV = 252


def _repetition(session: Session, name: str, seed: int, index: int, store, env) -> dict:
    rep_dir = session.subdir(f"rep-{index}")
    artifact = rep_dir / "run.jsonl"
    args = [*COMMON, *ARGS[name], "--corpus-seed", seed, "--cache-dir", store, "--artifact", artifact]
    marks = session.call("run", args, rep_dir, env)
    rep = {"marks": marks, "code": marks["code"]}
    if marks["code"] != 0 or "ready" not in marks:
        return rep
    rep["payload"] = json.loads((rep_dir / "run.out").read_text())
    rep["summary"] = artifact.with_name(artifact.name + ".summary.json").read_bytes()
    rep["setup_s"] = marks["ready"] - marks["spawned"]
    rep["run_s"] = marks["exited"] - marks["spawned"]
    n = rep["payload"]["n_evaluated"]
    rep["examples_per_s"] = n / (marks["evaluated"] - marks["ready"])
    rep["job_rate"] = n / rep["run_s"]
    return rep


def _check(rep: dict, warm: bool, reference: "bytes | None") -> "list[str]":
    """The correctness checks one repetition must pass."""
    if rep["code"] != 0 or "payload" not in rep:
        return [f"repro-run exited with {rep['code']}"]
    payload = rep["payload"]
    problems = []
    if payload["n_evaluated"] != N_DEV or payload["n_resumed"] != 0:
        problems.append(
            f"evaluated {payload['n_evaluated']} / resumed {payload['n_resumed']}, "
            f"expected {N_DEV} / 0"
        )
    if warm and payload["generation_cache"]["misses"] != 0:
        problems.append(f"warm run missed {payload['generation_cache']['misses']} generations")
    if reference is not None and rep["summary"] != reference:
        problems.append("summary differs from the reference summary")
    return problems


def run(name: str, seed: int, seconds: float, trace: bool, config: dict) -> dict:
    """One run of an offline workload; ``trace`` makes it one traced
    repetition."""
    failures: "list[str]" = []
    attempted = 0
    spans = None
    with Session(name) as session:
        env = session.env()
        trace_dir = session.subdir("trace") if trace else None
        store = session.subdir("store")
        reference = None
        if name == "offline-warm":
            prefill = _repetition(session, name, seed, 0, store, env)
            attempted += 1
            failures += _check(prefill, warm=False, reference=None)
            compact = session.call("cache", ["compact", "--cache-dir", store], session.dir, env)
            attempted += 1
            if compact["code"] != 0:
                failures.append(f"repro-cache compact exited with {compact['code']}")
            reference = prefill.get("summary")
        reps = []
        started = time.monotonic()
        while True:
            if name == "offline-cold":
                store = session.subdir(f"store-{len(reps) + 1}")
            rep_env = session.env(trace_dir) if trace_dir is not None else env
            rep = _repetition(session, name, seed, len(reps) + 1, store, rep_env)
            attempted += 1
            if reference is None:
                reference = rep.get("summary")
            failures += _check(rep, name == "offline-warm", reference)
            reps.append(rep)
            elapsed = time.monotonic() - started
            if trace or rep["code"] != 0:
                break
            if len(reps) >= 2 and elapsed * (len(reps) + 1) / len(reps) > seconds:
                break
        store_bytes = tree_bytes(store)
        if trace:
            spans = Trace(trace_dir)
    failures += [f"{session.leaked} process group(s) outlived their run"] * bool(session.leaked)
    good = [rep for rep in reps if "setup_s" in rep]
    if name == "offline-cold" and good:
        digest = hashlib.sha256(good[0]["summary"]).hexdigest()
        pinned = config["offline-cold"]["summary_sha256"]
        if seed == config["default_seed"] and digest != pinned:
            failures.append(f"summary sha256 {digest} differs from the pinned {pinned}")
    return {
        "attempted": attempted,
        "failures": failures,
        "samples": _samples(good),
        "store_bytes": store_bytes,
        "trace": spans,
    }


def _samples(reps: "list[dict]") -> dict:
    """End-to-end samples. Offline evaluation runs at one load level,
    its full rate, so the per-example latency percentiles also stand for
    the peak-rate figure; the highest rate is the job's own, examples
    per second from spawn to exit."""
    if not reps:
        return {}
    example_ms = [ms for rep in reps for ms in rep["marks"]["example_ms"]]
    p95 = {"value": percentile(example_ms, 95), "n": len(example_ms)}
    return {
        "setup_s": summary(rep["setup_s"] for rep in reps),
        "run_s": summary(rep["run_s"] for rep in reps),
        "max_rate_qps": summary(rep["job_rate"] for rep in reps),
        "peak_rss_mb": summary(rep["marks"]["peak_rss_mb"] for rep in reps),
        "examples_per_s": summary(rep["examples_per_s"] for rep in reps),
        "query_p50_ms": {"value": percentile(example_ms, 50), "n": len(example_ms)},
        "query_p95_ms": p95,
        "peak_p95_ms": p95,
    }
