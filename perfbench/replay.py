"""The ``serve-replay`` workload: ``repro-serve`` under open-loop traffic.

The server is the documented fleet (``--backend process --transport
unix --gen-workers 2``), each boot on an empty store, serving the fixed
corpus ``corpus_seed`` of ``workloads.json``: the corpus is the server's
configuration, and a seed that changed its size would change the work
behind every request. A run boots the server ``boots`` times in a row;
each boot is timed from spawn to its ready line and from SIGINT to exit,
and the last boot, once ready, gets one process replaying a schedule
drawn from the seed:

* the mix is a heavy-tailed (Zipf-Mandelbrot) draw over the bird dev
  and test example ids, with tasks drawn from table, column and joint
  and modes from abstain and human. The exponent, offset and uniform
  task and mode mix are assumptions, not taken from a measured query
  log; the share of responses served from the in-memory tier is
  measured and reported with every run;
* arrivals are evenly spaced at fixed rates: a nominal phase, a peak
  phase and a ladder of rising rates, every rung always run, so the
  replay lasts the same whatever the server does;
* at most ``senders`` threads (no more than the CPU count) send, each
  holding one connection at a time, and each request is timed from the
  moment it was due, so a stall also delays every request behind it.

After the server has shut down, every 200 response's ``record`` is
compared byte for byte with the offline artifact line for the same
(example, task, mode), computed by ``launch.py reference`` with the
simulator backend into a store of its own, so a trace the remote data
plane got wrong shows as a mismatch.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import threading
import time

from harness import Session, peak_rss_mb, tree_bytes
from layers import Trace
from stats import backlog_growing, percentile, summary

TASKS = ("table", "column", "joint")
MODES = ("abstain", "human")
CLIENT_TIMEOUT_S = 30.0
MEMORY_TIER = "memory"  # ``diagnostics.cache_tier`` of an in-memory (L1) hit


def schedule(seed: int, phase: str, example_ids, rate: float, duration_s: float, zipf: dict):
    """``(due offset in s, request body)`` pairs for one phase: evenly
    spaced arrivals at ``rate``, the request mix drawn from ``seed``.

    Example popularity is Zipf-Mandelbrot, ``1 / (rank + 1 + q) ** s``,
    over one fixed ranking: which examples are popular is a property of
    the served corpus, the same in every run, while the seed draws the
    requests. ``s`` and ``q`` are an assumption chosen for steady
    figures, not fitted to a query log (see README.md); with a ranking
    drawn from the seed, the cost of the few examples it made popular
    moved the median latency by 40% between seeds."""
    rng = random.Random(f"{seed}:{phase}")
    ranked = sorted(example_ids)
    random.Random("popularity").shuffle(ranked)
    s, q = zipf["s"], zipf["q"]
    weights = list(itertools.accumulate(1.0 / (rank + 1 + q) ** s for rank in range(len(ranked))))
    out = []
    for i in range(max(1, round(rate * duration_s))):
        body = {
            "benchmark": "bird",
            "example_id": rng.choices(ranked, cum_weights=weights)[0],
            "task": rng.choice(TASKS),
            "mode": rng.choice(MODES),
        }
        out.append((i / rate, body))
    return out


def distinct_schedule(seed: int, example_ids, rate: float, duration_s: float, taken) -> list:
    """Like :func:`schedule`, but each request names an example that no
    other request of the run names (``taken`` holds those): the
    no-repeat control for the Zipf mix, whose generations cannot come
    from the in-memory tier by repetition."""
    rng = random.Random(f"{seed}:distinct")
    fresh = sorted(set(example_ids) - set(taken))
    picked = rng.sample(fresh, min(len(fresh), max(1, round(rate * duration_s))))
    return [
        (i / rate, {"benchmark": "bird", "example_id": example_id,
                    "task": rng.choice(TASKS), "mode": rng.choice(MODES)})
        for i, example_id in enumerate(picked)
    ]  # fmt: skip


def _post(port: int, body: dict) -> "tuple[int, bytes]":
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=CLIENT_TIMEOUT_S)
    try:
        conn.request(
            "POST", "/v1/query", json.dumps(body), {"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _get(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=CLIENT_TIMEOUT_S)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def replay_phase(port: int, requests, senders: int) -> "list[dict]":
    """Send ``requests`` on their schedule from ``senders`` threads."""
    start = time.monotonic() + 0.05
    results: "list[dict | None]" = [None] * len(requests)
    next_index = itertools.count()  # atomic: each request is claimed once
    max_threads = [0]

    def sender() -> None:
        while True:
            i = next(next_index)
            if i >= len(requests):
                return
            offset, body = requests[i]
            due = start + offset
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            max_threads[0] = max(max_threads[0], threading.active_count() - 1)
            try:
                status, payload = _post(port, body)
            except OSError as exc:
                status, payload = 0, repr(exc).encode()
            done = time.monotonic()
            results[i] = {
                "offset": offset,
                "body": body,
                "late_ms": (sent - due) * 1000.0,
                "round_trip_ms": (done - sent) * 1000.0,
                "latency_ms": (done - due) * 1000.0,
                "status": status,
                "payload": payload,
            }

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(senders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if max_threads[0] > senders:
        raise RuntimeError(f"{max_threads[0]} threads sent, more than {senders}")
    return results


def phase_stats(name: str, rate: float, results: "list[dict]", limit_ms: float) -> dict:
    """Latency percentiles, achieved rate, in-memory-tier share and
    pass/fail for one phase. A request that failed counts as taking the
    client timeout."""
    latencies = [
        r["latency_ms"] if r["status"] == 200 else CLIENT_TIMEOUT_S * 1000.0 for r in results
    ]
    ok = [r for r in results if r["status"] == 200]
    span_s = (max(r["offset"] + r["latency_ms"] / 1000.0 for r in results)) - results[0]["offset"]
    p95 = percentile(latencies, 95)
    growing = backlog_growing([r["offset"] for r in results], latencies, limit_ms)
    return {
        "phase": name,
        "rate_qps": rate,
        "n": len(results),
        "ok": len(ok),
        "l1": sum(_tier(r) == MEMORY_TIER for r in ok),
        "p50_ms": percentile(latencies, 50),
        "p95_ms": p95,
        "achieved_qps": len(ok) / span_s if span_s > 0 else 0.0,
        "late_max_ms": max(r["late_ms"] for r in results),
        "backlog": growing,
        "passes": p95 <= limit_ms and not growing and len(ok) == len(results),
        "results": results,
    }


def _tier(result: dict) -> "str | None":
    """The cache tier a 200 response says its generation came from."""
    return json.loads(result["payload"])["diagnostics"]["cache_tier"]


def highest_passing(phases: "list[dict]") -> "dict | None":
    """The passing phase with the highest rate, whatever failed below it."""
    passing = [p for p in phases if p["passes"]]
    return max(passing, key=lambda p: p["rate_qps"]) if passing else None


def plan(cfg: dict, seconds: float) -> "list[tuple[str, float, float]]":
    """``(phase, rate, seconds)`` for the replay: ``seconds`` split by
    ``phase_seconds_share``, the ladder's share evenly over its rungs,
    and last the no-repeat phase at the nominal rate."""
    shares = cfg["phase_seconds_share"]
    ladder = cfg["ladder_qps"]
    phases = [
        ("warmup", cfg["nominal_qps"], shares["warmup"]),
        ("nominal", cfg["nominal_qps"], shares["nominal"]),
        ("peak", cfg["peak_qps"], shares["peak"]),
    ]
    phases += [(f"ladder-{rate}", rate, shares["ladder"] / len(ladder)) for rate in ladder]
    phases += [("distinct", cfg["nominal_qps"], shares["distinct"])]
    return [(name, rate, share * seconds) for name, rate, share in phases]


def _wait_ready(proc, ready_file, timeout_s: float) -> "dict | None":
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        text = ready_file.read_text() if ready_file.exists() else ""
        if text.endswith("\n"):
            return json.loads(text.splitlines()[0])
        if proc.poll() is not None:
            return None
        time.sleep(0.01)
    return None


def _boot(session: Session, index: int, corpus_seed: int, env: dict) -> dict:
    """Start ``repro-serve`` on an empty store and wait for its ready
    line; ``ready`` is None when it never came."""
    server_dir = session.subdir(f"server-{index}")
    store = server_dir / "store"
    args = [
        "--benchmark", "bird", "--scale", "small",
        "--backend", "process", "--transport", "unix", "--gen-workers", "2",
        "--cache-dir", store, "--corpus-seed", corpus_seed,
        # a short relative socket path: unix socket paths are capped
        # near 108 bytes, and the checkout may sit deep
        "--address", "unix:supervisor.sock",
    ]  # fmt: skip
    ready_file = server_dir / "ready.json"
    with open(ready_file, "wb") as out:
        proc, spawned = session.launch(
            "serve", server_dir / "serve.marks.json", args, server_dir, env, stdout=out
        )
    ready = _wait_ready(proc, ready_file, 170.0)
    return {
        "proc": proc,
        "store": store,
        "ready": ready,
        "setup_s": time.monotonic() - spawned,
    }


def _shutdown(session: Session, boot: dict) -> "str | None":
    """SIGINT the server and time its exit; a failure message or None."""
    stopping = time.monotonic()
    code = session.stop(boot["proc"])
    boot["shutdown_s"] = time.monotonic() - stopping
    session.settle(boot["proc"])
    return f"repro-serve exited with {code}" if code != 0 else None


def run(seed: int, seconds: float, trace: bool, config: dict) -> dict:
    """One run; ``trace`` makes it a single traced boot."""
    cfg = config["serve-replay"]
    limit = cfg["latency_limit_ms"]
    senders = min(cfg["senders"], os.cpu_count() or 1)
    n_boots = 1 if trace else cfg["boots"]
    failures: "list[str]" = []
    attempted = 0
    phases: "list[dict]" = []
    responses: "list[dict]" = []
    boots: "list[dict]" = []
    spans = None
    with Session("serve-replay") as session:
        env = session.env()
        corpus_seed = cfg["corpus_seed"]
        ids = session.call("ids", [corpus_seed], session.dir, env)
        attempted += 1
        if ids["code"] != 0:
            failures.append(f"example ids: exited with {ids['code']}")
            return {"attempted": attempted, "failures": failures, "samples": {}}
        pool = ids["ids"]["dev"] + ids["ids"]["test"]
        phase_plan = plan(cfg, seconds)
        schedules = {
            name: schedule(seed, name, pool, rate, duration, cfg["zipf"])
            for name, rate, duration in phase_plan
            if name != "distinct"
        }
        taken = {body["example_id"] for requests in schedules.values() for _, body in requests}
        _, rate, duration = phase_plan[-1]
        schedules["distinct"] = distinct_schedule(seed, pool, rate, duration, taken)

        trace_dir = session.subdir("trace") if trace else None
        for index in range(n_boots):
            boot = _boot(session, index, corpus_seed, session.env(trace_dir) if trace else env)
            boots.append(boot)
            attempted += 1
            if boot["ready"] is None:
                failures.append("repro-serve never printed its ready line")
                session.stop(boot["proc"])
                return {"attempted": attempted, "failures": failures, "samples": {}}
            if index < n_boots - 1:
                failures += filter(None, [_shutdown(session, boot)])

        port = boot["ready"]["port"]
        for name, rate, _duration in phase_plan:
            results = replay_phase(port, schedules[name], senders)
            attempted += len(results)
            responses += results
            if name != "warmup":
                phases.append(phase_stats(name, rate, results, limit))
        try:
            query_ms = _get(port, "/v1/stats")["latency"]["endpoints"]["query"]["p50_ms"]
        except (OSError, ValueError, KeyError) as exc:
            failures.append(f"GET /v1/stats: {exc!r}")
            query_ms = 0.0
        program = [boot["proc"].pid, *boot["ready"]["worker_pids"]]
        rss = sum(peak_rss_mb(pid) for pid in program)
        failures += filter(None, [_shutdown(session, boot)])
        store_bytes = tree_bytes(boot["store"])
        if trace:
            spans = Trace(trace_dir)

        failures += [
            f"{r['body']}: HTTP {r['status']}" for r in responses if r["status"] != 200
        ]
        attempted += 1
        failures += _check_records(session, corpus_seed, responses, env)

    failures += [f"{session.leaked} process group(s) outlived their run"] * bool(session.leaked)
    nominal, peak, distinct = phases[0], phases[1], phases[-1]
    best = highest_passing([p for p in phases if p is not distinct])
    ok = [r for r in responses if r["status"] == 200]
    ok_nominal = [r for r in nominal["results"] if r["status"] == 200]
    server_ms = [json.loads(r["payload"])["diagnostics"]["latency_ms"] for r in ok_nominal]
    samples = {
        "setup_s": summary(b["setup_s"] for b in boots),
        "run_s": summary(b["setup_s"] + b["shutdown_s"] for b in boots),
        "max_rate_qps": {
            "value": best["achieved_qps"] if best else 0.0,
            "n": best["n"] if best else 0,
        },
        "peak_rss_mb": {"value": rss, "n": len(program)},
        "examples_per_s": {
            "value": len(server_ms) / (sum(server_ms) / 1000.0) if server_ms else 0.0,
            "n": len(server_ms),
        },
        "query_p50_ms": {"value": nominal["p50_ms"], "n": nominal["n"]},
        "query_p95_ms": {"value": nominal["p95_ms"], "n": nominal["n"]},
        "peak_p95_ms": {"value": peak["p95_ms"], "n": peak["n"]},
        "l1_hit_share": {
            "value": nominal["l1"] / nominal["ok"] if nominal["ok"] else 0.0,
            "n": nominal["ok"],
        },
        "distinct_p50_ms": {"value": distinct["p50_ms"], "n": distinct["n"]},
    }
    waits = [
        r["round_trip_ms"] - json.loads(r["payload"])["diagnostics"]["latency_ms"] for r in ok
    ]
    l1_all = sum(p["l1"] for p in phases)
    ok_all = sum(p["ok"] for p in phases)
    extra = {
        "serve.query_ms": query_ms,
        "serve.wait_ms": percentile(waits, 50) if waits else 0.0,
        "serve.l1_hit_share": l1_all / ok_all if ok_all else 0.0,
        "gen_late_max_ms": max(nominal["late_max_ms"], peak["late_max_ms"]),
    }
    bases = {
        "serve.l1_hit_share": (
            f"in-memory-tier responses {l1_all} / 200 responses {ok_all}, warm-up excluded"
        )
    }
    return {
        "attempted": attempted,
        "failures": failures,
        "samples": samples,
        "phases": phases,
        "extra": extra,
        "extra_bases": bases,
        "store_bytes": store_bytes,
        "trace": spans,
    }


def _check_records(session: Session, corpus_seed: int, responses, env) -> "list[str]":
    """Every 200 response's record against the offline artifact line,
    computed with the simulator backend into a store of its own."""
    ok = [json.loads(r["payload"]) for r in responses if r["status"] == 200]
    ref_dir = session.subdir("reference")
    triples = sorted({(p["example_id"], p["task"], p["mode"]) for p in ok})
    (ref_dir / "requests.json").write_text(json.dumps(triples))
    args = [corpus_seed, ref_dir / "store", ref_dir / "requests.json", ref_dir]
    marks = session.call("reference", args, ref_dir, env)
    if marks["code"] != 0:
        return [f"offline reference: exited with {marks['code']}"]
    lines = {}
    for artifact in sorted(ref_dir.glob("*.jsonl")):
        for line in artifact.read_text(encoding="utf8").splitlines():
            lines[json.loads(line)["key"]] = line
    problems = []
    for payload in ok:
        got = json.dumps(payload["record"], sort_keys=True)
        want = lines.get(payload["record"]["key"])
        if got != want:
            problems.append(
                f"{payload['example_id']}/{payload['task']}/{payload['mode']}: "
                "record differs from the offline artifact line"
            )
    return problems
