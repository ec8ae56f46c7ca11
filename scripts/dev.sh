#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — the same gates, the same
# commands, so "works on my machine" and "works in CI" are one claim.
#
#   scripts/dev.sh lint          # ruff check + format gate
#   scripts/dev.sh test          # tier-1 pytest suite
#   scripts/dev.sh docs-check    # README/docs code-block flags vs --help
#   scripts/dev.sh lint-invariants # repro-lint: AST invariant checkers
#                                # (determinism, lock discipline, lifecycle,
#                                # IPC protocol, exception hygiene)
#   scripts/dev.sh bench-smoke   # micro-benchmarks once each + JSON artifact
#   scripts/dev.sh sweep-smoke   # sharded sweep + warm-cache + merge identity
#   scripts/dev.sh service-smoke # simulator/process byte identity,
#                                # kill-one-worker crash recovery, compacted
#                                # SQLite-indexed warm run with zero misses,
#                                # legacy base64 store read + migrate in place
#   scripts/dev.sh serve-smoke   # repro-serve over two unix-socket workers
#                                # with deadlines + fleet/bearer tokens:
#                                # deadline 503s without duplicates, HTTP
#                                # answers byte-identical to repro-run,
#                                # duplicate-query cache hits, SIGKILL one
#                                # worker mid-load and assert clean recovery,
#                                # SIGTERM-drain one worker mid-burst with
#                                # zero requeues, latency histograms populated
#   scripts/dev.sh all           # everything, in CI order (the default)
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

lint() {
  command -v ruff >/dev/null || {
    echo "scripts/dev.sh: ruff not found — pip install 'ruff>=0.4'" >&2
    exit 3
  }
  ruff check src tests benchmarks examples scripts/check_docs_flags.py
  # New subsystems hold the line on formatting; legacy files migrate over time.
  ruff format --check src/repro/runtime src/repro/analysis scripts/check_docs_flags.py tests/test_runtime.py tests/test_sweep.py tests/test_service.py tests/test_remote.py tests/test_serve.py tests/test_backend_spec.py tests/test_docs.py tests/test_lint.py tests/helpers.py
}

tier1() {
  python -m pytest -x -q
}

docs_check() {
  python scripts/check_docs_flags.py
}

lint_invariants() {
  # Same entry point as the installed `repro-lint` console script. The
  # checked-in baseline is empty on purpose: new findings either get
  # fixed or carry a reasoned `# repro-lint: ignore[...]` in the diff.
  python -c 'import sys; from repro.analysis.cli import main_lint; sys.exit(main_lint(sys.argv[1:]))' \
    src/repro --baseline .repro-lint-baseline.json
}

bench_smoke() {
  mkdir -p out
  python -m pytest benchmarks/bench_micro.py -q \
    --benchmark-min-rounds=1 --benchmark-warmup=off --benchmark-max-time=0.1 \
    --benchmark-json=out/bench-smoke.json

  # Surface the headline ratios (vectorized trace synthesis, binary
  # store warm reads) and IPC throughput in the job log so regressions
  # are visible without opening the JSON artifact. Ratios are of
  # medians; a ratio whose two rows' interquartile ranges overlap is
  # reported as "unresolved" — the spread does not separate them.
  python - out/bench-smoke.json <<'PY'
import json
import sys

benchmarks = json.load(open(sys.argv[1]))["benchmarks"]
stats = {bench["name"]: bench["stats"] for bench in benchmarks}
extra = {bench["name"]: bench.get("extra_info", {}) for bench in benchmarks}


def ratio(base, new):
    """``base/new`` of medians, or "unresolved" when the IQRs overlap."""
    a, b = stats[base], stats[new]
    if a["q1"] <= b["q3"] and b["q1"] <= a["q3"]:
        return "unresolved"
    return f"{a['median'] / b['median']:.1f}x"


def ms(name):
    return f"{stats[name]['median'] * 1e3:.1f}ms"


for mode in ("forced", "free"):
    scalar = f"test_bench_synthesis_scalar_{mode}"
    fast = f"test_bench_synthesis_vectorized_{mode}"
    if scalar in stats and fast in stats:
        print(f"trace-synthesis {mode}: {ratio(scalar, fast)} "
              f"(scalar {ms(scalar)} -> vectorized {ms(fast)})")

b64 = "test_bench_store_warm_read_base64"
raw = "test_bench_store_warm_read_binary"
if b64 in stats and raw in stats:
    nbytes = extra[raw].get("payload_bytes", 0)
    print(f"store-roundtrip warm read: {ratio(b64, raw)} "
          f"(base64 {ms(b64)} -> binary mmap {ms(raw)}, "
          f"{nbytes / stats[raw]['median'] / 1e6:.0f} MB/s)")

ipc = "test_bench_ipc_throughput"
if ipc in stats:
    nbytes = extra[ipc].get("payload_bytes", 0)
    traces = extra[ipc].get("traces", 0)
    median = stats[ipc]["median"]
    print(f"ipc-throughput: {ms(ipc)} per sweep, "
          f"{nbytes / median / 1e6:.0f} MB/s, {traces / median:.0f} traces/s")
PY
}

sweep_smoke() {
  local out=out/sweep-smoke
  rm -rf "$out"
  mkdir -p "$out"
  local axes=(--benchmarks bird --splits dev --tasks table --modes abstain human
              --seeds 3 --scale tiny --limit 4 --gen-workers 1)
  # Same entry point as the installed `repro-sweep` console script.
  sweep() {
    python -c 'import sys; from repro.runtime.cli import main_sweep; sys.exit(main_sweep(sys.argv[1:]))' "$@"
  }

  # Cold 2-shard sweep: shards share one persistent generation cache.
  sweep run "${axes[@]}" --shard-index 0 --shard-count 2 \
    --out "$out/sharded-cold" --cache-dir "$out/gen-cache" > "$out/cold-shard-0.json"
  sweep run "${axes[@]}" --shard-index 1 --shard-count 2 \
    --out "$out/sharded-cold" --cache-dir "$out/gen-cache" > "$out/cold-shard-1.json"
  sweep merge --out "$out/sharded-cold" > "$out/merge-sharded-cold.json"

  # The same 2-shard sweep again, warm: every generation must come from
  # the persistent cache (zero misses per shard).
  sweep run "${axes[@]}" --shard-index 0 --shard-count 2 \
    --out "$out/sharded-warm" --cache-dir "$out/gen-cache" > "$out/warm-shard-0.json"
  sweep run "${axes[@]}" --shard-index 1 --shard-count 2 \
    --out "$out/sharded-warm" --cache-dir "$out/gen-cache" > "$out/warm-shard-1.json"
  sweep merge --out "$out/sharded-warm" > "$out/merge-sharded-warm.json"

  # Unsharded reference run against the same cache.
  sweep run "${axes[@]}" --out "$out/unsharded" --cache-dir "$out/gen-cache" \
    > "$out/unsharded.json"
  sweep merge --out "$out/unsharded" > "$out/merge-unsharded.json"

  # Merges must be byte-identical however the sweep was sharded.
  cmp "$out/sharded-cold/sweep-summary.json" "$out/unsharded/sweep-summary.json"
  cmp "$out/sharded-warm/sweep-summary.json" "$out/unsharded/sweep-summary.json"

  # Warm runs must report ~100% cache hits and zero new LLM generations.
  python - "$out/warm-shard-0.json" "$out/warm-shard-1.json" "$out/unsharded.json" <<'PY'
import json
import sys

for path in sys.argv[1:]:
    stats = json.load(open(path))["runtime"]["generation_cache"]
    assert stats["misses"] == 0, f"{path}: warm run recomputed generations: {stats}"
    assert stats["hit_rate"] == 1.0, f"{path}: warm hit rate not 100%: {stats}"
    print(f"sweep-smoke OK {path}: {stats}")
PY
  echo "sweep-smoke passed: byte-identical merges, warm cache fully hit"
}

service_smoke() {
  local out=out/service-smoke
  rm -rf "$out"
  mkdir -p "$out"
  local axes=(--benchmark bird --split dev --task table --mode abstain
              --scale tiny --limit 4 --gen-workers 2)
  # Same entry points as the installed console scripts.
  run() {
    python -c 'import sys; from repro.runtime.cli import main; sys.exit(main(sys.argv[1:]))' "$@"
  }
  cache() {
    python -c 'import sys; from repro.runtime.cli import main_cache; sys.exit(main_cache(sys.argv[1:]))' "$@"
  }

  # One unit under each generation backend, independent cold caches.
  run "${axes[@]}" --backend simulator --artifact "$out/sim.jsonl" \
    --cache-dir "$out/gen-sim" > "$out/sim.json"
  run "${axes[@]}" --backend process --worker-log-dir "$out/worker-logs" \
    --artifact "$out/process.jsonl" --cache-dir "$out/gen-process" \
    > "$out/process.json"

  # The backend axis must not change a single summary byte.
  cmp "$out/sim.jsonl.summary.json" "$out/process.jsonl.summary.json"

  # Crash recovery: SIGKILL one worker mid-batch; the run must still
  # complete with traces bit-identical to the simulator's, the victim
  # replaced, and its in-flight requests requeued (never lost or run
  # twice). Worker stderr lands in worker-logs/ for the CI artifact.
  REPRO_WORKER_CHAOS_DELAY_MS=40 python - "$out/worker-logs" <<'PY'
import os
import signal
import sys
import threading

from repro.core.pipeline import RTSPipeline
from repro.corpus.bird import BirdBuilder
from repro.corpus.generator import CorpusScale
from repro.llm.model import TransparentLLM
from repro.runtime.remote import ProcessBackend
from repro.runtime.service import FORCED, FREE, GenerationRequest, SimulatorBackend

bench = BirdBuilder(seed=7, scale=CorpusScale.tiny()).build()
instances = [RTSPipeline.instance_for(e, bench, "table") for e in bench.dev.examples]
requests = [GenerationRequest(FREE, i) for i in instances]
requests += [GenerationRequest(FORCED, i) for i in instances]
reference = SimulatorBackend(TransparentLLM(seed=11)).generate(requests)

with ProcessBackend(TransparentLLM(seed=11), workers=2, log_dir=sys.argv[1]) as backend:
    victim = backend.ping()[0]
    threading.Timer(0.2, os.kill, (victim, signal.SIGKILL)).start()
    traces = backend.generate(requests)
    stats = backend.stats

assert len(traces) == len(reference), "a generation was lost"
for a, b in zip(reference, traces):
    assert a.instance_id == b.instance_id
    assert a.hidden_matrix().tobytes() == b.hidden_matrix().tobytes()
    assert [s.proposed for s in a.steps] == [s.proposed for s in b.steps]
assert stats.n_restarts >= 1, f"victim never replaced: {stats}"
assert stats.n_requeued >= 1, f"in-flight work never requeued: {stats}"
assert stats.n_duplicate_results == 0, f"a generation resolved twice: {stats}"
print(f"kill-one-worker recovery OK: {stats}")
PY

  # Compact the simulator store (builds the SQLite index tier), then a
  # warm re-run against it: byte-identical summary, zero new generations.
  cache stats --cache-dir "$out/gen-sim" > "$out/cache-stats-before.json"
  cache compact --cache-dir "$out/gen-sim" > "$out/cache-compact.json"
  cache stats --cache-dir "$out/gen-sim" > "$out/cache-stats-after.json"
  run "${axes[@]}" --backend simulator --artifact "$out/warm.jsonl" \
    --cache-dir "$out/gen-sim" > "$out/warm.json"
  cmp "$out/sim.jsonl.summary.json" "$out/warm.jsonl.summary.json"

  python - "$out" <<'PY'
import json
import sys
from pathlib import Path

out = Path(sys.argv[1])
warm = json.loads((out / "warm.json").read_text())["generation_cache"]
assert warm["misses"] == 0, f"warm run recomputed generations: {warm}"
assert warm["hit_rate"] == 1.0, f"warm hit rate not 100%: {warm}"
stats = json.loads((out / "cache-stats-after.json").read_text())["namespaces"]
(namespace,) = stats
assert stats[namespace]["indexed"], f"compaction built no index: {stats}"
assert stats[namespace]["segments"] == 1, f"compaction left segments: {stats}"
print(f"service-smoke OK: warm={warm} store={stats[namespace]}")
PY

  # Legacy-store migration: a cold run writes with the legacy base64
  # codec, the current code reads it warm (byte-identical summary,
  # zero misses), `repro-cache migrate` transcodes every record to the
  # binary layout, and a final warm run against the migrated store is
  # still fully hit and byte-identical.
  REPRO_STORE_CODEC=base64 run "${axes[@]}" --backend simulator \
    --artifact "$out/legacy-cold.jsonl" --cache-dir "$out/gen-legacy" \
    > "$out/legacy-cold.json"
  cmp "$out/sim.jsonl.summary.json" "$out/legacy-cold.jsonl.summary.json"
  run "${axes[@]}" --backend simulator --artifact "$out/legacy-warm.jsonl" \
    --cache-dir "$out/gen-legacy" > "$out/legacy-warm.json"
  cmp "$out/sim.jsonl.summary.json" "$out/legacy-warm.jsonl.summary.json"
  cache stats --cache-dir "$out/gen-legacy" > "$out/legacy-stats-before.json"
  cache migrate --cache-dir "$out/gen-legacy" > "$out/legacy-migrate.json"
  cache stats --cache-dir "$out/gen-legacy" > "$out/legacy-stats-after.json"
  run "${axes[@]}" --backend simulator --artifact "$out/migrated-warm.jsonl" \
    --cache-dir "$out/gen-legacy" > "$out/migrated-warm.json"
  cmp "$out/sim.jsonl.summary.json" "$out/migrated-warm.jsonl.summary.json"

  python - "$out" <<'PY'
import json
import sys
from pathlib import Path

out = Path(sys.argv[1])
before = json.loads((out / "legacy-stats-before.json").read_text())["namespaces"]
(namespace,) = before
codecs = before[namespace]["codecs"]
assert set(codecs) == {"base64"}, f"legacy store not pure base64: {codecs}"
migrate = json.loads((out / "legacy-migrate.json").read_text())["compacted"]
transcoded = migrate[namespace]["transcoded"]
assert transcoded > 0, f"migrate transcoded nothing: {migrate}"
after = json.loads((out / "legacy-stats-after.json").read_text())["namespaces"]
codecs = after[namespace]["codecs"]
assert set(codecs) == {"binary"}, f"migration left legacy records: {codecs}"
for path in ("legacy-warm.json", "migrated-warm.json"):
    warm = json.loads((out / path).read_text())["generation_cache"]
    assert warm["misses"] == 0, f"{path}: warm run recomputed generations: {warm}"
print(f"legacy-store migration OK: {transcoded} records transcoded, "
      f"store now {codecs}")
PY
  echo "service-smoke passed: simulator and process byte-identical," \
       "kill-one-worker recovery clean, compacted+indexed warm run fully hit," \
       "legacy base64 store read+migrated in place with summaries unchanged"
}

serve_smoke() {
  local out=out/serve-smoke
  rm -rf "$out"
  mkdir -p "$out"
  run() {
    python -c 'import sys; from repro.runtime.cli import main; sys.exit(main(sys.argv[1:]))' "$@"
  }

  # Offline reference artifacts: the lines repro-serve's records must
  # byte-match for the same (benchmark, example, task, mode).
  local axes=(--benchmark bird --split dev --mode abstain --scale tiny --gen-workers 2)
  run "${axes[@]}" --task table --artifact "$out/offline-table.jsonl" \
    --cache-dir "$out/gen-offline" > "$out/offline-table.json"
  run "${axes[@]}" --task column --artifact "$out/offline-column.jsonl" \
    --cache-dir "$out/gen-offline" > "$out/offline-column.json"

  # The server: two unix-socket workers, chaos-delayed generations so
  # the mid-load SIGKILL below reliably lands on in-flight requests —
  # and the full SLO surface on: a default request deadline, a fleet
  # token on the worker socket, a bearer token on /v1/*.
  REPRO_WORKER_CHAOS_DELAY_MS=40 \
  REPRO_FLEET_TOKEN=smoke-fleet-token \
  REPRO_SERVE_TOKEN=smoke-serve-token \
  python -c \
    'import sys; from repro.runtime.serve import main_serve; sys.exit(main_serve(sys.argv[1:]))' \
    --benchmark bird --scale tiny --backend process --transport unix \
    --gen-workers 2 --request-timeout-s 30 \
    --worker-log-dir "$out/worker-logs" \
    > "$out/serve-ready.json" 2> "$out/serve.log" &
  local server_pid=$!
  trap 'kill "$server_pid" 2>/dev/null || true' RETURN

  for _ in $(seq 1 240); do
    [ -s "$out/serve-ready.json" ] && break
    kill -0 "$server_pid" 2>/dev/null || {
      echo "serve-smoke: server died before ready (see $out/serve.log)" >&2
      exit 1
    }
    sleep 0.5
  done
  [ -s "$out/serve-ready.json" ] || {
    echo "serve-smoke: server never printed its ready line" >&2
    exit 1
  }

  python - "$out" <<'PY'
import json
import os
import signal
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

out = Path(sys.argv[1])
ready = json.loads((out / "serve-ready.json").read_text())
base = f"http://{ready['host']}:{ready['port']}"
assert ready["transport"] == "unix" and len(ready["worker_pids"]) == 2, ready
BEARER = {"Authorization": "Bearer smoke-serve-token"}


def get(path, headers=BEARER):
    request = urllib.request.Request(base + path, headers=headers)
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def query(payload, headers=BEARER):
    request = urllib.request.Request(
        base + "/v1/query",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json", **headers},
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def expect_status(status, fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except urllib.error.HTTPError as exc:
        assert exc.code == status, f"expected {status}, got {exc.code}"
        return json.loads(exc.read())
    raise AssertionError(f"expected HTTP {status}, request succeeded")


def offline(task):
    return {
        record["instance_id"].split("/")[0]: record
        for record in map(
            json.loads, (out / f"offline-{task}.jsonl").read_text().splitlines()
        )
        if "instance_id" in record
    }


def check(task, response, reference):
    got = json.dumps(response["record"], sort_keys=True)
    want = json.dumps(reference, sort_keys=True)
    assert got == want, f"{task} record drifted from offline:\n {got}\n {want}"


health = get("/healthz", headers={})  # liveness never needs credentials
assert health["status"] == "ok" and health["workers_alive"] == 2, health
assert health["workers_draining"] == 0, health

# Phase 0a: the bearer gate — unauthenticated /v1/* is 401, /healthz open.
some_example = next(iter(offline("table")))
unauthorized = expect_status(
    401, query, {"example_id": some_example, "task": "table"}, headers={}
)
assert unauthorized["error_type"] == "unauthorized", unauthorized
expect_status(401, get, "/v1/stats", headers={})

# Phase 0b: a chaos-delayed query with a tight per-request deadline is
# a 503 with the documented body; the generation is disowned, never
# duplicated (the same example answers byte-identically in phase 1).
deadline = expect_status(
    503, query, {"example_id": some_example, "task": "table", "timeout_s": 0.01}
)
assert deadline["error_type"] == "deadline_exceeded", deadline
assert deadline["retryable"] is True and deadline["timeout_s"] == 0.01, deadline
stats = get("/v1/stats")
assert stats["requests"]["n_deadline_exceeded"] >= 1, stats["requests"]
assert stats["supervisor"]["n_deadline_exceeded"] >= 1, stats["supervisor"]
assert stats["supervisor"]["n_duplicate_results"] == 0, stats["supervisor"]

# Phase 1: every table answer byte-matches the offline artifact; the
# same queries again (concurrently) must be L1 cache hits.
table = offline("table")
assert table, "offline table artifact is empty"
for example_id, reference in table.items():
    check("table", query({"example_id": example_id, "task": "table"}), reference)
with ThreadPoolExecutor(max_workers=8) as pool:
    repeats = list(
        pool.map(lambda i: query({"example_id": i, "task": "table"}), table)
    )
for response in repeats:
    check("table", response, table[response["example_id"]])
    tier = response["diagnostics"]["cache_tier"]
    assert tier == "memory", f"duplicate query missed L1: {tier!r}"

# Phase 2: SIGKILL one socket worker while a concurrent burst of
# uncached column queries is in flight; every answer must still
# byte-match the offline artifact.
column = offline("column")
assert column, "offline column artifact is empty"
victim = get("/v1/stats")["worker_pids"][0]
threading.Timer(0.1, os.kill, (victim, signal.SIGKILL)).start()
with ThreadPoolExecutor(max_workers=8) as pool:
    burst = list(
        pool.map(lambda i: query({"example_id": i, "task": "column"}), column)
    )
for response in burst:
    check("column", response, column[response["example_id"]])

stats = get("/v1/stats")
supervisor = stats["supervisor"]
assert supervisor["n_restarts"] >= 1, f"victim never replaced: {supervisor}"
assert supervisor["n_requeued"] >= 1, f"in-flight work never requeued: {supervisor}"
assert supervisor["n_duplicate_results"] == 0, f"a result resolved twice: {supervisor}"
assert stats["tiers"]["memory"]["hits"] >= len(table), f"no L1 hits: {stats['tiers']}"
assert stats["requests"]["n_queries"] >= 2 * len(table) + len(column), stats["requests"]

# Phase 3: SIGTERM one worker mid-burst — a graceful drain. It must
# finish in-flight work, deregister with zero additional requeues, and
# its replacement must keep capacity level.
requeued_before = supervisor["n_requeued"]
victim = stats["worker_pids"][0]
threading.Timer(0.1, os.kill, (victim, signal.SIGTERM)).start()
with ThreadPoolExecutor(max_workers=8) as pool:
    drain_burst = list(
        pool.map(lambda i: query({"example_id": i, "task": "column"}), column)
    )
for response in drain_burst:
    check("column", response, column[response["example_id"]])
for _ in range(200):
    supervisor = get("/v1/stats")["supervisor"]
    if supervisor["n_drained"] >= 1 and supervisor["n_alive"] == 2:
        break
    time.sleep(0.05)
assert supervisor["n_drained"] >= 1, f"SIGTERM never drained: {supervisor}"
assert supervisor["n_alive"] == 2, f"drained capacity not replaced: {supervisor}"
assert supervisor["n_requeued"] == requeued_before, (
    f"a drain requeued work (SIGTERM behaved like a crash): {supervisor}"
)
assert supervisor["n_duplicate_results"] == 0, supervisor

# The latency histograms regressed against by the traffic-replay
# benchmark: non-empty buckets and finite percentiles per endpoint.
stats = get("/v1/stats")
for endpoint in ("query", "healthz", "stats"):
    histogram = stats["latency"]["endpoints"][endpoint]
    assert histogram["count"] >= 1, f"{endpoint}: empty histogram"
    assert sum(histogram["bucket_counts"]) == histogram["count"], histogram
    for quantile in ("p50_ms", "p95_ms", "p99_ms"):
        assert histogram[quantile] is not None, f"{endpoint}: {quantile} missing"
assert "memory" in stats["latency"]["tiers"], stats["latency"]["tiers"]
print(
    f"serve-smoke OK: {stats['requests']['n_queries']} queries byte-identical "
    f"to offline, deadline 503s={stats['requests']['n_deadline_exceeded']}, "
    f"drained={supervisor['n_drained']}, supervisor={supervisor}, "
    f"query p95={stats['latency']['endpoints']['query']['p95_ms']}ms"
)
PY

  kill "$server_pid" 2>/dev/null || true
  wait "$server_pid" 2>/dev/null || true
  echo "serve-smoke passed: deadline 503s without duplicates, auth gates hold," \
       "HTTP answers byte-identical to repro-run, duplicate queries hit L1," \
       "SIGKILLed worker recovered and SIGTERMed worker drained with zero requeues"
}

case "${1:-all}" in
  lint) lint ;;
  test) tier1 ;;
  docs-check) docs_check ;;
  lint-invariants) lint_invariants ;;
  bench-smoke) bench_smoke ;;
  sweep-smoke) sweep_smoke ;;
  service-smoke) service_smoke ;;
  serve-smoke) serve_smoke ;;
  all) lint; lint_invariants; tier1; docs_check; bench_smoke; sweep_smoke; service_smoke; serve_smoke ;;
  *) echo "usage: scripts/dev.sh [lint|lint-invariants|test|docs-check|bench-smoke|sweep-smoke|service-smoke|serve-smoke|all]" >&2; exit 2 ;;
esac
