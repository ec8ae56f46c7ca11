"""``repro-serve``: the online serving tier over the generation runtime.

The paper frames reliable text-to-SQL as an *online, per-request*
property: a query arrives, the linker answers or abstains, and the
decision ships with its diagnostics. Everything below the HTTP surface
already exists offline — this module adds the thin, faithful front end:

* ``POST /v1/query`` — question (or example id) + schema context → SQL
  or an abstention, with probe scores, the cache tier that served the
  generation, and latency diagnostics. Every request routes through the
  same fitted :class:`~repro.core.pipeline.RTSPipeline` and
  :class:`~repro.runtime.service.GenerationService` as the offline
  drivers, and the embedded ``record`` (including its artifact key) is
  byte-identical to the line ``repro-run --artifact`` would write for
  the same example — the CI ``serve-smoke`` job compares them verbatim.
* ``GET /healthz`` — liveness plus fleet summary (alive and draining
  worker counts). Never behind auth, so probes keep working.
* ``GET /v1/stats`` — per-tier cache :class:`~repro.runtime.cache.
  CacheStats`, fixed-bucket latency histograms (per endpoint and per
  cache tier) with p50/p95/p99 summaries, and, on the process backend,
  :class:`~repro.runtime.remote.SupervisorStats` with per-worker
  scheduling state.

SLO surface: on the process backend, ``--request-timeout-s`` (or a
per-request ``timeout_s`` body field) deadlines each generation — a
request past its deadline gets HTTP 503 with a structured retryable
body (see :func:`deadline_body`) while the supervisor disowns the
in-flight work (never duplicated). ``--auth-token`` requires
``Authorization: Bearer`` on every ``/v1/*`` route; ``--fleet-token``
protects the worker socket.
The full schemas live in ``docs/http-api.md``; the runbook in
``docs/operations.md``.

The server is stdlib ``http.server`` (``ThreadingHTTPServer``) — no new
dependencies. Concurrency is safe because ``RTSPipeline.link`` already
runs under thread pools offline, and determinism makes answer bytes
independent of request interleaving. With ``--backend process
--transport unix|tcp`` the generations execute on socket workers that
may live on other machines (``repro-worker --connect`` joins the fleet
at any time); a worker SIGKILLed mid-request delays the response but
never changes or loses it.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hmac
import json
import os
import sys
import threading
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.core.config import ABSTAIN, HUMAN, MITIGATION_MODES, SURROGATE
from repro.core.pipeline import RTSPipeline
from repro.corpus.generator import CorpusScale
from repro.experiments.common import ExperimentContext
from repro.runtime.artifacts import joint_record, link_record, strict_jsonable
from repro.runtime.cache import instance_key
from repro.runtime.service import (
    FREE,
    PROCESS,
    BackendSpec,
    DeadlineExceeded,
    GenerationRequest,
    deadline_scope,
)
from repro.sqlgen.generator import SqlGenerator
from repro.sqlgen.profiles import CHESS, CODES_15B, DEEPSEEK_7B

__all__ = [
    "ApiError",
    "LatencyHistogram",
    "SERVE_TOKEN_ENV",
    "ServeApp",
    "ReproServer",
    "build_serve_parser",
    "deadline_body",
    "main_serve",
]

TASKS = ("table", "column", "joint")
BENCHMARKS = ("bird", "spider")
SCALES = ("tiny", "small")
SQL_PROFILES = {p.name: p for p in (DEEPSEEK_7B, CODES_15B, CHESS)}

# Request bodies are tiny JSON objects; anything bigger is a bad client.
MAX_BODY_BYTES = 1 << 20

# Bearer-token fallback for ``--auth-token`` (kept out of argv so the
# secret never shows in ``ps`` output or shell history).
SERVE_TOKEN_ENV = "REPRO_SERVE_TOKEN"

# Fixed histogram bucket upper bounds, in milliseconds. Fixed (not
# adaptive) so two servers — or two points in time — are directly
# comparable bucket by bucket; the open-ended overflow bucket is
# reported as "+Inf".
LATENCY_BUCKETS_MS = (
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    5000.0,
    10000.0,
)


class ApiError(Exception):
    """An HTTP-mappable request failure."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def deadline_body(exc: DeadlineExceeded) -> dict:
    """The documented 503 body for a deadline-exceeded request.

    ``retryable`` is the contract: the generation was disowned, not
    lost — the same request retried later (or with a larger
    ``timeout_s``) returns the identical bytes, never a duplicate.
    """
    return {
        "error": str(exc),
        "error_type": "deadline_exceeded",
        "retryable": True,
        "timeout_s": exc.timeout_s,
    }


class LatencyHistogram:
    """Thread-safe fixed-bucket latency accounting with percentiles.

    Percentiles are estimated by linear interpolation inside the bucket
    holding the target rank (the Prometheus ``histogram_quantile``
    method), so p50/p95/p99 are stable summaries even though only
    bucket counts are stored. The overflow bucket is clamped to the
    largest finite bound — a deliberate under-estimate that keeps the
    summary finite.
    """

    def __init__(self, bounds: "tuple[float, ...]" = LATENCY_BUCKETS_MS):
        self.bounds = tuple(float(bound) for bound in bounds)
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.bounds) + 1)  # guarded-by: self._lock
        self._count = 0  # guarded-by: self._lock
        self._sum_ms = 0.0  # guarded-by: self._lock

    def record(self, value_ms: float) -> None:
        value = float(value_ms)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum_ms += value

    def _percentile(self, counts: "list[int]", total: int, q: float) -> "float | None":
        if total == 0:
            return None
        target = q * total
        cumulative = 0.0
        for index, count in enumerate(counts):
            previous = cumulative
            cumulative += count
            if cumulative >= target and count:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else self.bounds[-1]  # clamp the +Inf bucket
                )
                return lower + (upper - lower) * (target - previous) / count
        return self.bounds[-1]

    def snapshot(self) -> dict:
        with self._lock:
            counts = list(self._counts)
            total = self._count
            sum_ms = self._sum_ms
        percentile = self._percentile
        return {
            "count": total,
            "sum_ms": round(sum_ms, 3),
            "bucket_le_ms": [*self.bounds, "+Inf"],
            "bucket_counts": counts,
            "p50_ms": _round3(percentile(counts, total, 0.50)),
            "p95_ms": _round3(percentile(counts, total, 0.95)),
            "p99_ms": _round3(percentile(counts, total, 0.99)),
        }


def _round3(value: "float | None") -> "float | None":
    return None if value is None else round(value, 3)


class ServeApp:
    """The request handlers behind the HTTP surface (transport-free).

    Holds one :class:`~repro.experiments.common.ExperimentContext` —
    benchmarks, fitted pipelines, the generation service — shared by
    every request thread, plus the per-process serving counters. All
    pipeline state is fitted once in :meth:`warm` (before the server
    accepts traffic), so request handling is read-only apart from the
    generation cache, which is already thread-safe.
    """

    def __init__(
        self,
        ctx: ExperimentContext,
        benchmarks: "tuple[str, ...]" = ("bird",),
        sql_profile=CHESS,
        sql_seed: int = 21,
        auth_token: "str | None" = None,
    ):
        self.ctx = ctx
        self.benchmarks = tuple(benchmarks)
        self.sql_generator = SqlGenerator(sql_profile, seed=sql_seed)
        self.auth_token = auth_token
        self._started_at = time.monotonic()
        self._counter_lock = threading.Lock()
        self._n_queries = 0  # guarded-by: self._counter_lock
        self._n_abstained = 0  # guarded-by: self._counter_lock
        self._n_errors = 0  # guarded-by: self._counter_lock
        self._n_deadline_exceeded = 0  # guarded-by: self._counter_lock
        self._n_unauthorized = 0  # guarded-by: self._counter_lock
        self._by_question: "dict[tuple[str, str], str]" = {}  # guarded-by: self._counter_lock
        self._latency_lock = threading.Lock()
        # Fixed keys, never rebound after __init__; the histograms do
        # their own locking — only _tier_latency grows at runtime.
        self._endpoint_latency = {
            name: LatencyHistogram() for name in ("query", "healthz", "stats")
        }
        self._tier_latency: "dict[str, LatencyHistogram]" = {}  # guarded-by: self._latency_lock

    # -- lifecycle -----------------------------------------------------------

    def warm(self) -> None:
        """Fit every pipeline and index questions before taking traffic.

        Fitting triggers the first generations, which also boots the
        backend (spawning / accepting workers on the process backend) —
        the ready line only prints once all of this has succeeded.
        Warm-up traffic is exempt from the request deadline: a tight
        ``--request-timeout-s`` is an SLO for queries, not a cap on the
        one-time fit (the backend knob is restored before serving).
        """
        backend = self.backend
        saved = getattr(backend, "request_timeout_s", None)
        if saved is not None:
            backend.request_timeout_s = None
        try:
            with deadline_scope(None):
                for name in self.benchmarks:
                    bench = self.ctx.benchmark(name)
                    self.ctx.pipeline(name)
                    for split_name in ("train", "dev", "test"):
                        for example in bench.split(split_name):
                            with self._counter_lock:
                                self._by_question.setdefault(
                                    (name, example.question), example.example_id
                                )
        finally:
            if saved is not None:
                backend.request_timeout_s = saved

    @property
    def backend(self):
        return self.ctx.service.backend

    # -- GET endpoints -------------------------------------------------------

    def health(self) -> dict:
        backend = self.backend
        pids = getattr(backend, "worker_pids", None)
        payload = {
            "status": "ok",
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "benchmarks": list(self.benchmarks),
            "backend": type(backend).__name__,
        }
        if callable(pids):
            payload["workers_alive"] = len(pids())
        supervisor = getattr(backend, "stats", None)
        if supervisor is not None and hasattr(supervisor, "n_draining"):
            payload["workers_draining"] = supervisor.n_draining
        return payload

    def stats(self) -> dict:
        service = self.ctx.service
        with self._counter_lock:
            requests = {
                "n_queries": self._n_queries,
                "n_abstained": self._n_abstained,
                "n_errors": self._n_errors,
                "n_deadline_exceeded": self._n_deadline_exceeded,
                "n_unauthorized": self._n_unauthorized,
            }
        with self._latency_lock:
            tier_histograms = sorted(self._tier_latency.items())
        payload = {
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "requests": requests,
            "cache": service.stats.as_dict(),
            "tiers": {
                name: stats.as_dict() for name, stats in service.tier_stats.items()
            },
            "latency": {
                "endpoints": {
                    name: histogram.snapshot()
                    for name, histogram in self._endpoint_latency.items()
                },
                "tiers": {
                    name: histogram.snapshot() for name, histogram in tier_histograms
                },
            },
            "namespace": service.namespace(),
        }
        backend = self.backend
        supervisor = getattr(backend, "stats", None)
        if supervisor is not None and hasattr(supervisor, "as_dict"):
            payload["supervisor"] = supervisor.as_dict()
            payload["workers"] = backend.worker_snapshot()
            payload["worker_pids"] = backend.worker_pids()
            payload["worker_address"] = backend.address
        return payload

    # -- latency accounting --------------------------------------------------

    def observe_latency(self, endpoint: str, latency_ms: float) -> None:
        self._endpoint_latency[endpoint].record(latency_ms)

    def _observe_query(self, latency_ms: float, tier: str) -> None:
        """One measurement feeds both views: the ``query`` endpoint
        histogram and the per-cache-tier histogram. The caller returns
        the *same* number in ``diagnostics.latency_ms``, so the
        response field and the stats registry can never disagree."""
        self.observe_latency("query", latency_ms)
        with self._latency_lock:
            histogram = self._tier_latency.get(tier)
            if histogram is None:
                histogram = self._tier_latency.setdefault(tier, LatencyHistogram())
        histogram.record(latency_ms)

    # -- POST /v1/query ------------------------------------------------------

    def query(self, payload: dict) -> dict:
        t0 = time.perf_counter()
        if not isinstance(payload, dict):
            raise ApiError(400, "request body must be a JSON object")
        name = payload.get("benchmark", self.benchmarks[0])
        if name not in self.benchmarks:
            raise ApiError(
                404, f"benchmark {name!r} not served (have {list(self.benchmarks)})"
            )
        task = payload.get("task", "table")
        if task not in TASKS:
            raise ApiError(400, f"unknown task {task!r}; pick from {TASKS}")
        mode = payload.get("mode", ABSTAIN)
        if mode not in MITIGATION_MODES:
            raise ApiError(
                400, f"unknown mode {mode!r}; pick from {sorted(MITIGATION_MODES)}"
            )
        timeout_s = self._request_timeout(payload)
        example = self._resolve_example(name, payload)
        bench = self.ctx.benchmark(name)
        pipeline = self.ctx.pipeline(name)
        runner = self.ctx.runner(name)
        surrogate = self.ctx.surrogate(name) if mode == SURROGATE else None
        human = self.ctx.human() if mode == HUMAN else None
        fingerprint = runner.fingerprint(mode, surrogate, human)
        # Tier diagnostics peek *before* evaluation (stats-free): after
        # the request, the generation is in L1 by definition.
        probe_task = "table" if task == "joint" else task
        peek_instance = RTSPipeline.instance_for(example, bench, probe_task)
        cache_tier = self.ctx.service.peek_tier(
            GenerationRequest(FREE, peek_instance)
        )
        # The per-request override deadlines only this thread's
        # generations; with no override the backend's configured
        # --request-timeout-s applies on its own.
        scope = (
            deadline_scope(timeout_s)
            if timeout_s is not None
            else contextlib.nullcontext()
        )
        if task == "joint":
            with scope:
                outcome = pipeline.link_joint(
                    example, bench, mode=mode, surrogate=surrogate, human=human
                )
            record = dict(
                joint_record(outcome), key=f"{fingerprint}:{example.example_id}"
            )
            abstained = outcome.abstained
            answered_tables = outcome.tables
            answered_columns = self._group_columns(outcome.columns)
            probe = {
                "signalled": outcome.signalled,
                "table_mean_auc": pipeline.mbpp("table").mean_auc,
                "column_mean_auc": pipeline.mbpp("column").mean_auc,
            }
        else:
            instance = peek_instance
            with scope:
                outcome = pipeline.link(
                    instance, mode=mode, surrogate=surrogate, human=human
                )
            record = dict(
                link_record(outcome), key=f"{fingerprint}:{instance_key(instance)}"
            )
            abstained = outcome.abstained
            if task == "table":
                answered_tables = outcome.predicted
                answered_columns = None
            else:
                answered_columns = self._group_columns(outcome.predicted)
                answered_tables = (
                    tuple(answered_columns) if answered_columns is not None else None
                )
            mbpp = pipeline.mbpp(task)
            probe = {
                "flags": outcome.flags,
                "questions_asked": outcome.questions_asked,
                "interventions": outcome.interventions,
                "signalled": outcome.signalled,
                "mean_auc": mbpp.mean_auc,
                "layer_aucs": list(mbpp.aucs),
            }
        sql = None
        if answered_tables is not None:
            provided = bench.database(example.db_id).schema.subset(
                list(answered_tables), answered_columns
            )
            sql = self.sql_generator.generate(example, provided)
        with self._counter_lock:
            self._n_queries += 1
            if abstained:
                self._n_abstained += 1
        # Measured once, recorded once, returned once: the histogram
        # entry and the per-response field are the same number.
        latency_ms = round((time.perf_counter() - t0) * 1000.0, 3)
        self._observe_query(latency_ms, cache_tier if cache_tier else "compute")
        return {
            "benchmark": name,
            "example_id": example.example_id,
            "question": example.question,
            "task": task,
            "mode": mode,
            "abstained": abstained,
            "sql": sql,
            "record": record,
            "probe": probe,
            "diagnostics": {
                "cache_tier": cache_tier,
                "latency_ms": latency_ms,
                "namespace": self.ctx.service.namespace(),
            },
        }

    @staticmethod
    def _request_timeout(payload: dict) -> "float | None":
        value = payload.get("timeout_s")
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
            raise ApiError(400, "timeout_s must be a positive number of seconds")
        return float(value)

    def _resolve_example(self, name: str, payload: dict):
        bench = self.ctx.benchmark(name)
        example_id = payload.get("example_id")
        if example_id is None:
            question = payload.get("question")
            if question is None:
                raise ApiError(400, "pass an example_id or a question")
            with self._counter_lock:
                example_id = self._by_question.get((name, question))
            if example_id is None:
                raise ApiError(404, f"no {name} example asks {question!r}")
        for split_name in ("train", "dev", "test"):
            for example in bench.split(split_name):
                if example.example_id == example_id:
                    return example
        raise ApiError(404, f"no {name} example with id {example_id!r}")

    @staticmethod
    def _group_columns(items) -> "dict[str, list[str]] | None":
        """Qualified ``table.column`` items → the subset() columns map."""
        if items is None:
            return None
        grouped: "dict[str, list[str]]" = {}
        for item in items:
            table, _, column = item.partition(".")
            grouped.setdefault(table, []).append(column)
        return grouped

    def count_error(self) -> None:
        with self._counter_lock:
            self._n_errors += 1

    def count_deadline(self) -> None:
        with self._counter_lock:
            self._n_errors += 1
            self._n_deadline_exceeded += 1

    def count_unauthorized(self) -> None:
        with self._counter_lock:
            self._n_unauthorized += 1

    def authorized(self, header: "str | None") -> bool:
        """Whether an ``Authorization`` header clears the bearer gate."""
        if self.auth_token is None:
            return True
        scheme, _, presented = (header or "").partition(" ")
        return scheme.lower() == "bearer" and hmac.compare_digest(
            presented.strip().encode("utf-8"), self.auth_token.encode("utf-8")
        )


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"

    @property
    def app(self) -> ServeApp:
        return self.server.app

    def log_message(self, format: str, *args) -> None:
        print(
            f"repro-serve: {self.address_string()} {format % args}",
            file=sys.stderr,
            flush=True,
        )

    def _send_json(
        self, status: int, payload: dict, headers: "dict[str, str] | None" = None
    ) -> None:
        body = json.dumps(strict_jsonable(payload), sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _require_auth(self) -> bool:
        """Gate ``/v1/*`` behind the bearer token; 401 and False if not
        cleared. ``/healthz`` never calls this: liveness probes must
        keep working without credentials."""
        if self.app.authorized(self.headers.get("Authorization")):
            return True
        self.app.count_unauthorized()
        self._send_json(
            401,
            {
                "error": "missing or invalid bearer token",
                "error_type": "unauthorized",
            },
            headers={"WWW-Authenticate": "Bearer"},
        )
        return False

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        t0 = time.perf_counter()
        if self.path == "/healthz":
            self._send_json(200, self.app.health())
            self.app.observe_latency("healthz", (time.perf_counter() - t0) * 1000.0)
        elif self.path == "/v1/stats":
            if not self._require_auth():
                return
            self._send_json(200, self.app.stats())
            self.app.observe_latency("stats", (time.perf_counter() - t0) * 1000.0)
        else:
            self._send_json(404, {"error": f"no route {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path != "/v1/query":
            self._send_json(404, {"error": f"no route {self.path!r}"})
            return
        if not self._require_auth():
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if not 0 < length <= MAX_BODY_BYTES:
                raise ApiError(400, "request body required (JSON, <= 1 MiB)")
            try:
                payload = json.loads(self.rfile.read(length).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ApiError(400, f"malformed JSON body: {exc}") from exc
            self._send_json(200, self.app.query(payload))
        except ApiError as exc:
            self.app.count_error()
            self._send_json(exc.status, {"error": str(exc)})
        except DeadlineExceeded as exc:
            # 503 + retryable: the work was disowned upstream (never
            # duplicated); the client may retry, ideally with backoff.
            self.app.count_deadline()
            self._send_json(503, deadline_body(exc), headers={"Retry-After": "1"})
        except Exception:
            self.app.count_error()
            traceback.print_exc(file=sys.stderr)
            self._send_json(500, {"error": "internal error (see server log)"})


class ReproServer(ThreadingHTTPServer):
    """One serving process: threaded HTTP over a shared :class:`ServeApp`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: "tuple[str, int]", app: ServeApp):
        super().__init__(address, _Handler)
        self.app = app


SERVE_EPILOG = """\
examples:
  # serve bird on an ephemeral port, generations on two unix-socket
  # workers (the ready line on stdout reports the bound port)
  repro-serve --benchmark bird --scale tiny --backend process \\
      --transport unix --gen-workers 2 --cache-dir out/gen

  # accept-only supervisor over TCP: workers join from other machines
  repro-serve --backend process --transport tcp \\
      --address tcp:0.0.0.0:7431 --gen-workers 0 &
  repro-worker --connect tcp:10.0.0.5:7431   # on each worker machine

  # query it
  curl -s localhost:8000/v1/query -d '{"benchmark": "bird",
      "example_id": "bird-dev-0", "task": "table", "mode": "abstain"}'
  curl -s localhost:8000/healthz
  curl -s localhost:8000/v1/stats

Answers are byte-identical to the offline drivers: the "record" field
of a /v1/query response equals the line repro-run --artifact writes for
the same (benchmark, example, task, mode) — same key, same bytes.
"""


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Online text-to-SQL serving with adaptive abstention, "
        "over the shared generation runtime.",
        epilog=SERVE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 binds an ephemeral port"
    )
    parser.add_argument(
        "--benchmark",
        nargs="+",
        choices=BENCHMARKS,
        default=["bird"],
        help="benchmarks to fit and serve",
    )
    parser.add_argument(
        "--scale",
        choices=SCALES,
        default="small",
        help="synthetic corpus scale (tiny is the test/CI size)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="default worker count for the generation backend "
        "(--gen-workers overrides)",
    )
    BackendSpec.add_arguments(parser, defaults=BackendSpec(workers=2))
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent generation cache shared with the offline drivers "
        "(default: $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--sql-profile",
        choices=sorted(SQL_PROFILES),
        default=CHESS.name,
        help="downstream text-to-SQL generator profile",
    )
    parser.add_argument("--sql-seed", type=int, default=21)
    parser.add_argument("--corpus-seed", type=int, default=7)
    parser.add_argument("--llm-seed", type=int, default=11)
    parser.add_argument("--rts-seed", type=int, default=3)
    parser.add_argument(
        "--auth-token",
        default=None,
        help="require 'Authorization: Bearer <token>' on /v1/* routes "
        "(default: $REPRO_SERVE_TOKEN; /healthz always stays open)",
    )
    return parser


def main_serve(argv: "list[str] | None" = None) -> int:
    args = build_serve_parser().parse_args(argv)
    spec = BackendSpec.from_args(args, workers=args.workers)
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or None
    scale = CorpusScale.tiny() if args.scale == "tiny" else CorpusScale.small()
    ctx = ExperimentContext(
        corpus_seed=args.corpus_seed,
        llm_seed=args.llm_seed,
        rts_seed=args.rts_seed,
        scale=scale,
        workers=max(1, args.workers),
        cache_dir=cache_dir,
        spec=spec,
    )
    app = ServeApp(
        ctx,
        benchmarks=tuple(args.benchmark),
        sql_profile=SQL_PROFILES[args.sql_profile],
        sql_seed=args.sql_seed,
        auth_token=args.auth_token or os.environ.get(SERVE_TOKEN_ENV) or None,
    )
    try:
        app.warm()
        server = ReproServer((args.host, args.port), app)
        backend = app.backend
        ready = {
            "event": "ready",
            "host": server.server_address[0],
            "port": server.server_address[1],
            "benchmarks": list(app.benchmarks),
            "backend": spec.kind,
            "transport": spec.transport if spec.kind == PROCESS else None,
            "worker_address": getattr(backend, "address", None),
            "worker_pids": (
                backend.worker_pids() if hasattr(backend, "worker_pids") else []
            ),
        }
        print(json.dumps(strict_jsonable(ready), sort_keys=True), flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
        return 0
    finally:
        ctx.close()


if __name__ == "__main__":  # pragma: no cover - the serve entry point
    sys.exit(main_serve())
