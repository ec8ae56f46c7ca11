"""Tests for the ``repro-serve`` online serving tier.

Pins down the serving guarantees:

* ``POST /v1/query`` answers through the same fitted pipeline and
  generation service as the offline drivers — the embedded ``record``
  (key included) is byte-identical to the line ``repro-run --artifact``
  writes for the same example, and concurrent clients see exactly the
  bytes a serial client would;
* abstention and answering both ship complete payloads: an abstained
  query carries no SQL but full probe diagnostics, an answered one
  carries SQL generated from exactly the linked schema subset;
* the error surface is deliberate: malformed bodies and unknown
  tasks/modes are 400s, unknown routes/benchmarks/examples are 404s,
  and none of them kill the server;
* ``GET /healthz`` / ``GET /v1/stats`` report liveness, request
  counters and per-tier cache stats (the second identical query is a
  memory-tier hit).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments.common import ExperimentContext
from repro.runtime.serve import ApiError, ReproServer, ServeApp, build_serve_parser

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(scope="module")
def served():
    """One warmed, running server on an ephemeral port (simulator backend)."""
    ctx = ExperimentContext.tiny()
    app = ServeApp(ctx, benchmarks=("bird",))
    app.warm()
    server = ReproServer(("127.0.0.1", 0), app)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, app, ctx
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        ctx.close()


def url(server: ReproServer, path: str) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def get(
    server: ReproServer, path: str, headers: "dict[str, str] | None" = None
) -> "tuple[int, dict]":
    request = urllib.request.Request(url(server, path), headers=headers or {})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def post(
    server: ReproServer,
    path: str,
    body: bytes,
    headers: "dict[str, str] | None" = None,
) -> "tuple[int, dict]":
    request = urllib.request.Request(
        url(server, path),
        data=body,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def query(
    server: ReproServer, payload: dict, headers: "dict[str, str] | None" = None
) -> "tuple[int, dict]":
    return post(server, "/v1/query", json.dumps(payload).encode(), headers=headers)


# -- byte-identity with the offline drivers -----------------------------------


def test_query_records_match_the_offline_artifact(served, tmp_path):
    server, app, ctx = served
    bench = ctx.benchmark("bird")
    instances = ctx.instances("bird", "dev", "table")
    path = tmp_path / "offline.jsonl"
    ctx.runner("bird").run_link(instances, mode="abstain", artifact=str(path))
    offline = {
        record["instance_id"].split("/")[0]: record
        for record in map(json.loads, path.read_text().splitlines())
        if "instance_id" in record
    }
    assert len(offline) == len(bench.dev.examples)
    for example_id, reference in offline.items():
        status, body = query(
            server,
            {"benchmark": "bird", "example_id": example_id,
             "task": "table", "mode": "abstain"},
        )
        assert status == 200
        assert json.dumps(body["record"], sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )
        assert body["abstained"] is reference["abstained"]


def test_concurrent_clients_get_byte_identical_answers(served):
    server, _app, ctx = served
    examples = [e.example_id for e in ctx.benchmark("bird").dev.examples]
    payloads = [
        {"benchmark": "bird", "example_id": example_id, "task": task, "mode": "abstain"}
        for example_id in examples
        for task in ("table", "column")
    ]
    reference = [query(server, payload) for payload in payloads]
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(lambda p: query(server, p), payloads * 2))
    for i, got in enumerate(concurrent):
        want = reference[i % len(payloads)]
        assert got[0] == 200
        # Everything but the per-request latency is deterministic.
        got[1]["diagnostics"].pop("latency_ms")
        expected = dict(want[1])
        expected["diagnostics"] = {
            k: v for k, v in want[1]["diagnostics"].items() if k != "latency_ms"
        }
        # After the first pass every generation sits in L1.
        expected["diagnostics"]["cache_tier"] = "memory"
        assert got[1] == expected


# -- answering and abstaining -------------------------------------------------


def test_abstained_query_has_probe_diagnostics_but_no_sql(served):
    server, _app, ctx = served
    example_id = ctx.benchmark("bird").dev.examples[0].example_id
    status, body = query(
        server,
        {"benchmark": "bird", "example_id": example_id,
         "task": "table", "mode": "abstain"},
    )
    assert status == 200
    assert body["abstained"] is True and body["sql"] is None
    assert body["probe"]["layer_aucs"] and body["probe"]["mean_auc"] > 0
    assert body["record"]["key"].endswith(f":{body['record']['instance_key']}")


def test_human_mode_answers_with_sql(served):
    server, _app, ctx = served
    for example in ctx.benchmark("bird").dev.examples:
        status, body = query(
            server,
            {"benchmark": "bird", "example_id": example.example_id,
             "task": "table", "mode": "human"},
        )
        assert status == 200
        assert body["abstained"] is False
        assert isinstance(body["sql"], str) and body["sql"].startswith("SELECT")


def test_joint_task_serves_both_layers(served):
    server, _app, ctx = served
    example = ctx.benchmark("bird").dev.examples[0]
    status, body = query(
        server,
        {"benchmark": "bird", "example_id": example.example_id,
         "task": "joint", "mode": "human"},
    )
    assert status == 200
    assert body["record"]["key"].endswith(f":{example.example_id}")
    assert body["probe"]["table_mean_auc"] > 0
    assert body["probe"]["column_mean_auc"] > 0
    assert body["sql"] is not None


def test_query_by_question_resolves_the_example(served):
    server, _app, ctx = served
    example = ctx.benchmark("bird").dev.examples[0]
    status, body = query(
        server, {"benchmark": "bird", "question": example.question, "task": "table"}
    )
    assert status == 200
    assert body["example_id"] == example.example_id


# -- the error surface --------------------------------------------------------


def test_error_responses(served):
    server, _app, ctx = served
    example_id = ctx.benchmark("bird").dev.examples[0].example_id
    assert get(server, "/nope")[0] == 404
    assert post(server, "/v1/nope", b"{}")[0] == 404
    assert post(server, "/v1/query", b"")[0] == 400  # empty body
    assert post(server, "/v1/query", b"{not json")[0] == 400
    assert post(server, "/v1/query", b"[1, 2]")[0] == 400  # non-object body
    assert query(server, {"benchmark": "bird"})[0] == 400  # no id, no question
    assert query(server, {"benchmark": "postgres", "example_id": example_id})[0] == 404
    assert query(server, {"example_id": "no-such-example"})[0] == 404
    assert query(server, {"example_id": example_id, "task": "views"})[0] == 400
    assert query(server, {"example_id": example_id, "mode": "prayer"})[0] == 400
    # The server survived all of it.
    assert get(server, "/healthz")[0] == 200


def test_api_error_carries_its_status():
    error = ApiError(418, "teapot")
    assert error.status == 418 and str(error) == "teapot"


# -- health and stats ---------------------------------------------------------


def test_healthz_reports_liveness(served):
    server, _app, _ctx = served
    status, body = get(server, "/healthz")
    assert status == 200
    assert body["status"] == "ok"
    assert body["benchmarks"] == ["bird"]
    assert body["backend"] == "SimulatorBackend"
    assert body["uptime_s"] >= 0


def test_stats_counts_requests_and_tiers(served):
    server, app, ctx = served
    example_id = ctx.benchmark("bird").dev.examples[0].example_id
    payload = {"benchmark": "bird", "example_id": example_id, "task": "table"}
    assert query(server, payload)[0] == 200
    status, repeat = query(server, payload)
    assert status == 200
    assert repeat["diagnostics"]["cache_tier"] == "memory"  # second hit is L1
    status, stats = get(server, "/v1/stats")
    assert status == 200
    assert stats["requests"]["n_queries"] >= 2
    assert stats["requests"]["n_errors"] >= 0
    assert stats["tiers"]["memory"]["hits"] >= 1
    assert stats["cache"]["hits"] >= 1
    assert stats["namespace"] == ctx.service.namespace()
    assert "supervisor" not in stats  # simulator backend: no fleet


# -- SLO surface: deadlines, auth, latency histograms -------------------------


def serve_app(app: ServeApp):
    """Run an already-warmed app on an ephemeral port; yields the server."""
    server = ReproServer(("127.0.0.1", 0), app)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def stop_serving(server: ReproServer, thread: threading.Thread) -> None:
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.fixture()
def served_process():
    """A warmed server over a single-worker process backend."""
    from repro.runtime.service import PROCESS, BackendSpec

    ctx = ExperimentContext.tiny(spec=BackendSpec(kind=PROCESS, workers=1))
    app = ServeApp(ctx, benchmarks=("bird",))
    app.warm()
    server, thread = serve_app(app)
    try:
        yield server, app, ctx
    finally:
        stop_serving(server, thread)
        ctx.close()


def test_per_request_deadline_returns_503_without_duplicates(
    served_process, monkeypatch
):
    """The acceptance scenario: a chaos-delayed query with a tight
    timeout_s gets HTTP 503 with the documented body; the disowned
    generation is neither lost nor duplicated, and an undeadlined
    retry answers normally."""
    import os
    import signal

    from repro.runtime.remote import CHAOS_DELAY_ENV

    server, app, ctx = served_process
    backend = app.backend
    # Replace the (fast) warm-up worker with one that inherits the chaos
    # delay — workers read the env at spawn time.
    monkeypatch.setenv(CHAOS_DELAY_ENV, "200")
    victims = backend.worker_pids()
    for pid in victims:
        os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 15.0
    while time.monotonic() < deadline:
        if set(backend.worker_pids()) - set(victims) and backend.check_health() == 1:
            break
        backend.check_health()  # reap the victim, spawn the replacement
        time.sleep(0.05)
    assert len(backend.ping()) == 1  # the replacement is up
    example_id = ctx.benchmark("bird").dev.examples[0].example_id
    payload = {"benchmark": "bird", "example_id": example_id, "task": "table",
               "mode": "abstain", "timeout_s": 0.05}
    status, body = query(server, payload)
    assert status == 503
    assert body["error_type"] == "deadline_exceeded"
    assert body["retryable"] is True
    assert body["timeout_s"] == 0.05
    assert "deadline" in body["error"]
    # Without the per-request deadline the same query answers fine (the
    # chaos delay only makes it slow), and nothing was duplicated.
    del payload["timeout_s"]
    status, body = query(server, payload)
    assert status == 200 and body["example_id"] == example_id
    status, stats = get(server, "/v1/stats")
    assert status == 200
    assert stats["requests"]["n_deadline_exceeded"] >= 1
    assert stats["supervisor"]["n_deadline_exceeded"] >= 1
    assert stats["supervisor"]["n_duplicate_results"] == 0


def test_warm_ignores_a_request_deadline_shorter_than_the_fit():
    """The one-time fit runs on the warming thread inside
    ``deadline_scope(None)``: a 1 ms request deadline, far shorter than
    the fit batch, neither fails the warm-up nor is rewritten by it."""
    from repro.runtime.service import PROCESS, BackendSpec

    spec = BackendSpec(kind=PROCESS, workers=1, request_timeout_s=0.001)
    ctx = ExperimentContext.tiny(spec=spec)
    try:
        app = ServeApp(ctx, benchmarks=("bird",))
        app.warm()  # no DeadlineExceeded
        assert app.backend.request_timeout_s == spec.request_timeout_s
        assert ctx.service.stats.misses > 0  # the fit really ran on the backend
    finally:
        ctx.close()


def test_per_request_timeout_validation(served):
    server, _app, ctx = served
    example_id = ctx.benchmark("bird").dev.examples[0].example_id
    for bad in (0, -1, "fast", True):
        status, body = query(
            server,
            {"benchmark": "bird", "example_id": example_id, "timeout_s": bad},
        )
        assert status == 400
        assert "timeout_s" in body["error"]


def test_healthz_reports_draining_workers(served_process):
    server, app, _ctx = served_process
    status, body = get(server, "/healthz")
    assert status == 200
    assert body["workers_alive"] == 1
    assert body["workers_draining"] == 0
    # Drain the idle worker: it deregisters immediately and its
    # replacement keeps capacity level.
    backend = app.backend
    index = backend.worker_snapshot()[0]["index"]
    assert backend.drain(index) is True
    deadline = time.monotonic() + 10.0
    while backend.stats.n_drained < 1 and time.monotonic() < deadline:
        time.sleep(0.02)
    status, stats = get(server, "/v1/stats")
    assert status == 200
    assert stats["supervisor"]["n_drained"] == 1
    assert stats["supervisor"]["n_requeued"] == 0
    status, body = get(server, "/healthz")
    assert status == 200 and body["workers_alive"] == 1


@pytest.fixture()
def served_auth():
    """A warmed simulator-backed server requiring a bearer token."""
    ctx = ExperimentContext.tiny()
    app = ServeApp(ctx, benchmarks=("bird",), auth_token="s3cret")
    app.warm()
    server, thread = serve_app(app)
    try:
        yield server, app, ctx
    finally:
        stop_serving(server, thread)
        ctx.close()


def test_bearer_token_gates_v1_routes_but_not_healthz(served_auth):
    server, app, ctx = served_auth
    bearer = {"Authorization": "Bearer s3cret"}
    example_id = ctx.benchmark("bird").dev.examples[0].example_id
    payload = {"benchmark": "bird", "example_id": example_id, "task": "table"}
    # /healthz stays open for probes.
    assert get(server, "/healthz")[0] == 200
    # Missing, malformed, and wrong credentials are 401s.
    for headers in (
        None,
        {"Authorization": "Bearer wrong"},
        {"Authorization": "Basic s3cret"},
        {"Authorization": "s3cret"},
    ):
        status, body = query(server, payload, headers=headers)
        assert status == 401
        assert body["error_type"] == "unauthorized"
        status, body = get(server, "/v1/stats", headers=headers)
        assert status == 401
    # The right token clears both routes.
    assert query(server, payload, headers=bearer)[0] == 200
    status, stats = get(server, "/v1/stats", headers=bearer)
    assert status == 200
    assert stats["requests"]["n_unauthorized"] >= 8


def test_unauthorized_sends_www_authenticate_challenge(served_auth):
    server, _app, _ctx = served_auth
    request = urllib.request.Request(url(server, "/v1/stats"))
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(request)
    assert info.value.code == 401
    assert info.value.headers.get("WWW-Authenticate") == "Bearer"


def test_stats_exposes_latency_histograms(served):
    server, _app, ctx = served
    example_id = ctx.benchmark("bird").dev.examples[0].example_id
    for _ in range(3):
        assert query(
            server, {"benchmark": "bird", "example_id": example_id, "task": "table"}
        )[0] == 200
    assert get(server, "/healthz")[0] == 200
    assert get(server, "/v1/stats")[0] == 200  # so the stats histogram is warm
    status, stats = get(server, "/v1/stats")
    assert status == 200
    latency = stats["latency"]
    query_histogram = latency["endpoints"]["query"]
    # The histogram counts exactly the queries that returned 200 — the
    # same measurement the per-response diagnostics.latency_ms carries.
    assert query_histogram["count"] == stats["requests"]["n_queries"]
    assert query_histogram["count"] >= 3
    assert sum(query_histogram["bucket_counts"]) == query_histogram["count"]
    assert query_histogram["sum_ms"] > 0
    assert query_histogram["bucket_le_ms"][-1] == "+Inf"
    for quantile in ("p50_ms", "p95_ms", "p99_ms"):
        assert query_histogram[quantile] is not None
        assert query_histogram[quantile] >= 0
    assert query_histogram["p50_ms"] <= query_histogram["p99_ms"]
    for endpoint in ("healthz", "stats"):
        assert latency["endpoints"][endpoint]["count"] >= 1
    # Every query lands in exactly one cache-tier histogram too.
    tier_total = sum(h["count"] for h in latency["tiers"].values())
    assert tier_total == query_histogram["count"]
    assert "memory" in latency["tiers"]  # the repeats were L1 hits


def test_latency_histogram_percentiles_are_sane():
    from repro.runtime.serve import LatencyHistogram

    histogram = LatencyHistogram()
    assert histogram.snapshot()["count"] == 0
    assert histogram.snapshot()["p50_ms"] is None
    for value in (2.0, 3.0, 4.0, 30.0, 40.0, 90.0, 20_000.0):
        histogram.record(value)
    snapshot = histogram.snapshot()
    assert snapshot["count"] == 7
    assert snapshot["sum_ms"] == pytest.approx(20_169.0)
    assert snapshot["p50_ms"] <= snapshot["p95_ms"] <= snapshot["p99_ms"]
    # The overflow bucket clamps to the largest finite bound instead of
    # inventing an infinite percentile.
    assert snapshot["p99_ms"] == 10_000.0
    assert sum(snapshot["bucket_counts"]) == 7


# -- the documented API cannot drift ------------------------------------------


def documented_bodies() -> "dict[str, dict]":
    """The response examples in docs/http-api.md, by live-check tag."""
    import pathlib
    import re

    doc = (
        pathlib.Path(__file__).resolve().parents[1] / "docs" / "http-api.md"
    ).read_text()
    blocks = re.findall(
        r"<!-- live-check: ([\w-]+) -->\s*```json\n(.*?)```", doc, flags=re.DOTALL
    )
    assert blocks, "docs/http-api.md lost its live-check tags"
    return {name: json.loads(body) for name, body in blocks}


def assert_documented_fields_exist(documented, live, path: str) -> None:
    """Every key the doc shows must exist in the live payload (values
    are illustrative; extra live keys are fine — docs may trail new
    fields by one PR, but must never describe fields that don't exist)."""
    if isinstance(documented, dict):
        assert isinstance(live, dict), f"{path}: documented object, live {type(live)}"
        for key, value in documented.items():
            assert key in live, f"{path}.{key} documented but missing live"
            assert_documented_fields_exist(value, live[key], f"{path}.{key}")
    elif isinstance(documented, list) and documented and isinstance(live, list):
        assert live, f"{path}: documented non-empty list, live empty"
        assert_documented_fields_exist(documented[0], live[0], f"{path}[0]")


def test_http_api_doc_fields_exist_live(served_process, monkeypatch):
    """docs/http-api.md is checked against a live process-backed server:
    every documented field of every example body must exist in a real
    response of the same kind."""
    import os
    import signal

    from repro.runtime.remote import CHAOS_DELAY_ENV

    server, app, ctx = served_process
    documented = documented_bodies()
    assert set(documented) == {
        "query", "healthz", "stats", "deadline", "unauthorized", "error",
    }
    example_id = ctx.benchmark("bird").dev.examples[0].example_id
    payload = {"benchmark": "bird", "example_id": example_id, "task": "table",
               "mode": "abstain"}
    live: "dict[str, dict]" = {}
    status, live["query"] = query(server, payload)
    assert status == 200
    assert query(server, payload)[0] == 200  # repeat: a memory-tier hit
    status, live["error"] = query(server, {**payload, "task": "views"})
    assert status == 400
    # The bearer gate, flipped on live for one request.
    app.auth_token = "s3cret"
    try:
        status, live["unauthorized"] = query(server, payload)
        assert status == 401
    finally:
        app.auth_token = None
    # A real deadline expiry: replace the worker with a chaos-delayed one.
    backend = app.backend
    monkeypatch.setenv(CHAOS_DELAY_ENV, "200")
    victims = backend.worker_pids()
    for pid in victims:
        os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 15.0
    while time.monotonic() < deadline:
        if set(backend.worker_pids()) - set(victims) and backend.check_health() == 1:
            break
        backend.check_health()
        time.sleep(0.05)
    second = ctx.benchmark("bird").dev.examples[1].example_id
    status, live["deadline"] = query(
        server,
        {"benchmark": "bird", "example_id": second, "task": "table",
         "mode": "abstain", "timeout_s": 0.05},
    )
    assert status == 503
    status, live["healthz"] = get(server, "/healthz")
    assert status == 200
    status, live["stats"] = get(server, "/v1/stats")
    assert status == 200
    for name, body in documented.items():
        assert_documented_fields_exist(body, live[name], name)


# -- the CLI parser -----------------------------------------------------------


def test_serve_parser_shares_the_backend_flag_vocabulary():
    args = build_serve_parser().parse_args(
        ["--benchmark", "bird", "spider", "--scale", "tiny",
         "--backend", "process", "--transport", "unix", "--gen-workers", "2"]
    )
    assert args.benchmark == ["bird", "spider"]
    assert args.backend == "process"
    assert args.transport == "unix"
    assert args.gen_workers == 2
    assert args.port == 0  # ephemeral by default
    # Two generation workers by default; there is no separate --workers.
    assert build_serve_parser().parse_args([]).gen_workers == 2
    with pytest.raises(SystemExit):
        build_serve_parser().parse_args(["--workers", "2"])
