"""Tests for the process-isolated generation backend.

Pins down the tentpole guarantees:

* the wire protocol round-trips frames and messages exactly (EOF and
  torn frames read as channel death, never as corrupt messages);
* `socket_worker_main` serves hello/init/generate/ping/shutdown over a
  socketpair and reports request-level failures without dying;
* the supervisor's handshake reads a capped JSON hello under a
  deadline, so a pickled, oversized or silent hello runs nothing and
  holds nothing; a killed supervisor's unix socket does not block a
  restart, and a live one is never stolen;
* `ProcessBackend` traces are bit-identical to `SimulatorBackend`'s,
  its `identity()` keeps the persistent-cache namespace shared across
  the whole backend axis, and `--backend process` summaries are
  byte-identical through the CLI;
* crash recovery: a worker SIGKILLed mid-batch is restarted, its
  in-flight requests are requeued to a surviving worker, and the batch
  completes with zero lost or duplicated generations — while an
  exhausted restart budget fails the stranded callers loudly instead of
  hanging them;
* lifecycle: close() terminates the fleet (no worker outlives the
  backend), the backend restarts cleanly afterwards, and it pickles as
  configuration only; a polite close() is prompt on every transport
  and lets its workers exit cleanly (code 0, no SIGKILL).
"""

from __future__ import annotations

import gc
import io
import json
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from helpers import assert_traces_equal

from repro.core.pipeline import RTSPipeline
from repro.llm.model import SIMULATOR_VERSION, TransparentLLM
import repro.runtime.remote as remote_module
from repro.runtime.remote import (
    CHAOS_DELAY_ENV,
    HELLO_MAX_BYTES,
    ProcessBackend,
    SocketTransport,
    WorkerCrashError,
    connect_address,
    create_listener,
    read_frame,
    recv_message,
    send_message,
    socket_worker_main,
    write_frame,
)
from repro.runtime.service import (
    FORCED,
    FREE,
    PROCESS,
    BackendSpec,
    GenerationRequest,
    GenerationService,
    SimulatorBackend,
)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(scope="module")
def table_instances(bird_tiny):
    return [
        RTSPipeline.instance_for(e, bird_tiny, "table") for e in bird_tiny.dev.examples
    ]


@pytest.fixture(scope="module")
def reference_traces(table_instances):
    requests = mixed_requests(table_instances)
    return requests, SimulatorBackend(TransparentLLM(seed=11)).generate(requests)


def mixed_requests(instances) -> list:
    return [GenerationRequest(FREE, i) for i in instances] + [
        GenerationRequest(FORCED, i) for i in instances
    ]


def worker_env() -> dict:
    """The environment a ``python -m repro.runtime.remote`` child needs."""
    env = dict(os.environ)
    src_root = str(Path(remote_module.__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root if not existing else f"{src_root}{os.pathsep}{existing}"
    return env


def wait_for_exit(pid: int, timeout_s: float = 10.0) -> bool:
    """True once ``pid`` no longer exists (reaped subprocess)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.02)
    return False


# -- framing ------------------------------------------------------------------


def test_frame_roundtrip_including_empty_payload():
    stream = io.BytesIO()
    write_frame(stream, b"hello")
    write_frame(stream, b"")
    write_frame(stream, b"\x00" * 1000)
    stream.seek(0)
    assert read_frame(stream) == b"hello"
    assert read_frame(stream) == b""
    assert read_frame(stream) == b"\x00" * 1000
    assert read_frame(stream) is None  # EOF
    stream.seek(0)
    assert read_frame(stream, max_length=4) is None  # 5 bytes announced
    assert stream.tell() == 4  # only the header was read


def test_torn_frame_reads_as_eof():
    stream = io.BytesIO()
    write_frame(stream, b"complete")
    payload = stream.getvalue()
    for cut in (len(payload) - 1, len(payload) - 5, 2):
        assert read_frame(io.BytesIO(payload[:cut])) is None
    assert read_frame(io.BytesIO(b"")) is None


def test_message_roundtrip():
    stream = io.BytesIO()
    send_message(stream, {"op": "ping", "id": 7})
    stream.seek(0)
    assert recv_message(stream) == {"op": "ping", "id": 7}
    assert recv_message(stream) is None


# -- the worker loop, in process ----------------------------------------------


def run_worker(messages: list) -> tuple:
    """Play supervisor to ``socket_worker_main`` over a socketpair.

    The worker runs on a thread; this side reads its hello, sends
    ``messages``, half-closes, and collects every reply until EOF.
    Returns ``(hello, replies, exit code)``.
    """
    ours, theirs = socket.socketpair()
    codes: list = []
    thread = threading.Thread(
        target=lambda: codes.append(socket_worker_main(theirs, heartbeat_s=0)),
        daemon=True,
    )
    thread.start()
    transport = SocketTransport(ours)
    try:
        hello = transport.recv_hello(timeout_s=10.0)
        for message in messages:
            transport.send(message)
        transport.begin_shutdown()
        replies = []
        while (reply := transport.recv()) is not None:
            replies.append(reply)
        thread.join(timeout=30)
    finally:
        transport.close()
    return hello, replies, codes[0] if codes else None


def test_worker_main_serves_generate_ping_shutdown(table_instances):
    instance = table_instances[0]
    hello, replies, code = run_worker(
        [
            {"op": "init", "llm": TransparentLLM(seed=11)},
            {"op": "generate", "id": 0, "request": GenerationRequest(FREE, instance)},
            {"op": "ping", "id": 1},
            {"op": "generate", "id": 2, "request": GenerationRequest(FORCED, instance)},
            {"op": "shutdown"},
        ]
    )
    assert code == 0
    assert hello["op"] == "hello" and hello["pid"] == os.getpid()
    assert hello["capabilities"] == {"kinds": [FREE, FORCED]}
    ready, first, pong, second = replies
    assert ready["op"] == "ready" and ready["pid"] == os.getpid()
    llm = TransparentLLM(seed=11)
    assert first["op"] == "result" and first["id"] == 0
    assert_traces_equal(first["trace"], llm.generate(instance))
    assert pong == {"op": "pong", "id": 1}
    assert second["op"] == "result" and second["id"] == 2
    assert_traces_equal(second["trace"], llm.teacher_forced_trace(instance))


def test_worker_main_reports_request_errors_and_keeps_serving(table_instances):
    # A request whose instance is None: the worker-side generate raises
    # (kind validation passes — only the simulator call explodes).
    _hello, replies, code = run_worker(
        [
            {"op": "init", "llm": TransparentLLM(seed=11)},
            {"op": "generate", "id": 0, "request": GenerationRequest(FREE, None)},
            {"op": "ping", "id": 1},
        ]
    )
    assert code == 0  # EOF after ping: clean exit
    ready, error, pong = replies
    assert ready["op"] == "ready"
    assert error["op"] == "error" and error["id"] == 0
    assert "Traceback" in error["error"]
    assert pong == {"op": "pong", "id": 1}


def test_worker_main_without_init_exits_nonzero():
    hello, replies, code = run_worker([])
    assert hello is not None and hello["op"] == "hello"
    assert replies == [] and code == 1


def test_repro_worker_without_connect_needs_a_socket_stdin():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.runtime.remote"],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        env=worker_env(),
        timeout=60,
    )
    assert proc.returncode == 1
    assert "stdin (not a connected socket" in proc.stderr
    assert "--connect" in proc.stderr


# -- byte-identity with the in-process backends -------------------------------


def test_process_backend_bit_identical_to_simulator(reference_traces):
    requests, reference = reference_traces
    with ProcessBackend(TransparentLLM(seed=11), workers=2) as backend:
        traces = backend.generate(requests)
    assert len(traces) == len(reference)
    for a, b in zip(reference, traces):
        assert_traces_equal(a, b)


def test_process_backend_identity_is_the_simulator_identity():
    llm = TransparentLLM(seed=11)
    backend = ProcessBackend(llm)
    assert backend.identity() == SimulatorBackend(llm).identity()
    assert backend.identity()[0] == SIMULATOR_VERSION


def test_process_backend_shares_the_persistent_namespace(tmp_path, table_instances):
    """A store warmed by the simulator serves the process backend fully."""
    instances = table_instances[:3]
    writer = GenerationService.build(TransparentLLM(seed=11), cache_dir=tmp_path)
    cold = writer.free_traces(instances)
    writer.close()

    reader = GenerationService.build(
        TransparentLLM(seed=11), spec=BackendSpec(kind=PROCESS, workers=1), cache_dir=tmp_path
    )
    with reader:
        warm = reader.free_traces(instances)
        assert reader.stats.misses == 0  # every trace came from the store
        assert reader.namespace() == writer.namespace()
    for a, b in zip(cold, warm):
        assert_traces_equal(a, b)


def test_process_backend_validates_config():
    llm = TransparentLLM(seed=11)
    with pytest.raises(ValueError):
        ProcessBackend(llm, workers=0)
    with pytest.raises(ValueError):
        ProcessBackend(llm, max_restarts=-1)


def test_spawned_worker_stdout_is_not_its_frame_channel(tmp_path, table_instances):
    """A spawned worker talks on its socketpair: whatever it prints lands
    in its log instead of corrupting the protocol."""
    llm = TransparentLLM(seed=11)
    with ProcessBackend(llm, workers=1, log_dir=tmp_path) as backend:
        (pid,) = backend.ping()
        assert pid != os.getpid()
        traces = backend.generate([GenerationRequest(FREE, table_instances[0])])
        worker = backend._fleet[0]
        assert worker.proc.stdout is None and worker.proc.stdin is None
    assert_traces_equal(traces[0], llm.generate(table_instances[0]))


# -- crash recovery -----------------------------------------------------------


def test_sigkill_one_worker_mid_batch_loses_nothing(reference_traces, monkeypatch):
    """The acceptance bug: a killed worker must not lose or duplicate
    a generation — its in-flight requests requeue to a survivor, a
    replacement spawns, and the batch completes bit-identically."""
    requests, reference = reference_traces
    # Slow each generation down so the kill reliably lands mid-batch.
    monkeypatch.setenv(CHAOS_DELAY_ENV, "40")
    with ProcessBackend(TransparentLLM(seed=11), workers=2) as backend:
        assert len(backend.ping()) == 2
        victim = backend.worker_pids()[0]
        timer = threading.Timer(0.2, os.kill, (victim, signal.SIGKILL))
        timer.start()
        try:
            traces = backend.generate(requests)
        finally:
            timer.cancel()
        stats = backend.stats
    assert len(traces) == len(requests)  # nothing lost
    for a, b in zip(reference, traces):
        assert_traces_equal(a, b)  # nothing duplicated or reordered
    assert stats.n_restarts >= 1  # the victim was replaced
    assert stats.n_requeued >= 1  # its in-flight work moved to a survivor
    assert stats.n_duplicate_results == 0  # each request resolved once
    assert wait_for_exit(victim)


def test_exhausted_restart_budget_fails_loudly(table_instances, monkeypatch):
    monkeypatch.setenv(CHAOS_DELAY_ENV, "200")
    backend = ProcessBackend(TransparentLLM(seed=11), workers=1, max_restarts=0)
    try:
        (pid,) = backend.ping()
        timer = threading.Timer(0.05, os.kill, (pid, signal.SIGKILL))
        timer.start()
        with pytest.raises(WorkerCrashError, match="restart budget|worker"):
            backend.generate(mixed_requests(table_instances))
        timer.cancel()
    finally:
        backend.close()


def test_check_health_replaces_an_idle_dead_worker():
    with ProcessBackend(TransparentLLM(seed=11), workers=2) as backend:
        pids = backend.ping()
        assert len(pids) == 2
        os.kill(pids[0], signal.SIGKILL)
        assert wait_for_exit(pids[0])
        assert backend.check_health() == 2  # reaped and replenished
        fresh = backend.ping()
        assert len(fresh) == 2 and pids[0] not in fresh
        assert backend.restarts == 1


def test_worker_error_propagates_with_traceback(table_instances):
    """A request-level failure raises WorkerError; the fleet survives."""
    from repro.runtime.remote import WorkerError

    good = table_instances[0]
    with ProcessBackend(TransparentLLM(seed=11), workers=1) as backend:
        with pytest.raises(WorkerError, match="Traceback"):
            backend.generate([GenerationRequest(FREE, None)])
        # Same worker keeps serving afterwards.
        traces = backend.generate([GenerationRequest(FREE, good)])
        assert_traces_equal(traces[0], TransparentLLM(seed=11).generate(good))
        assert backend.restarts == 0


# -- lifecycle ----------------------------------------------------------------


def test_close_terminates_the_fleet_and_backend_restarts_cleanly(table_instances):
    backend = ProcessBackend(TransparentLLM(seed=11), workers=2)
    request = GenerationRequest(FREE, table_instances[0])
    first = backend.generate([request])[0]
    pids = backend.worker_pids()
    assert len(pids) == 2
    backend.close()
    for pid in pids:
        assert wait_for_exit(pid), f"worker {pid} outlived close()"
    # Reusable after close.
    second = backend.generate([request])[0]
    backend.close()
    assert_traces_equal(first, second)


def test_close_is_idempotent_and_safe_before_start():
    backend = ProcessBackend(TransparentLLM(seed=11))
    backend.close()
    backend.close()
    assert backend.worker_pids() == []
    assert backend.generate([]) == []  # empty batch never spawns workers
    assert backend.stats.n_spawned == 0


def test_worker_logs_are_captured_per_worker(tmp_path, table_instances):
    log_dir = tmp_path / "worker-logs"
    with ProcessBackend(TransparentLLM(seed=11), workers=2, log_dir=log_dir) as backend:
        backend.generate([GenerationRequest(FREE, table_instances[0])])
    logs = sorted(p.name for p in log_dir.glob("worker-*.log"))
    assert logs == ["worker-0.log", "worker-1.log"]


def test_process_backend_pickles_as_configuration(table_instances):
    import pickle

    backend = ProcessBackend(TransparentLLM(seed=11), workers=1)
    request = GenerationRequest(FREE, table_instances[0])
    with backend:
        trace = backend.generate([request])[0]
        clone = pickle.loads(pickle.dumps(backend))
    assert clone.worker_pids() == []  # config only: no inherited fleet
    with clone:
        assert_traces_equal(clone.generate([request])[0], trace)


# -- socket transports --------------------------------------------------------


@pytest.mark.parametrize("transport", ["unix", "tcp"])
def test_socket_transport_bit_identical_to_simulator(reference_traces, transport):
    """Generations over socket workers are the same bytes as in-process,
    and the supervisor observes per-worker latency for scheduling."""
    requests, reference = reference_traces
    llm = TransparentLLM(seed=11)
    with ProcessBackend(llm, workers=2, transport=transport) as backend:
        traces = backend.generate(requests)
        assert backend.address is not None
        assert backend.address.startswith(f"{transport}:")
        snapshot = backend.worker_snapshot()
        stats = backend.stats
    assert len(traces) == len(reference)
    for a, b in zip(reference, traces):
        assert_traces_equal(a, b)
    assert stats.transport == transport
    assert len(snapshot) == 2
    assert any(entry["ewma_ms"] is not None for entry in snapshot)


def test_socket_sigkill_one_worker_mid_batch_loses_nothing(
    reference_traces, monkeypatch
):
    """The pipe-transport kill invariant holds across sockets: a worker
    SIGKILLed mid-batch disconnects, is replaced, its in-flight requests
    requeue, and the batch completes bit-identically."""
    requests, reference = reference_traces
    monkeypatch.setenv(CHAOS_DELAY_ENV, "40")
    with ProcessBackend(
        TransparentLLM(seed=11), workers=2, transport="unix"
    ) as backend:
        assert len(backend.ping()) == 2
        victim = backend.worker_pids()[0]
        timer = threading.Timer(0.2, os.kill, (victim, signal.SIGKILL))
        timer.start()
        try:
            traces = backend.generate(requests)
        finally:
            timer.cancel()
        stats = backend.stats
    assert len(traces) == len(requests)  # nothing lost
    for a, b in zip(reference, traces):
        assert_traces_equal(a, b)  # nothing duplicated or reordered
    assert stats.n_restarts >= 1
    assert stats.n_requeued >= 1
    assert stats.n_duplicate_results == 0
    assert wait_for_exit(victim)


def test_unix_close_is_prompt_and_stops_the_acceptor():
    """close() wakes the acceptor out of accept() instead of waiting out
    its join timeout with the thread still blocked."""
    backend = ProcessBackend(TransparentLLM(seed=11), workers=1, transport="unix")
    backend.start()
    assert len(backend.ping()) == 1
    acceptor = backend._acceptor
    started = time.monotonic()
    backend.close()
    elapsed = time.monotonic() - started
    assert elapsed < backend.shutdown_timeout_s / 2, f"close took {elapsed:.2f}s"
    assert not acceptor.is_alive()


@pytest.mark.parametrize("transport", ["pipe", "unix", "tcp"])
def test_polite_close_lets_socket_workers_exit_cleanly(transport):
    """A worker's EOF during close() is it exiting, not a crash: no
    SIGKILL, every spawned worker exits with code 0."""
    backend = ProcessBackend(TransparentLLM(seed=11), workers=2, transport=transport)
    backend.start()
    assert len(backend.ping()) == 2
    procs = [worker.proc for worker in backend._fleet]
    backend.close()
    assert [proc.returncode for proc in procs] == [0, 0]


@pytest.mark.parametrize("transport", ["pipe", "unix"])
def test_socket_workers_heartbeat(transport):
    """Every spawned worker heartbeats, whether or not there is a listener."""
    with ProcessBackend(
        TransparentLLM(seed=11), workers=1, transport=transport, heartbeat_s=0.05
    ) as backend:
        backend.start()
        deadline = time.monotonic() + 5.0
        while backend.stats.n_heartbeats < 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert backend.stats.n_heartbeats >= 2


def test_external_repro_worker_joins_an_accept_only_supervisor(table_instances):
    """workers=0 over TCP: the supervisor serves no local workers and
    waits for a ``repro-worker --connect`` to dial in — generations then
    run on the external worker, byte-identically."""
    backend = ProcessBackend(TransparentLLM(seed=11), workers=0, transport="tcp")
    proc = None
    try:
        backend.start()
        address = backend.address
        assert address is not None and address.startswith("tcp:")
        assert backend.worker_pids() == []  # accept-only: nothing spawned
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.runtime.remote", "--connect", address],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=worker_env(),
        )
        requests = mixed_requests(table_instances[:2])
        traces = backend.generate(requests)
        reference = SimulatorBackend(TransparentLLM(seed=11)).generate(requests)
        for a, b in zip(reference, traces):
            assert_traces_equal(a, b)
        stats = backend.stats
        assert stats.n_external == 1
        assert stats.n_alive == 1
        assert backend.worker_pids() == [proc.pid]
    finally:
        backend.close()
        if proc is not None:
            try:
                proc.wait(timeout=10)  # EOF from close() ends the worker
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


# -- CLI byte-identity --------------------------------------------------------


def test_run_cli_process_backend_matches_simulator_summary(tmp_path, capsys, monkeypatch):
    from repro.runtime.cli import main

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    args = [
        "--benchmark", "bird",
        "--split", "dev",
        "--task", "table",
        "--scale", "tiny",
        "--limit", "2",
        "--gen-workers", "2",
    ]
    assert main([*args, "--backend", "simulator"]) == 0
    simulator = json.loads(capsys.readouterr().out)
    log_dir = tmp_path / "worker-logs"
    assert main([*args, "--backend", "process", "--worker-log-dir", str(log_dir)]) == 0
    process = json.loads(capsys.readouterr().out)
    assert process["backend"] == "process"
    assert simulator["summary"] == process["summary"]
    assert sorted(log_dir.glob("worker-*.log"))  # logs captured via the CLI


# -- SLO hardening: deadlines, draining, fleet auth ---------------------------


def test_deadline_expiry_disowns_without_duplicates(table_instances, monkeypatch):
    """A request past --request-timeout-s fails with DeadlineExceeded;
    the in-flight generation is disowned (not requeued, not restarted)
    and its late result is absorbed without counting as a duplicate."""
    from repro.runtime.service import DeadlineExceeded, deadline_scope

    monkeypatch.setenv(CHAOS_DELAY_ENV, "200")
    with ProcessBackend(
        TransparentLLM(seed=11), workers=1, request_timeout_s=0.05
    ) as backend:
        with pytest.raises(DeadlineExceeded) as info:
            backend.generate([GenerationRequest(FREE, table_instances[0])])
        assert info.value.timeout_s == 0.05
        # The worker is still sane: an undeadlined follow-up on the same
        # (single) worker queues behind the disowned generation and
        # completes byte-identically.
        with deadline_scope(None):
            traces = backend.generate([GenerationRequest(FREE, table_instances[1])])
        assert_traces_equal(
            traces[0], TransparentLLM(seed=11).generate(table_instances[1])
        )
        stats = backend.stats
    assert stats.n_deadline_exceeded == 1
    assert stats.n_duplicate_results == 0  # the late result was absorbed
    assert stats.n_requeued == 0  # disowned, never re-dispatched
    assert stats.n_restarts == 0  # the worker was never punished


def test_drain_during_burst_finishes_inflight_with_zero_requeues(
    reference_traces, monkeypatch
):
    """drain(worker_id) mid-burst: the drained worker finishes what it
    holds, new dispatch avoids it, a replacement spawns outside the
    restart budget, and the batch completes bit-identically with zero
    requeues and zero duplicates."""
    requests, reference = reference_traces
    monkeypatch.setenv(CHAOS_DELAY_ENV, "40")
    with ProcessBackend(
        TransparentLLM(seed=11), workers=2, transport="unix"
    ) as backend:
        assert len(backend.ping()) == 2
        victim_index = backend.worker_snapshot()[0]["index"]
        victim_pid = backend.worker_pids()[0]
        drained: list = []
        timer = threading.Timer(0.2, lambda: drained.append(backend.drain(victim_index)))
        timer.start()
        try:
            traces = backend.generate(requests)
        finally:
            timer.cancel()
        assert drained == [True]
        deadline = time.monotonic() + 10.0
        while backend.stats.n_drained < 1 and time.monotonic() < deadline:
            time.sleep(0.02)
        stats = backend.stats
        snapshot = backend.worker_snapshot()
    assert len(traces) == len(requests)
    for a, b in zip(reference, traces):
        assert_traces_equal(a, b)  # nothing lost, duplicated, or reordered
    assert stats.n_drained == 1
    assert stats.n_requeued == 0  # graceful: in-flight work finished in place
    assert stats.n_duplicate_results == 0
    assert stats.n_restarts == 0  # the rotation spent no restart budget
    assert stats.n_spawned == 3  # 2 initial + 1 replacement
    assert victim_index not in [entry["index"] for entry in snapshot]
    assert wait_for_exit(victim_pid)


def test_drain_rejects_unknown_worker_id():
    with ProcessBackend(TransparentLLM(seed=11), workers=1) as backend:
        backend.start()
        assert backend.drain(worker_id=999) is False


def test_sigterm_drains_an_external_socket_worker(table_instances):
    """SIGTERM to repro-worker = graceful drain: it announces draining,
    finishes in-flight work, and exits 0 once the supervisor releases it
    — zero requeues. The worker authenticates via $REPRO_FLEET_TOKEN."""
    from repro.runtime.service import FLEET_TOKEN_ENV

    backend = ProcessBackend(
        TransparentLLM(seed=11), workers=0, transport="tcp", fleet_token="s3cret"
    )
    proc = None
    try:
        backend.start()
        address = backend.address
        env = worker_env()
        env[FLEET_TOKEN_ENV] = "s3cret"  # env fallback for --fleet-token
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.runtime.remote", "--connect", address],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        requests = mixed_requests(table_instances[:2])
        traces = backend.generate(requests)
        reference = SimulatorBackend(TransparentLLM(seed=11)).generate(requests)
        for a, b in zip(reference, traces):
            assert_traces_equal(a, b)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=15) == 0  # polite shutdown, not a kill
        deadline = time.monotonic() + 10.0
        while backend.stats.n_drained < 1 and time.monotonic() < deadline:
            time.sleep(0.02)
        stats = backend.stats
        assert stats.n_drained == 1
        assert stats.n_requeued == 0
        assert stats.n_alive == 0
    finally:
        backend.close()
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()


def test_fleet_token_gates_external_hellos():
    """Wrong or missing fleet tokens are rejected at hello with a
    goodbye frame and a closed channel; the right token gets init."""
    backend = ProcessBackend(
        TransparentLLM(seed=11), workers=0, transport="tcp", fleet_token="s3cret"
    )
    try:
        backend.start()
        address = backend.address

        def hello(token) -> SocketTransport:
            transport = SocketTransport(connect_address(address))
            transport.send_hello(
                {
                    "op": "hello",
                    "pid": os.getpid(),
                    "host": "test",
                    "token": token,
                    "capabilities": {"kinds": [FREE, FORCED]},
                }
            )
            return transport

        for bad in ("wrong", None):
            transport = hello(bad)
            reply = transport.recv()
            assert reply is not None and reply["op"] == "goodbye"
            assert "fleet token" in reply["reason"]
            assert transport.recv() is None  # channel closed behind it
            transport.close()
        assert backend.stats.n_rejected_hellos == 2
        assert backend.stats.n_alive == 0  # nothing joined

        transport = hello("s3cret")
        init = transport.recv()
        assert init is not None and init["op"] == "init"
        transport.close()
    finally:
        backend.close()


def test_fleet_token_does_not_block_supervisor_spawned_workers(table_instances):
    """Locally-spawned workers talk over their socketpair and never touch
    the listener, so turning on --fleet-token never breaks the
    supervisor's own fleet."""
    with ProcessBackend(
        TransparentLLM(seed=11), workers=1, transport="unix", fleet_token="s3cret"
    ) as backend:
        assert len(backend.ping()) == 1
        traces = backend.generate([GenerationRequest(FREE, table_instances[0])])
        assert_traces_equal(
            traces[0], TransparentLLM(seed=11).generate(table_instances[0])
        )


# -- handshake and listener hardening -----------------------------------------


def closed_by_peer(sock: socket.socket, timeout_s: float = 10.0) -> bool:
    """True once the supervisor closes ``sock`` without sending anything."""
    sock.settimeout(timeout_s)
    return sock.recv(1) == b""


def test_pickled_hello_runs_nothing_and_is_dropped(tmp_path):
    """The hello is read before the fleet token is checked, so it must
    never be unpickled: a pickle that would create a file runs nothing."""
    marker = tmp_path / "unpickled"

    class Payload:
        def __reduce__(self):
            return (open, (str(marker), "w"))

    payload = pickle.dumps(Payload())
    backend = ProcessBackend(
        TransparentLLM(seed=11), workers=0, transport="tcp", fleet_token="s3cret"
    )
    try:
        backend.start()
        with connect_address(backend.address) as sock:
            sock.sendall(len(payload).to_bytes(4, "big") + payload)
            assert closed_by_peer(sock)
        assert not marker.exists()
        assert backend.stats.n_alive == 0
    finally:
        backend.close()


def test_oversized_hello_header_is_dropped_without_reading():
    """A length header above the hello cap closes the connection at once,
    long before the (generous) startup timeout, with no payload read."""
    backend = ProcessBackend(
        TransparentLLM(seed=11), workers=0, transport="tcp", startup_timeout_s=60.0
    )
    try:
        backend.start()
        with connect_address(backend.address) as sock:
            sock.sendall((HELLO_MAX_BYTES + 1).to_bytes(4, "big"))
            assert closed_by_peer(sock)
        assert backend.stats.n_alive == 0
    finally:
        backend.close()


def test_silent_peer_is_closed_after_the_startup_timeout():
    """A peer that connects and says nothing is closed after
    startup_timeout_s, and its handshake thread ends with it."""
    backend = ProcessBackend(
        TransparentLLM(seed=11), workers=0, transport="tcp", startup_timeout_s=0.3
    )
    try:
        backend.start()
        socks = [connect_address(backend.address) for _ in range(3)]
        for sock in socks:
            assert closed_by_peer(sock)
            sock.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(
            thread.name == "generation-supervisor-handshake"
            for thread in threading.enumerate()
        ):
            time.sleep(0.02)
        assert not any(
            thread.name == "generation-supervisor-handshake"
            for thread in threading.enumerate()
        )
    finally:
        backend.close()


def test_create_listener_reclaims_a_stale_unix_socket(tmp_path):
    """A killed supervisor leaves its socket node behind; nobody listens
    on it, so a restart on the same address reclaims it."""
    path = tmp_path / "sup.sock"
    stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    stale.bind(str(path))
    stale.close()  # closed without unlinking, as after SIGKILL
    assert path.exists()
    sock, address = create_listener("unix", f"unix:{path}")
    try:
        assert address == f"unix:{path}"
        with connect_address(address):
            pass
    finally:
        sock.close()


def test_create_listener_never_steals_a_live_unix_address(tmp_path):
    """A live supervisor's address still raises, the failed socket is
    closed (no ResourceWarning), and the live listener keeps its node."""
    address = f"unix:{tmp_path / 'sup.sock'}"
    live, _ = create_listener("unix", address)
    try:
        gc.collect()  # earlier tests' garbage must not warn inside the block
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(OSError):
                create_listener("unix", address)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        with connect_address(address):
            pass  # still reachable: the node was not unlinked
    finally:
        live.close()
