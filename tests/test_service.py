"""Tests for the backend-agnostic generation service and its cache tiers.

Pins down the tentpole guarantees:

* the simulator backend matches direct LLM calls (serial or pooled),
  and the whole evaluation stack stays byte-identical across
  ``--backend``; a backend returning the wrong number of traces fails
  loudly instead of leaving gaps;
* tier fall-through and promotion: memory → segment scan → SQLite
  index → backend, with per-tier stats and L1 promotion on disk hits;
* SQLite-index lookups agree with segment scans after ``compact()``,
  and a warm run against a compacted, indexed store performs zero new
  generations;
* the ``repro-cache`` CLI exposes stats/compaction, ``repro-run``
  honors ``--cache-dir`` / ``REPRO_CACHE_DIR``, and ``repro-sweep
  --progress`` streams to stderr without touching JSON artifacts;
* store format v2: binary ``.bin`` sidecars rehydrate warm hits as
  read-only zero-copy mmap views, legacy base64 records stay readable
  and ``compact``/``migrate`` transcodes them bit-exactly, and torn
  sidecar tails degrade like torn manifest tails (loadable prefix).
"""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np
import pytest

from helpers import assert_traces_equal, make_trace

from repro.core.pipeline import RTSPipeline
from repro.llm.model import SIMULATOR_VERSION, TransparentLLM
from repro.runtime.cache import CachingLLM
from repro.runtime.persist import (
    INDEX_NAME,
    PersistentGenerationCache,
    SqliteSegmentIndex,
    generation_namespace,
    store_stats,
    trace_from_record,
)
from repro.runtime.pool import WorkerPool
from repro.runtime.service import (
    FORCED,
    FREE,
    PROCESS,
    SIMULATOR,
    BackendSpec,
    GenerationRequest,
    GenerationService,
    SimulatorBackend,
)
from repro.runtime.sweep import SUMMARY_NAME, SweepRunner, SweepSpec, merge_sweep

SPEC = SweepSpec(
    benchmarks=("bird",),
    splits=("dev",),
    tasks=("table",),
    modes=("abstain",),
    seeds=(3,),
    scale="tiny",
    limit=3,
)


@pytest.fixture(scope="module")
def table_instances(bird_tiny):
    return [
        RTSPipeline.instance_for(e, bird_tiny, "table") for e in bird_tiny.dev.examples
    ]


def mixed_requests(instances) -> list:
    return [GenerationRequest(FREE, i) for i in instances] + [
        GenerationRequest(FORCED, i) for i in instances
    ]


class CountingBackend:
    """Wraps a backend, recording every batch it is asked to generate."""

    def __init__(self, inner):
        self.inner = inner
        self.batches: list[int] = []
        self._lock = threading.Lock()

    @property
    def base_llm(self):
        return self.inner.base_llm

    def identity(self):
        return self.inner.identity()

    def generate(self, requests):
        with self._lock:
            self.batches.append(len(requests))
        return self.inner.generate(requests)


class ExplodingBackend:
    def identity(self):
        return ("boom", 0)

    def generate(self, requests):
        raise RuntimeError("backend exploded")


# -- requests -----------------------------------------------------------------


def test_request_validates_kind_and_reproduces_legacy_keys(table_instances):
    from repro.runtime.cache import instance_key

    instance = table_instances[0]
    assert GenerationRequest(FREE, instance).key == ("free", instance_key(instance))
    assert GenerationRequest(FORCED, instance).key == ("forced", instance_key(instance))
    with pytest.raises(ValueError, match="kind"):
        GenerationRequest("sampled", instance)


# -- backend equivalence ------------------------------------------------------


def test_simulator_backend_matches_direct_llm_calls(table_instances):
    llm = TransparentLLM(seed=11)
    backend = SimulatorBackend(TransparentLLM(seed=11))
    traces = backend.generate(mixed_requests(table_instances[:3]))
    for trace, instance in zip(traces[:3], table_instances[:3]):
        assert_traces_equal(trace, llm.generate(instance))
    for trace, instance in zip(traces[3:], table_instances[:3]):
        assert_traces_equal(trace, llm.teacher_forced_trace(instance))


def test_simulator_backend_pooled_matches_serial(table_instances):
    requests = mixed_requests(table_instances)
    serial = SimulatorBackend(TransparentLLM(seed=11)).generate(requests)
    pooled = SimulatorBackend(
        TransparentLLM(seed=11), pool=WorkerPool(workers=4)
    ).generate(requests)
    for a, b in zip(serial, pooled):
        assert_traces_equal(a, b)


def test_deadline_scope_overrides_and_restores():
    from repro.runtime.service import deadline_scope, effective_timeout

    assert effective_timeout(7.0) == 7.0
    with deadline_scope(0.25):
        assert effective_timeout(7.0) == 0.25
        with deadline_scope(None):
            assert effective_timeout(7.0) is None
        assert effective_timeout(7.0) == 0.25
    assert effective_timeout(7.0) == 7.0
    with pytest.raises(ValueError):
        with deadline_scope(0.0):
            pass


# -- service tiering ----------------------------------------------------------


def test_service_memoizes_and_dedupes_within_a_batch(table_instances):
    counting = CountingBackend(SimulatorBackend(TransparentLLM(seed=11)))
    service = GenerationService(counting)
    instance = table_instances[0]
    request = GenerationRequest(FREE, instance)
    first, second = service.generate([request, request])
    assert first is second  # one computation, shared result
    assert counting.batches == [1]
    assert service.generate_one(request) is first  # L1 from now on
    assert service.stats.hits == 1 and service.stats.misses == 1
    assert service.tier_stats["memory"].hits == 1
    assert "segments" not in service.tier_stats  # no disk tiers configured


class ShortBackend(CountingBackend):
    """A broken backend: drops the last trace of every batch."""

    def generate(self, requests):
        return super().generate(requests)[:-1]


def test_service_rejects_a_backend_returning_the_wrong_trace_count(table_instances):
    """A short batch must fail loudly, not pad the results with None."""
    service = GenerationService(ShortBackend(SimulatorBackend(TransparentLLM(seed=11))))
    requests = [GenerationRequest(FREE, i) for i in table_instances[:3]]
    with pytest.raises(RuntimeError, match="backend returned 2 traces for 3 requests"):
        service.generate(requests)
    # Nothing was admitted: every request is still a miss.
    assert service.stats.misses == 0
    assert not any(service.cache.contains(r.key) for r in requests)


def test_service_tier_promotion_and_eviction(tmp_path, table_instances):
    instances = table_instances[:3]
    llm = TransparentLLM(seed=11)
    namespace = generation_namespace(SIMULATOR_VERSION, llm.config, llm.seed)

    writer = GenerationService(
        SimulatorBackend(llm),
        cache=PersistentGenerationCache(tmp_path, namespace=namespace),
    )
    cold = writer.free_traces(instances)
    assert writer.stats.misses == len(instances)
    assert writer.tier_stats["segments"].misses == len(instances)
    writer.cache.close()

    # A fresh store view: the segment tier serves, promoting into L1.
    reader = GenerationService(
        ExplodingBackend(),  # must never be called
        cache=PersistentGenerationCache(tmp_path, namespace=namespace),
    )
    warm = reader.free_traces(instances)
    for a, b in zip(cold, warm):
        assert_traces_equal(a, b)
    tiers = reader.tier_stats
    assert tiers["segments"].hits == len(instances)
    assert tiers["memory"].misses == len(instances)
    assert reader.stats.disk_hits == len(instances) and reader.stats.misses == 0
    # Promotion: the same lookups are L1 hits now.
    again = reader.free_traces(instances)
    for a, b in zip(cold, again):
        assert_traces_equal(a, b)
    assert reader.tier_stats["memory"].hits == len(instances)
    assert reader.stats.hits == len(instances)

    # Eviction of L1 (clear) falls back to the disk tiers, not the backend.
    reader.cache.clear()
    evicted = reader.free_traces(instances)
    for a, b in zip(cold, evicted):
        assert_traces_equal(a, b)
    assert reader.stats.disk_hits == len(instances)
    reader.cache.close()


def test_service_sqlite_tier_after_compaction(tmp_path, table_instances):
    instances = table_instances[:3]
    llm = TransparentLLM(seed=11)
    namespace = generation_namespace(SIMULATOR_VERSION, llm.config, llm.seed)
    writer = GenerationService.build(llm, cache_dir=tmp_path)
    cold = writer.free_traces(instances) + writer.forced_traces(instances)
    writer.cache.close()

    compactor = PersistentGenerationCache(tmp_path, namespace=namespace)
    kept = compactor.compact()
    assert kept == 2 * len(instances)
    assert (compactor.directory / INDEX_NAME).is_file()
    compactor.close()

    reader = GenerationService(
        ExplodingBackend(),
        cache=PersistentGenerationCache(tmp_path, namespace=namespace),
    )
    warm = reader.free_traces(instances) + reader.forced_traces(instances)
    for a, b in zip(cold, warm):
        assert_traces_equal(a, b)
    tiers = reader.tier_stats
    assert tiers["sqlite"].hits == 2 * len(instances)
    assert tiers["segments"].hits == 0
    assert reader.stats.misses == 0  # the acceptance invariant
    reader.cache.close()


def test_sqlite_index_agrees_with_segment_scan(tmp_path):
    """Every address must resolve identically via scan and via index."""
    cache = PersistentGenerationCache(tmp_path, namespace="ns", use_index=False)
    keys = [("free", f"k{i}") for i in range(8)]
    for key in keys:
        cache.get_or_compute(key, lambda key=key: make_trace(key[1]))
    cache.close()

    # Reference: pure segment scans (the index is never consulted).
    scanner = PersistentGenerationCache(tmp_path, namespace="ns", use_index=False)
    scanned = {
        key: scanner.get_or_compute(key, lambda: pytest.fail("must be on disk"))
        for key in keys
    }
    assert scanner.stats.disk_hits == len(keys)
    scanner.close()

    compactor = PersistentGenerationCache(tmp_path, namespace="ns")
    assert compactor.compact(index=True) == len(keys)
    compactor.close()

    indexed = PersistentGenerationCache(tmp_path, namespace="ns")
    index = SqliteSegmentIndex(indexed.directory)
    assert index.exists() and len(index) == len(keys)
    for key in keys:
        record, tier = indexed.probe_disk(indexed.address(key))
        assert tier == "sqlite"
        assert_traces_equal(
            trace_from_record(record, directory=indexed.directory), scanned[key]
        )
    index.close()
    indexed.close()


def test_compact_with_index_keeps_serving_on_a_no_index_instance(tmp_path):
    """An explicitly built index is honored even with use_index=False."""
    cache = PersistentGenerationCache(tmp_path, namespace="ns", use_index=False)
    cache.get_or_compute(("free", "k"), lambda: make_trace("k"))
    cache.clear()
    assert cache.compact(index=True) == 1
    # The instance that just built the index must still see the entry.
    loaded = cache.get_or_compute(("free", "k"), lambda: pytest.fail("on disk"))
    assert_traces_equal(loaded, make_trace("k"))
    assert cache.stats.disk_hits == 1
    cache.close()


def test_service_close_releases_persistent_cache_handles(tmp_path, table_instances):
    service = GenerationService.build(TransparentLLM(seed=11), cache_dir=tmp_path)
    service.generate_one(GenerationRequest(FREE, table_instances[0]))
    assert service.cache._handle is not None  # spill handle open
    service.close()
    assert service.cache._handle is None  # released with the backend


def test_segment_tier_still_serves_entries_written_after_compaction(tmp_path):
    """A stale index must never shadow newer segment entries."""
    cache = PersistentGenerationCache(tmp_path, namespace="ns")
    cache.get_or_compute(("free", "old"), lambda: make_trace("old"))
    cache.compact(index=True)
    # New entry lands in a fresh segment the index knows nothing about.
    cache.get_or_compute(("free", "new"), lambda: make_trace("new"))
    cache.close()

    reader = PersistentGenerationCache(tmp_path, namespace="ns")
    old_record, old_tier = reader.probe_disk(reader.address(("free", "old")))
    new_record, new_tier = reader.probe_disk(reader.address(("free", "new")))
    assert old_tier == "sqlite" and new_tier == "segments"
    assert old_record is not None and new_record is not None
    assert reader.disk_entries() == 2
    reader.close()


def test_caching_llm_is_a_thin_service_adapter(table_instances):
    service = GenerationService(SimulatorBackend(TransparentLLM(seed=11)))
    llm = CachingLLM(service=service)
    instance = table_instances[0]
    assert llm.cache is service.cache
    assert_traces_equal(
        llm.generate(instance),
        service.generate_one(GenerationRequest(FREE, instance)),
    )
    batched = llm.teacher_forced_traces(table_instances[:2])
    assert [t.instance_id for t in batched] == [
        i.instance_id for i in table_instances[:2]
    ]
    assert llm.stats == service.stats
    from repro.runtime.cache import GenerationCache

    with pytest.raises(ValueError, match="not both"):
        CachingLLM(TransparentLLM(seed=11), cache=GenerationCache(), service=service)


def test_service_pickles_to_cold_equivalent(table_instances):
    import pickle

    service = GenerationService.build(TransparentLLM(seed=11))
    trace = service.generate_one(GenerationRequest(FREE, table_instances[0]))
    clone = pickle.loads(pickle.dumps(service))
    try:
        assert_traces_equal(
            clone.generate_one(GenerationRequest(FREE, table_instances[0])), trace
        )
    finally:
        clone.close()
        service.close()


# -- end-to-end byte-identity across the backend axis -------------------------


def test_sweep_summary_byte_identical_across_backends(tmp_path):
    payloads = {}
    for kind in (SIMULATOR, PROCESS):
        out = tmp_path / kind
        with SweepRunner(SPEC, out, backend_spec=BackendSpec(kind=kind, workers=1)) as runner:
            runner.run_shard()
            merged = merge_sweep(out)
        assert merged["summary"]["n_units"] == 1
        payloads[kind] = (out / SUMMARY_NAME).read_bytes()
    assert payloads[SIMULATOR] == payloads[PROCESS]  # byte for byte


def test_warm_run_over_compacted_store_has_zero_misses(tmp_path):
    cache_dir = tmp_path / "gen"
    cold = SweepRunner(SPEC, tmp_path / "cold", cache_dir=cache_dir)
    cold.run_shard()
    namespace = cold.cache.namespace
    cold.cache.close()

    compactor = PersistentGenerationCache(cache_dir, namespace=namespace)
    assert compactor.compact() > 0
    compactor.close()

    warm = SweepRunner(SPEC, tmp_path / "warm", cache_dir=cache_dir)
    manifest = warm.run_shard()
    warm.service.close()
    stats = manifest["runtime"]["generation_cache"]
    assert stats["misses"] == 0
    assert stats["disk_hits"] > 0
    assert stats["hit_rate"] == 1.0
    from repro.runtime.artifacts import strict_jsonable

    reference = (tmp_path / "cold" / "shards").glob("shard-*.json")
    cold_manifest = json.loads(next(iter(sorted(reference))).read_text())
    # strict_jsonable: the on-disk manifest went through NaN -> None.
    assert strict_jsonable(manifest["units"]) == cold_manifest["units"]


# -- lifecycle: nothing outlives a run ----------------------------------------


@pytest.fixture
def spawned_workers(monkeypatch) -> "list[int]":
    """PIDs of every worker subprocess the process backend spawns."""
    import subprocess

    from repro.runtime import remote as remote_module

    spawned: list[int] = []
    original = subprocess.Popen

    def tracking_popen(*args, **kwargs):
        proc = original(*args, **kwargs)
        spawned.append(proc.pid)
        return proc

    monkeypatch.setattr(remote_module.subprocess, "Popen", tracking_popen)
    return spawned


def survivors(pids: "list[int]", timeout_s: float = 10.0) -> "set[int]":
    """The PIDs still alive (or unreaped) once ``timeout_s`` has passed."""
    deadline = time.monotonic() + timeout_s
    alive = set(pids)
    while alive and time.monotonic() < deadline:
        for pid in list(alive):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                alive.discard(pid)
        time.sleep(0.02)
    return alive


def lingering_backend_threads(
    before: "set[threading.Thread]", timeout_s: float = 10.0
) -> "list[str]":
    """Supervisor threads (acceptor, per-worker readers) started since
    ``before`` and still running once ``timeout_s`` has passed."""
    deadline = time.monotonic() + timeout_s
    while True:
        lingering = [
            t.name
            for t in threading.enumerate()
            if t.name.startswith("generation-") and t not in before
        ]
        if not lingering or time.monotonic() >= deadline:
            return lingering
        time.sleep(0.02)


RUN_PROCESS_ARGS = [
    "--benchmark", "bird",
    "--split", "dev",
    "--task", "table",
    "--scale", "tiny",
    "--limit", "2",
    "--backend", "process",
    "--gen-workers", "1",
]


def test_run_cli_leaves_no_scheduler_threads(capsys, monkeypatch, spawned_workers):
    from repro.runtime.cli import main

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    before = set(threading.enumerate())
    assert main(RUN_PROCESS_ARGS) == 0
    capsys.readouterr()
    assert spawned_workers, "the process backend never spawned workers"
    assert not survivors(spawned_workers), "a worker process outlived repro-run"
    assert not lingering_backend_threads(before), "a supervisor thread outlived repro-run"


def test_run_cli_closes_backend_on_error_paths(capsys, monkeypatch, spawned_workers):
    """The lifecycle bug: a crash mid-run must still tear the service
    down — no worker processes (or supervisor threads) leak."""
    from repro.runtime import runner as runner_module
    from repro.runtime.cli import main

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)

    def explode(self, *args, **kwargs):
        raise RuntimeError("mid-run crash")

    monkeypatch.setattr(runner_module.BatchRunner, "run_link", explode)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="mid-run crash"):
        main(RUN_PROCESS_ARGS)
    capsys.readouterr()
    assert spawned_workers, "the process backend never spawned workers"
    assert not survivors(spawned_workers), "error path leaked a worker process"
    assert not lingering_backend_threads(before), "error path leaked a supervisor thread"


def test_sweep_cli_closes_process_workers(tmp_path, capsys, monkeypatch, spawned_workers):
    """After repro-sweep exits, no generation worker subprocess remains."""
    from repro.runtime.cli import main_sweep

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    args = [
        "run",
        "--benchmarks", "bird",
        "--splits", "dev",
        "--tasks", "table",
        "--modes", "abstain",
        "--seeds", "3",
        "--scale", "tiny",
        "--limit", "2",
        "--backend", "process",
        "--workers", "2",
        "--out", str(tmp_path / "sweep"),
    ]
    assert main_sweep(args) == 0
    capsys.readouterr()
    assert spawned_workers, "the process backend never spawned workers"
    alive = survivors(spawned_workers)
    assert not alive, f"worker processes outlived repro-sweep: {alive}"


# -- compaction writer guard --------------------------------------------------


def test_compact_fails_fast_while_another_writer_is_active(tmp_path):
    from repro.runtime.persist import WriterActiveError

    writer = PersistentGenerationCache(tmp_path, namespace="ns")
    writer.get_or_compute(("free", "theirs"), lambda: make_trace("theirs"))

    compactor = PersistentGenerationCache(tmp_path, namespace="ns")
    compactor.get_or_compute(("free", "mine"), lambda: make_trace("mine"))
    with pytest.raises(WriterActiveError, match="active writer"):
        compactor.compact()

    # The other writer's entries survived the refused compaction.
    writer.get_or_compute(("free", "late"), lambda: make_trace("late"))
    writer.close()
    assert compactor.compact() == 3  # both writers closed -> guard lifts
    compactor.close()

    reader = PersistentGenerationCache(tmp_path, namespace="ns")
    for key in ("theirs", "mine", "late"):
        loaded = reader.get_or_compute(
            ("free", key), lambda: pytest.fail("must be on disk")
        )
        assert_traces_equal(loaded, make_trace(key))
    reader.close()


def test_compact_force_overrides_the_writer_guard(tmp_path):
    writer = PersistentGenerationCache(tmp_path, namespace="ns")
    writer.get_or_compute(("free", "k"), lambda: make_trace("k"))

    compactor = PersistentGenerationCache(tmp_path, namespace="ns")
    assert compactor.compact(force=True) == 1
    compactor.close()
    writer.close()


def test_stale_lock_from_a_dead_writer_is_swept(tmp_path):
    import json as json_module
    import socket

    cache = PersistentGenerationCache(tmp_path, namespace="ns")
    cache.get_or_compute(("free", "k"), lambda: make_trace("k"))
    cache.close()  # releases our own lock
    # A crashed writer's leftover: same host, long-dead pid.
    stale = cache.directory / "w-0-dead.jsonl.lock"
    stale.write_text(
        json_module.dumps(
            {"pid": 2**22 + 1, "host": socket.gethostname(), "segment": "w-0-dead.jsonl"}
        )
    )
    assert cache.compact() == 1  # guard self-heals, no force needed
    assert not stale.exists()
    cache.close()


def test_writer_lock_lifecycle_and_stats(tmp_path):
    from repro.runtime.persist import LOCK_SUFFIX

    cache = PersistentGenerationCache(tmp_path, namespace="ns")
    assert cache.writer_locks() == []  # no spill yet, no lock
    cache.get_or_compute(("free", "k"), lambda: make_trace("k"))
    locks = list(cache.directory.glob(f"*{LOCK_SUFFIX}"))
    assert len(locks) == 1  # our own lock exists on disk...
    assert cache.writer_locks() == []  # ...but never blocks ourselves
    assert store_stats(tmp_path)["namespaces"]["ns"]["active_writers"] == 1
    cache.close()
    assert not list(cache.directory.glob(f"*{LOCK_SUFFIX}"))
    assert store_stats(tmp_path)["namespaces"]["ns"]["active_writers"] == 0


def test_cache_cli_compact_respects_and_forces_the_guard(tmp_path, capsys):
    from repro.runtime.cli import main_cache

    writer = PersistentGenerationCache(tmp_path, namespace="ns")
    writer.get_or_compute(("free", "k"), lambda: make_trace("k"))

    assert main_cache(["compact", "--cache-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "active" in err and "--force" in err

    assert main_cache(["compact", "--cache-dir", str(tmp_path), "--force"]) == 0
    forced = json.loads(capsys.readouterr().out)
    assert forced["compacted"]["ns"]["entries"] == 1
    writer.close()


# -- progress streaming -------------------------------------------------------


def test_sweep_progress_streams_units_without_touching_artifacts(tmp_path):
    lines: list[str] = []
    silent_out = tmp_path / "silent"
    SweepRunner(SPEC, silent_out).run_shard()
    loud_out = tmp_path / "loud"
    SweepRunner(SPEC, loud_out, progress=lines.append).run_shard()
    assert len(lines) == len(SPEC.units())
    unit_id = SPEC.units()[0].unit_id
    assert unit_id in lines[0]
    assert "hit_rate=" in lines[0] and "evaluated=" in lines[0]
    # Identical JSON artifacts with and without progress streaming.
    for summary in sorted((silent_out / "units").glob("*.summary.json")):
        assert summary.read_bytes() == (
            loud_out / "units" / summary.name
        ).read_bytes()


def test_sweep_cli_progress_goes_to_stderr(tmp_path, capsys, monkeypatch):
    from repro.runtime.cli import main_sweep

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    args = [
        "run",
        "--benchmarks", "bird",
        "--splits", "dev",
        "--tasks", "table",
        "--modes", "abstain",
        "--seeds", "3",
        "--scale", "tiny",
        "--limit", "2",
        "--out", str(tmp_path / "sweep"),
        "--progress",
    ]
    assert main_sweep(args) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)  # stdout stays pure JSON
    assert "bird-dev-table-abstain-s3" in captured.err


# -- CLI: repro-run cache-dir, repro-cache ------------------------------------


def test_run_cli_honors_cache_dir_env_default(tmp_path, capsys, monkeypatch):
    from repro.runtime.cli import main

    cache_dir = tmp_path / "store"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    args = [
        "--benchmark", "bird",
        "--split", "dev",
        "--task", "table",
        "--scale", "tiny",
        "--limit", "2",
        "--workers", "1",
    ]
    assert main(args) == 0
    cold = json.loads(capsys.readouterr().out)
    assert cold["cache_dir"] == str(cache_dir)
    assert cold["generation_cache"]["misses"] > 0
    assert any(cache_dir.glob("llm-*/*.jsonl"))  # store actually written

    # Second process-equivalent run: everything from the shared store.
    assert main(args) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["generation_cache"]["misses"] == 0
    assert warm["summary"] == cold["summary"]


def test_cache_cli_stats_and_compact(tmp_path, capsys):
    from repro.runtime.cli import main_cache

    cache = PersistentGenerationCache(tmp_path, namespace="ns-a")
    for i in range(3):
        cache.get_or_compute(("free", f"k{i}"), lambda i=i: make_trace(f"k{i}"))
    cache.close()
    other = PersistentGenerationCache(tmp_path, namespace="ns-a")
    other.get_or_compute(("forced", "dup"), lambda: make_trace("dup"))
    other.close()

    assert main_cache(["stats", "--cache-dir", str(tmp_path)]) == 0
    stats = json.loads(capsys.readouterr().out)
    ns = stats["namespaces"]["ns-a"]
    assert ns["segments"] == 2 and ns["entries"] == 4
    assert ns["kinds"] == {"forced": 1, "free": 3}
    assert not ns["indexed"]

    assert main_cache(["compact", "--cache-dir", str(tmp_path)]) == 0
    compacted = json.loads(capsys.readouterr().out)
    assert compacted["compacted"]["ns-a"]["entries"] == 4
    assert compacted["compacted"]["ns-a"]["segments_before"] == 2

    assert main_cache(["stats", "--cache-dir", str(tmp_path)]) == 0
    after = json.loads(capsys.readouterr().out)["namespaces"]["ns-a"]
    assert after["segments"] == 1
    assert after["indexed"] and after["index_entries"] == 4

    # The compacted, indexed store still rehydrates bit-exactly.
    reader = PersistentGenerationCache(tmp_path, namespace="ns-a")
    loaded = reader.get_or_compute(("free", "k1"), lambda: pytest.fail("on disk"))
    assert_traces_equal(loaded, make_trace("k1"))
    reader.close()


def test_cache_cli_requires_cache_dir(monkeypatch, capsys):
    from repro.runtime.cli import main_cache

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    with pytest.raises(SystemExit) as excinfo:
        main_cache(["stats"])
    assert excinfo.value.code == 2
    assert "cache-dir" in capsys.readouterr().err


def test_cache_cli_rejects_unknown_namespace(tmp_path, capsys):
    from repro.runtime.cli import main_cache

    cache = PersistentGenerationCache(tmp_path, namespace="real")
    cache.get_or_compute(("free", "k"), lambda: make_trace("k"))
    cache.close()
    with pytest.raises(SystemExit):
        main_cache(
            ["compact", "--cache-dir", str(tmp_path), "--namespace", "missing"]
        )
    assert "missing" in capsys.readouterr().err


def test_store_stats_on_empty_or_absent_dir(tmp_path):
    assert store_stats(tmp_path)["namespaces"] == {}
    assert store_stats(tmp_path / "nowhere")["namespaces"] == {}


# -- binary store format (v2): sidecars, mmap reads, migration ----------------


def _on_disk():
    return pytest.fail("expected a disk hit, got a recompute")


def test_binary_store_round_trip_is_a_read_only_zero_copy_view(tmp_path):
    trace = make_trace("z0")
    cache = PersistentGenerationCache(tmp_path, namespace="bin")
    assert cache.codec == "binary"
    cache.get_or_compute(("free", "z0"), lambda: trace)
    directory = cache.directory
    cache.close()
    assert list(directory.glob("*.bin")), "binary codec wrote no sidecar"

    reader = PersistentGenerationCache(tmp_path, namespace="bin")
    loaded = reader.get_or_compute(("free", "z0"), _on_disk)
    assert_traces_equal(loaded, trace)
    # The rehydrated stack is a read-only view over the mapped sidecar,
    # not a decode-and-copy; per-step hidden rows alias it.
    assert loaded.hidden_stack is not None
    assert not loaded.hidden_stack.flags.writeable
    assert not loaded.hidden_stack.flags.owndata
    for i, step in enumerate(loaded.steps):
        assert not step.hidden.flags.writeable
        assert np.shares_memory(step.hidden, loaded.hidden_stack[i])
    reader.close()


def test_decode_array_is_read_only_unless_writable_requested():
    from repro.runtime.persist import _decode_array, _encode_array

    arr = np.arange(12.0).reshape(3, 4)
    record = _encode_array(arr)
    view = _decode_array(record)
    assert not view.flags.writeable and not view.flags.owndata
    np.testing.assert_array_equal(view, arr)

    writable = _decode_array(record, writable=True)
    assert writable.flags.writeable
    writable[0, 0] = -1.0  # a private copy: later decodes are untouched
    np.testing.assert_array_equal(_decode_array(record), arr)


def test_mixed_codec_store_reads_both_layouts(tmp_path):
    old, new = make_trace("old"), make_trace("new")
    legacy = PersistentGenerationCache(tmp_path, namespace="mix", codec="base64")
    legacy.get_or_compute(("free", "old"), lambda: old)
    legacy.close()
    current = PersistentGenerationCache(tmp_path, namespace="mix")
    current.get_or_compute(("free", "new"), lambda: new)
    current.close()

    reader = PersistentGenerationCache(tmp_path, namespace="mix")
    assert_traces_equal(reader.get_or_compute(("free", "old"), _on_disk), old)
    assert_traces_equal(reader.get_or_compute(("free", "new"), _on_disk), new)
    reader.close()

    codecs = store_stats(tmp_path)["namespaces"]["mix"]["codecs"]
    assert set(codecs) == {"base64", "binary"}
    for mix in codecs.values():
        assert mix["records"] == 1 and mix["bytes"] > 0


def test_compact_transcodes_legacy_records_bit_exactly(tmp_path):
    traces = {f"t{i}": make_trace(f"t{i}") for i in range(3)}
    legacy = PersistentGenerationCache(tmp_path, namespace="mig", codec="base64")
    for name, trace in traces.items():
        legacy.get_or_compute(("free", name), lambda t=trace: t)
    legacy.close()

    cache = PersistentGenerationCache(tmp_path, namespace="mig")
    traces["t3"] = make_trace("t3")
    cache.get_or_compute(("free", "t3"), lambda: traces["t3"])
    assert cache.compact() == 4
    assert cache.last_compaction == {"entries": 4, "transcoded": 3}
    for name, trace in traces.items():
        assert_traces_equal(cache.get_or_compute(("free", name), _on_disk), trace)
    cache.close()

    stats = store_stats(tmp_path)["namespaces"]["mig"]
    assert set(stats["codecs"]) == {"binary"}
    assert stats["segments"] == 1


def test_env_codec_override_writes_the_legacy_layout(tmp_path, monkeypatch):
    from repro.runtime.persist import CODEC_ENV

    monkeypatch.setenv(CODEC_ENV, "base64")
    cache = PersistentGenerationCache(tmp_path, namespace="env")
    assert cache.codec == "base64"
    cache.get_or_compute(("free", "k"), lambda: make_trace("k"))
    directory = cache.directory
    cache.close()
    assert not list(directory.glob("*.bin"))
    codecs = store_stats(tmp_path)["namespaces"]["env"]["codecs"]
    assert set(codecs) == {"base64"}


def test_unknown_codec_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="codec"):
        PersistentGenerationCache(tmp_path, namespace="bad", codec="msgpack")


def test_future_store_format_version_is_refused(tmp_path):
    cache = PersistentGenerationCache(tmp_path, namespace="fut")
    cache.directory.mkdir(parents=True)
    (cache.directory / "format.json").write_text(json.dumps({"version": 99}))
    with pytest.raises(RuntimeError, match="format"):
        cache.get_or_compute(("free", "k"), lambda: make_trace("k"))
    cache.close()


def test_truncated_bin_sidecar_degrades_like_a_truncated_manifest(tmp_path):
    """A torn sidecar tail keeps the loadable prefix and recomputes the rest."""
    traces = [make_trace(f"t{i}") for i in range(3)]
    cache = PersistentGenerationCache(tmp_path, namespace="torn")
    for i, trace in enumerate(traces):
        cache.get_or_compute(("free", f"t{i}"), lambda t=trace: t)
    directory = cache.directory
    cache.close()

    (bin_path,) = directory.glob("*.bin")
    payload = bin_path.read_bytes()
    block = len(payload) // 3
    bin_path.write_bytes(payload[: 2 * block + block // 2])  # tear the last block

    reader = PersistentGenerationCache(tmp_path, namespace="torn")
    assert reader.disk_entries() == 2
    for i in (0, 1):
        loaded = reader.get_or_compute(("free", f"t{i}"), _on_disk)
        assert_traces_equal(loaded, traces[i])
    # The torn entry is a clean miss, not a crash; the recompute respills.
    assert_traces_equal(
        reader.get_or_compute(("free", "t2"), lambda: traces[2]), traces[2]
    )
    assert reader.stats.misses == 1 and reader.stats.disk_hits == 2
    reader.close()


def test_missing_bin_sidecar_drops_only_that_segments_entries(tmp_path):
    first, second = make_trace("a"), make_trace("b")
    cache = PersistentGenerationCache(tmp_path, namespace="gone")
    cache.get_or_compute(("free", "a"), lambda: first)
    cache.close()  # retire segment 1
    cache = PersistentGenerationCache(tmp_path, namespace="gone")
    cache.get_or_compute(("free", "b"), lambda: second)
    directory = cache.directory
    cache.close()

    sidecars = sorted(directory.glob("*.bin"), key=lambda p: p.stat().st_mtime)
    sidecars[0].unlink()  # segment 1's tensors vanish entirely

    reader = PersistentGenerationCache(tmp_path, namespace="gone")
    assert reader.disk_entries() == 1
    assert_traces_equal(reader.get_or_compute(("free", "b"), _on_disk), second)
    assert_traces_equal(
        reader.get_or_compute(("free", "a"), lambda: first), first
    )
    assert reader.stats.misses == 1
    reader.close()


def test_cache_cli_migrate_alias_reports_transcodes(tmp_path, capsys):
    from repro.runtime.cli import main_cache

    legacy = PersistentGenerationCache(tmp_path, namespace="ns", codec="base64")
    for i in range(2):
        legacy.get_or_compute(("free", f"k{i}"), lambda i=i: make_trace(f"k{i}"))
    legacy.close()

    assert main_cache(["migrate", "--cache-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)["compacted"]["ns"]
    assert report["transcoded"] == 2 and report["entries"] == 2
    assert "transcoded 2 legacy" in captured.err

    assert main_cache(["stats", "--cache-dir", str(tmp_path)]) == 0
    stats = json.loads(capsys.readouterr().out)["namespaces"]["ns"]
    assert set(stats["codecs"]) == {"binary"}

    # An already-binary store migrates to a no-op: nothing to transcode.
    assert main_cache(["migrate", "--cache-dir", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)["compacted"]["ns"]
    assert report["transcoded"] == 0 and report["entries"] == 2
