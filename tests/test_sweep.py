"""Tests for sharded sweeps and the persistent generation cache.

Pins down the tentpole guarantees:

* shard plans are a pure function of the spec (same spec → same shards);
* the persistent store survives interleaved concurrent writers and
  rehydrates traces bit-exactly;
* an interrupted shard resumes to the same merged output;
* a sweep split into N shards merges byte-identically to the unsharded
  run, and a warm re-run performs zero new LLM generations.
"""

from __future__ import annotations

import json
import threading

import pytest

from helpers import assert_traces_equal, make_trace, spill_and_reload

from repro.llm.model import SIMULATOR_VERSION, TransparentLLM
from repro.runtime.cache import CacheStats, CachingLLM
from repro.runtime.persist import (
    PersistentGenerationCache,
    generation_namespace,
    trace_from_record,
)
from repro.runtime.sweep import (
    STATS_NAME,
    SUMMARY_NAME,
    ShardPlan,
    SweepRunner,
    SweepSpec,
    merge_sweep,
    run_sweep,
)

TINY_SPEC = SweepSpec(
    benchmarks=("bird",),
    splits=("dev",),
    tasks=("table",),
    modes=("abstain", "human"),
    seeds=(3,),
    scale="tiny",
    limit=4,
)


# (make_trace / assert_traces_equal live in helpers.py, shared with the
# service tests.)


# -- spec and shard plan ------------------------------------------------------


def test_spec_expansion_is_deterministic():
    spec = SweepSpec(
        benchmarks=("bird", "spider"),
        splits=("dev", "test"),
        tasks=("table", "joint"),
        modes=("abstain",),
        seeds=(3, 5),
    )
    ids = [u.unit_id for u in spec.units()]
    assert len(ids) == 16 and len(set(ids)) == 16
    assert ids == [u.unit_id for u in spec.units()]  # stable across calls
    assert ids[0] == "bird-dev-table-abstain-s3"
    assert spec.digest() == spec.digest()


def test_spec_roundtrip_and_digest():
    restored = SweepSpec.from_dict(json.loads(json.dumps(TINY_SPEC.to_dict())))
    assert restored == TINY_SPEC
    assert restored.digest() == TINY_SPEC.digest()
    assert restored.digest() != SweepSpec(limit=5).digest()


def test_spec_validates_axes():
    with pytest.raises(ValueError, match="benchmarks"):
        SweepSpec(benchmarks=("postgres",))
    with pytest.raises(ValueError, match="modes"):
        SweepSpec(modes=("yolo",))
    with pytest.raises(ValueError, match="scale"):
        SweepSpec(scale="huge")
    with pytest.raises(ValueError, match="non-empty"):
        SweepSpec(splits=())


def test_shard_plan_determinism_and_coverage():
    spec = SweepSpec(
        benchmarks=("bird", "spider"), modes=("abstain", "human", "surrogate")
    )
    for count in (1, 2, 3, 4, 7):
        plan = ShardPlan(spec, count)
        again = ShardPlan(spec, count)
        assert plan.shards() == again.shards()  # same spec -> same shards
        flat = [u for shard in plan.shards() for u in shard]
        assert sorted(u.unit_id for u in flat) == sorted(
            u.unit_id for u in spec.units()
        )
        sizes = [len(s) for s in plan.shards()]
        assert max(sizes) - min(sizes) <= 1  # round-robin balance
    with pytest.raises(ValueError):
        ShardPlan(spec, 0)
    with pytest.raises(ValueError):
        ShardPlan(spec, 2).shard(2)


# -- cache stats arithmetic ---------------------------------------------------


def test_cache_stats_arithmetic():
    a = CacheStats(hits=2, misses=1, disk_hits=3)
    b = CacheStats(hits=1, misses=1)
    assert a + b == CacheStats(hits=3, misses=2, disk_hits=3)
    assert (a + b) - b == a
    assert a.lookups == 6
    assert a.hit_rate == pytest.approx(5 / 6)
    assert CacheStats.total([a.as_dict(), b, None]) == a + b
    assert CacheStats.zero().hit_rate == 0.0


# -- trace serialization ------------------------------------------------------


def test_trace_record_roundtrip_is_exact(tmp_path):
    """A stored manifest record is plain JSON that rehydrates bit-exactly."""
    trace = make_trace("roundtrip", n_steps=4)
    cache = PersistentGenerationCache(tmp_path, namespace="ns")
    cache.get_or_compute(("free", "k"), lambda: trace)
    cache.close()
    reader = PersistentGenerationCache(tmp_path, namespace="ns")
    record, tier = reader.probe_disk(reader.address(("free", "k")))
    assert tier == "segments"
    payload = json.loads(json.dumps(record, sort_keys=True))
    assert_traces_equal(trace_from_record(payload, directory=reader.directory), trace)
    reader.close()


def test_trace_roundtrip_from_real_llm(bird_tiny, tmp_path):
    from repro.core.pipeline import RTSPipeline

    llm = TransparentLLM(seed=11)
    instance = RTSPipeline.instance_for(bird_tiny.dev.examples[0], bird_tiny, "table")
    traces = [llm.generate(instance), llm.teacher_forced_trace(instance)]
    for restored, trace in zip(spill_and_reload(tmp_path, traces), traces):
        assert_traces_equal(restored, trace)


# -- persistent cache ---------------------------------------------------------


def test_persistent_cache_shares_across_instances(tmp_path):
    first = PersistentGenerationCache(tmp_path, namespace="ns")
    trace = make_trace("shared")
    computed = first.get_or_compute(("free", "k1"), lambda: trace)
    assert computed is trace
    assert first.stats == CacheStats(hits=0, misses=1, disk_hits=0)

    second = PersistentGenerationCache(tmp_path, namespace="ns")
    loaded = second.get_or_compute(
        ("free", "k1"), lambda: pytest.fail("must not recompute")
    )
    assert_traces_equal(loaded, trace)
    assert second.stats == CacheStats(hits=0, misses=0, disk_hits=1)
    # Second lookup is served from memory.
    second.get_or_compute(("free", "k1"), lambda: pytest.fail("must not recompute"))
    assert second.stats == CacheStats(hits=1, misses=0, disk_hits=1)


def test_persistent_cache_namespaces_do_not_alias(tmp_path):
    a = PersistentGenerationCache(tmp_path, namespace="llm-a")
    a.get_or_compute(("free", "k"), lambda: make_trace("a"))
    b = PersistentGenerationCache(tmp_path, namespace="llm-b")
    fresh = make_trace("b")
    assert b.get_or_compute(("free", "k"), lambda: fresh) is fresh
    assert b.stats.misses == 1 and b.stats.disk_hits == 0


def test_persistent_cache_tolerates_truncated_segment(tmp_path):
    cache = PersistentGenerationCache(tmp_path, namespace="ns")
    cache.get_or_compute(("free", "k1"), lambda: make_trace("ok"))
    cache.close()
    segment = next((tmp_path / "ns").glob("*.jsonl"))
    # Simulate a writer killed mid-append: a dangling half record.
    with segment.open("a") as handle:
        handle.write('{"k": "dead", "v": {"instance')

    reader = PersistentGenerationCache(tmp_path, namespace="ns")
    loaded = reader.get_or_compute(
        ("free", "k1"), lambda: pytest.fail("complete entry must survive")
    )
    assert loaded.instance_id == "inst-ok"
    assert reader.stats.disk_hits == 1


def test_persistent_cache_concurrent_writers(tmp_path):
    """Interleaved writers (two instances × many threads) never corrupt."""
    writers = [PersistentGenerationCache(tmp_path, namespace="ns") for _ in range(2)]
    errors = []

    def work(writer, offset):
        try:
            for i in range(25):
                key = ("free", f"k{offset + i}")
                writer.get_or_compute(key, lambda k=key: make_trace(k[1]))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=work, args=(writers[t % 2], 25 * (t // 2)))
        for t in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    for writer in writers:
        writer.close()

    reader = PersistentGenerationCache(tmp_path, namespace="ns")
    assert reader.disk_entries() == 100
    for i in (0, 42, 99):
        loaded = reader.get_or_compute(
            ("free", f"k{i}"), lambda: pytest.fail("must be on disk")
        )
        assert_traces_equal(loaded, make_trace(f"k{i}"))
    assert reader.stats.misses == 0


def test_persistent_cache_compact_dedupes(tmp_path):
    import shutil

    cache = PersistentGenerationCache(tmp_path, namespace="ns")
    for i in range(4):
        cache.get_or_compute(("free", f"k{i}"), lambda i=i: make_trace(f"k{i}"))
    cache.close()
    namespace_dir = tmp_path / "ns"
    segment = next(namespace_dir.glob("*.jsonl"))
    # Two racing writers that both computed the same keys (the store
    # tolerates duplicates; compaction folds them away).
    shutil.copy(segment, namespace_dir / "w-999-dup.jsonl")
    assert len(list(namespace_dir.glob("*.jsonl"))) == 2

    compactor = PersistentGenerationCache(tmp_path, namespace="ns")
    assert compactor.compact() == 4
    assert len(list(namespace_dir.glob("*.jsonl"))) == 1
    reader = PersistentGenerationCache(tmp_path, namespace="ns")
    assert reader.disk_entries() == 4
    loaded = reader.get_or_compute(("free", "k2"), lambda: pytest.fail("on disk"))
    assert_traces_equal(loaded, make_trace("k2"))


def test_persistent_cache_clear_resets_all_counters(tmp_path):
    cache = PersistentGenerationCache(tmp_path, namespace="ns")
    cache.get_or_compute(("free", "k"), lambda: make_trace("x"))
    cache.get_or_compute(("free", "k"), lambda: pytest.fail("memoized"))
    assert cache.stats.lookups == 2
    cache.clear()
    assert cache.stats == CacheStats.zero()
    # Disk entries survive a clear (eviction = deleting the directory).
    reloaded = cache.get_or_compute(("free", "k"), lambda: pytest.fail("on disk"))
    assert reloaded.instance_id == "inst-x"
    assert cache.stats == CacheStats(hits=0, misses=0, disk_hits=1)


def test_persistent_cache_pickles_to_fresh_store_view(tmp_path):
    import pickle

    cache = PersistentGenerationCache(tmp_path, namespace="ns")
    cache.get_or_compute(("free", "k"), lambda: make_trace("pickled"))
    clone = pickle.loads(pickle.dumps(cache))
    assert clone.cache_dir == cache.cache_dir and clone.namespace == "ns"
    loaded = clone.get_or_compute(("free", "k"), lambda: pytest.fail("on disk"))
    assert loaded.instance_id == "inst-pickled"


def test_caching_llm_over_persistent_store(bird_tiny, tmp_path):
    from repro.core.pipeline import RTSPipeline

    instance = RTSPipeline.instance_for(bird_tiny.dev.examples[0], bird_tiny, "table")
    base = TransparentLLM(seed=11)
    namespace = generation_namespace(SIMULATOR_VERSION, base.config, base.seed)

    warm = CachingLLM(base, cache=PersistentGenerationCache(tmp_path, namespace))
    expected = warm.generate(instance)
    assert warm.stats.misses == 1

    class NoGenerate(TransparentLLM):
        def generate(self, instance):  # pragma: no cover - must not run
            raise AssertionError("generation must come from the store")

    cold = CachingLLM(
        NoGenerate(seed=11), cache=PersistentGenerationCache(tmp_path, namespace)
    )
    assert_traces_equal(cold.generate(instance), expected)
    assert cold.stats == CacheStats(hits=0, misses=0, disk_hits=1)


# -- sweep execution, resume, merge -------------------------------------------


@pytest.fixture(scope="module")
def sweep_dirs(tmp_path_factory):
    """A cold 2-shard sweep and a warm unsharded one over a shared cache."""
    root = tmp_path_factory.mktemp("sweep")
    cache_dir = root / "gen-cache"
    sharded = root / "sharded"
    for shard_index in range(2):  # separate runners = separate cold processes
        SweepRunner(TINY_SPEC, sharded, cache_dir=cache_dir).run_shard(shard_index, 2)
    merge_sweep(sharded)

    unsharded = root / "unsharded"
    warm_manifest = SweepRunner(TINY_SPEC, unsharded, cache_dir=cache_dir).run_shard()
    merge_sweep(unsharded)
    return {
        "root": root,
        "cache_dir": cache_dir,
        "sharded": sharded,
        "unsharded": unsharded,
        "warm_manifest": warm_manifest,
    }


def test_sharded_merge_is_byte_identical_to_unsharded(sweep_dirs):
    sharded = (sweep_dirs["sharded"] / SUMMARY_NAME).read_bytes()
    unsharded = (sweep_dirs["unsharded"] / SUMMARY_NAME).read_bytes()
    assert sharded == unsharded


def test_warm_sweep_performs_zero_new_generations(sweep_dirs):
    stats = sweep_dirs["warm_manifest"]["runtime"]["generation_cache"]
    assert stats["misses"] == 0
    assert stats["disk_hits"] > 0
    assert stats["hit_rate"] == 1.0


def test_merge_aggregates_fleet_wide_cache_stats(sweep_dirs):
    stats = json.loads((sweep_dirs["sharded"] / STATS_NAME).read_text())
    fleet = stats["generation_cache"]
    per_shard = [
        shard["generation_cache"] for shard in stats["shards"].values()
    ]
    assert len(per_shard) == 2
    assert fleet["hits"] == sum(s["hits"] for s in per_shard)
    assert fleet["misses"] == sum(s["misses"] for s in per_shard)
    assert fleet["disk_hits"] == sum(s["disk_hits"] for s in per_shard)
    # The cold shard computed everything the other shard then reused.
    assert fleet["misses"] > 0 and fleet["disk_hits"] > 0


def test_unit_stats_sidecars_carry_cache_deltas(sweep_dirs):
    """Cache deltas live in *.stats.json; *.summary.json stays pure."""
    unit_dir = sweep_dirs["unsharded"] / "units"
    stats_files = sorted(unit_dir.glob("*.stats.json"))
    assert len(stats_files) == len(TINY_SPEC.units())
    for stats_file in stats_files:
        payload = json.loads(stats_file.read_text())
        assert payload["generation_cache"]["misses"] >= 0
    for summary_file in unit_dir.glob("*.summary.json"):
        assert "generation_cache" not in json.loads(summary_file.read_text())


def test_unit_summaries_byte_stable_across_cache_warmth(sweep_dirs):
    """Warm/cold runs of the same unit write identical summary files."""
    cold = sweep_dirs["sharded"] / "units"
    warm = sweep_dirs["unsharded"] / "units"
    summaries = sorted(p.name for p in cold.glob("*.summary.json"))
    assert summaries
    for name in summaries:
        assert (cold / name).read_bytes() == (warm / name).read_bytes()


def test_interrupted_shard_resumes_to_identical_merge(sweep_dirs, tmp_path):
    """Kill a shard mid-unit; re-running converges to the same bytes."""
    cache_dir = sweep_dirs["cache_dir"]
    out = tmp_path / "resumed"
    runner = SweepRunner(TINY_SPEC, out, cache_dir=cache_dir)
    runner.run_shard(0, 1)

    # Simulate the interrupt: keep 2 records of one unit, drop the rest,
    # including every manifest (the shard never finished).
    unit = runner.unit_artifact(TINY_SPEC.units()[0])
    lines = unit.read_text().splitlines(keepends=True)
    unit.write_text("".join(lines[:2]))
    manifest_path = runner.shard_manifest_path(0, 1)
    manifest_path.unlink()
    (out / SUMMARY_NAME).unlink(missing_ok=True)

    resumed = SweepRunner(TINY_SPEC, out, cache_dir=cache_dir).run_shard(0, 1)
    unit_id = TINY_SPEC.units()[0].unit_id
    assert resumed["runtime"]["units"][unit_id]["n_resumed"] == 2
    merge_sweep(out)
    reference = (sweep_dirs["unsharded"] / SUMMARY_NAME).read_bytes()
    assert (out / SUMMARY_NAME).read_bytes() == reference


def test_merge_rejects_incomplete_and_mixed_shards(sweep_dirs, tmp_path):
    out = tmp_path / "partial"
    SweepRunner(TINY_SPEC, out, cache_dir=sweep_dirs["cache_dir"]).run_shard(0, 2)
    with pytest.raises(ValueError, match="coverage"):
        merge_sweep(out)  # shard 1 of 2 never ran
    with pytest.raises(FileNotFoundError):
        merge_sweep(tmp_path / "nowhere")


def test_run_sweep_convenience_matches_reference(sweep_dirs, tmp_path):
    out = tmp_path / "convenience"
    merged = run_sweep(
        TINY_SPEC, out, cache_dir=sweep_dirs["cache_dir"], shard_count=3
    )
    assert merged["summary"]["n_units"] == len(TINY_SPEC.units())
    reference = (sweep_dirs["unsharded"] / SUMMARY_NAME).read_bytes()
    assert (out / SUMMARY_NAME).read_bytes() == reference


def test_memory_only_sweep_matches_persistent(sweep_dirs, tmp_path):
    """cache_dir is an optimization, never an outcome-changer."""
    out = tmp_path / "memory-only"
    SweepRunner(TINY_SPEC, out).run_shard()
    merge_sweep(out)
    reference = (sweep_dirs["unsharded"] / SUMMARY_NAME).read_bytes()
    assert (out / SUMMARY_NAME).read_bytes() == reference


# -- CLI ----------------------------------------------------------------------


def test_sweep_cli_plan_run_merge(tmp_path, capsys):
    from repro.runtime.cli import main_sweep

    axes = [
        "--benchmarks", "bird",
        "--splits", "dev",
        "--tasks", "table",
        "--modes", "abstain",
        "--seeds", "3",
        "--scale", "tiny",
        "--limit", "3",
    ]
    assert main_sweep(["plan", *axes, "--shard-count", "2"]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["n_units"] == 1
    assert plan["shards"]["shard-0"] == ["bird-dev-table-abstain-s3"]
    assert plan["shards"]["shard-1"] == []

    out = tmp_path / "cli-sweep"
    cache = tmp_path / "cli-cache"
    run_args = ["run", *axes, "--out", str(out), "--cache-dir", str(cache)]
    assert main_sweep(run_args) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["runtime"]["generation_cache"]["misses"] > 0

    assert main_sweep(["merge", "--out", str(out)]) == 0
    merged = json.loads(capsys.readouterr().out)
    assert merged["summary"]["n_units"] == 1
    assert (out / SUMMARY_NAME).exists()

    # Warm CLI re-run into a fresh out dir: everything from the store.
    out2 = tmp_path / "cli-sweep-warm"
    assert main_sweep(["run", *axes, "--out", str(out2), "--cache-dir", str(cache)]) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["runtime"]["generation_cache"]["misses"] == 0


def test_sweep_cli_rejects_out_of_range_shard_index(tmp_path, capsys):
    from repro.runtime.cli import main_sweep

    for bad in ("2", "-1"):
        with pytest.raises(SystemExit) as excinfo:
            main_sweep(
                ["run", "--shard-index", bad, "--shard-count", "2",
                 "--out", str(tmp_path / "never")]
            )
        assert excinfo.value.code == 2  # argparse usage error, no traceback
        assert "out of range" in capsys.readouterr().err
