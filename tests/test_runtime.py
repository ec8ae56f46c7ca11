"""Tests for the batched evaluation runtime (pool / cache / artifacts / runner)."""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro.core.config import ABSTAIN, RTSConfig
from repro.core.pipeline import RTSPipeline
from repro.llm.model import TransparentLLM
from repro.runtime.artifacts import (
    RunArtifact,
    link_outcome_from_record,
    link_record,
    summarize_link,
)
from repro.runtime.cache import CachingLLM, GenerationCache, instance_key
from repro.runtime.pool import WorkerPool
from repro.runtime.runner import BatchRunner
from repro.runtime.service import PROCESS, BackendSpec


@pytest.fixture(scope="module")
def caching_pipeline(bird_tiny):
    """A pipeline over a caching LLM, fitted once for the module."""
    llm = CachingLLM(TransparentLLM(seed=11))
    pipe = RTSPipeline(llm, RTSConfig(seed=3))
    pipe.fit_benchmark(bird_tiny)
    return pipe


@contextmanager
def fitted_process_pipeline(benchmark):
    """The caching pipeline with generations on two worker processes."""
    base = TransparentLLM(seed=11)
    service = BackendSpec(kind=PROCESS, workers=2).build(base)
    pipe = RTSPipeline(CachingLLM(base, service=service), RTSConfig(seed=3))
    try:
        yield pipe.fit_benchmark(benchmark)
    finally:
        service.close()


@pytest.fixture(scope="module")
def process_pipeline(bird_tiny):
    """The same pipeline with generations on two worker processes."""
    with fitted_process_pipeline(bird_tiny) as pipe:
        yield pipe


@pytest.fixture(scope="module")
def dev_instances(bird_tiny):
    return [
        RTSPipeline.instance_for(e, bird_tiny, "table") for e in bird_tiny.dev
    ]


# -- worker pool --------------------------------------------------------------


def test_pool_serial_fallback_and_order():
    pool = WorkerPool()
    assert pool.map_ordered(lambda x: x * x, range(7)) == [0, 1, 4, 9, 16, 25, 36]
    lazy = pool.imap_ordered(lambda x: -x, range(3))
    assert next(lazy) == 0  # streams: nothing beyond the first item ran yet
    assert list(lazy) == [-1, -2]


def test_pool_empty_input():
    assert WorkerPool().map_ordered(abs, []) == []


# -- generation cache ---------------------------------------------------------


def test_cache_hit_accounting():
    cache = GenerationCache()
    calls = []
    for _ in range(3):
        cache.get_or_compute("k", lambda: calls.append(1) or "v")
    assert calls == [1]
    assert cache.stats.hits == 2 and cache.stats.misses == 1
    assert cache.stats.hit_rate == pytest.approx(2 / 3)


def test_caching_llm_returns_identical_traces(dev_instances):
    plain = TransparentLLM(seed=11)
    caching = CachingLLM(TransparentLLM(seed=11))
    inst = dev_instances[0]
    first = caching.generate(inst)
    second = caching.generate(inst)
    assert first is second  # memoized, not recomputed
    assert first.items == plain.generate(inst).items
    assert caching.teacher_forced_trace(inst).committed_tokens == (
        plain.teacher_forced_trace(inst).committed_tokens
    )
    assert caching.stats.hits >= 1


def test_instance_key_distinguishes_candidate_universes(bird_tiny):
    """Joint linking builds same-id column instances with different candidates."""
    from repro.linking.instance import SchemaLinkingInstance

    example = bird_tiny.dev.examples[0]
    db = bird_tiny.database(example.db_id).schema
    full = SchemaLinkingInstance.for_columns(example, db)
    restricted = SchemaLinkingInstance.for_columns(
        example, db, restrict_tables=example.gold_tables
    )
    assert full.instance_id == restricted.instance_id
    assert instance_key(full) != instance_key(restricted)


def test_cache_hits_on_joint_sweep(caching_pipeline, bird_tiny):
    runner = BatchRunner(caching_pipeline)
    examples = list(bird_tiny.dev)
    runner.run_joint(examples, bird_tiny, mode="abstain")
    before = caching_pipeline.llm.stats
    runner.run_joint(examples, bird_tiny, mode="abstain")
    after = caching_pipeline.llm.stats
    assert after.hits > before.hits  # repeated generations served from cache
    assert after.misses == before.misses


# -- serial vs parallel determinism -------------------------------------------
# The one parallel axis is the process backend: two worker processes
# must reproduce the in-process simulator bit for bit, whether one caller
# drives them or several request threads share them (as repro-serve does).


def _link_from_request_threads(pipeline, instances, keys, threads=4):
    """Link every instance from concurrent caller threads, as run_link would."""
    with ThreadPoolExecutor(max_workers=threads) as callers:
        outcomes = list(callers.map(lambda i: pipeline.link(i, mode=ABSTAIN), instances))
    records = [dict(link_record(o), key=k) for o, k in zip(outcomes, keys)]
    rehydrated = [link_outcome_from_record(r, i) for r, i in zip(records, instances)]
    return records, summarize_link(rehydrated)


@pytest.mark.parametrize("callers", ["process", "thread"])
def test_link_parallel_matches_serial(
    callers, caching_pipeline, process_pipeline, bird_tiny, dev_instances
):
    serial = BatchRunner(caching_pipeline).run_link(dev_instances)
    if callers == "process":
        parallel = BatchRunner(process_pipeline).run_link(dev_instances)
        records, summary = parallel.records, parallel.summary
    else:
        # A cold pipeline, so every generation crosses the process backend
        # while the caller threads overlap.
        keys = [r["key"] for r in serial.records]
        with fitted_process_pipeline(bird_tiny) as pipe:
            records, summary = _link_from_request_threads(pipe, dev_instances, keys)
    # Byte-identical aggregate metrics, per the determinism contract.
    assert json.dumps(serial.summary, sort_keys=True) == json.dumps(
        summary, sort_keys=True
    )
    assert serial.records == records


def test_joint_parallel_matches_serial(caching_pipeline, process_pipeline, bird_tiny):
    from repro.abstention.human import HumanOracle

    examples = list(bird_tiny.dev)
    serial = BatchRunner(caching_pipeline).run_joint(
        examples, bird_tiny, human=HumanOracle(seed=9)
    )
    parallel = BatchRunner(process_pipeline).run_joint(
        examples, bird_tiny, human=HumanOracle(seed=9)
    )
    assert serial.records == parallel.records
    assert json.dumps(serial.summary, sort_keys=True) == json.dumps(
        parallel.summary, sort_keys=True
    )


def test_branch_dataset_parallel_matches_serial(
    caching_pipeline, process_pipeline, dev_instances
):
    serial = BatchRunner(caching_pipeline).branch_dataset(dev_instances)
    parallel = BatchRunner(process_pipeline).branch_dataset(dev_instances)
    for field in ("hidden", "labels", "groups"):
        a, b = getattr(serial, field), getattr(parallel, field)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


# -- artifacts: records, checkpoints, resume ----------------------------------


def test_link_record_roundtrip(caching_pipeline, dev_instances):
    outcome = caching_pipeline.link(dev_instances[0])
    record = json.loads(json.dumps(link_record(outcome)))
    restored = link_outcome_from_record(record, dev_instances[0])
    assert restored.predicted == outcome.predicted
    assert restored.unassisted == outcome.unassisted
    assert restored.abstained == outcome.abstained
    assert restored.flags == outcome.flags
    with pytest.raises(ValueError):
        link_outcome_from_record(record, dev_instances[1])


def test_artifact_streams_and_summarizes(caching_pipeline, dev_instances, tmp_path):
    path = tmp_path / "run.jsonl"
    runner = BatchRunner(caching_pipeline, artifact=str(path))
    result = runner.run_link(dev_instances)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(dev_instances)
    summary = json.loads(RunArtifact(str(path)).summary_path.read_text())
    assert summary["n"] == result.summary["n"]
    assert summary["tar"] == pytest.approx(result.summary["tar"])


def test_resume_from_truncated_artifact(caching_pipeline, dev_instances, tmp_path):
    path = tmp_path / "run.jsonl"
    full = BatchRunner(caching_pipeline, artifact=str(path)).run_link(dev_instances)
    assert full.n_resumed == 0 and full.n_evaluated == len(dev_instances)

    # Simulate a hard kill: keep 3 complete records, then half a line.
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:3]) + lines[3][: len(lines[3]) // 2])

    resumed = BatchRunner(caching_pipeline, artifact=str(path)).run_link(dev_instances)
    assert resumed.n_resumed == 3
    assert resumed.n_evaluated == len(dev_instances) - 3
    # The resumed run is bit-identical to the uninterrupted one.
    assert json.dumps(resumed.summary, sort_keys=True) == json.dumps(
        full.summary, sort_keys=True
    )
    assert resumed.records == full.records
    assert len(path.read_text().strip().splitlines()) == len(dev_instances)


def test_checkpoints_stream_before_batch_completes(
    caching_pipeline, dev_instances, tmp_path
):
    """A crash mid-sweep must leave earlier outcomes checkpointed."""
    path = tmp_path / "crash.jsonl"
    boom_id = dev_instances[3].instance_id
    real_link = caching_pipeline.link

    class Exploding:
        def __getattr__(self, name):
            return getattr(caching_pipeline, name)

        def link(self, instance, **kwargs):
            if instance.instance_id == boom_id:
                raise RuntimeError("simulated crash")
            return real_link(instance, **kwargs)

    with pytest.raises(RuntimeError, match="simulated crash"):
        BatchRunner(Exploding(), artifact=str(path)).run_link(dev_instances)
    assert len(path.read_text().strip().splitlines()) == 3  # streamed, not batched

    # And the healthy runner resumes on top of the partial artifact.
    resumed = BatchRunner(caching_pipeline, artifact=str(path)).run_link(dev_instances)
    assert resumed.n_resumed == 3
    assert resumed.n_evaluated == len(dev_instances) - 3


def test_resume_keys_include_run_fingerprint(caching_pipeline, dev_instances, tmp_path):
    """Records from a different-seed run must not be silently reused."""
    path = tmp_path / "fp.jsonl"
    BatchRunner(caching_pipeline, artifact=str(path)).run_link(dev_instances)
    other_llm = CachingLLM(TransparentLLM(seed=99))
    other = RTSPipeline(other_llm, RTSConfig(seed=3))
    other._mbpps = caching_pipeline._mbpps  # reuse probes; only the LLM differs
    result = BatchRunner(other, artifact=str(path)).run_link(dev_instances)
    assert result.n_resumed == 0  # llm seed changed -> full re-evaluation


def test_artifact_tolerates_corrupt_tail(tmp_path):
    path = tmp_path / "part.jsonl"
    good = json.dumps({"key": "a", "x": 1})
    path.write_text(good + "\n" + '{"key": "b", "x"')
    artifact = RunArtifact(str(path))
    records = artifact.load_records()
    assert list(records) == ["a"]
    # The corrupt tail was truncated away so appends start clean.
    assert path.read_text() == good + "\n"


# -- resume hardening: CRLF mangling + hard-kill truncation, every kind -------
#
# The \r\n hazard noted in artifacts.py: load_records must count exact
# *byte* offsets, or truncating back to "the last complete record" on a
# CRLF-mangled file (a checkout or editor rewrote line endings) cuts
# into a valid record and corrupts the checkpoint it resumes from.


def crlf_mangle(path) -> None:
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))


def test_load_records_on_a_crlf_mangled_artifact(tmp_path):
    path = tmp_path / "crlf.jsonl"
    artifact = RunArtifact(str(path))
    for key in ("a", "b", "c"):
        artifact.append({"key": key, "x": key * 2})
    artifact.close()
    crlf_mangle(path)
    size = path.stat().st_size
    records = RunArtifact(str(path)).load_records()
    assert list(records) == ["a", "b", "c"]
    assert path.stat().st_size == size  # complete file: nothing truncated


def test_crlf_artifact_with_truncated_tail_resumes_cleanly(tmp_path):
    """Byte-exact truncation on a CRLF file must never cut a valid record."""
    path = tmp_path / "crlf-tail.jsonl"
    artifact = RunArtifact(str(path))
    for key in ("a", "b", "c"):
        artifact.append({"key": key, "x": key * 2})
    artifact.close()
    crlf_mangle(path)
    mangled = path.read_bytes()
    # Hard kill mid-append: the final record loses its terminator.
    path.write_bytes(mangled[:-3])
    artifact = RunArtifact(str(path))
    assert list(artifact.load_records()) == ["a", "b"]
    # Truncated exactly back to the end of record "b" — with its \r\n
    # intact, so the next append starts on a fresh line.
    kept = path.read_bytes()
    assert kept == mangled[: len(kept)]
    assert kept.endswith(b'"b"}\r\n'[-2:])
    artifact.append({"key": "c2", "x": "cc"})
    artifact.close()
    assert list(RunArtifact(str(path)).load_records()) == ["a", "b", "c2"]


@pytest.mark.parametrize("cut", [1, 2, 5, 11])
def test_every_truncation_point_keeps_a_loadable_prefix(tmp_path, cut):
    """Whatever byte a hard kill lands on, resume sees only complete
    records and the file is rewound to a clean append point."""
    path = tmp_path / "cut.jsonl"
    artifact = RunArtifact(str(path))
    for key in ("a", "b"):
        artifact.append({"key": key, "x": key * 3})
    artifact.close()
    whole = path.read_bytes()
    path.write_bytes(whole[: len(whole) - cut])
    records = RunArtifact(str(path)).load_records()
    assert list(records) in (["a"], ["a", "b"])
    remaining = path.read_bytes()
    assert whole.startswith(remaining)
    assert remaining == b"" or remaining.endswith(b"\n")


def test_link_and_joint_records_survive_truncated_tails(
    caching_pipeline, bird_tiny, dev_instances, tmp_path
):
    """The hard-kill tolerance holds for every record kind the runner
    writes — link sweeps and joint table->column runs alike."""
    examples = bird_tiny.dev.examples
    runs = {
        "link": lambda art: BatchRunner(caching_pipeline, artifact=art).run_link(
            dev_instances
        ),
        "joint": lambda art: BatchRunner(caching_pipeline, artifact=art).run_joint(
            examples, bird_tiny, mode="abstain"
        ),
    }
    for kind, run in runs.items():
        path = tmp_path / f"{kind}.jsonl"
        full = run(str(path))
        pristine = path.read_bytes()
        n_records = len(pristine.strip().splitlines())
        # Hard kill: the last record is torn mid-line.
        path.write_bytes(pristine[: len(pristine) - 7])
        resumed = run(str(path))
        assert resumed.n_resumed == n_records - 1, kind
        assert resumed.n_evaluated == 1, kind
        assert json.dumps(resumed.summary, sort_keys=True) == json.dumps(
            full.summary, sort_keys=True
        ), kind
        assert path.read_bytes() == pristine, kind  # byte-identical rebuild


def test_joint_artifact_crlf_resume(caching_pipeline, bird_tiny, tmp_path):
    """CRLF mangling + truncation on joint records resumes bit-exactly."""
    examples = bird_tiny.dev.examples
    path = tmp_path / "joint-crlf.jsonl"
    full = BatchRunner(caching_pipeline, artifact=str(path)).run_joint(
        examples, bird_tiny, mode="abstain"
    )
    crlf_mangle(path)
    mangled = path.read_bytes()
    path.write_bytes(mangled[:-4])  # tear the final record
    resumed = BatchRunner(caching_pipeline, artifact=str(path)).run_joint(
        examples, bird_tiny, mode="abstain"
    )
    assert resumed.n_resumed == len(examples) - 1
    assert resumed.n_evaluated == 1
    assert json.dumps(resumed.summary, sort_keys=True) == json.dumps(
        full.summary, sort_keys=True
    )


def test_summarize_link_counts(caching_pipeline, dev_instances):
    outcomes = [caching_pipeline.link(i) for i in dev_instances]
    summary = summarize_link(outcomes)
    assert summary["n"] == len(dev_instances)
    assert 0.0 <= summary["tar"] + summary["far"] <= 1.0
    assert summary["n_abstained"] == sum(1 for o in outcomes if o.abstained)


# -- CLI ----------------------------------------------------------------------


def test_cli_runs_and_writes_artifact(tmp_path, capsys):
    from repro.runtime.cli import main

    artifact = tmp_path / "cli.jsonl"
    code = main(
        [
            "--benchmark", "bird",
            "--split", "dev",
            "--task", "table",
            "--scale", "tiny",
            "--limit", "4",
            "--artifact", str(artifact),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["n"] == 4
    assert payload["generation_cache"]["misses"] > 0
    assert artifact.exists()


def test_cli_artifacts_byte_identical_across_blas_thread_counts(tmp_path):
    """Artifacts never depend on how many threads BLAS runs.

    OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, at import, so each
    thread count needs its own interpreter.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro.runtime.cli

    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    env["PYTHONPATH"] = str(Path(repro.runtime.cli.__file__).parents[2])
    outputs = {}
    for threads in ("1", "2"):
        artifact = tmp_path / f"blas-{threads}.jsonl"
        subprocess.run(
            [
                sys.executable, "-m", "repro.runtime.cli",
                "--benchmark", "bird",
                "--split", "dev",
                "--task", "column",
                "--mode", "abstain",
                "--scale", "tiny",
                "--artifact", str(artifact),
            ],
            env={**env, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            check=True,
        )
        summary = artifact.with_name(artifact.name + ".summary.json")
        outputs[threads] = (artifact.read_bytes(), summary.read_bytes())
    assert outputs["1"][0] == outputs["2"][0]  # per-example records
    assert outputs["1"][1] == outputs["2"][1]  # summary
