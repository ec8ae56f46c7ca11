"""Micro-benchmarks of the library's hot paths: tokenization, hidden-state
synthesis, probe training, conformal calibration, generation, execution,
the batched evaluation runtime (batch-vs-serial throughput), and
two-phase trace synthesis (vectorized vs the scalar per-token oracle,
the "trace-synthesis" group)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.conformal.split import SplitConformalBinary
from repro.core.pipeline import RTSPipeline
from repro.linking.dataset import collect_branch_dataset
from repro.llm.model import TransparentLLM
from repro.llm.tokenizer import tokenize_items
from repro.llm.trie import ItemTrie
from repro.probes.mlp import MLPClassifier, MLPConfig
from repro.runtime.cache import CachingLLM
from repro.runtime.runner import BatchRunner
from repro.sqlengine.executor import Executor


@pytest.fixture(scope="module")
def branch_data(ctx):
    bench = ctx.benchmark("bird")
    instances = [
        RTSPipeline.instance_for(e, bench, "table") for e in bench.train
    ]
    return collect_branch_dataset(ctx.llm, instances)


@pytest.mark.benchmark(group="micro")
def test_bench_tokenizer(benchmark, ctx):
    names = [
        t.name
        for pdb in ctx.benchmark("bird").databases.values()
        for t in pdb.schema.tables
    ]
    benchmark(lambda: [tokenize_items(names) for _ in range(100)])


@pytest.mark.benchmark(group="micro")
def test_bench_trie_construction(benchmark, ctx):
    names = [
        f"{t.name}.{c.name}"
        for pdb in ctx.benchmark("bird").databases.values()
        for t in pdb.schema.tables
        for c in t.columns
    ]
    benchmark(ItemTrie, names)


@pytest.mark.benchmark(group="micro")
def test_bench_hidden_state_synthesis(benchmark, ctx):
    synth = ctx.llm.hidden

    def run():
        for i in range(50):
            synth.hidden_states("bench-inst", i, "tok", "prev", 0, 0, False)

    benchmark(run)


@pytest.mark.benchmark(group="micro")
def test_bench_free_generation(benchmark, ctx):
    bench = ctx.benchmark("bird")
    instances = [
        RTSPipeline.instance_for(e, bench, "table")
        for e in bench.dev.examples[:8]
    ]
    benchmark(lambda: [ctx.llm.generate(i) for i in instances])


@pytest.mark.benchmark(group="micro")
def test_bench_teacher_forcing(benchmark, ctx):
    bench = ctx.benchmark("bird")
    instances = [
        RTSPipeline.instance_for(e, bench, "table")
        for e in bench.dev.examples[:8]
    ]
    benchmark(lambda: [ctx.llm.teacher_forced_trace(i) for i in instances])


@pytest.mark.benchmark(group="micro")
def test_bench_mlp_training(benchmark, branch_data):
    X = branch_data.layer(7)
    y = branch_data.labels.astype(float)
    benchmark(
        lambda: MLPClassifier(MLPConfig(epochs=10), seed=0).fit(X, y)
    )


@pytest.mark.benchmark(group="micro")
def test_bench_conformal_calibration(benchmark):
    rng = np.random.default_rng(0)
    p1 = rng.random(5000)
    probs = np.stack([1 - p1, p1], axis=1)
    labels = (rng.random(5000) < p1).astype(int)
    benchmark(
        lambda: SplitConformalBinary(alpha=0.1, mondrian=True).fit(probs, labels)
    )


@pytest.mark.benchmark(group="micro")
def test_bench_mbpp_inference(benchmark, ctx, branch_data):
    mbpp = ctx.pipeline("bird").mbpp("table")
    benchmark(mbpp.predict_dataset, branch_data)


@pytest.mark.benchmark(group="micro")
def test_bench_sql_execution(benchmark, ctx):
    bench = ctx.benchmark("bird")
    executor = Executor(bench.databases)
    examples = bench.dev.examples[:20]
    # Warm connections so the benchmark times query execution.
    for e in examples:
        executor.execute(e.db_id, e.gold_sql)
    benchmark(lambda: [executor.execute(e.db_id, e.gold_sql) for e in examples])


@pytest.mark.benchmark(group="micro")
def test_bench_rts_link_abstain(benchmark, ctx):
    bench = ctx.benchmark("bird")
    pipe = ctx.pipeline("bird")
    instances = [
        RTSPipeline.instance_for(e, bench, "table")
        for e in bench.dev.examples[:8]
    ]
    benchmark(lambda: [pipe.link(i, mode="abstain") for i in instances])


# -- batched evaluation runtime ----------------------------------------------
#
# Same workload (link over the dev split), three execution paths. Compare
# the "batch" group's rows: the batch runner must not be slower than the
# hand-rolled serial loop, and the threaded pool should win where numpy
# releases the GIL.


@pytest.fixture(scope="module")
def batch_workload(ctx):
    bench = ctx.benchmark("bird")
    pipe = ctx.pipeline("bird")
    instances = [
        RTSPipeline.instance_for(e, bench, "table") for e in bench.dev.examples
    ]
    return pipe, instances


@pytest.mark.benchmark(group="batch")
def test_bench_batch_serial_loop(benchmark, batch_workload):
    """Baseline: the pre-runtime hand-rolled per-example loop."""
    pipe, instances = batch_workload
    benchmark(lambda: [pipe.link(i, mode="abstain") for i in instances])


@pytest.mark.benchmark(group="batch")
def test_bench_batch_runner_serial(benchmark, batch_workload):
    pipe, instances = batch_workload
    runner = BatchRunner(pipe, workers=1)
    benchmark(lambda: runner.run_link(instances, mode="abstain"))


@pytest.mark.benchmark(group="batch")
def test_bench_batch_runner_threads(benchmark, batch_workload):
    pipe, instances = batch_workload
    runner = BatchRunner(pipe, workers=4, backend="thread")
    benchmark(lambda: runner.run_link(instances, mode="abstain"))


@pytest.mark.benchmark(group="batch")
def test_bench_generation_cache_cold_vs_warm(benchmark, ctx):
    """One cold fill, then timed warm sweeps — the cache's whole point."""
    bench = ctx.benchmark("bird")
    llm = CachingLLM(TransparentLLM(seed=11))
    instances = [
        RTSPipeline.instance_for(e, bench, "table") for e in bench.dev.examples
    ]
    for instance in instances:  # cold fill outside the timed region
        llm.generate(instance)
    benchmark(lambda: [llm.generate(i) for i in instances])
    assert llm.stats.hits > 0


# -- generation service backends ----------------------------------------------
#
# Same uncached workload (free + teacher-forced traces over the dev
# split) through both generation backends. Compare the "service" group's
# rows: at tiny scale the process backend's IPC overhead (pickle framing
# over a socketpair) dominates, so these track that overhead staying bounded;
# the crash-isolation win shows up with real workloads. Output bytes
# must never differ between the rows (pinned by tests).


@pytest.fixture(scope="module")
def service_requests(ctx):
    from repro.runtime.service import FORCED, FREE, GenerationRequest

    bench = ctx.benchmark("bird")
    instances = [
        RTSPipeline.instance_for(e, bench, "table") for e in bench.dev.examples
    ]
    return [GenerationRequest(FREE, i) for i in instances] + [
        GenerationRequest(FORCED, i) for i in instances
    ]


@pytest.mark.benchmark(group="service")
def test_bench_service_simulator_backend(benchmark, service_requests):
    from repro.runtime.service import SimulatorBackend

    backend = SimulatorBackend(TransparentLLM(seed=11))
    benchmark(lambda: backend.generate(service_requests))


@pytest.mark.benchmark(group="service")
def test_bench_service_process_backend(benchmark, service_requests):
    from repro.runtime.remote import ProcessBackend

    with ProcessBackend(TransparentLLM(seed=11), workers=2) as backend:
        backend.ping()  # workers booted outside the timed region
        benchmark(lambda: backend.generate(service_requests))


# -- trace synthesis: scalar vs vectorized two-phase ---------------------------
#
# The same generation workload through the scalar reference oracle
# (independent per-token synthesis — the pure-function definition of the
# observables, architecturally the old per-token hot path) and through
# the vectorized two-phase fast path (symbolic walk + one batched
# observable pass). Both are bit-identical by construction (pinned in
# tests/test_trace_synthesis.py); compare the "trace-synthesis" group's
# rows — `scripts/dev.sh bench-smoke` prints the speedup ratio. The
# workload pairs the tiny corpus's column-linking dev split with
# wide-schema instances (every column of a database as a gold item),
# because the tiny test corpus under-sizes schemas relative to real
# BIRD/Spider databases and the hot path's payoff scales with trace
# length.


@pytest.fixture(scope="module")
def synthesis_instances(ctx):
    import dataclasses

    bench = ctx.benchmark("bird")
    instances = [
        RTSPipeline.instance_for(e, bench, "column") for e in bench.dev.examples
    ]
    template = instances[0]
    for name, pdb in sorted(bench.databases.items()):
        columns = tuple(
            f"{table.name}.{column.name}"
            for table in pdb.schema.tables
            for column in table.columns
        )
        instances.append(
            dataclasses.replace(
                template,
                instance_id=f"bench-wide/{name}/column",
                candidates=columns,
                gold_items=columns,
            )
        )
    return instances


@pytest.mark.benchmark(group="trace-synthesis")
def test_bench_synthesis_scalar_forced(benchmark, synthesis_instances):
    llm = TransparentLLM(seed=11)
    benchmark(
        lambda: [llm.teacher_forced_trace_scalar(i) for i in synthesis_instances]
    )


@pytest.mark.benchmark(group="trace-synthesis")
def test_bench_synthesis_vectorized_forced(benchmark, synthesis_instances):
    llm = TransparentLLM(seed=11)
    benchmark(lambda: [llm.teacher_forced_trace(i) for i in synthesis_instances])


@pytest.mark.benchmark(group="trace-synthesis")
def test_bench_synthesis_scalar_free(benchmark, synthesis_instances):
    llm = TransparentLLM(seed=11)
    benchmark(lambda: [llm.generate_scalar(i) for i in synthesis_instances])


@pytest.mark.benchmark(group="trace-synthesis")
def test_bench_synthesis_vectorized_free(benchmark, synthesis_instances):
    llm = TransparentLLM(seed=11)
    benchmark(lambda: [llm.generate(i) for i in synthesis_instances])


@pytest.mark.benchmark(group="trace-synthesis")
def test_bench_synthesis_incremental_session_forced(benchmark, synthesis_instances):
    """The third path: the inference-time session with retained streams."""

    llm = TransparentLLM(seed=11)

    def run():
        out = []
        for instance in synthesis_instances:
            session = llm.start_session(instance)
            session.run_teacher_forced()
            out.append(session.trace())
        return out

    benchmark(run)


# -- store round-trip: base64-JSON codec vs binary sidecar + mmap --------------
#
# The same wide traces written once per codec, then warm L2 reads
# (probe_disk + record_to_trace against a prebuilt store) timed per
# round. The base64 rows decode-and-copy every hidden block; the binary
# rows rehydrate `hidden_stack` as a zero-copy view over a shared mmap
# of the `.bin` sidecar. Compare the "store-roundtrip" group's warm-read
# rows — `scripts/dev.sh bench-smoke` prints the speedup ratio, and the
# acceptance bar is >= 5x. Payload bytes ride in `extra_info` so the
# JSON artifact can report MB/s.


@pytest.fixture(scope="module")
def store_traces(synthesis_instances):
    llm = TransparentLLM(seed=11)
    return [llm.teacher_forced_trace(i) for i in synthesis_instances]


@pytest.fixture(scope="module")
def store_payload_bytes(store_traces):
    return int(sum(t.hidden_matrix().nbytes for t in store_traces))


@pytest.fixture(scope="module")
def store_root(store_traces, tmp_path_factory):
    from repro.runtime.persist import PersistentGenerationCache

    root = tmp_path_factory.mktemp("bench-store")
    for codec in ("base64", "binary"):
        cache = PersistentGenerationCache(
            root / codec, namespace="bench", codec=codec
        )
        for trace in store_traces:
            cache.get_or_compute(
                (trace.instance_id, "forced"), lambda t=trace: t
            )
        cache.close()
    return root


@pytest.fixture(scope="module")
def store_readers(store_root, store_traces):
    from repro.runtime.persist import PersistentGenerationCache

    readers = {}
    for codec in ("base64", "binary"):
        cache = PersistentGenerationCache(store_root / codec, namespace="bench")
        addresses = [
            cache.address((t.instance_id, "forced")) for t in store_traces
        ]
        readers[codec] = (cache, addresses)
    yield readers
    for cache, _ in readers.values():
        cache.close()


def _warm_read_all(cache, addresses):
    out = []
    for address in addresses:
        record, tier = cache.probe_disk(address)
        assert record is not None, (address, tier)
        out.append(cache.record_to_trace(record))
    return out


@pytest.mark.benchmark(group="store-roundtrip")
def test_bench_store_encode_base64(benchmark, store_traces):
    from repro.runtime.persist import trace_to_record

    benchmark(lambda: [trace_to_record(t) for t in store_traces])


@pytest.mark.benchmark(group="store-roundtrip")
def test_bench_store_decode_base64(benchmark, store_traces):
    from repro.runtime.persist import trace_from_record, trace_to_record

    records = [trace_to_record(t) for t in store_traces]
    benchmark(lambda: [trace_from_record(r) for r in records])


@pytest.mark.benchmark(group="store-roundtrip")
def test_bench_store_warm_read_base64(
    benchmark, store_readers, store_payload_bytes
):
    cache, addresses = store_readers["base64"]
    _warm_read_all(cache, addresses)  # touch pages outside the timed region
    benchmark(lambda: _warm_read_all(cache, addresses))
    benchmark.extra_info["payload_bytes"] = store_payload_bytes
    benchmark.extra_info["traces"] = len(addresses)


@pytest.mark.benchmark(group="store-roundtrip")
def test_bench_store_warm_read_binary(
    benchmark, store_readers, store_payload_bytes
):
    cache, addresses = store_readers["binary"]
    traces = _warm_read_all(cache, addresses)  # warm the shared mmap
    assert all(
        t.hidden_stack is not None and not t.hidden_stack.flags.writeable
        for t in traces
    ), "binary warm reads must rehydrate read-only zero-copy views"
    benchmark(lambda: _warm_read_all(cache, addresses))
    benchmark.extra_info["payload_bytes"] = store_payload_bytes
    benchmark.extra_info["traces"] = len(addresses)


# -- IPC throughput -----------------------------------------------------------
#
# A wide teacher-forced workload through a one-worker ProcessBackend.
# Every spawned worker talks over a socketpair whatever the transport, so
# one row covers them all. The worker's LLM is wrapped in CachingLLM and
# the fleet is warmed with one untimed sweep, so the timed rounds are
# serialization-bound: they measure moving traces across the process
# boundary (one framed pickle per result, the hidden tensor written
# once), not resynthesizing them. `scripts/dev.sh bench-smoke` prints
# MB/s and traces/s from `extra_info`.


@pytest.fixture(scope="module")
def ipc_requests(synthesis_instances):
    from repro.runtime.service import FORCED, GenerationRequest

    return [GenerationRequest(FORCED, i) for i in synthesis_instances]


@pytest.fixture(scope="module")
def ipc_payload_bytes(store_traces):
    return int(sum(t.hidden_matrix().nbytes for t in store_traces))


@pytest.mark.benchmark(group="ipc-throughput")
def test_bench_ipc_throughput(benchmark, ipc_requests, ipc_payload_bytes):
    from repro.runtime.remote import ProcessBackend

    with ProcessBackend(CachingLLM(TransparentLLM(seed=11)), workers=1) as backend:
        backend.ping()  # workers booted outside the timed region
        backend.generate(ipc_requests)  # warm the worker-side cache untimed
        benchmark(lambda: backend.generate(ipc_requests))
    benchmark.extra_info["payload_bytes"] = ipc_payload_bytes
    benchmark.extra_info["traces"] = len(ipc_requests)
