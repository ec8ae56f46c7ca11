"""Tests for the vectorized two-phase trace synthesis (``hidden-v2``).

Pins the tentpole guarantees:

* the vectorized fast path (symbolic walk + batched observables) and the
  incremental retained-streams session both reproduce the scalar
  reference oracle bit-exactly — tokens, labels, forced flags, metadata,
  hidden states and probabilities;
* the batch synthesizer APIs agree with the per-token APIs row by row;
* trace-level named streams are prefix-extendable and deterministic
  across processes;
* the ``hidden-v2`` identity bump lands persistent-cache entries in a
  fresh namespace that never aliases pre-versioned stores;
* columnar trace records round-trip bit-exactly (and legacy per-step
  records still rehydrate);
* the synthesizer's embedding cache is bounded with working counters,
  and the simulator's error-plan memo is bounded and value-stable.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    assert_traces_equal,
    make_instance,
    make_racing_db,
    make_trace,
    spill_and_reload,
)

import repro.llm.hidden
from repro.core.pipeline import RTSPipeline
from repro.linking.dataset import BranchDataset, collect_branch_dataset
from repro.llm.hidden import (
    SIMULATOR_VERSION,
    HiddenConfig,
    HiddenStateSynthesizer,
    TraceStreams,
)
from repro.llm.model import TransparentLLM
from repro.llm.tokenizer import detokenize
from repro.runtime.persist import (
    PersistentGenerationCache,
    generation_namespace,
)
from repro.runtime.service import GenerationService, SimulatorBackend
from repro.utils.rng import spawn


@pytest.fixture(scope="module")
def instances(bird_tiny):
    out = []
    for task in ("table", "column"):
        for example in bird_tiny.dev.examples[:6]:
            out.append(RTSPipeline.instance_for(example, bird_tiny, task))
    return out


# -- scalar-vs-vectorized equivalence -----------------------------------------


def assert_same_symbols(a, b) -> None:
    """Symbolic-phase equality: everything except the observables."""
    assert [s.proposed for s in a.steps] == [s.proposed for s in b.steps]
    assert [s.committed for s in a.steps] == [s.committed for s in b.steps]
    assert [s.is_branching for s in a.steps] == [s.is_branching for s in b.steps]
    assert [s.forced for s in a.steps] == [s.forced for s in b.steps]
    assert [s.item_index for s in a.steps] == [s.item_index for s in b.steps]
    assert [s.within_index for s in a.steps] == [s.within_index for s in b.steps]
    assert [s.decision_point for s in a.steps] == [s.decision_point for s in b.steps]


class TestScalarVectorizedEquivalence:
    def test_teacher_forced_matches_oracle(self, llm, instances):
        for instance in instances:
            oracle = llm.teacher_forced_trace_scalar(instance)
            fast = llm.teacher_forced_trace(instance)
            assert_same_symbols(oracle, fast)
            assert_traces_equal(oracle, fast)
            assert fast.hidden_stack is not None

    def test_free_generation_matches_oracle(self, llm, instances):
        for instance in instances:
            oracle = llm.generate_scalar(instance)
            fast = llm.generate(instance)
            assert_same_symbols(oracle, fast)
            assert_traces_equal(oracle, fast)

    def test_incremental_session_matches_oracle(self, llm, instances):
        """The inference-time session (retained streams) is the third
        bit-identical path."""
        for instance in instances:
            session = llm.start_session(instance)
            session.run_teacher_forced()
            assert_traces_equal(
                llm.teacher_forced_trace_scalar(instance), session.trace()
            )

    def test_step_hidden_are_views_of_the_columnar_stack(self, llm, instances):
        trace = llm.teacher_forced_trace(instances[0])
        for i, step in enumerate(trace.steps):
            assert step.hidden.base is trace.hidden_stack
            assert np.array_equal(step.hidden, trace.hidden_stack[i])


class TestBatchApisMatchScalar:
    def test_hidden_and_probs_rowwise(self):
        synth = HiddenStateSynthesizer(seed=9)
        tokens = ["races", ",", "driver", "s", "<eos>", "driver"]
        prevs = ["<bos>", "races", ",", "driver", "s", "<eos>"]
        items = [1, 1, 2, 2, 2, 3]
        within = [0, 0, 0, 1, 0, 0]
        labels = [False, True, False, False, True, False]
        decisions = [True, True, True, False, True, True]
        batch = synth.hidden_states_batch(
            "i/batch", tokens, prevs, items, within, labels, decisions, 0.3
        )
        probs = synth.max_probs_batch("i/batch", labels)
        strengths = synth.signal_strengths_batch(
            "i/batch", labels, decisions, items, 0.3
        )
        for p in range(len(tokens)):
            row = synth.hidden_states(
                "i/batch",
                p,
                tokens[p],
                prevs[p],
                items[p],
                within[p],
                labels[p],
                decision_point=decisions[p],
                nervousness=0.3,
            )
            assert np.array_equal(batch[p], row)
            assert probs[p] == synth.max_prob("i/batch", p, labels[p])
            assert strengths[p] == synth.signal_strength(
                "i/batch", p, labels[p], decisions[p], 0.3, item_index=items[p]
            )

    def test_features_batch_shape_and_position_default(self):
        synth = HiddenStateSynthesizer(seed=9)
        phi = synth.features_batch("i/phi", ["a", "b"], ["<bos>", "a"], [1, 1], [0, 1])
        assert phi.shape == (2, synth.config.feature_dim)
        explicit = synth.features_batch(
            "i/phi", ["a", "b"], ["<bos>", "a"], [1, 1], [0, 1], positions=[0, 1]
        )
        assert np.array_equal(phi, explicit)


# -- trace-level named streams ------------------------------------------------


class TestTraceStreams:
    def test_prefix_extension_matches_one_shot(self):
        cfg = HiddenConfig()
        grown = TraceStreams(5, "stream/i", cfg)
        for n in (1, 2, 3, 5, 11, 24):
            grown.noise(n)
            grown.signal_z(n)
            grown.signal_u(n)
            grown.prob_correct(n)
            grown.prob_branch(n)
        fresh = TraceStreams(5, "stream/i", cfg)
        for name in ("noise", "signal_z", "signal_u", "prob_correct", "prob_branch"):
            assert np.array_equal(
                getattr(grown, name)(24), getattr(fresh, name)(24)
            ), name

    def test_streams_are_spawn_named(self):
        cfg = HiddenConfig()
        streams = TraceStreams(5, "stream/j", cfg)
        expected = spawn(5, "noise", "stream/j").normal(
            size=(4, cfg.n_layers, cfg.dim)
        )
        assert np.array_equal(streams.noise(4), expected)
        assert np.array_equal(
            streams.signal_z(6), spawn(5, "signal", "stream/j", "z").normal(size=6)
        )

    def test_cross_process_determinism(self):
        code = (
            "import hashlib, numpy as np\n"
            "from repro.llm.hidden import HiddenConfig, TraceStreams\n"
            "s = TraceStreams(7, 'xproc/instance', HiddenConfig())\n"
            "h = hashlib.blake2b(digest_size=16)\n"
            "for arr in (s.noise(9), s.signal_z(9), s.signal_u(9),\n"
            "            s.prob_correct(9), s.prob_branch(9)):\n"
            "    h.update(np.ascontiguousarray(arr).tobytes())\n"
            "print(h.hexdigest())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.llm.hidden.__file__).parents[2])
        child = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        import hashlib

        streams = TraceStreams(7, "xproc/instance", HiddenConfig())
        digest = hashlib.blake2b(digest_size=16)
        for arr in (
            streams.noise(9),
            streams.signal_z(9),
            streams.signal_u(9),
            streams.prob_correct(9),
            streams.prob_branch(9),
        ):
            digest.update(np.ascontiguousarray(arr).tobytes())
        assert child.stdout.strip() == digest.hexdigest()


# -- the hidden-v2 cache-namespace bump ----------------------------------------


class TestNamespaceBump:
    def test_identity_carries_simulator_version(self):
        llm = TransparentLLM(seed=11)
        assert SimulatorBackend(llm).identity() == (
            SIMULATOR_VERSION,
            llm.config,
            llm.seed,
        )
        assert SIMULATOR_VERSION == "hidden-v2"

    def test_v2_namespace_differs_from_preversioned(self):
        llm = TransparentLLM(seed=11)
        v2 = generation_namespace(*SimulatorBackend(llm).identity())
        v1 = generation_namespace(llm.config, llm.seed)
        assert v2 != v1

    def test_v2_store_never_reads_v1_entries(self, tmp_path):
        llm = TransparentLLM(seed=11)
        v1 = generation_namespace(llm.config, llm.seed)
        v2 = generation_namespace(*SimulatorBackend(llm).identity())
        key = ("free", "shared-key")
        old = PersistentGenerationCache(tmp_path, namespace=v1)
        old.admit(key, make_trace("v1"), miss=True)
        old.close()
        new = PersistentGenerationCache(tmp_path, namespace=v2)
        record, _tier = new.probe_disk(new.address(key))
        assert record is None  # same key, disjoint namespaces
        new.close()

    def test_service_build_lands_in_versioned_namespace(self, tmp_path):
        llm = TransparentLLM(seed=11)
        service = GenerationService.build(llm, cache_dir=tmp_path)
        assert service.cache.namespace == generation_namespace(
            SIMULATOR_VERSION, llm.config, llm.seed
        )
        assert service.namespace() == service.cache.namespace


# -- columnar trace records ----------------------------------------------------


class TestColumnarRecords:
    def test_fast_trace_roundtrips_columnar(self, llm, instances, tmp_path):
        trace = llm.teacher_forced_trace(instances[0])
        (back,) = spill_and_reload(tmp_path, [trace])
        (segment,) = (tmp_path / "ns").glob("*.jsonl")
        record = json.loads(segment.read_text())["v"]
        assert "bin" in record["hidden"]  # one block for the whole trace...
        assert all("hidden" not in step for step in record["steps"])  # ...not per step
        assert_traces_equal(trace, back)
        assert np.array_equal(back.hidden_stack, trace.hidden_matrix())

    def test_stepwise_trace_roundtrips(self, tmp_path):
        trace = make_trace("columnar", n_steps=3)
        assert trace.hidden_stack is None
        (back,) = spill_and_reload(tmp_path, [trace])
        assert_traces_equal(trace, back)
        assert np.array_equal(back.hidden_stack, trace.hidden_matrix())


# -- dataset assembly ----------------------------------------------------------


class TestBranchDatasetVectorized:
    def test_collect_matches_stepwise_assembly(self, llm, instances):
        traces = [llm.teacher_forced_trace(i) for i in instances]
        dataset = collect_branch_dataset(llm, instances, traces=traces)
        stacked = np.stack(
            [step.hidden for trace in traces for step in trace.steps]
        )
        labels = [
            step.proposed != step.committed
            for trace in traces
            for step in trace.steps
        ]
        assert np.array_equal(dataset.hidden, stacked)
        assert dataset.labels.tolist() == labels
        assert dataset.n_tokens == len(labels)

    def _dataset(self):
        rng = np.random.default_rng(3)
        groups = np.repeat(np.arange(7), [3, 1, 4, 2, 5, 1, 2])
        return BranchDataset(
            hidden=rng.normal(size=(len(groups), 2, 3)),
            labels=rng.random(len(groups)) < 0.4,
            groups=groups,
            instance_ids=[f"i{g}" for g in range(7)],
        )

    def test_branching_counts_match_naive_loop(self):
        dataset = self._dataset()
        naive = [
            int(dataset.labels[dataset.groups == g].sum())
            for g in np.unique(dataset.groups)
        ]
        assert dataset.branching_counts_per_generation().tolist() == naive

    def test_split_by_group_matches_naive_membership(self):
        dataset = self._dataset()
        first, second = dataset.split_by_group(0.5, np.random.default_rng(0))
        # Same permutation replayed through the naive membership test.
        unique = np.unique(dataset.groups)
        perm = np.random.default_rng(0).permutation(unique)
        cut = max(1, int(round(0.5 * len(unique))))
        wanted = set(perm[:cut].tolist())
        mask = np.array([g in wanted for g in dataset.groups])
        assert np.array_equal(first.groups, dataset.groups[mask])
        assert np.array_equal(second.groups, dataset.groups[~mask])
        assert first.n_tokens + second.n_tokens == dataset.n_tokens


# -- session bookkeeping -------------------------------------------------------


class TestSessionBookkeeping:
    def test_item_index_matches_full_prefix_detokenize(self, llm, instances):
        for instance in instances[:6]:
            trace = llm.teacher_forced_trace(instance)
            committed: list[str] = []
            for step in trace.steps:
                assert step.item_index == len(detokenize(committed))
                committed.append(step.committed)

    def test_item_index_property_tracks_decoded_items(self, llm):
        db = make_racing_db()
        instance = make_instance(db, ("races", "drivers"), instance_id="ii/table")
        session = llm.start_session(instance)
        while not session.done:
            assert session.item_index == len(session.decoded_items())
            session.commit()
        assert session.item_index == len(session.decoded_items())


# -- bounded caches ------------------------------------------------------------


class TestBoundedCaches:
    def test_embed_cache_bounded_with_counters(self):
        synth = HiddenStateSynthesizer(seed=3)
        synth.embed_cache_cap = 8
        for i in range(20):
            synth._embed("tok", f"t{i}", 4)
        stats = synth.embed_cache_stats
        assert stats["size"] <= 8
        assert stats["cap"] == 8
        assert stats["misses"] == 20
        assert stats["hits"] == 0
        synth._embed("tok", "t19", 4)  # most recent entry: a hit
        assert synth.embed_cache_stats["hits"] == 1
        # An evicted entry is recomputed bit-identically.
        again = synth._embed("tok", "t0", 4)
        fresh = spawn(3, "embed", "tok", "t0").normal(0.0, 1.0, size=4)
        assert np.array_equal(again, fresh)

    def test_plan_memo_bounded_and_value_stable(self, bird_tiny):
        llm = TransparentLLM(seed=11)
        llm.plan_cache_cap = 4
        instances = [
            RTSPipeline.instance_for(e, bird_tiny, "table")
            for e in bird_tiny.dev.examples[:8]
        ]
        plans = [llm.plan(i) for i in instances]
        assert len(llm._plan_cache) <= 4
        for instance, plan in zip(instances, plans):
            assert llm.plan(instance) == plan  # evicted plans re-plan identically
        memo = llm.plan(instances[-1])
        assert memo == llm.plan(instances[-1])
        assert memo is not llm.plan(instances[-1])  # callers get copies
