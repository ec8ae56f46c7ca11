"""Tests for the generation session: divergence, teacher forcing,
realignment — driven by hand-constructed error events."""

import pickle
from dataclasses import fields

import numpy as np
import pytest

from repro.llm.errors import ErrorEvent
from repro.llm.model import GenerationSession, GenerationStep, GenerationTrace, TransparentLLM
from repro.llm.tokenizer import EOS, SEP, tokenize_items

from helpers import make_instance, make_racing_db, make_trace


@pytest.fixture(scope="module")
def db():
    return make_racing_db()


def session_with(llm, db, gold, events, instance_id="s1/table"):
    instance = make_instance(db, gold, instance_id=instance_id)
    return GenerationSession(llm, instance, events)


class TestCleanGeneration:
    def test_emits_gold_stream(self, llm, db):
        s = session_with(llm, db, ("races", "drivers"), [])
        s.run_to_completion()
        assert s.committed_tokens == tokenize_items(["races", "drivers"])
        assert s.decoded_items() == ["races", "drivers"]
        assert s.trace().n_branching == 0
        assert s.aligned

    def test_steps_have_hidden_states(self, llm, db):
        s = session_with(llm, db, ("races",), [])
        s.run_to_completion()
        for step in s.steps:
            assert step.hidden.shape == (llm.n_layers, llm.config.hidden.dim)
            assert 0.0 <= step.max_prob <= 1.0

    def test_propose_is_cached_until_commit(self, llm, db):
        s = session_with(llm, db, ("races",), [])
        a = s.propose()
        b = s.propose()
        assert a is b

    def test_deterministic_traces(self, db):
        llm = TransparentLLM(seed=5)
        inst = make_instance(db, ("races",), instance_id="det/table")
        t1 = llm.generate(inst)
        t2 = llm.generate(inst)
        assert t1.committed_tokens == t2.committed_tokens
        np.testing.assert_array_equal(t1.hidden_matrix(), t2.hidden_matrix())


class TestSubstitution:
    def test_free_run_emits_distractor(self, llm, db):
        events = [ErrorEvent(0, "substitute", "pit_stops")]
        s = session_with(llm, db, ("races",), events)
        s.run_to_completion()
        assert s.decoded_items() == ["pit_stops"]
        assert s.trace().n_branching == 1  # first divergence only

    def test_teacher_forcing_repairs(self, llm, db):
        events = [ErrorEvent(0, "substitute", "pit_stops")]
        inst = make_instance(db, ("races",), instance_id="tf1/table")
        s = GenerationSession(llm, inst, events)
        gold = tokenize_items(["races"])
        while not s.done:
            step = s.propose()
            if step.is_branching:
                s.force_token(gold[s.n_committed])
            else:
                s.commit()
        assert s.decoded_items() == ["races"]
        assert sum(1 for st in s.steps if st.forced) == 1

    def test_shared_prefix_divergence_mid_item(self, llm, db):
        # lap_times vs pit_stops share nothing; use drivers vs races to
        # get immediate divergence; the mid-item case uses lap_times gold
        # and a constructed same-prefix table through the racing schema:
        # 'lap_times' vs 'lap_...': not available, so assert the general
        # invariant instead: the branching position is the first token
        # where streams differ.
        events = [ErrorEvent(0, "substitute", "lap_times")]
        s = session_with(llm, db, ("drivers",), events)
        gold = tokenize_items(["drivers"])
        step = s.propose()
        assert step.is_branching
        assert step.proposed != gold[0]


class TestOmission:
    def test_free_run_drops_item(self, llm, db):
        events = [ErrorEvent(0, "omit")]
        s = session_with(llm, db, ("races", "drivers"), events)
        s.run_to_completion()
        assert s.decoded_items() == ["drivers"]

    def test_trailing_omission_diverges_at_sep(self, llm, db):
        events = [ErrorEvent(1, "omit")]
        s = session_with(llm, db, ("races", "drivers"), events)
        # Walk until the divergence: proposal EOS where gold wants SEP.
        while True:
            step = s.propose()
            if step.is_branching:
                assert step.proposed == EOS
                break
            s.commit()

    def test_teacher_forcing_restores_omitted_item(self, llm, db):
        events = [ErrorEvent(1, "omit")]
        inst = make_instance(db, ("races", "drivers"), instance_id="om1/table")
        s = GenerationSession(llm, inst, events)
        gold = tokenize_items(["races", "drivers"])
        while not s.done:
            step = s.propose()
            if step.is_branching:
                s.force_token(gold[s.n_committed])
            else:
                s.commit()
        assert s.decoded_items() == ["races", "drivers"]


class TestInsertion:
    def test_free_run_adds_spurious_item(self, llm, db):
        events = [ErrorEvent(1, "insert", "pit_stops")]
        s = session_with(llm, db, ("races", "drivers"), events)
        s.run_to_completion()
        assert s.decoded_items() == ["races", "pit_stops", "drivers"]

    def test_insert_at_eos(self, llm, db):
        events = [ErrorEvent(1, "insert", "pit_stops")]
        s = session_with(llm, db, ("races",), events)
        s.run_to_completion()
        assert s.decoded_items() == ["races", "pit_stops"]
        # Divergence was at the SEP where gold says EOS.
        branching = [st for st in s.steps if st.is_branching]
        assert branching[0].proposed == SEP

    def test_teacher_forcing_suppresses_insert(self, llm, db):
        events = [ErrorEvent(1, "insert", "pit_stops")]
        inst = make_instance(db, ("races",), instance_id="in1/table")
        s = GenerationSession(llm, inst, events)
        gold = tokenize_items(["races"])
        while not s.done:
            step = s.propose()
            if step.is_branching:
                s.force_token(gold[s.n_committed])
            else:
                s.commit()
        assert s.decoded_items() == ["races"]


class TestMultipleEvents:
    def test_two_events_two_branchings_under_forcing(self, llm, db):
        events = [
            ErrorEvent(0, "substitute", "pit_stops"),
            ErrorEvent(2, "insert", "lap_times"),
        ]
        inst = make_instance(db, ("races", "drivers"), instance_id="m1/table")
        TransparentLLM.teacher_forced_trace.__get__(llm)(inst)  # clean llm path
        # Constructed session instead (explicit events):
        s = GenerationSession(llm, inst, events)
        gold = tokenize_items(["races", "drivers"])
        n_forced = 0
        while not s.done:
            step = s.propose()
            if step.is_branching:
                s.force_token(gold[s.n_committed])
                n_forced += 1
            else:
                s.commit()
        assert s.decoded_items() == ["races", "drivers"]
        assert n_forced == 2

    def test_branching_counts_match_events_in_forced_mode(self, llm, db):
        events = [
            ErrorEvent(0, "omit"),
            ErrorEvent(1, "substitute", "pit_stops"),
        ]
        inst = make_instance(db, ("races", "drivers"), instance_id="m2/table")
        s = GenerationSession(llm, inst, events)
        gold = tokenize_items(["races", "drivers"])
        forced = 0
        while not s.done:
            step = s.propose()
            if step.is_branching:
                s.force_token(gold[s.n_committed])
                forced += 1
            else:
                s.commit()
        assert s.decoded_items() == ["races", "drivers"]
        assert forced == 2


class TestSessionAPI:
    def test_force_requires_gold_token(self, llm, db):
        events = [ErrorEvent(0, "substitute", "pit_stops")]
        s = session_with(llm, db, ("races",), events, instance_id="api1/table")
        s.propose()
        with pytest.raises(ValueError):
            s.force_token("garbage")

    def test_force_after_divergence_rejected(self, llm, db):
        events = [ErrorEvent(0, "substitute", "pit_stops")]
        s = session_with(llm, db, ("races",), events, instance_id="api2/table")
        s.commit()  # commit the wrong token -> off the gold path
        gold = tokenize_items(["races"])
        with pytest.raises(RuntimeError):
            s.force_token(gold[1] if len(gold) > 1 else gold[0])

    def test_abort_marks_trace(self, llm, db):
        s = session_with(llm, db, ("races",), [], instance_id="api3/table")
        s.propose()
        s.abort()
        assert s.done
        assert s.trace().aborted

    def test_peek_matches_future_commits(self, llm, db):
        events = [ErrorEvent(0, "substitute", "pit_stops")]
        s = session_with(llm, db, ("races", "drivers"), events, instance_id="api4/table")
        peeked = s.peek_tokens(32)
        emitted = []
        while not s.done:
            emitted.append(s.commit().committed)
        assert peeked[: len(emitted)] == emitted

    def test_propose_after_done_raises(self, llm, db):
        s = session_with(llm, db, ("races",), [], instance_id="api5/table")
        s.run_to_completion()
        with pytest.raises(RuntimeError):
            s.propose()


class TestTeacherForcedTraceAPI:
    def test_labels_equal_proposal_vs_committed(self, llm, bird_tiny):
        from repro.core.pipeline import RTSPipeline

        for example in bird_tiny.dev.examples[:10]:
            inst = RTSPipeline.instance_for(example, bird_tiny, "table")
            trace = llm.teacher_forced_trace(inst)
            # Teacher forcing always lands on the gold stream.
            assert list(trace.items) == list(inst.gold_items)
            for step in trace.steps:
                assert step.is_branching == (step.proposed != step.committed)


def assert_bit_exact(got, want):
    """Every field equal; hidden tensors equal byte for byte."""
    assert (got.instance_id, got.aborted) == (want.instance_id, want.aborted)
    assert len(got.steps) == len(want.steps)
    for got_step, want_step in zip(got.steps, want.steps):
        for f in fields(GenerationStep):
            if f.name != "hidden":
                assert getattr(got_step, f.name) == getattr(want_step, f.name)
        assert got_step.hidden.dtype == want_step.hidden.dtype
        assert got_step.hidden.shape == want_step.hidden.shape
        assert got_step.hidden.tobytes() == want_step.hidden.tobytes()
    if want.hidden_stack is None:
        assert got.hidden_stack is None
    else:
        assert got.hidden_stack.dtype == want.hidden_stack.dtype
        assert got.hidden_stack.tobytes() == want.hidden_stack.tobytes()


class TestTraceWireFormat:
    """A trace pickles its hidden tensor once and rebuilds the per-step
    rows as views of it on load."""

    @pytest.fixture(scope="class")
    def traces(self, llm, bird_tiny):
        from repro.core.pipeline import RTSPipeline

        instances = [
            RTSPipeline.instance_for(example, bird_tiny, "table")
            for example in bird_tiny.dev.examples[:6]
        ]
        return [llm.generate(i) for i in instances] + [
            llm.teacher_forced_trace(i) for i in instances
        ]

    def test_free_and_forced_round_trip_bit_exact(self, traces):
        for trace in traces:
            assert trace.hidden_stack is not None and trace.steps
            assert_bit_exact(pickle.loads(pickle.dumps(trace)), trace)

    def test_steps_are_views_of_the_loaded_stack(self, traces):
        for trace in traces:
            loaded = pickle.loads(pickle.dumps(trace))
            for i, step in enumerate(loaded.steps):
                assert np.shares_memory(step.hidden, loaded.hidden_stack)
                assert np.array_equal(step.hidden, loaded.hidden_stack[i])

    def test_pickled_size_is_one_tensor(self, traces):
        for trace in traces:
            nbytes = trace.hidden_stack.nbytes
            assert nbytes < len(pickle.dumps(trace)) < 1.5 * nbytes

    def test_pickling_leaves_the_source_trace_intact(self, traces):
        trace = traces[0]
        pickle.dumps(trace)
        for i, step in enumerate(trace.steps):
            assert np.shares_memory(step.hidden, trace.hidden_stack)
            assert np.array_equal(step.hidden, trace.hidden_stack[i])

    def test_empty_trace_round_trips(self):
        empty = GenerationTrace("empty", [], aborted=True, hidden_stack=np.zeros((0, 0, 0)))
        loaded = pickle.loads(pickle.dumps(empty))
        assert loaded.steps == [] and loaded.aborted
        assert loaded.hidden_stack.shape == (0, 0, 0)

    def test_stackless_trace_round_trips_per_step(self):
        trace = make_trace("stackless", n_steps=3)
        loaded = pickle.loads(pickle.dumps(trace))
        assert_bit_exact(loaded, trace)
        assert all(step.hidden is not None for step in loaded.steps)
