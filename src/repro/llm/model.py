"""The TransparentLLM simulator and its token-by-token generation session.

The session realizes the paper's generation protocol exactly:

* constrained decoding — proposals always extend a valid candidate item;
* branching points — the first token where the proposal diverges from the
  gold stream (while the committed prefix is still gold-aligned);
* teacher forcing — ``force_token`` replaces a branching proposal with
  the gold token, the causal error event is consumed, and the plan
  re-aligns so generation continues (possibly to err again at a later
  slot, yielding the multi-branching-point generations of Figure 3b);
* free running — committing a branching proposal lets the generation
  walk off the gold path (what an unprotected linker does).

Trace synthesis is two-phase (``hidden-v2``). The **symbolic phase**
walks the error plan and emits the token stream, branching labels,
forced flags and per-token ``(item_index, within_index,
decision_point)`` metadata — pure Python control flow, no numpy. The
**vectorized observable phase** then synthesizes every hidden state and
softmax probability for the whole trace in one shot through the
:class:`~repro.llm.hidden.HiddenStateSynthesizer` batch APIs, storing
hidden states columnar (one ``(n, n_layers, dim)`` tensor; the per-step
``hidden`` attributes are views into it). ``TransparentLLM.generate``
and ``teacher_forced_trace`` take this fast path; the incremental
:class:`GenerationSession` (used by the inference-time pipeline, which
must read observables before deciding to commit) computes the same
values token by token from the same trace-level streams and doubles as
the bit-exact reference oracle (``generate_scalar`` /
``teacher_forced_trace_scalar``).

Consumers read tokens, hidden states and softmax probabilities; the
internal error plan is never exposed to inference-time components.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from repro.linking.instance import SchemaLinkingInstance
from repro.llm.errors import (
    ErrorEvent,
    ErrorModelConfig,
    INSERT,
    OMIT,
    error_propensity,
    plan_errors,
)
from repro.llm.hidden import (
    SIMULATOR_VERSION,
    HiddenConfig,
    HiddenStateSynthesizer,
)
from repro.llm.tokenizer import EOS, SEP, detokenize, tokenize_identifier, tokenize_items
from repro.llm.trie import ItemTrie
from repro.utils.rng import stable_hash

__all__ = [
    "SIMULATOR_VERSION",
    "LLMConfig",
    "GenerationStep",
    "GenerationTrace",
    "GenerationSession",
    "TransparentLLM",
]


@dataclass(frozen=True)
class LLMConfig:
    """Simulated model configuration."""

    name: str = "sim-deepseek-7b"
    hidden: HiddenConfig = field(default_factory=HiddenConfig)
    errors: ErrorModelConfig = field(default_factory=ErrorModelConfig)


@dataclass
class GenerationStep:
    """One decoding step: the proposal plus its observables.

    ``is_branching`` is ground truth derived from gold comparison; it is
    recorded for label construction (D_branch) and evaluation, and must
    not be read by inference-time components (the probes exist precisely
    to predict it from ``hidden``).

    ``hidden`` is ``None`` only transiently, on steps of a
    deferred-observable (symbolic-phase) session that has not been
    finalized yet; every trace returned by a public API has it filled.
    """

    position: int
    proposed: str
    hidden: "np.ndarray | None"
    max_prob: float
    item_index: int
    within_index: int
    is_branching: bool
    committed: "str | None" = None
    forced: bool = False
    decision_point: bool = True


@dataclass
class GenerationTrace:
    """A finished (or aborted) generation.

    ``hidden_stack`` is the columnar ``(n_steps, n_layers, dim)`` hidden
    tensor when the trace came off the vectorized fast path (each
    ``step.hidden`` is a view of one row); traces assembled step-by-step
    leave it ``None`` and :meth:`hidden_matrix` stacks on demand.

    This is also the wire format: a trace with a stack pickles it once,
    its steps travel without ``hidden``, and loading rebuilds each
    ``step.hidden`` as a view of row ``i`` again. Stack-less and empty
    traces pickle their fields as they are.
    """

    instance_id: str
    steps: list[GenerationStep]
    aborted: bool = False
    hidden_stack: "np.ndarray | None" = None

    @property
    def committed_tokens(self) -> tuple[str, ...]:
        return tuple(s.committed for s in self.steps if s.committed is not None)

    @property
    def items(self) -> tuple[str, ...]:
        return tuple(detokenize(self.committed_tokens))

    @property
    def n_branching(self) -> int:
        return sum(1 for s in self.steps if s.is_branching)

    def hidden_matrix(self) -> np.ndarray:
        """Stack of hidden states, shape (n_steps, n_layers, dim)."""
        if self.hidden_stack is not None:
            return self.hidden_stack
        if not self.steps:
            return np.zeros((0, 0, 0))
        return np.stack([s.hidden for s in self.steps])

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        if self.hidden_stack is not None and len(self.hidden_stack) == len(self.steps):
            state["steps"] = [replace(step, hidden=None) for step in self.steps]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        stack = self.hidden_stack
        if stack is not None and len(stack) == len(self.steps):
            for step, row in zip(self.steps, stack):
                step.hidden = row

    def max_probs(self) -> np.ndarray:
        return np.array([s.max_prob for s in self.steps], dtype=float)

    def branching_labels(self) -> np.ndarray:
        return np.array([s.is_branching for s in self.steps], dtype=bool)


@dataclass
class _PlannedItem:
    name: str
    tokens: tuple[str, ...]
    slot: int
    event: "ErrorEvent | None"


class GenerationSession:
    """Stateful token-by-token generation for one linking instance.

    With ``observables=True`` (the default, what the inference-time
    pipeline needs) every proposal carries its hidden states and softmax
    probability, computed incrementally from one set of trace-level
    streams held by the session. With ``observables=False`` the session
    is the pure symbolic phase: the walk touches no numpy at all and
    :meth:`TransparentLLM._finalize_trace` fills all observables in one
    vectorized pass afterwards. ``stream_reuse=False`` is the reference
    oracle: every token's observables are evaluated independently
    through the per-token synthesizer API (fresh streams per call) —
    the pure-function definition the other two modes must reproduce
    bit-exactly, at per-token scalar cost.
    """

    def __init__(
        self,
        llm: "TransparentLLM",
        instance: SchemaLinkingInstance,
        events: "list[ErrorEvent] | None" = None,
        observables: bool = True,
        stream_reuse: bool = True,
    ):
        self.llm = llm
        self.instance = instance
        self._trie: "ItemTrie | None" = None
        self._gold_items = instance.gold_items
        self._gold_stream = tokenize_items(instance.gold_items)
        self._gold_tags = self._annotate_gold()
        self._events: dict[int, ErrorEvent] = {
            e.slot: e for e in (events if events is not None else [])
        }
        self._consumed: set[int] = set()
        self._queue: deque[_PlannedItem] = deque(self._plan(0))
        self._need_sep = False
        self._within = 0
        self._last_popped_event: "ErrorEvent | None" = None
        self._aligned = True
        self.steps: list[GenerationStep] = []
        self._n_committed = 0
        # Incremental decoded-item tracking: committing a full-prefix
        # detokenize per proposal made long sessions O(n²).
        self._item_index = 0
        self._item_open = False
        self._pending: "GenerationStep | None" = None
        self.done = False
        self.aborted = False
        self.observables = observables
        self._streams = (
            llm.hidden.trace_streams(instance.instance_id)
            if observables and stream_reuse
            else None
        )
        # The model's instance-level "nervousness" drives the rate of
        # spurious uncertainty signals at decision points (see hidden.py).
        self.nervousness = error_propensity(
            instance.features, instance.task, instance.difficulty, llm.config.errors
        )

    @property
    def trie(self) -> ItemTrie:
        """The constrained-decoding trie over the candidate items.

        Built lazily: the generation walk itself proposes only planned
        (always trie-valid) tokens, so sessions that are never asked for
        the trie skip its construction cost entirely.
        """
        if self._trie is None:
            self._trie = ItemTrie(self.instance.candidates)
        return self._trie

    # -- planning -------------------------------------------------------------

    def _annotate_gold(self) -> list[tuple]:
        """Tag each gold-stream position: (kind, gold item index, offset)."""
        tags: list[tuple] = []
        for g, item in enumerate(self._gold_items):
            if g:
                tags.append(("sep", g, 0))
            for o, _tok in enumerate(tokenize_identifier(item)):
                tags.append(("item", g, o))
        tags.append(("eos", len(self._gold_items), 0))
        return tags

    def _plan(self, start_slot: int) -> list[_PlannedItem]:
        """Planned items for gold slots >= start_slot with live events."""
        out: list[_PlannedItem] = []
        n = len(self._gold_items)
        for slot in range(start_slot, n):
            event = self._events.get(slot)
            if event is not None and slot in self._consumed:
                event = None
            gold = self._gold_items[slot]
            if event is None:
                out.append(_PlannedItem(gold, tokenize_identifier(gold), slot, None))
            elif event.kind == OMIT:
                continue
            elif event.kind == INSERT:
                out.append(
                    _PlannedItem(
                        event.payload, tokenize_identifier(event.payload), slot, event
                    )
                )
                out.append(_PlannedItem(gold, tokenize_identifier(gold), slot, None))
            else:  # substitute
                out.append(
                    _PlannedItem(
                        event.payload, tokenize_identifier(event.payload), slot, event
                    )
                )
        eos_event = self._events.get(n)
        if eos_event is not None and n not in self._consumed and start_slot <= n:
            out.append(
                _PlannedItem(
                    eos_event.payload,
                    tokenize_identifier(eos_event.payload),
                    n,
                    eos_event,
                )
            )
        return out

    # -- observables -------------------------------------------------------------

    @property
    def n_committed(self) -> int:
        return self._n_committed

    @property
    def committed_tokens(self) -> tuple[str, ...]:
        return tuple(s.committed for s in self.steps if s.committed is not None)

    @property
    def aligned(self) -> bool:
        """Whether the committed prefix still equals the gold prefix."""
        return self._aligned

    def decoded_items(self) -> list[str]:
        return detokenize(self.committed_tokens)

    @property
    def item_index(self) -> int:
        """``len(decoded_items())``, maintained incrementally per commit."""
        return self._item_index

    # -- decoding -------------------------------------------------------------

    def _intended_token(self) -> str:
        if self._need_sep:
            return SEP
        if not self._queue:
            return EOS
        return self._queue[0].tokens[self._within]

    def propose(self) -> GenerationStep:
        """Compute (or return the cached) next proposal with observables."""
        if self.done:
            raise RuntimeError("generation already finished")
        if self._pending is not None:
            return self._pending
        token = self._intended_token()
        is_branching = (
            self._aligned
            and self._n_committed < len(self._gold_stream)
            and token != self._gold_stream[self._n_committed]
        )
        decision_point = self._need_sep or not self._queue or self._within == 0
        if self.observables:
            hidden = self.llm.hidden.hidden_states(
                self.instance.instance_id,
                self._n_committed,
                token,
                self.steps[-1].committed if self.steps else "<bos>",
                self._item_index,
                self._within,
                is_branching,
                decision_point=decision_point,
                nervousness=self.nervousness,
                streams=self._streams,
            )
            max_prob = self.llm.hidden.max_prob(
                self.instance.instance_id,
                self._n_committed,
                is_branching,
                streams=self._streams,
            )
        else:  # symbolic phase: observables are filled in one batch later
            hidden = None
            max_prob = 0.0
        step = GenerationStep(
            position=self._n_committed,
            proposed=token,
            hidden=hidden,
            max_prob=max_prob,
            item_index=self._item_index,
            within_index=self._within,
            is_branching=is_branching,
            decision_point=decision_point,
        )
        self._pending = step
        return step

    def _advance_planned(self) -> None:
        """Move the planned cursor past the token just committed."""
        if self._need_sep:
            self._need_sep = False
            return
        if not self._queue:
            self.done = True
            return
        self._within += 1
        if self._within >= len(self._queue[0].tokens):
            popped = self._queue.popleft()
            self._last_popped_event = popped.event
            self._within = 0
            self._need_sep = bool(self._queue)
        else:
            self._last_popped_event = None

    def _count_committed(self, token: str) -> None:
        """Keep ``item_index`` equal to ``len(decoded_items())``."""
        if token == SEP:
            self._item_open = False
        elif token != EOS and not self._item_open:
            self._item_index += 1
            self._item_open = True

    def commit(self) -> GenerationStep:
        """Accept the pending proposal as the model's output token."""
        step = self.propose()
        step.committed = step.proposed
        self.steps.append(step)
        self._pending = None
        if step.is_branching:
            self._aligned = False
        if self._aligned and step.committed == EOS:
            self.done = True
        self._n_committed += 1
        self._count_committed(step.committed)
        self._advance_planned()
        return step

    def force_token(self, token: str) -> GenerationStep:
        """Commit ``token`` instead of the proposal (teacher forcing).

        Only gold-aligned corrections are supported: the committed prefix
        must still match gold and ``token`` must be the next gold token.
        The error event that caused the divergence is consumed and the
        generation plan re-aligns to the gold path.
        """
        if not self._aligned:
            raise RuntimeError("cannot force after the generation diverged")
        if self._n_committed >= len(self._gold_stream):
            raise RuntimeError("gold stream exhausted")
        expected = self._gold_stream[self._n_committed]
        if token != expected:
            raise ValueError(
                f"forced token {token!r} is not the gold continuation {expected!r}"
            )
        step = self.propose()
        if not step.is_branching:
            # Proposal already agreed with gold; forcing is a plain commit.
            return self.commit()
        event = self._causal_event()
        if event is not None:
            self._consumed.add(event.slot)
        step.committed = token
        step.forced = True
        self.steps.append(step)
        self._pending = None
        self._n_committed += 1
        self._count_committed(step.committed)
        self._realign()
        return step

    def _causal_event(self) -> "ErrorEvent | None":
        """The error event responsible for the current divergence.

        Under teacher forcing, events fire (and are consumed) in slot
        order, so the cause is the earliest unconsumed event whose slot
        is at or before the gold item the divergence lands in. (Simply
        taking the current planned item's event is wrong when, e.g., an
        omission at slot 0 puts the slot-1 substitution payload at the
        head of the plan.)
        """
        _kind, g, _o = self._gold_tags[self._n_committed]
        candidates = [
            (slot, event)
            for slot, event in self._events.items()
            if slot <= g and slot not in self._consumed
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda pair: pair[0])[1]

    def _realign(self) -> None:
        """Rebuild the plan on the gold path after a forced correction."""
        self._last_popped_event = None
        kind, g, o = self._gold_tags[self._n_committed - 1]
        if kind == "eos":
            self.done = True
            self._queue = deque()
            return
        if kind == "sep":
            self._queue = deque(self._plan(g))
            self._need_sep = False
            self._within = 0
            return
        # Mid-item: continue the gold item from offset o + 1.
        gold = self._gold_items[g]
        tokens = tokenize_identifier(gold)
        if o + 1 >= len(tokens):
            self._queue = deque(self._plan(g + 1))
            self._need_sep = bool(self._queue)
            self._within = 0
        else:
            self._queue = deque([_PlannedItem(gold, tokens, g, None)])
            self._queue.extend(self._plan(g + 1))
            self._need_sep = False
            self._within = o + 1

    def peek_tokens(self, max_tokens: int = 64) -> list[str]:
        """The tokens the model intends to emit next, without committing.

        The first peeked token equals the current proposal. Used by
        Algorithm 2 (Table Trace Back), which must inspect the model's
        upcoming item before the pipeline decides whether to commit it.
        """
        queue = deque(item.tokens for item in self._queue)
        need_sep, within = self._need_sep, self._within
        out: list[str] = []
        while len(out) < max_tokens:
            if need_sep:
                out.append(SEP)
                need_sep = False
                continue
            if not queue:
                out.append(EOS)
                break
            tokens = queue[0]
            out.append(tokens[within])
            within += 1
            if within >= len(tokens):
                queue.popleft()
                within = 0
                need_sep = bool(queue)
        return out

    def abort(self) -> None:
        """Stop generating (the abstention action)."""
        self.done = True
        self.aborted = True
        self._pending = None

    def run_to_completion(self) -> None:
        """Commit proposals until EOS (free generation)."""
        while not self.done:
            self.commit()

    def run_teacher_forced(self) -> None:
        """Walk the §3.1 protocol: force every divergence back to gold."""
        while not self.done:
            step = self.propose()
            if step.is_branching:
                self.force_token(self._gold_stream[self._n_committed])
            else:
                self.commit()

    def trace(self) -> GenerationTrace:
        return GenerationTrace(
            instance_id=self.instance.instance_id,
            steps=self.steps,
            aborted=self.aborted,
        )


class TransparentLLM:
    """The simulated fine-tuned schema-linking model (see DESIGN.md §2)."""

    # Bit-level identity of trace synthesis; part of the backend
    # identity and persistent-cache namespace (see llm/hidden.py).
    version = SIMULATOR_VERSION

    # Bound on the memoized error plans (distinct generation inputs).
    # Plans are pure functions of (seed, instance), so eviction is
    # value-safe — an evicted plan is re-planned bit-identically.
    plan_cache_cap = 4096

    def __init__(self, config: "LLMConfig | None" = None, seed: int = 0):
        self.config = config or LLMConfig()
        self.seed = seed
        self.hidden = HiddenStateSynthesizer(self.config.hidden, seed)
        self._plan_cache: dict = {}

    @property
    def n_layers(self) -> int:
        return self.config.hidden.n_layers

    def plan(self, instance: SchemaLinkingInstance) -> list[ErrorEvent]:
        """The (private) error plan for an instance — used by sessions.

        Memoized (bounded, FIFO): ``RTSPipeline.link`` starts several
        sessions over the same instance (the unassisted baseline plus
        the protected pass), and planning — distractor similarity scans
        over the candidate universe — was a measurable slice of every
        generation. The key hashes the full generation input (task,
        candidates, gold), mirroring the runtime cache's instance key.
        """
        key = (
            instance.instance_id,
            stable_hash(instance.task, instance.candidates, instance.gold_items),
        )
        events = self._plan_cache.get(key)
        if events is None:
            events = plan_errors(instance, self.seed, self.config.errors)
            while len(self._plan_cache) >= self.plan_cache_cap:
                # pop with a default: concurrent sessions may race on
                # eviction (values are deterministic, so any outcome is
                # correct).
                self._plan_cache.pop(next(iter(self._plan_cache)), None)
            self._plan_cache[key] = events
        return list(events)

    def start_session(self, instance: SchemaLinkingInstance) -> GenerationSession:
        return GenerationSession(self, instance, self.plan(instance))

    # -- the vectorized two-phase fast path ------------------------------------

    def _symbolic_session(self, instance: SchemaLinkingInstance) -> GenerationSession:
        return GenerationSession(
            self, instance, self.plan(instance), observables=False
        )

    def _finalize_trace(self, session: GenerationSession) -> GenerationTrace:
        """Phase two: batch-synthesize observables for a symbolic walk."""
        steps = session.steps
        iid = session.instance.instance_id
        if not steps:
            return GenerationTrace(
                instance_id=iid,
                steps=steps,
                aborted=session.aborted,
                hidden_stack=np.zeros((0, 0, 0)),
            )
        tokens = [s.proposed for s in steps]
        prev_tokens = ["<bos>"] + [s.committed for s in steps[:-1]]
        item_indexes = [s.item_index for s in steps]
        within_indexes = [s.within_index for s in steps]
        labels = [s.is_branching for s in steps]
        decisions = [s.decision_point for s in steps]
        streams = self.hidden.trace_streams(iid)
        hidden = self.hidden.hidden_states_batch(
            iid,
            tokens,
            prev_tokens,
            item_indexes,
            within_indexes,
            labels,
            decisions,
            nervousness=session.nervousness,
            streams=streams,
        )
        probs = self.hidden.max_probs_batch(iid, labels, streams=streams)
        for step, view, prob in zip(steps, hidden, probs.tolist()):
            step.hidden = view
            step.max_prob = prob
        return GenerationTrace(
            instance_id=iid,
            steps=steps,
            aborted=session.aborted,
            hidden_stack=hidden,
        )

    def generate(self, instance: SchemaLinkingInstance) -> GenerationTrace:
        """Free-running generation: what an unprotected linker outputs."""
        session = self._symbolic_session(instance)
        session.run_to_completion()
        return self._finalize_trace(session)

    def teacher_forced_trace(self, instance: SchemaLinkingInstance) -> GenerationTrace:
        """Generation under the paper's §3.1 label-collection protocol.

        Every divergence from gold is recorded as a branching point and
        corrected in place, so the trace visits the full gold stream and
        labels every token — the raw material of D_branch.
        """
        session = self._symbolic_session(instance)
        session.run_teacher_forced()
        return self._finalize_trace(session)

    # -- the scalar reference oracle -------------------------------------------

    def _scalar_session(self, instance: SchemaLinkingInstance) -> GenerationSession:
        return GenerationSession(
            self, instance, self.plan(instance), stream_reuse=False
        )

    def generate_scalar(self, instance: SchemaLinkingInstance) -> GenerationTrace:
        """Free generation with independent per-token synthesis.

        The reference oracle: every token's observables are evaluated
        through the scalar synthesizer API with fresh streams — the
        pure-function definition of the trace, at per-token cost. Both
        the vectorized :meth:`generate` and the incremental
        :meth:`start_session` walk must reproduce it bit-exactly.
        """
        session = self._scalar_session(instance)
        session.run_to_completion()
        return session.trace()

    def teacher_forced_trace_scalar(
        self, instance: SchemaLinkingInstance
    ) -> GenerationTrace:
        """Teacher forcing with independent per-token synthesis."""
        session = self._scalar_session(instance)
        session.run_teacher_forced()
        return session.trace()
