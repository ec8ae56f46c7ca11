"""The batched evaluation runner.

`BatchRunner` evaluates a fitted :class:`~repro.core.pipeline.RTSPipeline`
over a benchmark split, one example at a time, streams per-example
records to a :class:`~repro.runtime.artifacts.RunArtifact`
(checkpoint/resume), and aggregates TAR / FAR / abstention summaries.
Generation parallelism is the backend's business
(``BackendSpec(kind="process", workers=N)``), not the runner's.

Determinism contract: every per-example evaluation is a pure function of
(pipeline seeds, instance), and results are always assembled in input
order, so the aggregate metrics are byte-identical across generation
backends and worker counts — and across fresh and resumed runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.core.config import ABSTAIN, HUMAN
from repro.core.results import JointOutcome, LinkOutcome
from repro.linking.dataset import BranchDataset, collect_branch_dataset
from repro.runtime.artifacts import (
    RunArtifact,
    joint_outcome_from_record,
    joint_record,
    link_outcome_from_record,
    link_record,
    summarize_joint,
    summarize_link,
)
from repro.runtime.cache import CacheStats, instance_key
from repro.runtime.pool import WorkerPool
from repro.utils.rng import stable_hash

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.corpus.dataset import Benchmark, Example
    from repro.linking.instance import SchemaLinkingInstance

__all__ = ["BatchResult", "BatchRunner"]


# Per-example functions live at module level and are looked up at call
# time, so ``perfbench/launch.py`` can wrap them for per-example timings.


def _link_one(pipeline, mode, surrogate, human, instance) -> LinkOutcome:
    return pipeline.link(instance, mode=mode, surrogate=surrogate, human=human)


def _joint_one(pipeline, benchmark, mode, surrogate, human, example) -> JointOutcome:
    return pipeline.link_joint(
        example, benchmark, mode=mode, surrogate=surrogate, human=human
    )


@dataclass
class BatchResult:
    """Outcomes plus bookkeeping for one batch evaluation."""

    outcomes: list
    summary: dict
    n_resumed: int = 0
    n_evaluated: int = 0
    cache_stats: "CacheStats | None" = None  # cumulative over the LLM's lifetime
    cache_delta: "CacheStats | None" = None  # contributed by this run alone
    records: "list[dict]" = field(default_factory=list, repr=False)

    def __len__(self) -> int:
        return len(self.outcomes)


class BatchRunner:
    """Bulk evaluation of a fitted RTS pipeline over many examples."""

    def __init__(self, pipeline, artifact: "str | None" = None):
        self.pipeline = pipeline
        self.pool = WorkerPool()
        self.artifact_path = artifact

    # -- plumbing ------------------------------------------------------------

    @property
    def llm(self):
        return self.pipeline.llm

    @property
    def cache_stats(self) -> "CacheStats | None":
        """Generation-cache stats when the pipeline's LLM is caching."""
        stats = getattr(self.llm, "stats", None)
        return stats if isinstance(stats, CacheStats) else None

    def fingerprint(self, mode: str, surrogate=None, human=None) -> str:
        """The public run fingerprint (artifact keys are
        ``f"{fingerprint}:{instance_key}"``). The serving tier uses this
        to emit records byte-identical to offline artifacts."""
        return self._run_fingerprint(mode, surrogate, human)

    def _run_fingerprint(self, mode: str, surrogate, human) -> str:
        """A digest of everything outcome-affecting besides the instance.

        Artifact resume keys embed this so records computed under
        different seeds / oracle profiles are never silently reused.
        """
        identity_parts = getattr(self.pipeline, "identity_parts", None)
        if callable(identity_parts):
            identity = identity_parts()
        else:  # proxy pipelines in tests; match RTSPipeline.identity_parts
            config = getattr(self.pipeline, "config", None)
            identity = (getattr(self.llm, "seed", None), getattr(config, "seed", None))
        parts = (
            mode,
            *identity,
            getattr(surrogate, "seed", None),
            getattr(getattr(human, "profile", None), "name", None),
            getattr(human, "seed", None),
        )
        return f"{mode}@{stable_hash(*parts):08x}"

    def _artifact(self, override: "str | None") -> "RunArtifact | None":
        path = override if override is not None else self.artifact_path
        return RunArtifact(path) if path is not None else None

    def _run_keyed(
        self,
        keys: "list[str]",
        items: list,
        evaluate: Callable,
        to_record: Callable,
        from_record: Callable,
        summarize: Callable,
        artifact: "str | None",
    ) -> BatchResult:
        """The shared fan-out: resume, evaluate pending, stream, aggregate.

        Outcomes are *always* rehydrated from records (fresh and resumed
        alike), so a resumed run is bit-identical to an uninterrupted one.
        """
        stats_before = self.cache_stats
        art = self._artifact(artifact)
        existing = art.load_records() if art is not None else {}
        resumed = {k: existing[k] for k in keys if k in existing}
        pending = [(k, item) for k, item in zip(keys, items) if k not in resumed]
        records = dict(resumed)
        try:
            # imap_ordered streams: each record is appended (checkpointed)
            # as soon as its evaluation is done.
            new_outcomes = self.pool.imap_ordered(
                evaluate, [item for _, item in pending]
            )
            for (key, _item), outcome in zip(pending, new_outcomes):
                record = dict(to_record(outcome), key=key)
                if art is not None:
                    art.append(record)
                records[key] = record
            outcomes = [
                from_record(records[key], item) for key, item in zip(keys, items)
            ]
            summary = summarize(outcomes)
            stats_after = self.cache_stats
            delta = (
                stats_after - stats_before
                if stats_after is not None and stats_before is not None
                else None
            )
            if art is not None:
                art.write_summary(summary)
                if delta is not None:
                    art.write_stats(delta)
        finally:
            if art is not None:
                art.close()
        return BatchResult(
            outcomes=outcomes,
            summary=summary,
            n_resumed=len(resumed),
            n_evaluated=len(pending),
            cache_stats=stats_after,
            cache_delta=delta,
            records=[records[key] for key in keys],
        )

    # -- linking sweeps ------------------------------------------------------

    def run_link(
        self,
        instances: "list[SchemaLinkingInstance]",
        mode: str = ABSTAIN,
        surrogate=None,
        human=None,
        artifact: "str | None" = None,
    ) -> BatchResult:
        """Evaluate ``pipeline.link`` over ``instances`` (one task)."""
        fingerprint = self._run_fingerprint(mode, surrogate, human)
        return self._run_keyed(
            keys=[f"{fingerprint}:{instance_key(i)}" for i in instances],
            items=list(instances),
            evaluate=partial(_link_one, self.pipeline, mode, surrogate, human),
            to_record=link_record,
            from_record=link_outcome_from_record,
            summarize=summarize_link,
            artifact=artifact,
        )

    def run_joint(
        self,
        examples: "list[Example]",
        benchmark: "Benchmark",
        mode: str = HUMAN,
        surrogate=None,
        human=None,
        artifact: "str | None" = None,
    ) -> BatchResult:
        """Evaluate the joint table→column pipeline over ``examples``."""
        fingerprint = self._run_fingerprint(mode, surrogate, human)
        return self._run_keyed(
            keys=[f"{fingerprint}:{e.example_id}" for e in examples],
            items=list(examples),
            evaluate=partial(_joint_one, self.pipeline, benchmark, mode, surrogate, human),
            to_record=joint_record,
            from_record=lambda record, _example: joint_outcome_from_record(record),
            summarize=summarize_joint,
            artifact=artifact,
        )

    # -- trace collection ----------------------------------------------------

    def teacher_forced_traces(
        self, instances: "list[SchemaLinkingInstance]"
    ) -> "list | None":
        """Teacher-forced traces for ``instances`` as one service batch.

        The service's backend decides how the batch executes — in
        process, or on worker subprocesses — with bit-identical traces
        in input order. ``None`` for an LLM without a batch method
        (:func:`~repro.linking.dataset.collect_branch_dataset` then
        traces each instance itself).
        """
        collect = getattr(self.llm, "teacher_forced_traces", None)
        return collect(instances) if callable(collect) else None

    def branch_dataset(
        self, instances: "list[SchemaLinkingInstance]"
    ) -> BranchDataset:
        """Collect D_branch with trace generation as one service batch."""
        traces = self.teacher_forced_traces(instances)
        return collect_branch_dataset(self.llm, instances, traces=traces)
