"""The end-to-end RTS pipeline (§3).

Training: collect D_branch over the training split by teacher forcing,
train and calibrate one mBPP per task (table / column linking).

Inference: generate token by token; every proposal's hidden states pass
through the mBPP. On a detected branching point the pipeline either

* **abstains** (mBPP-Abstention, Table 5 row 1),
* consults the **surrogate filter** — halting only if it confirms the
  traced-back items are irrelevant (Table 5 row 2), or
* solicits a **human** — confirm the traced-back item and continue, or
  take the corrected item and teacher-force back onto the gold path
  (Table 6). Human misjudgments propagate: a wrong confirmation lets an
  erroneous item through, and a wrong rejection swaps a correct item for
  the human's (wrong) suggestion.
"""

from __future__ import annotations

from repro.abstention.human import HumanOracle
from repro.abstention.surrogate import SurrogateFilter
from repro.abstention.traceback import trace_back
from repro.corpus.dataset import Benchmark, Example
from repro.core.config import ABSTAIN, HUMAN, MITIGATION_MODES, RTSConfig, SURROGATE
from repro.core.results import JointOutcome, LinkOutcome
from repro.linking.dataset import BranchDataset, collect_branch_dataset
from repro.linking.instance import (
    COLUMN_TASK,
    SchemaLinkingInstance,
    TABLE_TASK,
)
from repro.llm.errors import _pick_distractor
from repro.llm.model import TransparentLLM
from repro.llm.tokenizer import tokenize_items
from repro.probes.mbpp import MultiLayerBPP
from repro.utils.rng import spawn

__all__ = ["RTSPipeline"]


class RTSPipeline:
    """Reliable Text-to-SQL schema linking with adaptive abstention."""

    def __init__(self, llm: TransparentLLM, config: "RTSConfig | None" = None):
        self.llm = llm
        self.config = config or RTSConfig()
        self._mbpps: dict[str, MultiLayerBPP] = {}
        self._branch_datasets: dict[str, BranchDataset] = {}

    # -- training -------------------------------------------------------------

    def fit_task(
        self, task: str, instances: "list[SchemaLinkingInstance]"
    ) -> "RTSPipeline":
        """Collect D_branch for ``task`` and train its mBPP.

        A service-backed LLM gets every teacher-forced trace as one
        batch, whose backend decides how it executes (in process, or on
        worker subprocesses); an LLM without a batch method is traced
        instance by instance. Training itself is serial; both paths
        yield bit-identical traces in input order.
        """
        cfg = self.config
        if cfg.train_fraction < 1.0:
            rng = spawn(cfg.seed, "train-fraction", task)
            n_keep = max(2, int(round(cfg.train_fraction * len(instances))))
            idx = rng.permutation(len(instances))[:n_keep]
            instances = [instances[int(i)] for i in sorted(idx)]
        collect = getattr(self.llm, "teacher_forced_traces", None)
        traces = collect(instances) if callable(collect) else None
        dataset = collect_branch_dataset(self.llm, instances, traces=traces)
        self._branch_datasets[task] = dataset
        self._mbpps[task] = MultiLayerBPP.train(
            dataset,
            alpha=cfg.alpha,
            k=cfg.k,
            calib_fraction=cfg.calib_fraction,
            mondrian=cfg.mondrian,
            conformal_mode=cfg.conformal_mode,
            method=cfg.aggregation,
            mlp_config=cfg.mlp,
            seed=spawn(cfg.seed, "mbpp", task).integers(2**31),
        )
        return self

    def fit_benchmark(
        self,
        benchmark: Benchmark,
        tasks: "tuple[str, ...]" = (TABLE_TASK, COLUMN_TASK),
    ) -> "RTSPipeline":
        """Convenience: fit per-task mBPPs from a benchmark's train split."""
        for task in tasks:
            instances = [
                self.instance_for(example, benchmark, task)
                for example in benchmark.train
            ]
            self.fit_task(task, instances)
        return self

    def identity_parts(self) -> tuple:
        """Everything outcome-affecting about this pipeline besides inputs.

        Embedded in artifact resume keys and sweep fingerprints so
        records computed under a differently seeded LLM or RTS config
        are never silently reused across runs.
        """
        return (getattr(self.llm, "seed", None), self.config.seed)

    def batch(self, artifact=None):
        """A :class:`~repro.runtime.runner.BatchRunner` over this pipeline.

        All bulk evaluation (experiment tables, figures, sweeps, the
        ``repro-run`` / ``repro-sweep`` CLIs) goes through the returned
        runner rather than hand-rolled per-example loops.
        """
        from repro.runtime.runner import BatchRunner  # local: avoids cycle

        return BatchRunner(self, artifact=artifact)

    @staticmethod
    def instance_for(
        example: Example, benchmark: Benchmark, task: str
    ) -> SchemaLinkingInstance:
        db = benchmark.database(example.db_id).schema
        if task == TABLE_TASK:
            return SchemaLinkingInstance.for_tables(example, db)
        return SchemaLinkingInstance.for_columns(example, db)

    def mbpp(self, task: str) -> MultiLayerBPP:
        try:
            return self._mbpps[task]
        except KeyError:
            raise RuntimeError(f"pipeline not fitted for task {task!r}") from None

    def branch_dataset(self, task: str) -> BranchDataset:
        try:
            return self._branch_datasets[task]
        except KeyError:
            raise RuntimeError(f"pipeline not fitted for task {task!r}") from None

    # -- inference -----------------------------------------------------------

    def link(
        self,
        instance: SchemaLinkingInstance,
        mode: str = ABSTAIN,
        surrogate: "SurrogateFilter | None" = None,
        human: "HumanOracle | None" = None,
    ) -> LinkOutcome:
        """Link one instance under the chosen mitigation mode."""
        if mode not in MITIGATION_MODES:
            raise ValueError(f"unknown mitigation mode {mode!r}")
        if mode == SURROGATE and surrogate is None:
            raise ValueError("surrogate mode needs a SurrogateFilter")
        if mode == HUMAN and human is None:
            raise ValueError("human mode needs a HumanOracle")
        mbpp = self.mbpp(instance.task)
        unassisted = self.llm.generate(instance).items
        session = self.llm.start_session(instance)
        gold_stream = tokenize_items(instance.gold_items)
        gold_set = {g.lower() for g in instance.gold_items}
        flags = interventions = questions = 0
        swaps: list[tuple[str, str]] = []

        while not session.done:
            step = session.propose()
            flagged = mbpp.is_branching(
                step.hidden, key=(instance.instance_id, step.position)
            )
            if not flagged:
                session.commit()
                continue
            flags += 1
            if mode == ABSTAIN:
                session.abort()
                break
            if mode == SURROGATE:
                result = trace_back(session)
                if surrogate.judge(instance, result.items):
                    session.commit()  # surrogate vetoed the abstention
                    continue
                session.abort()
                break
            # HUMAN mode: Algorithm 2 -> targeted question -> repair.
            result = trace_back(session)
            questions += 1
            says_relevant = human.confirm_relevance(instance, result.items, questions)
            if says_relevant:
                session.commit()
                continue
            truly_relevant = bool(result.items) and all(
                item.lower() in gold_set for item in result.items
            )
            interventions += 1
            if truly_relevant:
                # Misjudged rejection of a correct item: the human's
                # replacement suggestion is wrong — apply it to the final
                # prediction set, but let generation continue.
                wrong = _pick_distractor(
                    instance,
                    result.items[0],
                    set(swaps_taken(swaps)),
                    spawn(self.config.seed, "human-wrong", instance.instance_id, questions),
                )
                if wrong is not None:
                    swaps.append((result.items[0], wrong))
                session.commit()
                continue
            if session.aligned and session.n_committed < len(gold_stream):
                session.force_token(gold_stream[session.n_committed])
                continue
            session.commit()  # already off the gold path; nothing to repair

        if session.aborted:
            predicted: "tuple[str, ...] | None" = None
        else:
            items = list(session.trace().items)
            for correct_item, wrong_item in swaps:
                items = [wrong_item if i == correct_item else i for i in items]
            predicted = tuple(items)
        return LinkOutcome(
            instance=instance,
            predicted=predicted,
            unassisted=unassisted,
            abstained=session.aborted,
            flags=flags,
            interventions=interventions,
            questions_asked=questions,
            swaps=swaps,
        )

    # -- joint table -> column pipeline ----------------------------------------

    def link_joint(
        self,
        example: Example,
        benchmark: Benchmark,
        mode: str = HUMAN,
        surrogate: "SurrogateFilter | None" = None,
        human: "HumanOracle | None" = None,
    ) -> JointOutcome:
        """Tables first, then columns restricted to the predicted tables."""
        db = benchmark.database(example.db_id).schema
        gold_columns = tuple(
            f"{t}.{c}" for t, cols in example.gold_columns.items() for c in cols
        )
        table_instance = SchemaLinkingInstance.for_tables(example, db)
        table_outcome = self.link(table_instance, mode, surrogate, human)

        # Unassisted joint baseline for TAR/FAR accounting.
        free_tables = table_outcome.unassisted
        free_column_instance = SchemaLinkingInstance.for_columns(
            example, db, restrict_tables=free_tables
        )
        free_columns = self.llm.generate(free_column_instance).items
        unassisted_tables_ok = table_outcome.unassisted_correct
        unassisted_columns_ok = {c.lower() for c in free_columns} == {
            c.lower() for c in gold_columns
        }

        if table_outcome.abstained or table_outcome.predicted is None:
            return JointOutcome(
                example_id=example.example_id,
                tables=None,
                columns=None,
                gold_tables=example.gold_tables,
                gold_columns=gold_columns,
                abstained=True,
                signalled=True,
                unassisted_tables_correct=unassisted_tables_ok,
                unassisted_columns_correct=unassisted_columns_ok,
            )
        column_instance = SchemaLinkingInstance.for_columns(
            example, db, restrict_tables=table_outcome.predicted
        )
        column_outcome = self.link(column_instance, mode, surrogate, human)
        abstained = column_outcome.abstained
        return JointOutcome(
            example_id=example.example_id,
            tables=table_outcome.predicted,
            columns=column_outcome.predicted,
            gold_tables=example.gold_tables,
            gold_columns=gold_columns,
            abstained=abstained,
            signalled=table_outcome.signalled or column_outcome.signalled,
            unassisted_tables_correct=unassisted_tables_ok,
            unassisted_columns_correct=unassisted_columns_ok,
        )


def swaps_taken(swaps: "list[tuple[str, str]]") -> set[str]:
    """Items already used as human-suggested replacements."""
    return {wrong for _correct, wrong in swaps}
