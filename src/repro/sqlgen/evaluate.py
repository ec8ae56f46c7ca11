"""End-to-end text-to-SQL evaluation: schema provider -> generator -> EX.

A *schema provider* maps an example to the schema handed to the
generator: the golden subset (Table 1/7 upper bound), the full database
(the no-linking baseline), or the RTS-linked subset (Table 7's
RTS-Schema rows).
"""

from __future__ import annotations

from typing import Callable

from repro.corpus.dataset import Benchmark, Example
from repro.schema.database import Database
from repro.sqlengine.accuracy import ExecutionEvaluator, ExecutionReport
from repro.sqlgen.generator import SqlGenerator
from repro.sqlgen.profiles import ModelProfile

__all__ = ["SchemaProvider", "golden_schema", "full_schema", "rts_schema_provider", "evaluate_text2sql"]

SchemaProvider = Callable[[Example, Database], Database]


def golden_schema(example: Example, db: Database) -> Database:
    """Only the gold tables and columns (plus primary keys)."""
    return db.subset(
        list(example.gold_tables),
        {t: list(cols) for t, cols in example.gold_columns.items()},
    )


def full_schema(example: Example, db: Database) -> Database:
    """The entire database schema (no linking)."""
    return db


def rts_schema_provider(
    joint_outcomes: dict,
) -> SchemaProvider:
    """Schema provider backed by RTS joint linking outcomes.

    ``joint_outcomes`` maps example_id -> JointOutcome. Abstained
    examples fall back to the full schema (the deployment-sensible
    default: hand the generator everything rather than nothing).
    """

    def provide(example: Example, db: Database) -> Database:
        outcome = joint_outcomes.get(example.example_id)
        if outcome is None or outcome.tables is None:
            return db
        columns: dict[str, list[str]] = {}
        for item in outcome.columns or ():
            table, _, column = item.partition(".")
            columns.setdefault(table, []).append(column)
        return db.subset(list(outcome.tables), columns)

    return provide


def evaluate_text2sql(
    benchmark: Benchmark,
    split: str,
    provider: SchemaProvider,
    profile: ModelProfile,
    seed: int = 0,
    limit: "int | None" = None,
) -> ExecutionReport:
    """Generate SQL for every example of a split and measure EX.

    Generation and execution run serially in process. Each query is a
    pure function of (seed, profile, example), so results never depend
    on evaluation order.
    """
    generator = SqlGenerator(profile, seed=seed)
    evaluator = ExecutionEvaluator(benchmark.databases)
    examples = list(benchmark.split(split))
    if limit is not None:
        examples = examples[:limit]
    pairs = []
    for example in examples:
        provided = provider(example, benchmark.database(example.db_id).schema)
        pairs.append((example, generator.generate(example, provided)))
    report = evaluator.evaluate(pairs)
    evaluator.close()
    return report
