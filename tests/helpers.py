"""Importable test helpers: hand-built schemas and instances.

These used to live in ``tests/conftest.py``, but test modules importing
them via ``from conftest import ...`` resolved *whichever* conftest got
onto ``sys.path`` first — ``benchmarks/conftest.py`` when both trees
were collected — and collection exploded. A plainly-named module keeps
the import unambiguous; ``conftest.py`` re-exports the same builders as
fixtures.
"""

from __future__ import annotations

from repro.corpus.dataset import InstanceFeatures
from repro.linking.instance import SchemaLinkingInstance
from repro.schema.column import Column, ColumnType
from repro.schema.database import Database
from repro.schema.table import ForeignKey, Table

__all__ = [
    "make_column",
    "make_racing_db",
    "make_instance",
    "make_trace",
    "assert_traces_equal",
    "spill_and_reload",
]


def make_column(name: str, ctype=ColumnType.INTEGER, pk=False, words=None, pool="generic"):
    return Column(
        name=name,
        ctype=ctype,
        semantic_words=tuple(words or name.split("_")),
        is_primary=pk,
        value_pool=pool,
    )


def make_racing_db() -> Database:
    """A hand-built 4-table schema used across LLM/session tests."""
    races = Table(
        name="races",
        semantic_words=("races",),
        columns=(
            make_column("race_id", pk=True, pool="serial"),
            make_column("race_name", ColumnType.TEXT, words=["race", "name"], pool="word"),
            make_column("season_year", pool="year:2000..2020"),
        ),
    )
    drivers = Table(
        name="drivers",
        semantic_words=("drivers",),
        columns=(
            make_column("driver_id", pk=True, pool="serial"),
            make_column("surname", ColumnType.TEXT, words=["surname"], pool="person_last"),
        ),
    )
    lap_times = Table(
        name="lap_times",
        semantic_words=("lap", "times"),
        columns=(
            make_column("lap_id", pk=True, pool="serial"),
            make_column("race_id", pool="serial"),
            make_column("driver_id", pool="serial"),
            make_column("lap_milliseconds", words=["lap", "milliseconds"], pool="int:60000..120000"),
        ),
        foreign_keys=(
            ForeignKey("race_id", "races", "race_id"),
            ForeignKey("driver_id", "drivers", "driver_id"),
        ),
    )
    pit_stops = Table(
        name="pit_stops",
        semantic_words=("pit", "stops"),
        columns=(
            make_column("stop_id", pk=True, pool="serial"),
            make_column("race_id", pool="serial"),
            make_column("stop_milliseconds", words=["stop", "milliseconds"], pool="int:19000..40000"),
        ),
        foreign_keys=(ForeignKey("race_id", "races", "race_id"),),
    )
    return Database(name="racing_test", tables=(races, drivers, lap_times, pit_stops))


def make_instance(
    db: Database,
    gold: tuple[str, ...],
    task: str = "table",
    instance_id: str = "t1/table",
    difficulty: str = "simple",
) -> SchemaLinkingInstance:
    features = InstanceFeatures(
        table_ambiguity=0.0,
        column_ambiguity=0.0,
        dirty_gap=0.0,
        needs_knowledge=False,
        n_tables=len(db.tables),
        n_gold_tables=len(gold),
        n_gold_columns=2,
    )
    return SchemaLinkingInstance(
        instance_id=instance_id,
        db=db,
        question="test question",
        features=features,
        task=task,
        candidates=tuple(t.name for t in db.tables) if task == "table" else gold,
        gold_items=gold,
        difficulty=difficulty,
    )


# -- synthetic generation traces (persist/service tests) ----------------------


def make_trace(tag: str, n_steps: int = 2):
    """A tiny synthetic trace; values vary with ``tag`` but are exact."""
    import numpy as np

    from repro.llm.model import GenerationStep, GenerationTrace

    rng = np.random.default_rng(abs(hash(tag)) % (2**32))
    return GenerationTrace(
        instance_id=f"inst-{tag}",
        steps=[
            GenerationStep(
                position=i,
                proposed=f"tok-{tag}-{i}",
                hidden=rng.standard_normal((3, 4)),
                max_prob=float(rng.random()),
                item_index=i,
                within_index=0,
                is_branching=bool(i % 2),
                committed=f"tok-{tag}-{i}" if i % 2 == 0 else None,
                forced=False,
            )
            for i in range(n_steps)
        ],
        aborted=False,
    )


def assert_traces_equal(a, b) -> None:
    """Bit-exact trace equality (hidden states compared exactly)."""
    import numpy as np

    assert a.instance_id == b.instance_id
    assert a.aborted == b.aborted
    assert len(a.steps) == len(b.steps)
    for sa, sb in zip(a.steps, b.steps):
        assert sa.proposed == sb.proposed
        assert sa.committed == sb.committed
        assert sa.position == sb.position
        assert sa.max_prob == sb.max_prob  # exact, not approx
        assert sa.is_branching == sb.is_branching
        assert sa.forced == sb.forced
        assert sa.hidden.dtype == sb.hidden.dtype
        assert np.array_equal(sa.hidden, sb.hidden)


def spill_and_reload(cache_dir, traces, namespace: str = "ns") -> list:
    """Spill ``traces`` into a fresh store and read them back via a new instance.

    Every reload must be a disk hit whose hidden stack is a read-only,
    zero-copy view over the mapped ``.bin`` sidecar with each step's
    ``hidden`` a row of it; the reloaded traces are returned in order.
    """
    import numpy as np
    import pytest

    from repro.runtime.persist import PersistentGenerationCache

    writer = PersistentGenerationCache(cache_dir, namespace=namespace)
    for i, trace in enumerate(traces):
        writer.get_or_compute(("free", i), lambda t=trace: t)
    writer.close()
    reader = PersistentGenerationCache(cache_dir, namespace=namespace)
    loaded = [
        reader.get_or_compute(("free", i), lambda: pytest.fail("expected a disk hit"))
        for i in range(len(traces))
    ]
    assert reader.stats.disk_hits == len(traces) and reader.stats.misses == 0
    for trace in loaded:
        stack = trace.hidden_stack
        assert stack is not None
        assert not stack.flags.writeable and not stack.flags.owndata
        for i, step in enumerate(trace.steps):
            assert not step.hidden.flags.writeable
            assert np.shares_memory(step.hidden, stack[i])
    reader.close()
    return loaded
