"""Database generation: from domain blueprints to populated databases.

A :class:`DatabaseFactory` samples concrete databases from
:mod:`repro.corpus.domains` blueprints — choosing a table subset, applying
a naming style (clean or dirty), and populating FK-consistent rows — and
returns :class:`PopulatedDatabase` objects ready for SQLite
materialization and question generation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.corpus.domains import ALL_DOMAINS, DomainSpec, TableSpec
from repro.corpus.values import draw_value
from repro.schema.column import Column
from repro.schema.database import Database
from repro.schema.naming import NamingStyle, rename_database
from repro.schema.table import ForeignKey, Table
from repro.utils.rng import RngFactory
from repro.utils.text import to_snake_case

__all__ = ["CorpusScale", "PopulatedDatabase", "DatabaseFactory"]


@dataclass(frozen=True)
class CorpusScale:
    """Size knobs for benchmark generation.

    The paper's benchmarks are large (Spider: 200 DBs / 8 659 train
    questions); the default experiment scale is reduced so a full
    reproduction runs in minutes on a laptop while keeping every split and
    difficulty tier populated.
    """

    n_databases: int
    train_per_db: int
    dev_per_db: int
    test_per_db: int
    min_rows: int = 10
    max_rows: int = 60

    @classmethod
    def tiny(cls) -> "CorpusScale":
        """For unit tests: a handful of everything."""
        return cls(n_databases=3, train_per_db=8, dev_per_db=4, test_per_db=4,
                   min_rows=6, max_rows=16)

    @classmethod
    def small(cls) -> "CorpusScale":
        """Default experiment scale (minutes per experiment)."""
        return cls(n_databases=18, train_per_db=64, dev_per_db=14, test_per_db=14)

    @classmethod
    def medium(cls) -> "CorpusScale":
        return cls(n_databases=36, train_per_db=60, dev_per_db=18, test_per_db=18)

    @classmethod
    def paper(cls) -> "CorpusScale":
        """Approximates the real benchmark sizes (slow)."""
        return cls(n_databases=96, train_per_db=96, dev_per_db=16, test_per_db=16)

    @property
    def n_train(self) -> int:
        return self.n_databases * self.train_per_db

    @property
    def n_dev(self) -> int:
        return self.n_databases * self.dev_per_db


@dataclass
class PopulatedDatabase:
    """A schema together with its generated rows (per physical table name)."""

    schema: Database
    rows: dict[str, list[tuple]]

    @property
    def name(self) -> str:
        return self.schema.name

    def n_rows(self, table: str) -> int:
        return len(self.rows[self.schema.table(table).name])

    def column_values(self, table: str, column: str) -> list:
        """Distinct non-null values of ``table.column`` in generation order."""
        t = self.schema.table(table)
        idx = [c.name for c in t.columns].index(t.column(column).name)
        seen: set = set()
        out: list = []
        for row in self.rows[t.name]:
            v = row[idx]
            if v is None or v in seen:
                continue
            seen.add(v)
            out.append(v)
        return out


class DatabaseFactory:
    """Samples populated databases from domain blueprints."""

    def __init__(self, seed: int, style: NamingStyle, scale: CorpusScale):
        self.style = style
        self.scale = scale
        self._rngs = RngFactory(seed)

    # -- schema sampling ---------------------------------------------------

    def _instantiate_schema(
        self, spec: DomainSpec, db_name: str, rng: np.random.Generator
    ) -> Database:
        """Pick a table subset and build a snake_case schema for it."""
        chosen: list[TableSpec] = list(spec.core_tables)
        for opt in spec.optional_tables:
            if rng.random() < 0.55:
                chosen.append(opt)
        chosen_names = {to_snake_case(list(t.words)) for t in chosen}

        tables: list[Table] = []
        for tspec in chosen:
            cols = tuple(
                Column(
                    name=to_snake_case(list(cs.words)),
                    ctype=cs.ctype,
                    semantic_words=cs.words,
                    description=cs.description,
                    is_primary=cs.is_primary,
                    value_pool=cs.value_pool,
                )
                for cs in tspec.columns
            )
            fks = tuple(
                ForeignKey(
                    column=to_snake_case(col_words.split()),
                    ref_table=to_snake_case(ref_table.split()),
                    ref_column=to_snake_case(ref_col.split()),
                )
                for (col_words, ref_table, ref_col) in tspec.fks
                if to_snake_case(ref_table.split()) in chosen_names
            )
            tables.append(
                Table(
                    name=to_snake_case(list(tspec.words)),
                    columns=cols,
                    semantic_words=tspec.words,
                    description=tspec.description,
                    foreign_keys=fks,
                )
            )
        return Database(
            name=db_name,
            tables=tuple(tables),
            domain=spec.name,
            knowledge=spec.knowledge,
        )

    # -- data population ---------------------------------------------------

    @staticmethod
    def _topological_order(db: Database) -> list[Table]:
        """Parents before children so FK values exist when drawn."""
        remaining = {t.name: t for t in db.tables}
        ordered: list[Table] = []
        while remaining:
            progressed = False
            for name in list(remaining):
                table = remaining[name]
                deps = {
                    fk.ref_table
                    for fk in table.foreign_keys
                    if fk.ref_table != table.name
                }
                if all(dep not in remaining for dep in deps):
                    ordered.append(table)
                    del remaining[name]
                    progressed = True
            if not progressed:  # FK cycle: emit in declaration order
                ordered.extend(remaining.values())
                break
        return ordered

    def _populate(
        self, db: Database, rng: np.random.Generator
    ) -> dict[str, list[tuple]]:
        rows: dict[str, list[tuple]] = {}
        for table in self._topological_order(db):
            has_fk = bool(table.foreign_keys)
            lo, hi = self.scale.min_rows, self.scale.max_rows
            n = int(rng.integers(lo, hi + 1)) if has_fk else int(
                rng.integers(max(4, lo // 2), max(6, hi // 2) + 1)
            )
            fk_by_column = {fk.column: fk for fk in table.foreign_keys}
            table_rows: list[tuple] = []
            for i in range(n):
                record: list[object] = []
                for col in table.columns:
                    if col.is_primary:
                        record.append(i + 1)
                    elif col.name in fk_by_column:
                        fk = fk_by_column[col.name]
                        parent_rows = rows.get(fk.ref_table, [])
                        if not parent_rows:
                            record.append(None)
                            continue
                        parent = db.table(fk.ref_table)
                        ref_idx = [c.name for c in parent.columns].index(
                            parent.column(fk.ref_column).name
                        )
                        pick = parent_rows[int(rng.integers(0, len(parent_rows)))]
                        record.append(pick[ref_idx])
                    elif col.value_pool == "serial":
                        record.append(i + 1)
                    else:
                        record.append(draw_value(col.value_pool, rng))
                table_rows.append(tuple(record))
            rows[table.name] = table_rows
        return rows

    # -- public API ---------------------------------------------------------

    def build_database(
        self, index: int, style: "NamingStyle | None" = None
    ) -> PopulatedDatabase:
        """Build the ``index``-th database (deterministic per seed).

        ``style`` overrides the factory default — Spider-like corpora mix
        snake_case and camelCase databases.
        """
        style = style or self.style
        spec = ALL_DOMAINS[index % len(ALL_DOMAINS)]
        generation = index // len(ALL_DOMAINS)
        db_name = spec.name if generation == 0 else f"{spec.name}_{generation + 1}"
        schema_rng = self._rngs.get("schema", index)
        db = self._instantiate_schema(spec, db_name, schema_rng)
        if style is not NamingStyle.SNAKE:
            db = rename_database(db, style, self._rngs.get("naming", index))
        data_rng = self._rngs.get("data", index)
        return PopulatedDatabase(schema=db, rows=self._populate(db, data_rng))

    def build_all(self) -> list[PopulatedDatabase]:
        return [self.build_database(i) for i in range(self.scale.n_databases)]
