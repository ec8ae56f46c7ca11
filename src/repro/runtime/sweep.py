"""Sharded sweep orchestration over the batched evaluation runtime.

The paper's headline artifacts are dense grids of repeated evaluations —
risk–coverage sweeps over (benchmark × split × task × mode × seed)
combinations. This module makes whole grids shardable, resumable and
cheap to re-run:

* :class:`SweepSpec` expands a multi-axis matrix into a deterministic,
  ordered tuple of :class:`SweepUnit` cells;
* :class:`ShardPlan` deals units round-robin onto N shards — the same
  spec always produces the same shards, so independent machines can
  each run ``repro-sweep run --shard-index i --shard-count N`` with no
  coordination;
* :class:`SweepRunner` executes one shard: every unit runs through the
  :class:`~repro.runtime.runner.BatchRunner` against a resumable
  per-unit JSONL artifact, all units share one
  :class:`~repro.runtime.persist.PersistentGenerationCache`, and the
  shard writes a manifest splitting *deterministic* unit summaries from
  *volatile* runtime bookkeeping (resume counts, cache stats);
* :func:`merge_sweep` validates complete, non-conflicting unit coverage
  across shard manifests and writes ``sweep-summary.json`` — byte
  identical no matter how the sweep was sharded — next to
  ``sweep-stats.json`` with fleet-wide aggregated cache hit rates.

Determinism contract: a unit's summary is a pure function of the spec
(seeds, scale, axes), never of shard assignment, worker count, process
boundaries or cache warmth — that is what the merge byte-identity test
and the CI ``sweep-smoke`` job pin down. The backend configuration a
shard ships with (one :class:`~repro.runtime.service.BackendSpec`,
including the ``request_timeout_s`` deadline and ``fleet_token``
worker-auth knobs) pickles to shards unchanged and never affects unit
bytes. Operator docs: ``README.md`` and ``docs/``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields
from pathlib import Path

from repro.core.config import ABSTAIN, HUMAN, MITIGATION_MODES, SURROGATE
from repro.corpus.generator import CorpusScale
from repro.runtime.artifacts import strict_jsonable
from repro.runtime.cache import CacheStats, GenerationCache
from repro.runtime.pool import THREAD
from repro.runtime.service import BackendSpec

__all__ = [
    "SCALES",
    "TASKS",
    "SweepSpec",
    "SweepUnit",
    "ShardPlan",
    "SweepRunner",
    "run_sweep",
    "merge_sweep",
    "SUMMARY_NAME",
    "STATS_NAME",
]

SCALES = {
    "tiny": CorpusScale.tiny,
    "small": CorpusScale.small,
    "medium": CorpusScale.medium,
}
TASKS = ("table", "column", "joint")
BENCHMARKS = ("bird", "spider")
SPLITS = ("train", "dev", "test")

SUMMARY_NAME = "sweep-summary.json"
STATS_NAME = "sweep-stats.json"


@dataclass(frozen=True)
class SweepUnit:
    """One cell of the sweep matrix."""

    benchmark: str
    split: str
    task: str
    mode: str
    seed: int

    @property
    def unit_id(self) -> str:
        return f"{self.benchmark}-{self.split}-{self.task}-{self.mode}-s{self.seed}"


@dataclass(frozen=True)
class SweepSpec:
    """A multi-axis evaluation matrix plus the knobs that pin it down.

    ``seeds`` are RTS pipeline seeds (probe training / calibration);
    the LLM and corpus seeds are scalar because generations are shared
    across the whole sweep through one persistent cache namespace.
    """

    benchmarks: "tuple[str, ...]" = ("bird",)
    splits: "tuple[str, ...]" = ("dev",)
    tasks: "tuple[str, ...]" = ("table",)
    modes: "tuple[str, ...]" = (ABSTAIN,)
    seeds: "tuple[int, ...]" = (3,)
    corpus_seed: int = 7
    llm_seed: int = 11
    scale: str = "small"
    limit: "int | None" = None

    def __post_init__(self):
        for axis in ("benchmarks", "splits", "tasks", "modes", "seeds"):
            value = tuple(getattr(self, axis))
            if not value:
                raise ValueError(f"sweep axis {axis!r} must be non-empty")
            object.__setattr__(self, axis, value)
        _validate_axis("benchmarks", self.benchmarks, BENCHMARKS)
        _validate_axis("splits", self.splits, SPLITS)
        _validate_axis("tasks", self.tasks, TASKS)
        _validate_axis("modes", self.modes, MITIGATION_MODES)
        if self.scale not in SCALES:
            raise ValueError(f"unknown scale {self.scale!r}; pick from {tuple(SCALES)}")
        if self.limit is not None and self.limit < 1:
            raise ValueError("limit must be >= 1 (or None)")

    def units(self) -> "tuple[SweepUnit, ...]":
        """The matrix, expanded in fixed axis order (deterministic)."""
        return tuple(
            SweepUnit(benchmark=b, split=sp, task=t, mode=m, seed=s)
            for b, sp, t, m, s in itertools.product(
                self.benchmarks, self.splits, self.tasks, self.modes, self.seeds
            )
        )

    def digest(self) -> str:
        """A stable identity for the whole spec (guards shard merges)."""
        from repro.utils.rng import stable_hash

        parts = tuple(getattr(self, f.name) for f in fields(self))
        return f"{stable_hash(*parts):016x}"

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepSpec":
        kwargs = dict(payload)
        for axis in ("benchmarks", "splits", "tasks", "modes"):
            if axis in kwargs:
                kwargs[axis] = tuple(kwargs[axis])
        if "seeds" in kwargs:
            kwargs["seeds"] = tuple(int(s) for s in kwargs["seeds"])
        return cls(**kwargs)


def _validate_axis(name: str, values, allowed) -> None:
    unknown = [v for v in values if v not in allowed]
    if unknown:
        raise ValueError(f"unknown {name} {unknown!r}; pick from {tuple(allowed)}")


@dataclass(frozen=True)
class ShardPlan:
    """Deterministic round-robin assignment of units to shards.

    Shard ``i`` owns ``units[i::shard_count]`` — interleaving balances
    heterogeneous axes (e.g. joint units cost more than table units)
    without any knowledge of per-unit cost.
    """

    spec: SweepSpec
    shard_count: int = 1

    def __post_init__(self):
        if self.shard_count < 1:
            raise ValueError("shard_count must be >= 1")

    def shard(self, shard_index: int) -> "tuple[SweepUnit, ...]":
        if not 0 <= shard_index < self.shard_count:
            raise ValueError(
                f"shard_index {shard_index} out of range for {self.shard_count} shards"
            )
        return self.spec.units()[shard_index :: self.shard_count]

    def shards(self) -> "tuple[tuple[SweepUnit, ...], ...]":
        return tuple(self.shard(i) for i in range(self.shard_count))


class SweepRunner:
    """Executes sweep shards against one shared generation service.

    One :class:`~repro.experiments.common.ExperimentContext` is built
    per RTS seed (pipelines must be refit per seed), but all contexts
    share a single :class:`~repro.runtime.service.GenerationService`
    instance — one backend (``backend_spec.kind`` picks ``simulator``
    or ``process`` worker subprocesses; the default is
    ``BackendSpec(workers=max(1, workers))``) over one cache tier
    stack: with ``cache_dir`` set, a :class:`PersistentGenerationCache`
    namespaced by the spec's LLM identity, so separate shard processes
    reuse each other's generations through the filesystem.

    ``progress`` (a callable taking one formatted line) streams per-unit
    completion events — unit id, example counts, tier hit rates — as
    they happen; the CLI points it at stderr so no JSON artifact is
    perturbed.
    """

    def __init__(
        self,
        spec: SweepSpec,
        out_dir: "str | Path",
        cache_dir: "str | Path | None" = None,
        workers: int = 1,
        pool: str = THREAD,
        progress=None,
        backend_spec: "BackendSpec | None" = None,
    ):
        self.spec = spec
        self.out_dir = Path(out_dir)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.workers = workers
        self.pool = pool
        if backend_spec is None:
            backend_spec = BackendSpec(workers=max(1, workers))
        self.backend_spec = backend_spec
        self.progress = progress
        self._contexts: dict = {}
        self._cache: "GenerationCache | None" = None
        self._service = None

    # -- shared state --------------------------------------------------------

    @property
    def cache(self) -> "GenerationCache | None":
        """The cache every context shares (None until the first unit runs)."""
        return self._cache

    @property
    def service(self):
        """The generation service every context shares (None until built)."""
        return self._service

    def context(self, seed: int):
        if seed not in self._contexts:
            from repro.experiments.common import ExperimentContext

            ctx = ExperimentContext(
                corpus_seed=self.spec.corpus_seed,
                llm_seed=self.spec.llm_seed,
                rts_seed=seed,
                scale=SCALES[self.spec.scale](),
                workers=self.workers,
                backend=self.pool,
                cache_dir=self.cache_dir,
                spec=self.backend_spec,
                service=self._service,
            )
            if self._service is None:
                # The first context builds the service (ExperimentContext
                # is the one place that derives store namespaces from
                # the LLM identity); later contexts share the instance,
                # so the backend and every cache tier span all seeds.
                self._service = ctx.service
                self._cache = ctx.llm.cache
            self._contexts[seed] = ctx
        return self._contexts[seed]

    def close(self) -> None:
        """Release the shared service (scheduler threads, worker
        subprocesses, store handles) — safe before the first unit and
        from ``finally`` blocks; the CLIs and :func:`run_sweep` route
        every exit path (success or error) through here."""
        if self._service is not None:
            self._service.close()

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def unit_artifact(self, unit: SweepUnit) -> Path:
        return self.out_dir / "units" / f"{unit.unit_id}.jsonl"

    def shard_manifest_path(self, shard_index: int, shard_count: int) -> Path:
        name = f"shard-{shard_index:04d}-of-{shard_count:04d}.json"
        return self.out_dir / "shards" / name

    # -- execution -----------------------------------------------------------

    def run_unit(self, unit: SweepUnit):
        """Run one matrix cell through the batch runner (resumable)."""
        ctx = self.context(unit.seed)
        runner = ctx.runner(unit.benchmark)
        surrogate = ctx.surrogate(unit.benchmark) if unit.mode == SURROGATE else None
        human = ctx.human() if unit.mode == HUMAN else None
        artifact = str(self.unit_artifact(unit))
        if unit.task == "joint":
            bench = ctx.benchmark(unit.benchmark)
            examples = list(bench.split(unit.split))[: self.spec.limit]
            return runner.run_joint(
                examples,
                bench,
                mode=unit.mode,
                surrogate=surrogate,
                human=human,
                artifact=artifact,
            )
        instances = ctx.instances(unit.benchmark, unit.split, unit.task)
        return runner.run_link(
            instances[: self.spec.limit],
            mode=unit.mode,
            surrogate=surrogate,
            human=human,
            artifact=artifact,
        )

    def run_shard(self, shard_index: int = 0, shard_count: int = 1) -> dict:
        """Run every unit of one shard and write its manifest.

        The manifest's ``"units"`` section is deterministic (identical
        regardless of sharding, workers or cache warmth); everything
        run-dependent lives under ``"runtime"`` and is excluded from
        the merge's byte-identity guarantee.
        """
        plan = ShardPlan(self.spec, shard_count)
        units = plan.shard(shard_index)
        summaries: dict = {}
        runtime_units: dict = {}
        for position, unit in enumerate(units):
            result = self.run_unit(unit)
            summaries[unit.unit_id] = result.summary
            delta = result.cache_delta
            runtime_units[unit.unit_id] = {
                "n_resumed": result.n_resumed,
                "n_evaluated": result.n_evaluated,
                "generation_cache": delta.as_dict() if delta is not None else None,
            }
            if self.progress is not None:
                self.progress(
                    _progress_line(position, len(units), unit, result, delta)
                )
        stats = self._cache.stats if self._cache is not None else CacheStats.zero()
        manifest = {
            "spec": self.spec.to_dict(),
            "spec_digest": self.spec.digest(),
            "shard_index": shard_index,
            "shard_count": shard_count,
            "unit_ids": [u.unit_id for u in units],
            "units": summaries,
            "runtime": {
                "units": runtime_units,
                "generation_cache": stats.as_dict(),
                "cache_namespace": getattr(self._cache, "namespace", None),
                "persistent": self.cache_dir is not None,
                "gen_backend": self.backend_spec.kind,
            },
        }
        path = self.shard_manifest_path(shard_index, shard_count)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_canonical_json(manifest))
        return manifest


def _progress_line(
    position: int, total: int, unit: SweepUnit, result, delta: "CacheStats | None"
) -> str:
    """One human-readable completion event for progress streaming."""
    parts = [
        f"[{position + 1}/{total}]",
        unit.unit_id,
        f"examples={len(result.outcomes)}",
        f"resumed={result.n_resumed}",
        f"evaluated={result.n_evaluated}",
    ]
    if delta is not None:
        rate = delta.hit_rate
        parts.append(
            f"cache mem={delta.hits} disk={delta.disk_hits} "
            f"miss={delta.misses} hit_rate={rate:.3f}"
        )
    return " ".join(parts)


def run_sweep(
    spec: SweepSpec,
    out_dir: "str | Path",
    cache_dir: "str | Path | None" = None,
    workers: int = 1,
    pool: str = THREAD,
    shard_count: int = 1,
) -> dict:
    """Run every shard of a sweep in this process, then merge."""
    for shard_index in range(shard_count):
        # One runner per shard: cold contexts, exactly like separate
        # processes would run it (the persistent cache still warms up).
        with SweepRunner(
            spec,
            out_dir,
            cache_dir=cache_dir,
            workers=workers,
            pool=pool,
        ) as runner:
            runner.run_shard(shard_index, shard_count)
    return merge_sweep(out_dir)


def merge_sweep(out_dir: "str | Path") -> dict:
    """Merge shard manifests into the canonical sweep summary.

    Validates that every manifest describes the same spec and that the
    union of shard units covers the matrix exactly once (conflicting
    duplicate summaries are an error; identical duplicates — e.g. a
    re-run under a different shard count — are tolerated). Writes
    ``sweep-summary.json`` (deterministic, byte-identical-to-unsharded)
    and ``sweep-stats.json`` (fleet-wide cache hit rates, per-shard
    runtime bookkeeping).
    """
    out_dir = Path(out_dir)
    shard_paths = sorted((out_dir / "shards").glob("shard-*.json"))
    if not shard_paths:
        raise FileNotFoundError(f"no shard manifests under {out_dir / 'shards'}")
    manifests = {path.name: json.loads(path.read_text()) for path in shard_paths}

    digests = {m["spec_digest"] for m in manifests.values()}
    if len(digests) != 1:
        raise ValueError(f"shard manifests mix different sweep specs: {sorted(digests)}")
    spec = SweepSpec.from_dict(next(iter(manifests.values()))["spec"])
    expected = [unit.unit_id for unit in spec.units()]

    seen: dict = {}
    for name, manifest in sorted(manifests.items()):
        for unit_id, summary in manifest["units"].items():
            if unit_id in seen and seen[unit_id] != summary:
                raise ValueError(f"conflicting summaries for unit {unit_id!r}")
            seen[unit_id] = summary
    missing = [u for u in expected if u not in seen]
    extra = sorted(set(seen) - set(expected))
    if missing or extra:
        raise ValueError(
            f"shard coverage mismatch: missing={missing!r} extra={extra!r}"
        )

    summary_payload = {
        "spec": spec.to_dict(),
        "spec_digest": spec.digest(),
        "n_units": len(expected),
        "units": {unit_id: seen[unit_id] for unit_id in expected},
    }
    summary_path = out_dir / SUMMARY_NAME
    summary_path.write_text(_canonical_json(summary_payload))

    fleet = CacheStats.total(
        m["runtime"].get("generation_cache") for m in manifests.values()
    )
    stats_payload = {
        "spec_digest": spec.digest(),
        "n_shards": len(manifests),
        "generation_cache": fleet.as_dict(),
        "shards": {name: m["runtime"] for name, m in sorted(manifests.items())},
    }
    stats_path = out_dir / STATS_NAME
    stats_path.write_text(_canonical_json(stats_payload))

    return {
        "summary": summary_payload,
        "stats": stats_payload,
        "summary_path": str(summary_path),
        "stats_path": str(stats_path),
    }


def _canonical_json(payload: dict) -> str:
    """The one serialization every byte-compared artifact goes through."""
    return json.dumps(strict_jsonable(payload), indent=2, sort_keys=True) + "\n"
