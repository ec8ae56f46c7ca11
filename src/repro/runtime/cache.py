"""Keyed generation cache for the simulated LLM.

Bulk evaluation repeats the same generations many times over: every
``RTSPipeline.link`` call regenerates the unassisted baseline, the joint
table→column pass regenerates the free-running column trace, and the
figure/ablation sweeps re-collect teacher-forced traces for the same
instances under every variant. All of those calls are deterministic pure
functions of (model seed, instance), so they are computed once and
cached here.

The cache key must capture the full generation input: ``instance_id``
alone is not enough because joint linking builds *different* column
instances with the same id (the candidate universe depends on the
predicted tables), so the key also hashes task, candidates and gold
items.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.linking.instance import SchemaLinkingInstance
from repro.llm.model import GenerationSession, GenerationTrace, TransparentLLM
from repro.utils.rng import stable_hash

__all__ = ["instance_key", "CacheStats", "GenerationCache", "CachingLLM"]

# Sentinel distinguishing "no cached value" from a cached None.
_MISS = object()


def instance_key(instance: SchemaLinkingInstance) -> str:
    """A stable, collision-resistant identity for one generation input."""
    digest = stable_hash(instance.task, instance.candidates, instance.gold_items)
    return f"{instance.instance_id}#{digest:016x}"


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss accounting for one cache.

    ``hits`` are served from this process's memory, ``disk_hits`` from a
    persistent store (:mod:`repro.runtime.persist`), and ``misses`` are
    new LLM generations. Instances form a commutative monoid under
    ``+`` so per-shard stats aggregate into fleet-wide totals; ``-``
    yields the delta between two snapshots of the same cache (what one
    unit of work contributed).
    """

    hits: int
    misses: int
    disk_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        return (self.hits + self.disk_hits) / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }

    def __add__(self, other: "CacheStats") -> "CacheStats":
        if not isinstance(other, CacheStats):
            return NotImplemented
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            disk_hits=self.disk_hits + other.disk_hits,
        )

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        if not isinstance(other, CacheStats):
            return NotImplemented
        return CacheStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            disk_hits=self.disk_hits - other.disk_hits,
        )

    @classmethod
    def zero(cls) -> "CacheStats":
        return cls(hits=0, misses=0, disk_hits=0)

    @classmethod
    def total(cls, stats: "Iterable[CacheStats | dict | None]") -> "CacheStats":
        """Sum stats (dicts from JSON summaries are accepted, None skipped)."""
        out = cls.zero()
        for entry in stats:
            if entry is None:
                continue
            if isinstance(entry, dict):
                entry = cls(
                    hits=int(entry.get("hits", 0)),
                    misses=int(entry.get("misses", 0)),
                    disk_hits=int(entry.get("disk_hits", 0)),
                )
            out = out + entry
        return out


class GenerationCache:
    """A thread-safe keyed memo table with hit/miss accounting.

    Values are treated as immutable by convention (generation traces are
    never mutated after the session finishes), so a cached value may be
    shared freely across threads. Two threads racing on the same missing
    key may both compute it — the value is deterministic, so the second
    store is a harmless overwrite and both computations are counted as
    misses.
    """

    def __init__(self) -> None:
        self._data: dict = {}  # guarded-by: self._lock
        self._hits = 0  # guarded-by: self._lock
        self._misses = 0  # guarded-by: self._lock
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses)

    def get_or_compute(self, key, compute: Callable[[], object]):
        with self._lock:
            if key in self._data:
                self._hits += 1
                return self._data[key]
            self._misses += 1
        value = compute()  # computed outside the lock: misses run in parallel
        with self._lock:
            self._data[key] = value
        return value

    # -- tier primitives (driven by runtime.service.GenerationService) -------

    def contains(self, key) -> bool:
        """Membership without accounting (diagnostics peeks, not lookups)."""
        with self._lock:
            return key in self._data

    def probe(self, key):
        """The cached value, counting a hit — or the ``_MISS`` sentinel.

        Unlike :meth:`get_or_compute` a probe miss counts nothing: the
        service attributes the fall-through to whichever tier (disk,
        backend) ends up serving the lookup, via :meth:`admit`.
        """
        with self._lock:
            if key in self._data:
                self._hits += 1
                return self._data[key]
        return _MISS

    def admit(self, key, value, *, miss: bool = False, disk_hit: bool = False) -> None:
        """Store a value resolved elsewhere, attributing the lookup.

        ``miss=True`` records a backend computation, ``disk_hit=True`` a
        promotion from a colder tier (meaningful on persistent caches;
        counted here so plain in-memory caches stay drop-compatible).
        """
        with self._lock:
            self._data[key] = value
            if miss:
                self._misses += 1
            if disk_hit:
                self._disk_hit_count()

    def _disk_hit_count(self) -> None:  # overridden by the persistent cache
        pass

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._hits = 0
            self._misses = 0

    # Locks are not picklable; a cache shipped to a worker process starts
    # cold (per-process hits simply do not propagate back to the parent).
    def __getstate__(self) -> dict:
        with self._lock:
            return {"_data": dict(self._data), "_hits": self._hits, "_misses": self._misses}

    def __setstate__(self, state: dict) -> None:
        # Unpickling builds a fresh, unshared object: the lock does not
        # even exist until the last line, and no other thread can see us.
        # repro-lint: ignore[lock-discipline] unpickling is single-threaded; the lock is created on the last line
        self._data = state["_data"]
        # repro-lint: ignore[lock-discipline] unpickling is single-threaded
        self._hits = state["_hits"]
        # repro-lint: ignore[lock-discipline] unpickling is single-threaded
        self._misses = state["_misses"]
        self._lock = threading.Lock()


class CachingLLM:
    """A :class:`TransparentLLM`-shaped adapter over a `GenerationService`.

    ``generate`` (free running) and ``teacher_forced_trace`` (the §3.1
    label-collection protocol) route through the service — cache tiers
    first, then the configured backend; token-by-token sessions are
    inherently stateful and always start fresh on the base simulator.
    The adapter is a drop-in replacement anywhere a ``TransparentLLM``
    is expected, and ``CachingLLM(llm, cache=...)`` keeps its historical
    meaning by wiring a :class:`~repro.runtime.service.SimulatorBackend`
    service over that cache.
    """

    def __init__(
        self,
        llm: "TransparentLLM | None" = None,
        cache: "GenerationCache | None" = None,
        service=None,
    ):
        if service is None:
            # Local import: service builds on this module's primitives.
            from repro.runtime.service import GenerationService, SimulatorBackend

            if llm is None:
                raise ValueError("CachingLLM needs an llm or a service")
            service = GenerationService(SimulatorBackend(llm), cache=cache)
        elif cache is not None and cache is not service.cache:
            raise ValueError("pass either a service or a cache, not both")
        elif llm is not None and llm is not service.base_llm:
            # Sessions would run one model while cached traces come
            # from another — never a coherent adapter.
            raise ValueError("llm does not match the service's base LLM")
        self.service = service
        self.llm = llm if llm is not None else service.base_llm

    # -- delegated surface ---------------------------------------------------

    @property
    def config(self):
        return self.llm.config

    @property
    def seed(self) -> int:
        return self.llm.seed

    @property
    def hidden(self):
        return self.llm.hidden

    @property
    def n_layers(self) -> int:
        return self.llm.n_layers

    def plan(self, instance: SchemaLinkingInstance):
        return self.llm.plan(instance)

    def start_session(self, instance: SchemaLinkingInstance) -> GenerationSession:
        return self.llm.start_session(instance)

    # -- cached generation ---------------------------------------------------

    @property
    def cache(self) -> GenerationCache:
        return self.service.cache

    @property
    def stats(self) -> CacheStats:
        return self.service.stats

    def generate(self, instance: SchemaLinkingInstance) -> GenerationTrace:
        from repro.runtime.service import FREE, GenerationRequest

        return self.service.generate_one(GenerationRequest(FREE, instance))

    def teacher_forced_trace(
        self, instance: SchemaLinkingInstance
    ) -> GenerationTrace:
        from repro.runtime.service import FORCED, GenerationRequest

        return self.service.generate_one(GenerationRequest(FORCED, instance))

    # -- batched generation (one service call per batch) ---------------------

    def generate_many(
        self, instances: "Iterable[SchemaLinkingInstance]"
    ) -> "list[GenerationTrace]":
        return self.service.free_traces(instances)

    def teacher_forced_traces(
        self, instances: "Iterable[SchemaLinkingInstance]"
    ) -> "list[GenerationTrace]":
        return self.service.forced_traces(instances)
