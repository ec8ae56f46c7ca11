"""Backend-agnostic generation service with tiered caching.

Everything upstream of the simulator — the RTS pipeline, the batch
runner, the sweep orchestrator, the CLIs — used to call
:class:`~repro.llm.model.TransparentLLM` methods directly, welding the
paper's protocol to one synchronous in-process model. This module carves
the seam between *what* to generate and *how* it is executed and cached:

``GenerationBackend`` (the protocol)
    Anything that can turn a batch of :class:`GenerationRequest` objects
    into :class:`~repro.llm.model.GenerationTrace` objects::

        class GenerationBackend(Protocol):
            def generate(self, requests: Sequence[GenerationRequest])
                -> list[GenerationTrace]:
                \"\"\"Traces for ``requests``, in request order.\"\"\"

            def identity(self) -> tuple:
                \"\"\"(simulator version, config, seed)-like tuple
                pinning the generation function; feeds the persistent
                cache namespace via
                :func:`~repro.runtime.persist.generation_namespace`.\"\"\"

    Contract: ``generate`` is a *pure function* of (identity, request) —
    the same request always yields a bit-identical trace, regardless of
    batch composition, concurrency or call order. That purity is what
    lets every backend share one cache namespace and what makes the
    ``--backend simulator`` / ``--backend process`` axis byte-identical
    in every ``*.summary.json``.

One implementation ships here: :class:`SimulatorBackend`, which wraps a
``TransparentLLM`` and runs a batch serially in process. This is
byte-identical to the pre-service direct calls.

The other lives in :mod:`repro.runtime.remote` (imported lazily to keep
this module subprocess-free): :class:`~repro.runtime.remote.
ProcessBackend`, a supervisor fanning batches over worker subprocesses
via framed socket IPC, with health checks, restart-on-crash and in-flight
requeue — ``BackendSpec(kind="process")``.

On top sits :class:`GenerationService`: lookups fall through a tier
stack — L1 in-memory memo table → L2 on-disk JSONL segment scan →
L3 compacted SQLite index (O(1) cold lookups over large stores, see
:mod:`repro.runtime.persist`) — and only the residue is sent to the
backend, as one batch. Disk hits are promoted into L1; every tier keeps
its own :class:`~repro.runtime.cache.CacheStats` (``tier_stats``) while
the aggregate ``stats`` keeps the historical hits / disk_hits / misses
accounting that the warm-run ``misses == 0`` invariants pin down.
"""

from __future__ import annotations

import argparse
import contextlib
import contextvars
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence, runtime_checkable

from repro.llm.model import SIMULATOR_VERSION, GenerationTrace, TransparentLLM
from repro.runtime.cache import _MISS, CacheStats, GenerationCache, instance_key
from repro.runtime.persist import (
    PersistentGenerationCache,
    generation_namespace,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.linking.instance import SchemaLinkingInstance

__all__ = [
    "FREE",
    "FORCED",
    "SIMULATOR",
    "PROCESS",
    "GEN_BACKENDS",
    "PIPE_TRANSPORT",
    "UNIX_TRANSPORT",
    "TCP_TRANSPORT",
    "TRANSPORTS",
    "MEMORY_TIER",
    "SEGMENT_TIER",
    "SQLITE_TIER",
    "FLEET_TOKEN_ENV",
    "BackendSpec",
    "DeadlineExceeded",
    "deadline_scope",
    "effective_timeout",
    "parse_address",
    "GenerationRequest",
    "GenerationBackend",
    "SimulatorBackend",
    "GenerationService",
    "simulator_identity",
]

FREE = "free"
FORCED = "forced"
KINDS = (FREE, FORCED)

SIMULATOR = "simulator"
PROCESS = "process"
GEN_BACKENDS = (SIMULATOR, PROCESS)

# Whether the process backend listens for workers it did not spawn: every
# local worker is spawned on a socketpair; "pipe" stops there, "unix" /
# "tcp" also bind a listening socket that external ``repro-worker``
# processes can join.
PIPE_TRANSPORT = "pipe"
UNIX_TRANSPORT = "unix"
TCP_TRANSPORT = "tcp"
TRANSPORTS = (PIPE_TRANSPORT, UNIX_TRANSPORT, TCP_TRANSPORT)

MEMORY_TIER = "memory"
SEGMENT_TIER = "segments"
SQLITE_TIER = "sqlite"

# Shared-secret fallback for ``BackendSpec.fleet_token`` /
# ``repro-worker --fleet-token``: the operator exports one value on the
# supervisor host and every worker host instead of threading it through
# argv (where it would leak into ``ps`` output and shell history).
FLEET_TOKEN_ENV = "REPRO_FLEET_TOKEN"


class DeadlineExceeded(RuntimeError):
    """A generation batch outlived its per-request deadline.

    Raised by the deadline-aware ``process`` backend to the
    *caller only*: the in-flight work is disowned — its eventual result
    is discarded without being counted as a duplicate, and a worker
    crash afterwards will not requeue it — so a timed-out request is
    never silently duplicated. ``repro-serve`` maps this to HTTP 503.
    """

    def __init__(self, timeout_s: float, message: "str | None" = None):
        self.timeout_s = float(timeout_s)
        super().__init__(
            message
            if message is not None
            else f"generation exceeded its {self.timeout_s:g}s deadline"
        )


# Per-caller deadline override. ``None`` (the default contextvar value)
# means "no override: use the backend's configured request_timeout_s";
# a scope carrying ``None`` explicitly *suspends* the deadline, which is
# how warm-up / fit traffic opts out on the calling thread.
_UNSET = object()
_deadline_override: "contextvars.ContextVar[object]" = contextvars.ContextVar(
    "repro_deadline_override", default=_UNSET
)


@contextlib.contextmanager
def deadline_scope(timeout_s: "float | None"):
    """Override the backend deadline for generations on this thread.

    ``deadline_scope(0.05)`` tightens (or sets) the deadline for every
    ``generate`` call made inside the block on the current thread —
    ``repro-serve`` uses it for the per-request ``timeout_s`` field.
    ``deadline_scope(None)`` suspends deadlines entirely (warm-up
    traffic).
    """
    if timeout_s is not None and not float(timeout_s) > 0:
        raise ValueError("deadline_scope timeout_s must be > 0 (or None)")
    token = _deadline_override.set(None if timeout_s is None else float(timeout_s))
    try:
        yield
    finally:
        _deadline_override.reset(token)


def effective_timeout(default: "float | None") -> "float | None":
    """The deadline a backend should apply right now, seconds or None."""
    override = _deadline_override.get()
    if override is _UNSET:
        return default
    return override  # type: ignore[return-value]


def simulator_identity(llm: "TransparentLLM") -> tuple:
    """The canonical backend identity for one simulated LLM.

    Every backend that executes generations *with this llm's bits* —
    in-process or in worker subprocesses — must return exactly
    this tuple from ``identity()``, or its persistent-cache namespace
    silently splits from the others and warm stores stop being shared.
    The simulator version participates because a bit-level synthesis
    change (e.g. ``hidden-v2``) must land in a fresh namespace.
    """
    return (getattr(llm, "version", SIMULATOR_VERSION), llm.config, llm.seed)


def parse_address(address: str) -> tuple:
    """``"unix:/path"`` → ``("unix", path)``; ``"tcp:host:port"`` →
    ``("tcp", (host, port))``."""
    kind, _, rest = address.partition(":")
    if kind == UNIX_TRANSPORT and rest:
        return (UNIX_TRANSPORT, rest)
    if kind == TCP_TRANSPORT and rest:
        host, _, port = rest.rpartition(":")
        if host and port.isdigit():
            return (TCP_TRANSPORT, (host, int(port)))
    raise ValueError(
        f"bad worker address {address!r}; expected unix:/path or tcp:host:port"
    )


def _nonnegative_int(value: str) -> int:
    parsed = int(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return parsed


def _positive_float(value: str) -> float:
    parsed = float(value)
    if not parsed > 0:  # also rejects NaN
        raise argparse.ArgumentTypeError("must be > 0")
    return parsed


@dataclass(frozen=True)
class BackendSpec:
    """The one description of how generations execute.

    This used to be ~eight keyword arguments copy-pasted (and drifting)
    across ``GenerationService.build``, ``ExperimentContext``,
    ``SweepRunner`` and every CLI's argparse block. Now there is one
    value: build it directly, from parsed CLI arguments
    (:meth:`from_args` — ``repro-run``, ``repro-sweep``, ``repro-serve``
    and ``repro-worker`` all register the same flags via
    :meth:`add_arguments`), or round-trip it (:meth:`to_args` emits the
    argv fragment that parses back to an equal spec; pickle ships it to
    shards and workers unchanged).

    Fields beyond ``kind``/``workers`` (restart budget, logs, transport,
    deadline, fleet token) apply to the ``process`` backend and are
    carried (harmlessly) for the simulator, so a spec can be
    re-targeted by ``replace(spec, kind=...)`` alone.
    ``workers=0`` is the accept-only process supervisor (socket
    transports): serve no local workers, wait for external
    ``repro-worker --connect`` joins.
    """

    kind: str = SIMULATOR
    workers: int = 4
    max_restarts: "int | None" = None
    worker_log_dir: "str | None" = None
    transport: str = PIPE_TRANSPORT
    address: "str | None" = None
    request_timeout_s: "float | None" = None
    fleet_token: "str | None" = None

    def __post_init__(self):
        if self.kind not in GEN_BACKENDS:
            raise ValueError(
                f"unknown generation backend {self.kind!r}; pick from {GEN_BACKENDS}"
            )
        if self.address is not None:
            prefix = parse_address(self.address)[0]
            # An address names its transport; let it win over the default.
            if self.transport != prefix:
                object.__setattr__(self, "transport", prefix)
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r}; pick from {TRANSPORTS}"
            )
        if self.worker_log_dir is not None:
            object.__setattr__(self, "worker_log_dir", str(self.worker_log_dir))
        accept_only = self.kind == PROCESS and self.transport != PIPE_TRANSPORT
        if self.workers < (0 if accept_only else 1):
            raise ValueError(
                "workers must be >= 1 (0 is allowed only for the process "
                "backend on a socket transport: the accept-only supervisor)"
            )
        if self.max_restarts is not None and self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0 (or None for the default)")
        if self.request_timeout_s is not None and not self.request_timeout_s > 0:
            raise ValueError("request_timeout_s must be > 0 (or None for no deadline)")
        if self.fleet_token is not None and not self.fleet_token:
            raise ValueError("fleet_token must be non-empty (or None for no auth)")

    # -- argparse round-trips ------------------------------------------------

    @classmethod
    def add_arguments(
        cls, parser: argparse.ArgumentParser, defaults: "BackendSpec | None" = None
    ) -> None:
        """Register the shared generation-backend flags on ``parser``.

        Every CLI that builds a service calls this — one flag vocabulary,
        one help text, zero drift. ``defaults`` customizes per-CLI
        defaults without forking the flags.
        """
        spec = defaults if defaults is not None else cls()
        group = parser.add_argument_group("generation backend")
        group.add_argument(
            "--backend",
            choices=GEN_BACKENDS,
            default=spec.kind,
            help="generation backend: direct simulator calls or "
            "crash-isolated worker processes (byte-identical results)",
        )
        group.add_argument(
            "--gen-workers",
            type=_nonnegative_int,
            default=spec.workers,
            help="process backend: worker count (0 = accept-only socket "
            f"supervisor; default: {spec.workers})",
        )
        group.add_argument(
            "--max-restarts",
            type=_nonnegative_int,
            default=spec.max_restarts,
            help="process backend: total worker restart budget "
            "(default: 2 x workers)",
        )
        group.add_argument(
            "--worker-log-dir",
            default=spec.worker_log_dir,
            help="process backend: directory capturing per-worker stderr logs "
            "(default: a fresh temp directory)",
        )
        group.add_argument(
            "--transport",
            choices=TRANSPORTS,
            default=spec.transport,
            help="process backend: pipe: local workers only, no listener; "
            "unix/tcp: also listen on a socket that repro-worker processes "
            "connect to",
        )
        group.add_argument(
            "--address",
            default=spec.address,
            help="process backend: socket listen address (unix:/path or "
            "tcp:host:port; default: an auto-assigned local address)",
        )
        group.add_argument(
            "--request-timeout-s",
            type=_positive_float,
            default=spec.request_timeout_s,
            help="process backend: per-request deadline in seconds; a "
            "generation past it fails with DeadlineExceeded (HTTP 503 under "
            "repro-serve) instead of waiting forever (default: no deadline)",
        )
        group.add_argument(
            "--fleet-token",
            default=spec.fleet_token,
            help="process backend: shared secret every socket worker must "
            "present at hello; unauthenticated connections are dropped "
            f"(default: the {FLEET_TOKEN_ENV} environment variable, if set)",
        )

    @classmethod
    def from_args(
        cls,
        args: argparse.Namespace,
        parser: "argparse.ArgumentParser | None" = None,
    ) -> "BackendSpec":
        """The spec one parsed CLI invocation describes.

        A flag combination no spec allows raises ``ValueError``, or,
        given the ``parser`` that parsed ``args``, exits through
        ``parser.error`` as a usage error.
        """
        try:
            return cls(
                kind=getattr(args, "backend", SIMULATOR),
                workers=getattr(args, "gen_workers", cls.workers),
                max_restarts=getattr(args, "max_restarts", None),
                worker_log_dir=getattr(args, "worker_log_dir", None),
                transport=getattr(args, "transport", PIPE_TRANSPORT),
                address=getattr(args, "address", None),
                request_timeout_s=getattr(args, "request_timeout_s", None),
                fleet_token=getattr(args, "fleet_token", None),
            )
        except ValueError as exc:
            if parser is None:
                raise
            parser.error(str(exc))

    def to_args(self) -> "list[str]":
        """The argv fragment reproducing this spec (from_args inverse)."""
        argv = [
            "--backend",
            self.kind,
            "--gen-workers",
            str(self.workers),
            "--transport",
            self.transport,
        ]
        if self.max_restarts is not None:
            argv += ["--max-restarts", str(self.max_restarts)]
        if self.worker_log_dir is not None:
            argv += ["--worker-log-dir", self.worker_log_dir]
        if self.address is not None:
            argv += ["--address", self.address]
        if self.request_timeout_s is not None:
            argv += ["--request-timeout-s", repr(self.request_timeout_s)]
        if self.fleet_token is not None:
            argv += ["--fleet-token", self.fleet_token]
        return argv

    # -- construction --------------------------------------------------------

    def build(self, llm, **kwargs) -> "GenerationService":
        """A wired :class:`GenerationService` for ``llm`` (see its build)."""
        return GenerationService.build(llm, spec=self, **kwargs)

    def make_backend(self, llm: TransparentLLM):
        """Just the backend this spec describes (no cache tiers)."""
        if self.kind == PROCESS:
            # Lazy import: remote builds on this module's request types.
            from repro.runtime.remote import ProcessBackend

            extra = {} if self.max_restarts is None else {"max_restarts": self.max_restarts}
            # The env fallback resolves at construction time, on the host
            # building the supervisor — a spec pickled with
            # fleet_token=None picks up the token of whatever machine it
            # lands on, which is exactly what fleet-wide env config wants.
            token = self.fleet_token or os.environ.get(FLEET_TOKEN_ENV) or None
            return ProcessBackend(
                llm,
                workers=self.workers,
                log_dir=self.worker_log_dir,
                transport=self.transport,
                address=self.address,
                request_timeout_s=self.request_timeout_s,
                fleet_token=token,
                **extra,
            )
        return SimulatorBackend(llm)


@dataclass(frozen=True)
class GenerationRequest:
    """One unit of generation work: which protocol over which instance.

    ``kind`` selects the paper's generation mode — ``"free"`` (what an
    unprotected linker emits) or ``"forced"`` (the §3.1 teacher-forced
    label-collection protocol). ``key`` reproduces the historical cache
    key tuple, so stores written before this module existed stay warm.
    """

    kind: str
    instance: "SchemaLinkingInstance"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown generation kind {self.kind!r}; pick from {KINDS}")

    @property
    def key(self) -> tuple:
        return (self.kind, instance_key(self.instance))


@runtime_checkable
class GenerationBackend(Protocol):
    """See the module docstring for the full protocol contract."""

    def generate(
        self, requests: "Sequence[GenerationRequest]"
    ) -> "list[GenerationTrace]": ...  # pragma: no cover - protocol

    def identity(self) -> tuple: ...  # pragma: no cover - protocol


class SimulatorBackend:
    """The reference backend: direct, serial calls into a
    ``TransparentLLM``. Parallel generation is the ``process`` backend's
    job; each trace is a pure function of its request alone, so both
    are byte-identical."""

    def __init__(self, llm: TransparentLLM):
        self.llm = llm

    @property
    def base_llm(self) -> TransparentLLM:
        return self.llm

    def identity(self) -> tuple:
        return simulator_identity(self.llm)

    def _one(self, request: GenerationRequest) -> GenerationTrace:
        if request.kind == FORCED:
            return self.llm.teacher_forced_trace(request.instance)
        return self.llm.generate(request.instance)

    def generate(
        self, requests: "Sequence[GenerationRequest]"
    ) -> "list[GenerationTrace]":
        return [self._one(request) for request in requests]


# -- the service --------------------------------------------------------------


class _TierCounter:
    """Mutable hit/miss counters for one tier (snapshot: CacheStats)."""

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def snapshot(self) -> CacheStats:
        return CacheStats(hits=self.hits, misses=self.misses)


class GenerationService:
    """Tiered-cache generation front-end over a pluggable backend.

    Lookups fall through L1 (in-memory memo table) → L2 (on-disk segment
    scan) → L3 (compacted SQLite index); only the residue of a batch is
    sent to ``backend.generate`` — as a single batch. Disk hits are
    promoted into L1; computed traces are admitted to L1 and spilled to
    the persistent store.

    ``stats`` preserves the historical aggregate accounting (``hits`` =
    L1, ``disk_hits`` = L2 + L3, ``misses`` = backend computations) by
    keeping the underlying cache object the single source of truth —
    every consumer that read ``CachingLLM.stats`` or ``cache.stats``
    before sees identical semantics. ``tier_stats`` adds the per-tier
    refinement (which disk tier served a cold lookup).
    """

    def __init__(self, backend, cache: "GenerationCache | None" = None):
        self.backend = backend
        self.cache = cache if cache is not None else GenerationCache()
        self._persistent = isinstance(self.cache, PersistentGenerationCache)
        tiers = [MEMORY_TIER]
        if self._persistent:
            tiers += [SEGMENT_TIER, SQLITE_TIER]
        self._tier_lock = threading.Lock()
        self._tiers = {name: _TierCounter() for name in tiers}  # guarded-by: self._tier_lock

    @classmethod
    def build(
        cls,
        llm: TransparentLLM,
        spec: "BackendSpec | None" = None,
        cache: "GenerationCache | None" = None,
        cache_dir=None,
        use_index: bool = True,
    ) -> "GenerationService":
        """Wire a service for ``llm``: backend choice plus cache tiers.

        The backend configuration is one :class:`BackendSpec` (``spec``,
        default ``BackendSpec()``: the in-process simulator).

        ``cache`` wins over ``cache_dir``; with ``cache_dir`` alone a
        :class:`PersistentGenerationCache` is created in the namespace
        derived from the backend's ``identity()`` — so the simulator and
        process backends (same identity) share one store.
        """
        if spec is None:
            spec = BackendSpec()
        built = spec.make_backend(llm)
        if cache is None and cache_dir is not None:
            cache = PersistentGenerationCache(
                cache_dir,
                namespace=generation_namespace(*built.identity()),
                use_index=use_index,
            )
        return cls(built, cache=cache)

    # -- surface -------------------------------------------------------------

    @property
    def base_llm(self):
        return self.backend.base_llm

    @property
    def stats(self) -> CacheStats:
        return self.cache.stats

    @property
    def tier_stats(self) -> "dict[str, CacheStats]":
        with self._tier_lock:
            return {name: counter.snapshot() for name, counter in self._tiers.items()}

    def namespace(self) -> str:
        """The persistent-store namespace for this backend identity."""
        return generation_namespace(*self.backend.identity())

    def close(self) -> None:
        """Release backend and cache resources (worker processes, file
        handles, sqlite connections). Entries stay on disk; a later
        generation through a closed persistent cache simply opens a
        fresh segment."""
        closer = getattr(self.backend, "close", None)
        if callable(closer):
            closer()
        cache_closer = getattr(self.cache, "close", None)
        if callable(cache_closer):
            cache_closer()

    def __enter__(self) -> "GenerationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- generation ----------------------------------------------------------

    def generate_one(self, request: GenerationRequest) -> GenerationTrace:
        return self.generate([request])[0]

    def free_traces(self, instances: "Iterable[SchemaLinkingInstance]") -> list:
        return self.generate([GenerationRequest(FREE, i) for i in instances])

    def forced_traces(self, instances: "Iterable[SchemaLinkingInstance]") -> list:
        return self.generate([GenerationRequest(FORCED, i) for i in instances])

    def generate(
        self, requests: "Sequence[GenerationRequest]"
    ) -> "list[GenerationTrace]":
        """Traces for ``requests`` in order: cache tiers, then one batch.

        Duplicate keys within a batch are computed once; concurrent
        batches racing on the same missing key may both compute it (the
        value is deterministic, the second admit is a harmless
        overwrite) — the same contract as ``GenerationCache``. A backend
        returning the wrong number of traces raises ``RuntimeError``
        before anything is admitted, instead of leaving gaps.
        """
        requests = list(requests)
        results: list = [None] * len(requests)
        pending_indexes: "dict[tuple, list[int]]" = {}
        pending: "list[tuple[tuple, GenerationRequest]]" = []
        for i, request in enumerate(requests):
            key = request.key  # hashes candidates/gold once per request
            if key in pending_indexes:  # duplicate within this batch
                pending_indexes[key].append(i)
                continue
            value = self._lookup(key)
            if value is not _MISS:
                results[i] = value
            else:
                pending_indexes[key] = [i]
                pending.append((key, request))
        if pending:
            traces = self.backend.generate([request for _key, request in pending])
            if len(traces) != len(pending):
                raise RuntimeError(
                    f"backend returned {len(traces)} traces for "
                    f"{len(pending)} requests"
                )
            for (key, _request), trace in zip(pending, traces):
                self.cache.admit(key, trace, miss=True)
                for i in pending_indexes[key]:
                    results[i] = trace
        return results

    # -- tier plumbing -------------------------------------------------------

    def peek_tier(self, request: "GenerationRequest | tuple") -> "str | None":
        """Which tier would serve ``request`` right now — stats-free.

        Serving uses this for per-request diagnostics (the ``cache_tier``
        field of a ``/v1/query`` response) *before* the generation runs;
        it must not perturb ``stats`` / ``tier_stats``, which stay exact
        cumulative accounting of real lookups. ``None`` means a backend
        computation would happen.
        """
        key = request.key if isinstance(request, GenerationRequest) else request
        if self.cache.contains(key):
            return MEMORY_TIER
        if not self._persistent:
            return None
        record, tier = self.cache.probe_disk(self.cache.address(key))
        if record is None:
            return None
        return SQLITE_TIER if tier == SQLITE_TIER else SEGMENT_TIER

    def _count(self, tier: str, hit: bool) -> None:
        with self._tier_lock:
            counter = self._tiers[tier]
            if hit:
                counter.hits += 1
            else:
                counter.misses += 1

    def _lookup(self, key: tuple):
        value = self.cache.probe(key)
        if value is not _MISS:
            self._count(MEMORY_TIER, hit=True)
            return value
        self._count(MEMORY_TIER, hit=False)
        if not self._persistent:
            return _MISS
        record, tier = self.cache.probe_disk(self.cache.address(key))
        trace = _MISS
        if record is not None:
            try:
                # record_to_trace resolves binary sidecar blocks through the
                # cache's shared mmap reader — a zero-copy view, no decode.
                trace = self.cache.record_to_trace(record)
            except (OSError, ValueError, KeyError):
                pass  # torn/vanished sidecar: that tier's miss; recompute and respill
        # A tier hit means a served trace, not merely a found record.
        hit = trace is not _MISS
        if tier == SQLITE_TIER:  # an index was actually consulted
            self._count(SEGMENT_TIER, hit=False)
            self._count(SQLITE_TIER, hit=hit)
        else:
            self._count(SEGMENT_TIER, hit=hit)
        if hit:
            # Hit promotion: cold-tier entries become L1 hits from now on.
            self.cache.admit(key, trace, disk_hit=True)
        return trace

    # Shipped to worker processes with a pickled pipeline: the cache
    # reopens its store view, tier counters start cold (per-process
    # stats never propagate back — same contract as GenerationCache).
    def __getstate__(self) -> dict:
        return {"backend": self.backend, "cache": self.cache}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["backend"], cache=state["cache"])
