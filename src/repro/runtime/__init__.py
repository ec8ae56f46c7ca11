"""Batched evaluation runtime.

The experiment tables and figures all reduce to fanning a fitted
:class:`~repro.core.pipeline.RTSPipeline` out over a benchmark split.
This package provides the shared substrate for doing that at scale:

* :mod:`repro.runtime.pool` — the serial, order-preserving `WorkerPool`
  map batch evaluation streams its checkpoints through;
* :mod:`repro.runtime.cache` — a keyed generation cache so repeated
  ``llm.generate`` / ``teacher_forced_trace`` calls (unassisted
  baselines, joint passes, ablation sweeps) are computed once;
* :mod:`repro.runtime.artifacts` — JSONL run artifacts with resumable
  checkpoints and aggregate TAR/FAR/abstention summaries;
* :mod:`repro.runtime.runner` — the `BatchRunner` that ties them
  together;
* :mod:`repro.runtime.service` — the backend-agnostic
  `GenerationService`: a `GenerationBackend` protocol with the
  in-process `SimulatorBackend` implementation (direct simulator calls),
  composed with the tiered cache (L1 memory → L2 segments → L3 SQLite
  index) that every consumer layer now routes generations through;
* :mod:`repro.runtime.persist` — the cross-process
  `PersistentGenerationCache` (content-addressed JSONL segment store,
  safe concurrent writers, compacted SQLite index tier) that lets
  separate shards and re-runs reuse generations through the filesystem;
* :mod:`repro.runtime.sweep` — `SweepSpec` / `ShardPlan` /
  `SweepRunner` / `merge_sweep`: deterministic sharding of multi-axis
  evaluation matrices with byte-identical merged summaries;
* :mod:`repro.runtime.remote` — the process/socket worker substrate:
  one `SocketTransport` (socketpairs for spawned workers, unix-domain
  and TCP listeners for joins) under the `ProcessBackend` supervisor, with hello/heartbeat registration,
  EWMA latency-aware scheduling, restart-on-crash and in-flight
  requeue; ``repro-worker --connect`` joins a fleet from any machine;
* :mod:`repro.runtime.serve` — the ``repro-serve`` online tier:
  ``POST /v1/query`` answers (or abstains) through the same service,
  byte-identically to the offline drivers;
* :mod:`repro.runtime.cli` — the ``repro-run``, ``repro-sweep`` and
  ``repro-cache`` console entry points, sharing one
  :class:`~repro.runtime.service.BackendSpec` flag vocabulary with
  ``repro-serve`` and ``repro-worker``.

The stable public API of this package is its ``__all__``: the service
layer (`GenerationService`, `BackendSpec`, the backends), the stores,
the runner/sweep orchestration and the record helpers. Backend
configuration travels only as a ``BackendSpec``.

There is one parallelism axis: examples are evaluated serially in
process, and generations run in parallel only on the ``process``
backend (``BackendSpec(kind="process", workers=N)``).

Every path is deterministic: a sweep split into N shards merges
byte-identically to the unsharded run, and the ``simulator`` and
``process`` generation backends produce byte-identical summaries at any
worker count, because all randomness in the library is derived from named
streams, never from execution order, batching or process boundaries.
"""

from repro.runtime.artifacts import (
    RunArtifact,
    link_record,
    summarize_joint,
    summarize_link,
)
from repro.runtime.cache import CacheStats, CachingLLM, GenerationCache, instance_key
from repro.runtime.persist import (
    PersistentGenerationCache,
    SqliteSegmentIndex,
    generation_namespace,
    store_stats,
)
from repro.runtime.remote import ProcessBackend, SupervisorStats, WorkerCrashError
from repro.runtime.runner import BatchResult, BatchRunner
from repro.runtime.service import (
    GEN_BACKENDS,
    PIPE_TRANSPORT,
    PROCESS,
    SIMULATOR,
    TCP_TRANSPORT,
    TRANSPORTS,
    UNIX_TRANSPORT,
    BackendSpec,
    GenerationBackend,
    GenerationRequest,
    GenerationService,
    SimulatorBackend,
)
from repro.runtime.sweep import (
    ShardPlan,
    SweepRunner,
    SweepSpec,
    SweepUnit,
    merge_sweep,
    run_sweep,
)

__all__ = [
    "BackendSpec",
    "BatchResult",
    "BatchRunner",
    "CacheStats",
    "CachingLLM",
    "GEN_BACKENDS",
    "GenerationBackend",
    "GenerationCache",
    "GenerationRequest",
    "GenerationService",
    "PIPE_TRANSPORT",
    "PROCESS",
    "PersistentGenerationCache",
    "ProcessBackend",
    "RunArtifact",
    "SIMULATOR",
    "ShardPlan",
    "SimulatorBackend",
    "SqliteSegmentIndex",
    "SupervisorStats",
    "SweepRunner",
    "SweepSpec",
    "SweepUnit",
    "TCP_TRANSPORT",
    "TRANSPORTS",
    "UNIX_TRANSPORT",
    "WorkerCrashError",
    "generation_namespace",
    "instance_key",
    "link_record",
    "merge_sweep",
    "run_sweep",
    "store_stats",
    "summarize_joint",
    "summarize_link",
]
