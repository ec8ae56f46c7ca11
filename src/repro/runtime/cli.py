"""``repro-run``, ``repro-sweep`` and ``repro-cache`` from the shell.

Examples
--------
Link-level sweep with four threads, streaming a resumable artifact; the
``--backend`` axis picks the generation backend (``simulator`` for
direct in-process calls, ``process`` for crash-isolated worker
subprocesses — byte-identical summaries whichever is chosen), and
``--cache-dir`` (defaulting to ``$REPRO_CACHE_DIR``) shares the
persistent generation store with sweeps and the table/figure drivers::

    repro-run --benchmark bird --split dev --task table --mode abstain \
        --workers 4 --artifact out/bird-table.jsonl

    repro-run --benchmark bird --split dev --task table --mode abstain \
        --workers 4 --backend process --worker-log-dir out/worker-logs

Joint table→column sweep with the expert human in the loop::

    repro-run --benchmark spider --split test --joint --mode human

Interrupt either run and re-issue the same command: completed examples
are loaded from the artifact and only the remainder is evaluated.

Multi-axis matrices shard across machines with ``repro-sweep``: every
invocation below may run on a different host against a shared
filesystem, and generations are reused across all of them through the
persistent cache under ``--cache-dir``. ``--progress`` streams per-unit
completion lines to stderr (stdout stays pure JSON)::

    repro-sweep run --benchmarks bird spider --modes abstain human \
        --shard-index 0 --shard-count 2 --out out/sweep --cache-dir out/gen
    repro-sweep run --benchmarks bird spider --modes abstain human \
        --shard-index 1 --shard-count 2 --out out/sweep --cache-dir out/gen \
        --progress
    repro-sweep merge --out out/sweep

The merged ``sweep-summary.json`` is byte-identical however the sweep
was sharded; ``repro-sweep plan`` previews the shard assignment.

``repro-cache`` inspects and maintains the store itself: ``stats``
reports per-namespace segment/entry/kind tallies, ``compact`` folds all
segments into one and builds the SQLite index tier for O(1) cold
lookups. Compaction fails fast while another writer holds a live
per-namespace lock (``--force`` overrides, accepting that concurrently
appended entries may be dropped)::

    repro-cache stats --cache-dir out/gen
    repro-cache compact --cache-dir out/gen

The online tier lives next door: ``repro-serve`` (see
:mod:`repro.runtime.serve`) answers HTTP queries through the same
service, byte-identically to these offline drivers, and
``repro-worker --connect`` (see :mod:`repro.runtime.remote`) joins a
socket-transport supervisor from any machine. All four entry points
share one :class:`~repro.runtime.service.BackendSpec` flag vocabulary.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.core.config import ABSTAIN, HUMAN, MITIGATION_MODES, SURROGATE
from repro.corpus.generator import CorpusScale
from repro.experiments.common import ExperimentContext
from repro.runtime.artifacts import strict_jsonable
from repro.runtime.pool import BACKENDS, THREAD, default_workers
from repro.runtime.service import BackendSpec
from repro.runtime.sweep import (
    BENCHMARKS,
    SCALES as SWEEP_SCALES,
    SPLITS,
    TASKS,
    ShardPlan,
    SweepRunner,
    SweepSpec,
    merge_sweep,
)

__all__ = [
    "build_parser",
    "main",
    "build_sweep_parser",
    "main_sweep",
    "build_cache_parser",
    "main_cache",
]

SCALES = ("tiny", "small")


def positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return parsed


def nonnegative_float(value: str) -> float:
    parsed = float(value)
    if not parsed >= 0:  # also rejects NaN
        raise argparse.ArgumentTypeError("must be >= 0")
    return parsed


def _default_cache_dir() -> "str | None":
    """``--cache-dir`` default: the driver-shared ``REPRO_CACHE_DIR``."""
    return os.environ.get("REPRO_CACHE_DIR") or None


RUN_EPILOG = """\
examples:
  # four-thread link sweep, resumable artifact, shared generation store
  repro-run --benchmark bird --split dev --task table --mode abstain \\
      --workers 4 --artifact out/bird-table.jsonl --cache-dir out/gen

  # the same unit on crash-isolated worker processes over unix-domain
  # sockets (byte-identical); external `repro-worker --connect <address>`
  # processes may join the fleet
  repro-run --benchmark bird --split dev --task table --mode abstain \\
      --workers 4 --backend process --transport unix \\
      --worker-log-dir out/worker-logs

The --backend axis never changes a summary byte: both backends are
pure functions of the same requests and share one cache namespace. The
same spec drives the online tier: `repro-serve` answers HTTP queries
byte-identically to these offline runs (see repro-serve --help), and
the shared SLO knobs apply offline too — on the process backend,
--request-timeout-s deadlines each generation and --fleet-token (or
$REPRO_FLEET_TOKEN) gates socket workers joining the fleet. Operator
docs: README.md, docs/.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-run",
        description="Batched RTS evaluation over a benchmark split.",
        epilog=RUN_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--benchmark", choices=("bird", "spider"), default="bird")
    parser.add_argument("--split", choices=("train", "dev", "test"), default="dev")
    parser.add_argument(
        "--task",
        choices=("table", "column"),
        default="table",
        help="linking task for per-task sweeps (ignored with --joint)",
    )
    parser.add_argument(
        "--joint",
        action="store_true",
        help="run the joint table->column pipeline instead of one task",
    )
    parser.add_argument("--mode", choices=sorted(MITIGATION_MODES), default=ABSTAIN)
    parser.add_argument("--workers", type=positive_int, default=default_workers())
    parser.add_argument(
        "--pool",
        choices=BACKENDS,
        default=THREAD,
        help="worker-pool execution backend for per-example evaluation",
    )
    BackendSpec.add_arguments(parser)
    parser.add_argument(
        "--cache-dir",
        default=_default_cache_dir(),
        help="persistent generation cache shared with sweeps and drivers "
        "(default: $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--scale",
        choices=SCALES,
        default="small",
        help="synthetic corpus scale (tiny is the test/CI size)",
    )
    parser.add_argument(
        "--limit", type=positive_int, default=None, help="cap example count"
    )
    parser.add_argument(
        "--artifact",
        default=None,
        help="JSONL path for streamed per-example records (enables resume)",
    )
    parser.add_argument("--corpus-seed", type=int, default=7)
    parser.add_argument("--llm-seed", type=int, default=11)
    parser.add_argument("--rts-seed", type=int, default=3)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    scale = CorpusScale.tiny() if args.scale == "tiny" else CorpusScale.small()
    ctx = ExperimentContext(
        corpus_seed=args.corpus_seed,
        llm_seed=args.llm_seed,
        rts_seed=args.rts_seed,
        scale=scale,
        workers=args.workers,
        backend=args.pool,
        cache_dir=args.cache_dir,
        spec=BackendSpec.from_args(args, workers=max(1, args.workers)),
    )
    with ctx:
        benchmark = ctx.benchmark(args.benchmark)
        runner = ctx.runner(args.benchmark)
        surrogate = ctx.surrogate(args.benchmark) if args.mode == SURROGATE else None
        human = ctx.human() if args.mode == HUMAN else None

        if args.joint:
            examples = list(benchmark.split(args.split))[: args.limit]
            result = runner.run_joint(
                examples,
                benchmark,
                mode=args.mode,
                surrogate=surrogate,
                human=human,
                artifact=args.artifact,
            )
        else:
            instances = ctx.instances(args.benchmark, args.split, args.task)
            result = runner.run_link(
                instances[: args.limit],
                mode=args.mode,
                surrogate=surrogate,
                human=human,
                artifact=args.artifact,
            )

        payload = {
            "benchmark": args.benchmark,
            "split": args.split,
            "task": "joint" if args.joint else args.task,
            "mode": args.mode,
            "workers": runner.pool.workers,
            "pool": runner.pool.backend,
            "backend": args.backend,
            "cache_dir": args.cache_dir,
            "n_resumed": result.n_resumed,
            "n_evaluated": result.n_evaluated,
            "summary": result.summary,
        }
        if result.cache_stats is not None:
            payload["generation_cache"] = result.cache_stats.as_dict()
        json.dump(strict_jsonable(payload), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0


# -- repro-sweep --------------------------------------------------------------


def _emit(payload: dict) -> None:
    json.dump(strict_jsonable(payload), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    matrix = parser.add_argument_group("sweep matrix")
    matrix.add_argument("--benchmarks", nargs="+", choices=BENCHMARKS, default=["bird"])
    matrix.add_argument("--splits", nargs="+", choices=SPLITS, default=["dev"])
    matrix.add_argument("--tasks", nargs="+", choices=TASKS, default=["table"])
    matrix.add_argument(
        "--modes", nargs="+", choices=sorted(MITIGATION_MODES), default=[ABSTAIN]
    )
    matrix.add_argument(
        "--seeds",
        nargs="+",
        type=int,
        default=[3],
        help="RTS pipeline seeds (one fitted pipeline per seed)",
    )
    matrix.add_argument("--corpus-seed", type=int, default=7)
    matrix.add_argument("--llm-seed", type=int, default=11)
    matrix.add_argument("--scale", choices=tuple(SWEEP_SCALES), default="small")
    matrix.add_argument(
        "--limit", type=positive_int, default=None, help="cap examples per unit"
    )


def _spec_from_args(args: argparse.Namespace) -> SweepSpec:
    return SweepSpec(
        benchmarks=tuple(args.benchmarks),
        splits=tuple(args.splits),
        tasks=tuple(args.tasks),
        modes=tuple(args.modes),
        seeds=tuple(args.seeds),
        corpus_seed=args.corpus_seed,
        llm_seed=args.llm_seed,
        scale=args.scale,
        limit=args.limit,
    )


SWEEP_EPILOG = """\
examples:
  # two shards (any two machines over a shared filesystem), then merge
  repro-sweep run --benchmarks bird spider --modes abstain human \\
      --shard-index 0 --shard-count 2 --out out/sweep --cache-dir out/gen
  repro-sweep run --benchmarks bird spider --modes abstain human \\
      --shard-index 1 --shard-count 2 --out out/sweep --cache-dir out/gen \\
      --backend process --workers 4 --worker-log-dir out/worker-logs
  repro-sweep merge --out out/sweep

Shards may mix --backend values freely (simulator, process):
unit summaries and the merged sweep-summary.json are byte-identical
regardless, and all backends share one persistent cache namespace.
With --backend process --transport unix|tcp the workers connect over
sockets, and external machines can lend capacity to a shard by running
`repro-worker --connect <address>` against its supervisor — gated by
--fleet-token / $REPRO_FLEET_TOKEN when set. On the process backend,
--request-timeout-s deadlines each generation instead of waiting
forever. Operator docs:
README.md, docs/.
"""


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description="Sharded multi-axis evaluation sweeps with a persistent "
        "cross-process generation cache.",
        epilog=SWEEP_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one shard of the sweep matrix")
    _add_spec_arguments(run)
    run.add_argument("--shard-index", type=int, default=0)
    run.add_argument("--shard-count", type=positive_int, default=1)
    run.add_argument("--out", required=True, help="sweep output directory")
    run.add_argument(
        "--cache-dir",
        default=_default_cache_dir(),
        help="persistent generation cache shared across shards and re-runs "
        "(default: $REPRO_CACHE_DIR)",
    )
    run.add_argument("--workers", type=positive_int, default=1)
    run.add_argument(
        "--pool",
        choices=BACKENDS,
        default=THREAD,
        help="worker-pool execution backend for per-example evaluation",
    )
    BackendSpec.add_arguments(run)
    run.add_argument(
        "--progress",
        action="store_true",
        help="stream per-unit completion lines (id, examples, tier hit "
        "rates) to stderr; JSON artifacts are unaffected",
    )

    plan = commands.add_parser("plan", help="preview the shard assignment")
    _add_spec_arguments(plan)
    plan.add_argument("--shard-count", type=positive_int, default=1)

    merge = commands.add_parser(
        "merge", help="merge shard manifests into sweep-summary.json"
    )
    merge.add_argument("--out", required=True, help="sweep output directory")
    return parser


def main_sweep(argv: "list[str] | None" = None) -> int:
    parser = build_sweep_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and not 0 <= args.shard_index < args.shard_count:
        parser.error(
            f"--shard-index {args.shard_index} out of range for "
            f"--shard-count {args.shard_count}"
        )
    if args.command == "merge":
        merged = merge_sweep(args.out)
        _emit(merged)
        return 0

    spec = _spec_from_args(args)
    if args.command == "plan":
        plan = ShardPlan(spec, args.shard_count)
        _emit(
            {
                "spec": spec.to_dict(),
                "spec_digest": spec.digest(),
                "n_units": len(spec.units()),
                "shards": {
                    f"shard-{i}": [u.unit_id for u in plan.shard(i)]
                    for i in range(args.shard_count)
                },
            }
        )
        return 0

    def progress_line(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    with SweepRunner(
        spec,
        args.out,
        cache_dir=args.cache_dir,
        workers=args.workers,
        pool=args.pool,
        backend_spec=BackendSpec.from_args(args, workers=max(1, args.workers)),
        progress=progress_line if args.progress else None,
    ) as runner:
        manifest = runner.run_shard(args.shard_index, args.shard_count)
    _emit(manifest)
    return 0


# -- repro-cache --------------------------------------------------------------


CACHE_EPILOG = """\
examples:
  repro-cache stats --cache-dir out/gen
  repro-cache compact --cache-dir out/gen
  repro-cache compact --cache-dir out/gen --namespace llm-0123abcd --force
  repro-cache migrate --cache-dir out/gen

stats reports the per-namespace codec mix (base64 vs binary records and
payload bytes), so a store mid-migration is visible at a glance.

compact folds segments, drops duplicates, and transcodes any legacy
base64 records into the binary sidecar layout; the transcode count is
logged and reported per namespace.  migrate is an alias for compact —
use it when the intent is codec migration rather than space reclaim.

compact fails fast while another writer holds a live lock on the
namespace (a crashed writer's stale lock is swept automatically);
--force overrides, accepting that concurrently appended entries may be
dropped.
"""


def build_cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cache",
        description="Inspect and maintain the persistent generation store.",
        epilog=CACHE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    stats = commands.add_parser(
        "stats", help="per-namespace segment/entry/kind/index tallies"
    )
    stats.add_argument(
        "--cache-dir",
        default=_default_cache_dir(),
        help="store root (default: $REPRO_CACHE_DIR)",
    )

    compact_help = {
        "compact": "fold each namespace's segments into one, dropping "
        "duplicates, transcoding legacy base64 records to the binary "
        "layout, and building the SQLite index tier (only while no "
        "writer is active)",
        "migrate": "alias for compact: rewrite every namespace in the "
        "current binary segment format (legacy base64 records are "
        "transcoded in place)",
    }
    for name, help_text in compact_help.items():
        compact = commands.add_parser(name, help=help_text)
        compact.add_argument(
            "--cache-dir",
            default=_default_cache_dir(),
            help="store root (default: $REPRO_CACHE_DIR)",
        )
        compact.add_argument(
            "--namespace",
            default=None,
            help="compact one namespace only (default: every namespace)",
        )
        compact.add_argument(
            "--no-index",
            action="store_true",
            help="skip building the SQLite index tier (segment scans only)",
        )
        compact.add_argument(
            "--force",
            action="store_true",
            help="compact even while other writers hold live locks (their "
            "in-flight entries may be dropped)",
        )
    return parser


def main_cache(argv: "list[str] | None" = None) -> int:
    from pathlib import Path

    from repro.runtime.persist import (
        INDEX_NAME,
        PersistentGenerationCache,
        WriterActiveError,
        store_stats,
    )

    parser = build_cache_parser()
    args = parser.parse_args(argv)
    if args.cache_dir is None:
        parser.error("--cache-dir is required (or set REPRO_CACHE_DIR)")

    if args.command == "stats":
        _emit(store_stats(args.cache_dir))
        return 0

    cache_dir = Path(args.cache_dir)
    present = (
        sorted(p.name for p in cache_dir.iterdir() if p.is_dir())
        if cache_dir.is_dir()
        else []
    )
    if args.namespace is not None:
        if args.namespace not in present:
            parser.error(
                f"namespace {args.namespace!r} not found under {cache_dir}"
            )
        targets = [args.namespace]
    else:
        targets = present
    # One record-parsing scan of the target namespaces only (the
    # "before" report); compact() below does the rewrite's own scan,
    # and the "after" numbers are stat()-sized, never re-parsed.
    before = store_stats(cache_dir, namespaces=targets)["namespaces"]
    compacted: dict = {}
    for namespace in targets:
        cache = PersistentGenerationCache(
            cache_dir, namespace=namespace, use_index=not args.no_index
        )
        try:
            kept = cache.compact(index=not args.no_index, force=args.force)
        except WriterActiveError as exc:
            # Fail fast, not silently: compacting under an active writer
            # drops or duplicates its in-flight entries.
            print(f"repro-cache: {exc}", file=sys.stderr)
            print("repro-cache: pass --force to compact anyway", file=sys.stderr)
            cache.close()
            return 3
        directory = cache.directory
        transcoded = (cache.last_compaction or {}).get("transcoded", 0)
        cache.close()
        # stat() sizes only — no second record-parsing scan of the store.
        bytes_after = sum(
            p.stat().st_size
            for pattern in ("*.jsonl", "*.bin")
            for p in directory.glob(pattern)
        )
        index_path = directory / INDEX_NAME
        if index_path.is_file():
            bytes_after += index_path.stat().st_size
        if transcoded:
            print(
                f"repro-cache: {namespace}: transcoded {transcoded} legacy "
                "base64 record(s) to binary",
                file=sys.stderr,
            )
        compacted[namespace] = {
            "entries": kept,
            "segments_before": before[namespace]["segments"],
            "records_before": before[namespace]["records"],
            "bytes_before": before[namespace]["bytes"],
            "bytes_after": bytes_after,
            "transcoded": transcoded,
            "indexed": not args.no_index,
        }
    _emit({"cache_dir": str(cache_dir), "compacted": compacted})
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
