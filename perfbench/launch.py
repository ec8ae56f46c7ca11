"""Runs one program entry point inside a fresh interpreter for the benchmark.

    python perfbench/launch.py ENTRY MARKS_FILE [ARG ...]

ENTRY is one of:

``run``        ``repro-run`` with ARGs. Records when the fitted runner
               starts evaluating (the end of set-up), when it finishes,
               and each example's evaluation time.
``serve``      ``repro-serve`` with ARGs (stop it with SIGINT).
``cache``      ``repro-cache`` with ARGs.
``ids``        ARGs = CORPUS_SEED: the bird dev and test example ids.
``reference``  ARGs = CORPUS_SEED CACHE_DIR REQUESTS_FILE OUT_DIR: the
               offline artifact lines for the requested (example, task,
               mode) triples, written by the same ``BatchRunner`` path
               that ``repro-run --artifact`` uses, with the default
               (simulator) backend and its own store in CACHE_DIR.

MARKS_FILE receives a JSON object with the recorded times (monotonic
clock, comparable across processes) and the process's peak RSS.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

# The program sees its own modules only, not this directory's.
if sys.path and os.path.abspath(sys.path[0]) == os.path.dirname(os.path.abspath(__file__)):
    del sys.path[0]


def _run(args: "list[str]", marks: dict) -> int:
    import repro.runtime.runner as runner
    from repro.runtime.cli import main

    example_ms = marks["example_ms"] = []

    def timed(fn):
        def call(*call_args):
            start = time.perf_counter()
            try:
                return fn(*call_args)
            finally:
                example_ms.append((time.perf_counter() - start) * 1000.0)

        return call

    def evaluating(fn):
        def call(*call_args, **call_kwargs):
            marks["ready"] = time.monotonic()
            try:
                return fn(*call_args, **call_kwargs)
            finally:
                marks["evaluated"] = time.monotonic()

        return call

    runner._link_one = timed(runner._link_one)
    runner._joint_one = timed(runner._joint_one)
    runner.BatchRunner.run_link = evaluating(runner.BatchRunner.run_link)
    runner.BatchRunner.run_joint = evaluating(runner.BatchRunner.run_joint)
    return main(args)


def _ids(corpus_seed: str) -> dict:
    from repro.corpus.generator import CorpusScale
    from repro.experiments.common import ExperimentContext

    with ExperimentContext(corpus_seed=int(corpus_seed), scale=CorpusScale.small()) as ctx:
        bench = ctx.benchmark("bird")
        return {split: [e.example_id for e in bench.split(split)] for split in ("dev", "test")}


def _reference(corpus_seed: str, cache_dir: str, requests_file: str, out_dir: str) -> None:
    from pathlib import Path

    from repro.core.config import HUMAN
    from repro.core.pipeline import RTSPipeline
    from repro.corpus.generator import CorpusScale
    from repro.experiments.common import ExperimentContext

    with open(requests_file, encoding="utf8") as handle:
        triples = sorted({tuple(t) for t in json.load(handle)})
    groups: "dict[tuple[str, str], list[str]]" = {}
    for example_id, task, mode in triples:
        groups.setdefault((task, mode), []).append(example_id)
    ctx = ExperimentContext(
        corpus_seed=int(corpus_seed), scale=CorpusScale.small(), cache_dir=cache_dir
    )
    with ctx:
        bench = ctx.benchmark("bird")
        runner = ctx.runner("bird")
        by_id = {e.example_id: e for split in ("dev", "test") for e in bench.split(split)}
        for (task, mode), ids in sorted(groups.items()):
            human = ctx.human() if mode == HUMAN else None
            artifact = str(Path(out_dir) / f"{task}-{mode}.jsonl")
            examples = [by_id[i] for i in ids]
            if task == "joint":
                runner.run_joint(examples, bench, mode=mode, human=human, artifact=artifact)
            else:
                instances = [RTSPipeline.instance_for(e, bench, task) for e in examples]
                runner.run_link(instances, mode=mode, human=human, artifact=artifact)


def main(argv: "list[str]") -> int:
    entry, marks_file, args = argv[0], argv[1], argv[2:]
    marks: dict = {"start": time.monotonic()}
    code = 1
    try:
        if entry == "run":
            code = _run(args, marks)
        elif entry == "serve":
            from repro.runtime.serve import main_serve

            code = main_serve(args)
        elif entry == "cache":
            from repro.runtime.cli import main_cache

            code = main_cache(args)
        elif entry == "ids":
            marks["ids"] = _ids(*args)
            code = 0
        elif entry == "reference":
            _reference(*args)
            code = 0
        else:
            raise SystemExit(f"unknown entry {entry!r}")
    finally:
        marks["exit"] = time.monotonic()
        marks["code"] = code
        marks["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        with open(marks_file, "w", encoding="utf8") as handle:
            json.dump(marks, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
