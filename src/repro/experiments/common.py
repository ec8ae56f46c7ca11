"""Shared experiment infrastructure.

:class:`ExperimentContext` memoizes the expensive artifacts — benchmarks,
the simulated LLM, fitted RTS pipelines, surrogate filters, branch
datasets, linking outcomes — so the thirteen experiment runners can share
them within one process (the report runner and the benchmark suite rely
on this). All bulk evaluation routes through the
:class:`~repro.runtime.runner.BatchRunner` returned by :meth:`runner`,
and the LLM is a :class:`~repro.runtime.cache.CachingLLM` adapter over
a :class:`~repro.runtime.service.GenerationService`, so repeated
generations across tables/figures are computed once and the execution
backend is swappable through one
:class:`~repro.runtime.service.BackendSpec` (``kind="simulator"`` for
direct in-process calls, ``"process"`` for crash-isolated worker
subprocesses — byte-identical by construction).

With ``cache_dir`` (or the ``REPRO_CACHE_DIR`` environment variable via
:meth:`ExperimentContext.default`), the service's cache tiers include a
:class:`~repro.runtime.persist.PersistentGenerationCache`: generations
spill to disk and every driver, sweep shard and re-run sharing that
directory reuses them instead of recomputing (O(1) cold lookups once
``repro-cache compact`` has built the SQLite index tier).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.abstention.human import EXPERT, HumanOracle, HumanProfile
from repro.abstention.surrogate import SurrogateFilter
from repro.corpus.bird import BirdBuilder
from repro.corpus.dataset import Benchmark
from repro.corpus.generator import CorpusScale
from repro.corpus.spider import SpiderBuilder
from repro.core.config import ABSTAIN, RTSConfig
from repro.core.pipeline import RTSPipeline
from repro.core.results import JointOutcome, LinkOutcome
from repro.linking.dataset import BranchDataset
from repro.linking.instance import SchemaLinkingInstance
from repro.llm.model import TransparentLLM
from repro.runtime.cache import CachingLLM, GenerationCache
from repro.runtime.runner import BatchRunner
from repro.runtime.service import BackendSpec, GenerationService
from repro.utils.tabulate import render_table

__all__ = ["ExperimentContext", "ExperimentResult", "DATASETS"]

# (display name, benchmark name, split) triples used across tables.
DATASETS = (
    ("Bird", "bird", "dev"),
    ("Spider-dev", "spider", "dev"),
    ("Spider-test", "spider", "test"),
)


@dataclass
class ExperimentResult:
    """A rendered experiment: rows we measured, next to the paper's."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list]
    paper_rows: "list[list] | None" = None
    notes: str = ""

    def render(self) -> str:
        parts = [
            render_table(
                self.headers, self.rows, title=f"{self.experiment_id}: {self.title}"
            )
        ]
        if self.paper_rows:
            parts.append("")
            parts.append(
                render_table(self.headers, self.paper_rows, title="Paper reports")
            )
        if self.notes:
            parts.append("")
            parts.append(f"Note: {self.notes}")
        return "\n".join(parts)

    def to_markdown(self) -> str:
        def md_table(rows: list[list]) -> str:
            head = "| " + " | ".join(self.headers) + " |"
            sep = "|" + "|".join("---" for _ in self.headers) + "|"
            body = [
                "| "
                + " | ".join(
                    f"{v:.2f}" if isinstance(v, float) else str(v) for v in row
                )
                + " |"
                for row in rows
            ]
            return "\n".join([head, sep, *body])

        parts = [f"### {self.experiment_id}: {self.title}", "", "Measured:", "", md_table(self.rows)]
        if self.paper_rows:
            parts += ["", "Paper:", "", md_table(self.paper_rows)]
        if self.notes:
            parts += ["", f"_Note: {self.notes}_"]
        return "\n".join(parts)


class ExperimentContext:
    """Shared, memoized state for the experiment runners."""

    def __init__(
        self,
        corpus_seed: int = 7,
        llm_seed: int = 11,
        rts_seed: int = 3,
        scale: "CorpusScale | None" = None,
        cache: "GenerationCache | None" = None,
        cache_dir: "str | Path | None" = None,
        service: "GenerationService | None" = None,
        spec: "BackendSpec | None" = None,
    ):
        self.corpus_seed = corpus_seed
        self.llm_seed = llm_seed
        self.rts_seed = rts_seed
        self.scale = scale or CorpusScale.small()
        self.spec = spec or BackendSpec()
        self._cache = cache
        self._service = service
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._benchmarks: dict[str, Benchmark] = {}
        self._pipelines: dict[str, RTSPipeline] = {}
        self._surrogates: dict[str, SurrogateFilter] = {}
        self._runners: dict[str, BatchRunner] = {}
        self._branch_datasets: dict[tuple, BranchDataset] = {}
        self._link: dict[tuple, list[LinkOutcome]] = {}
        self._joint: dict[tuple, list[JointOutcome]] = {}
        self._llm: "CachingLLM | None" = None

    @classmethod
    def tiny(cls, **kwargs) -> "ExperimentContext":
        """A fast context for tests and benchmark timing."""
        return cls(scale=CorpusScale.tiny(), **kwargs)

    @classmethod
    def default(cls, **kwargs) -> "ExperimentContext":
        """The driver entry points' context.

        Honors ``REPRO_CACHE_DIR``: when set, every table/figure driver
        shares one persistent generation cache, so regenerating the
        evidence file after a sweep (or re-running a single driver)
        reuses all previously computed generations.
        """
        kwargs.setdefault("cache_dir", os.environ.get("REPRO_CACHE_DIR") or None)
        return cls(**kwargs)

    # -- artifacts ----------------------------------------------------------

    @property
    def llm(self) -> CachingLLM:
        if self._llm is None:
            if self._service is not None:
                # A shared, pre-wired service (e.g. one sweep runner's
                # service spanning every per-seed context).
                self._llm = CachingLLM(service=self._service)
            else:
                base = TransparentLLM(seed=self.llm_seed)
                self._service = self.spec.build(
                    base, cache=self._cache, cache_dir=self.cache_dir
                )
                self._llm = CachingLLM(base, service=self._service)
        return self._llm

    @property
    def service(self) -> GenerationService:
        """The generation service every consumer in this context shares."""
        return self.llm.service

    def close(self) -> None:
        """Shut down the generation service — only if one was ever built.

        Deliberately does not construct the LLM just to close it (and
        so never raises on a half-initialized context); safe to call
        from ``finally`` blocks.
        """
        if self._service is not None:
            self._service.close()

    def __enter__(self) -> "ExperimentContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def benchmark(self, name: str) -> Benchmark:
        if name not in self._benchmarks:
            builder = {
                "bird": BirdBuilder(seed=self.corpus_seed, scale=self.scale),
                "spider": SpiderBuilder(seed=self.corpus_seed, scale=self.scale),
            }[name]
            self._benchmarks[name] = builder.build()
        return self._benchmarks[name]

    def pipeline(self, name: str) -> RTSPipeline:
        if name not in self._pipelines:
            pipe = RTSPipeline(self.llm, RTSConfig(seed=self.rts_seed))
            pipe.fit_benchmark(self.benchmark(name))
            self._pipelines[name] = pipe
        return self._pipelines[name]

    def runner(self, name: str) -> BatchRunner:
        """The batch runner every bulk evaluation routes through."""
        if name not in self._runners:
            self._runners[name] = self.pipeline(name).batch()
        return self._runners[name]

    def surrogate(self, name: str) -> SurrogateFilter:
        if name not in self._surrogates:
            bench = self.benchmark(name)
            self._surrogates[name] = SurrogateFilter(seed=5).fit(
                list(bench.train), bench.databases
            )
        return self._surrogates[name]

    def instances(
        self, name: str, split: str, task: str
    ) -> "list[SchemaLinkingInstance]":
        bench = self.benchmark(name)
        return [
            RTSPipeline.instance_for(example, bench, task)
            for example in bench.split(split)
        ]

    def human(self, profile: HumanProfile = EXPERT, seed: int = 9) -> HumanOracle:
        return HumanOracle(profile, seed=seed)

    def branch_dataset(self, name: str, split: str, task: str) -> BranchDataset:
        """Memoized D_branch over one split — shared by the figure sweeps."""
        key = (name, split, task)
        if key not in self._branch_datasets:
            self._branch_datasets[key] = self.runner(name).branch_dataset(
                self.instances(name, split, task)
            )
        return self._branch_datasets[key]

    def link_outcomes(
        self, name: str, split: str, task: str, mode: str = ABSTAIN
    ) -> "list[LinkOutcome]":
        """Memoized per-task linking sweep via the batch runner."""
        key = (name, split, task, mode)
        if key not in self._link:
            surrogate = self.surrogate(name) if mode == "surrogate" else None
            human = self.human() if mode == "human" else None
            result = self.runner(name).run_link(
                self.instances(name, split, task),
                mode=mode,
                surrogate=surrogate,
                human=human,
            )
            self._link[key] = result.outcomes
        return self._link[key]

    def joint_outcomes(
        self,
        name: str,
        split: str = "dev",
        profile: HumanProfile = EXPERT,
        limit: "int | None" = None,
    ) -> "list[JointOutcome]":
        key = (name, split, profile.name, limit)
        if key not in self._joint:
            bench = self.benchmark(name)
            human = self.human(profile)
            examples = list(bench.split(split))
            if limit is not None:
                examples = examples[:limit]
            result = self.runner(name).run_joint(
                examples, bench, mode="human", human=human
            )
            self._joint[key] = result.outcomes
        return self._joint[key]
