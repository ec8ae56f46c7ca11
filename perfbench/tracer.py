"""Span tracer for traced benchmark runs, installed from outside the program.

:func:`install` wraps the public functions at each layer boundary (the
``BOUNDARIES`` table) in recorders. Each call becomes a span: name,
start, end, parent span (the caller's open span on the same thread) and
a request id shared by every span of one request (a served query or one
evaluated example). A few boundaries also bump counters. Spans are kept
in memory and appended, as JSON lines, to ``<trace dir>/trace-<pid>.jsonl``
once a second and at exit (see :func:`install`).

``hook/sitecustomize.py`` calls :func:`install` in every interpreter
started with ``PERFBENCH_TRACE_DIR`` set, which covers worker
subprocesses the program spawns itself.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: "list[tuple]" = []  # (id, name, start, end, parent, request)
        self.counters: "dict[str, int]" = {}
        self.service = None  # last GenerationService seen: its tier stats
        self.supervisor = None  # last ProcessBackend seen: its SupervisorStats
        self.mbpp_task: "dict[int, str]" = {}
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._flush_lock = threading.Lock()
        self._flushed = 0  # spans already written

    @property
    def task(self) -> "str | None":
        """The linking task whose probes this thread is fitting."""
        return getattr(self._local, "task", None)

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, fn, name, on_enter=None, on_exit=None, request=False):
        """``fn`` recording one span per call; ``name`` may be a callable
        of ``(tracer, args, kwargs)``. ``request=True`` opens a new
        request id unless the thread is already inside one."""
        tracer = self
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(tracer._span_ids)
            parent = stack[-1] if stack else None
            opens = request and getattr(local, "request", None) is None
            if opens:
                local.request = next(tracer._request_ids)
            request_id = getattr(local, "request", None)
            label = name(tracer, args, kwargs) if callable(name) else name
            if on_enter is not None:
                on_enter(tracer, args, kwargs)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if opens:
                    local.request = None
                tracer.spans.append((span_id, label, start, end, parent, request_id))
            if on_exit is not None:
                on_exit(tracer, args, kwargs, result)
            return result

        return traced

    def flush(self, directory: str) -> None:
        """Append the spans recorded since the last flush, with the
        counters so far, as one JSON line of ``trace-<pid>.jsonl``."""
        with self._flush_lock:
            end = len(self.spans)
            payload = {
                "pid": os.getpid(),
                "argv": sys.argv,
                "spans": self.spans[self._flushed : end],
                "counters": dict(self.counters),
                "service": None,
                "supervisor": None,
            }
            if self.service is not None:
                payload["service"] = {
                    "tiers": {t: s.as_dict() for t, s in self.service.tier_stats.items()},
                    "total": self.service.stats.as_dict(),
                }
            if self.supervisor is not None:
                payload["supervisor"] = self.supervisor.stats.as_dict()
            path = os.path.join(directory, f"trace-{os.getpid()}.jsonl")
            with open(path, "a", encoding="utf8") as handle:
                handle.write(json.dumps(payload) + "\n")
            self._flushed = end

    def _flush_every(self, directory: str, period_s: float) -> None:
        while True:
            time.sleep(period_s)
            if len(self.spans) > self._flushed:
                self.flush(directory)


# -- boundary hooks ------------------------------------------------------------


def _llm_exit(tracer, args, kwargs, trace):
    tracer.count("llm.tokens", len(trace.steps))


def _service_exit(tracer, args, kwargs, result):
    tracer.service = args[0]
    tracer.count("service.requests", len(result))


def _probe_exit(tracer, args, kwargs, result):
    if result[0] is not None:
        tracer.count("persist.reads")


def _admit_name(tracer, args, kwargs):
    return "persist.write" if kwargs.get("miss") else "persist.admit"


def _remote_exit(tracer, args, kwargs, result):
    tracer.supervisor = args[0]
    tracer.count("remote.results", len(result))


def _linking_exit(tracer, args, kwargs, dataset):
    instances = args[1] if len(args) > 1 else kwargs["instances"]
    tracer.count(f"linking.tokens.{instances[0].task}", dataset.n_tokens)


def _fit_enter(tracer, args, kwargs):
    tracer._local.task = args[1] if len(args) > 1 else kwargs["task"]


def _fit_exit(tracer, args, kwargs, result):
    tracer._local.task = None


def _train_name(tracer, args, kwargs):
    return f"probes.train.{tracer.task}"


def _train_exit(tracer, args, kwargs, mbpp):
    tracer.mbpp_task[id(mbpp)] = tracer.task


def _mlp_exit(tracer, args, kwargs, result):
    tracer.count(f"probes.fits.{tracer.task}")


def _predict_exit(tracer, args, kwargs, result):
    task = tracer.mbpp_task.get(id(args[0]))
    if task is not None and f"probes.used.{task}" not in tracer.counters:
        tracer.count(f"probes.used.{task}")


# (module, attribute path, span name, hooks). Every name's first segment
# is the layer it reports to.
BOUNDARIES = (
    ("repro.corpus.bird", "BirdBuilder.build", "corpus.build", {}),
    ("repro.corpus.spider", "SpiderBuilder.build", "corpus.build", {}),
    ("repro.llm.model", "TransparentLLM.generate", "llm.generate", {"on_exit": _llm_exit}),
    (
        "repro.llm.model",
        "TransparentLLM.teacher_forced_trace",
        "llm.teacher_forced",
        {"on_exit": _llm_exit},
    ),
    (
        "repro.runtime.service",
        "GenerationService.generate",
        "service.generate",
        {"on_exit": _service_exit},
    ),
    (
        "repro.runtime.persist",
        "PersistentGenerationCache.probe_disk",
        "persist.probe_disk",
        {"on_exit": _probe_exit},
    ),
    (
        "repro.runtime.persist",
        "PersistentGenerationCache.record_to_trace",
        "persist.record_to_trace",
        {},
    ),
    ("repro.runtime.persist", "PersistentGenerationCache.admit", _admit_name, {}),
    (
        "repro.runtime.remote",
        "ProcessBackend.generate",
        "remote.generate",
        {"on_exit": _remote_exit},
    ),
    ("repro.runtime.pool", "WorkerPool.map_ordered", "pool.map_ordered", {}),
    (
        "repro.linking.dataset",
        "collect_branch_dataset",
        "linking.collect_branch_dataset",
        {"on_exit": _linking_exit},
    ),
    (
        "repro.core.pipeline",
        "RTSPipeline.fit_task",
        "pipeline.fit_task",
        {"on_enter": _fit_enter, "on_exit": _fit_exit},
    ),
    ("repro.core.pipeline", "RTSPipeline.link", "pipeline.link", {"request": True}),
    ("repro.core.pipeline", "RTSPipeline.link_joint", "pipeline.joint", {"request": True}),
    ("repro.probes.mbpp", "MultiLayerBPP.train", _train_name, {"on_exit": _train_exit}),
    ("repro.probes.mlp", "MLPClassifier.fit", "probes.mlp_fit", {"on_exit": _mlp_exit}),
    (
        "repro.probes.mbpp",
        "MultiLayerBPP.is_branching",
        "probes.is_branching",
        {"on_exit": _predict_exit},
    ),
    ("repro.conformal.split", "SplitConformalBinary.fit", "conformal.fit", {}),
    (
        "repro.conformal.nonexchangeable",
        "NonexchangeableConformalBinary.fit",
        "conformal.fit",
        {},
    ),
    (
        "repro.abstention.human",
        "HumanOracle.confirm_relevance",
        "abstention.confirm_relevance",
        {},
    ),
    ("repro.runtime.runner", "BatchRunner.run_link", "runner.run_link", {}),
    ("repro.runtime.runner", "BatchRunner.run_joint", "runner.run_joint", {}),
    ("repro.runtime.artifacts", "RunArtifact.append", "artifacts.append", {}),
    ("repro.runtime.artifacts", "RunArtifact.write_summary", "artifacts.write_summary", {}),
    ("repro.runtime.artifacts", "RunArtifact.write_stats", "artifacts.write_stats", {}),
    ("repro.sqlgen.generator", "SqlGenerator.generate", "sqlgen.generate", {}),
    ("repro.runtime.serve", "ServeApp.query", "serve.query", {"request": True}),
)


def _patch(tracer: Tracer, module_name: str, path: str, name, hooks: dict) -> None:
    module = importlib.import_module(module_name)
    if "." not in path:
        original = getattr(module, path)
        traced = tracer.wrap(original, name, **hooks)
        # Rebind every loaded alias (``from x import f``) of the function.
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and (
                getattr(mod, path, None) is original
            ):
                setattr(mod, path, traced)
        return
    cls_name, attr = path.split(".")
    cls = getattr(module, cls_name)
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, name, **hooks)))
    else:
        setattr(cls, attr, tracer.wrap(raw, name, **hooks))


def install(directory: str, period_s: float = 1.0) -> Tracer:
    """Wrap every boundary; spans go to ``directory`` at exit and, from
    a background thread, once every ``period_s`` with new spans. The
    periodic flush is for worker processes, which the program's
    supervisor may SIGKILL at shutdown, before any exit handler runs."""
    tracer = Tracer()
    for module_name, _path, _name, _hooks in BOUNDARIES:
        importlib.import_module(module_name)
    for module_name, path, name, hooks in BOUNDARIES:
        _patch(tracer, module_name, path, name, hooks)
    atexit.register(tracer.flush, directory)
    threading.Thread(
        target=tracer._flush_every, args=(directory, period_s), name="perfbench-trace", daemon=True
    ).start()
    return tracer
