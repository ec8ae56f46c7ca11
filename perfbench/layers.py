"""Per-layer figures from the span dumps of a traced run.

Every process of the program (the main one and any workers) leaves a
``trace-<pid>.jsonl`` file (see ``tracer.py``). A span's layer is the
first dot-separated part of its name. For a layer:

* *busy* time sums the spans that have no enclosing span of the same
  layer (a layer calling itself is counted once);
* *self* time sums each span's duration minus the part of it that its
  child spans cover, so self times add up to the traced wall time.
"""

from __future__ import annotations

import json
from pathlib import Path

from stats import self_times

# The per-layer metrics every traced run reports, with their units.
UNITS = {
    "corpus.build_s": "s",
    "llm.traces": "count",
    "llm.tokens": "count",
    "llm.busy_s": "s",
    "service.requests": "count",
    "service.l1_hits": "count",
    "service.l2_hits": "count",
    "service.l3_hits": "count",
    "service.misses": "count",
    "service.hit_ratio": "ratio",
    "service.busy_s": "s",
    "persist.reads": "count",
    "persist.read_s": "s",
    "persist.writes": "count",
    "persist.write_s": "s",
    "persist.store_bytes": "bytes",
    "remote.batches": "count",
    "remote.busy_s": "s",
    "remote.requeues": "count",
    "remote.restarts": "count",
    "remote.shm_ratio": "ratio",
    "linking.assemble_s": "s",
    "linking.tokens.table": "count",
    "linking.tokens.column": "count",
    "probes.fit_s.table": "s",
    "probes.fit_s.column": "s",
    "probes.fits": "count",
    "probes.fits_used_ratio": "ratio",
    "probes.predict_calls": "count",
    "probes.predict_s": "s",
    "conformal.calibrate_s": "s",
    "pipeline.links": "count",
    "pipeline.link_s": "s",
    "abstention.questions": "count",
    "artifacts.records": "count",
    "artifacts.write_s": "s",
    "sqlgen.calls": "count",
    "sqlgen.s": "s",
}


def _read(path: Path) -> dict:
    """One process's flushes merged: every span, the last counters. A
    process killed mid-write leaves a torn last line, which is skipped."""
    merged = {"spans": [], "counters": {}, "service": None, "supervisor": None}
    for line in path.read_text(encoding="utf8").splitlines():
        try:
            flush = json.loads(line)
        except ValueError:
            continue
        merged["spans"] += flush["spans"]
        merged.update({k: flush[k] for k in ("counters", "service", "supervisor")})
    return merged


class Trace:
    """The merged span dumps of one traced run."""

    def __init__(self, directory: Path):
        self.dumps = [_read(path) for path in sorted(Path(directory).glob("trace-*.jsonl"))]
        self.counters: "dict[str, int]" = {}
        # (name, duration, self time, names of the enclosing spans) per span
        self.rows: "list[tuple[str, float, float, tuple]]" = []
        for dump in self.dumps:
            for key, value in dump["counters"].items():
                self.counters[key] = self.counters.get(key, 0) + value
            spans = {sid: (start, end, parent) for sid, _n, start, end, parent, _r in dump["spans"]}
            names = {sid: name for sid, name, *_ in dump["spans"]}
            own = self_times(spans)
            ancestry: "dict[int, tuple]" = {}

            def ancestors(sid):
                if sid not in ancestry:
                    parent = spans[sid][2]
                    ancestry[sid] = (
                        (names[parent], *ancestors(parent)) if parent in spans else ()
                    )
                return ancestry[sid]

            for sid, (start, end, _parent) in sorted(spans.items()):
                self.rows.append((names[sid], end - start, own[sid], ancestors(sid)))

    def count(self, *prefixes: str) -> int:
        return sum(1 for row in self.rows if row[0].startswith(prefixes))

    def busy(self, *prefixes: str) -> float:
        """Time inside spans named by ``prefixes``, counting a span nested
        in another match once (through the outer one)."""
        return sum(
            duration
            for name, duration, _own, above in self.rows
            if name.startswith(prefixes) and not any(a.startswith(prefixes) for a in above)
        )

    def service_stats(self) -> "dict | None":
        found = [d["service"] for d in self.dumps if d["service"] is not None]
        return found[0] if found else None

    def supervisor_stats(self) -> "dict | None":
        found = [d["supervisor"] for d in self.dumps if d["supervisor"] is not None]
        return found[0] if found else None

    def layer_table(self) -> "list[dict]":
        """Per layer: span count, busy time and self time."""
        layers: "dict[str, dict]" = {}
        for name, duration, own, above in self.rows:
            layer = name.split(".", 1)[0]
            row = layers.setdefault(layer, {"spans": 0, "busy_s": 0.0, "self_s": 0.0})
            row["spans"] += 1
            row["self_s"] += own
            if not any(a.split(".", 1)[0] == layer for a in above):
                row["busy_s"] += duration
        return [
            dict(layer=k, **v) for k, v in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])
        ]

    def metrics(self) -> "tuple[dict, dict]":
        """The per-layer metrics, and the base of every ratio among them."""
        c = self.counters
        service = self.service_stats() or {"tiers": {}, "total": {}}
        tiers = service["tiers"]
        l1 = tiers.get("memory", {})
        lookups = l1.get("hits", 0) + l1.get("misses", 0)
        hits = sum(tiers.get(t, {}).get("hits", 0) for t in ("memory", "segments", "sqlite"))
        supervisor = self.supervisor_stats() or {}
        results = c.get("remote.results", 0)
        fits = {task: c.get(f"probes.fits.{task}", 0) for task in ("table", "column")}
        used = sum(n for task, n in fits.items() if c.get(f"probes.used.{task}"))
        n_fits = self.count("probes.mlp_fit")
        values = {
            "corpus.build_s": self.busy("corpus."),
            "llm.traces": self.count("llm."),
            "llm.tokens": c.get("llm.tokens", 0),
            "llm.busy_s": self.busy("llm."),
            "service.requests": c.get("service.requests", 0),
            "service.l1_hits": l1.get("hits", 0),
            "service.l2_hits": tiers.get("segments", {}).get("hits", 0),
            "service.l3_hits": tiers.get("sqlite", {}).get("hits", 0),
            "service.misses": service["total"].get("misses", 0),
            "service.hit_ratio": hits / lookups if lookups else 0.0,
            "service.busy_s": self.busy("service."),
            "persist.reads": c.get("persist.reads", 0),
            "persist.read_s": self.busy("persist.probe_disk", "persist.record_to_trace"),
            "persist.writes": self.count("persist.write"),
            "persist.write_s": self.busy("persist.write"),
            "remote.batches": self.count("remote."),
            "remote.busy_s": self.busy("remote."),
            "remote.requeues": supervisor.get("n_requeued", 0),
            "remote.restarts": supervisor.get("n_restarts", 0),
            "remote.shm_ratio": supervisor.get("n_shm_results", 0) / results if results else 0.0,
            "linking.assemble_s": self.busy("linking."),
            "linking.tokens.table": c.get("linking.tokens.table", 0),
            "linking.tokens.column": c.get("linking.tokens.column", 0),
            "probes.fit_s.table": self.busy("probes.train.table"),
            "probes.fit_s.column": self.busy("probes.train.column"),
            "probes.fits": n_fits,
            "probes.fits_used_ratio": used / n_fits if n_fits else 0.0,
            "probes.predict_calls": self.count("probes.is_branching"),
            "probes.predict_s": self.busy("probes.is_branching"),
            "conformal.calibrate_s": self.busy("conformal."),
            "pipeline.links": self.count("pipeline.link"),
            "pipeline.link_s": self.busy("pipeline.link", "pipeline.joint"),
            "abstention.questions": self.count("abstention."),
            "artifacts.records": self.count("artifacts.append"),
            "artifacts.write_s": self.busy("artifacts."),
            "sqlgen.calls": self.count("sqlgen."),
            "sqlgen.s": self.busy("sqlgen."),
        }
        bases = {
            "service.hit_ratio": f"L1+L2+L3 hits {hits} / L1 lookups {lookups}",
            "remote.shm_ratio": (
                f"shm results {supervisor.get('n_shm_results', 0)} / remote results {results}"
            ),
            "probes.fits_used_ratio": f"fits of tasks used to predict {used} / fits {n_fits}",
        }
        return values, bases
