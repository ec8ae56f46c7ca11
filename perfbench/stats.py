"""Pure helpers the benchmark computes its figures with (tested in
``test_perfbench.py``): percentiles, quartile summaries, per-layer self
time from spans, and backlog detection for a rate rung."""

from __future__ import annotations

import math
import statistics


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation between
    closest ranks, the same rule as numpy's default."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def summary(values) -> dict:
    """The median (as ``value``), first and third quartile
    (``statistics.quantiles``' exclusive method) and the sample count."""
    values = list(values)
    if not values:
        raise ValueError("summary of no values")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> "dict[int, float]":
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover.

    ``spans`` maps span id -> ``(start, end, parent_id)``; children may
    overlap each other (other threads) or poke out of the parent, so the
    covered part is the union of the children clipped to the parent.
    """
    children: "dict[int, list]" = {}
    for start, end, parent in spans.values():
        if parent is not None and parent in spans:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, (start, end, _parent) in spans.items():
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(sid, ())
            if min(e, end) > max(s, start)
        ]
        out[sid] = (end - start) - covered(clipped)
    return out


def backlog_growing(due_s, latency_ms, limit_ms: float) -> bool:
    """True when latency climbs through a rung: the least-squares slope
    of latency against due time, taken over the rung's length, exceeds
    the latency limit. A queue that keeps up has a flat trend, however
    noisy; one that falls behind adds latency with every request."""
    n = len(due_s)
    if n < 3 or n != len(latency_ms):
        return False
    mean_t = sum(due_s) / n
    mean_l = sum(latency_ms) / n
    var_t = sum((t - mean_t) ** 2 for t in due_s)
    if var_t == 0:
        return False
    slope = sum((t - mean_t) * (lat - mean_l) for t, lat in zip(due_s, latency_ms)) / var_t
    return slope * (max(due_s) - min(due_s)) > limit_ms
