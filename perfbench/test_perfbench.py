"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import statistics

import pytest

from layers import Trace
from replay import distinct_schedule, highest_passing, plan, schedule
from stats import backlog_growing, covered, percentile, self_times, summary
from tracer import Tracer


def test_percentile_interpolates_between_closest_ranks():
    values = [10, 1, 4, 3, 2]
    assert percentile(values, 0) == 1
    assert percentile(values, 50) == 3
    assert percentile(values, 100) == 10
    assert percentile(values, 95) == pytest.approx(4 + 0.8 * 6)
    assert percentile([7.5], 95) == 7.5
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)


def test_summary_matches_statistics_quantiles():
    values = [3.0, 1.0, 2.0, 8.0, 5.0, 4.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert summary(values) == {"value": 3.5, "q1": q1, "q3": q3, "n": 6}
    assert summary([2.0]) == {"value": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}


def test_covered_merges_overlapping_intervals():
    assert covered([]) == 0
    assert covered([(0, 1), (2, 3)]) == 2
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([(0, 4), (1, 2)]) == 4


def test_self_time_subtracts_the_union_of_children():
    spans = {
        1: (0.0, 10.0, None),  # root
        2: (1.0, 4.0, 1),
        3: (3.0, 6.0, 1),  # overlaps 2 (another thread): union is 1..6
        4: (2.0, 3.0, 2),
        5: (9.0, 12.0, 1),  # pokes out of the root: clipped to 9..10
    }
    own = self_times(spans)
    assert own[1] == pytest.approx(10 - 5 - 1)
    assert own[2] == pytest.approx(3 - 1)
    assert own[3] == pytest.approx(3)
    assert own[4] == pytest.approx(1)
    assert own[5] == pytest.approx(3)


def test_backlog_detection_flags_climbing_latency_only():
    due = [i * 0.1 for i in range(50)]
    flat_noisy = [20 + (37 * i % 11) * 10 for i in range(50)]
    assert not backlog_growing(due, flat_noisy, limit_ms=100)
    climbing = [20 + 60 * t for t in due]  # +300 ms over the rung
    assert backlog_growing(due, climbing, limit_ms=100)
    assert not backlog_growing(due, climbing, limit_ms=500)
    assert not backlog_growing(due[:2], climbing[:2], limit_ms=1)


def test_schedule_is_a_pure_function_of_the_seed():
    ids = [f"ex{i}" for i in range(50)]
    zipf = {"s": 2.5, "q": 5}
    first = schedule(3, "peak", ids, rate=10, duration_s=2, zipf=zipf)
    assert first == schedule(3, "peak", list(reversed(ids)), rate=10, duration_s=2, zipf=zipf)
    assert first == schedule(3, "peak", ids, rate=10, duration_s=2, zipf=zipf)
    assert first != schedule(4, "peak", ids, rate=10, duration_s=2, zipf=zipf)
    assert first != schedule(3, "nominal", ids, rate=10, duration_s=2, zipf=zipf)
    assert [due for due, _ in first] == pytest.approx([i / 10 for i in range(20)])
    drawn = [body["example_id"] for _, body in schedule(3, "peak", ids, 100, 10, zipf)]
    assert len(set(drawn)) < len(drawn) / 20  # heavy-tailed: most requests repeat
    # one popularity ranking for every phase and seed
    for other in (schedule(3, "nominal", ids, 100, 10, zipf), schedule(9, "peak", ids, 100, 10, zipf)):
        hot = [body["example_id"] for _, body in other]
        assert max(set(drawn), key=drawn.count) == max(set(hot), key=hot.count)


def test_highest_passing_rung_ignores_failures_below_it():
    def phase(rate, passes):
        return {"rate_qps": rate, "passes": passes}

    phases = [phase(14, True), phase(20, True), phase(28, False), phase(33, True), phase(38, False)]
    assert highest_passing(phases)["rate_qps"] == 33
    assert highest_passing([phase(14, False)]) is None


def test_plan_runs_every_rung_for_a_fixed_time():
    cfg = {
        "nominal_qps": 10,
        "peak_qps": 20,
        "ladder_qps": [30, 40],
        "phase_seconds_share": {
            "warmup": 0.1, "nominal": 0.3, "peak": 0.2, "ladder": 0.3, "distinct": 0.1
        },
    }  # fmt: skip
    phases = plan(cfg, seconds=20)
    assert [(name, rate) for name, rate, _ in phases] == [
        ("warmup", 10), ("nominal", 10), ("peak", 20), ("ladder-30", 30), ("ladder-40", 40),
        ("distinct", 10),
    ]  # fmt: skip
    assert [duration for _, _, duration in phases] == pytest.approx([2, 6, 4, 3, 3, 2])


def test_distinct_schedule_never_repeats_an_example():
    ids = [f"ex{i}" for i in range(50)]
    taken = {f"ex{i}" for i in range(0, 50, 2)}
    requests = distinct_schedule(3, ids, rate=10, duration_s=2, taken=taken)
    drawn = [body["example_id"] for _, body in requests]
    assert len(drawn) == 20 and len(set(drawn)) == 20
    assert not set(drawn) & taken
    assert requests == distinct_schedule(3, list(reversed(ids)), 10, 2, taken)
    assert len(distinct_schedule(3, ids, rate=10, duration_s=9, taken=taken)) == 25


def test_tracer_records_nesting_requests_and_self_time(tmp_path):
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(1000)), "probes.predict")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "pipeline.link", request=True)
    outer()
    outer()
    tracer.flush(str(tmp_path))
    outer()
    tracer.flush(str(tmp_path))
    path = next(tmp_path.glob("trace-*.jsonl"))
    lines = path.read_text().splitlines()
    assert len(lines) == 2  # the second flush holds only the new spans
    spans = {
        sid: (name, parent, rid)
        for line in lines
        for sid, name, _s, _e, parent, rid in json.loads(line)["spans"]
    }
    roots = [sid for sid, (name, parent, _r) in spans.items() if parent is None]
    assert [spans[r][0] for r in roots] == ["pipeline.link"] * 3
    assert len({spans[r][2] for r in roots}) == 3  # one request id per call
    for name, parent, rid in spans.values():
        if name == "probes.predict":
            assert spans[parent][0] == "pipeline.link" and rid == spans[parent][2]

    with path.open("a") as handle:
        handle.write('{"spans": [[99, "torn')  # a process killed mid-write
    trace = Trace(tmp_path)
    assert trace.count("probes.predict") == 9
    assert trace.count("pipeline.link") == 3
    table = {row["layer"]: row for row in trace.layer_table()}
    total = sum(row["self_s"] for row in table.values())
    assert total == pytest.approx(table["pipeline"]["busy_s"])
    assert trace.busy("probes.") == pytest.approx(table["probes"]["busy_s"])
