"""Tests for repro-lint, the AST-based invariant analyzer.

Pins down the tentpole guarantees:

* each checker catches its seeded-violation fixture with exactly the
  expected rule, and passes the matching clean fixture;
* ``# repro-lint: ignore[rule] reason`` suppresses (same line or the
  standalone line above), and a reasonless suppression is itself a
  finding;
* baselines round-trip: ``--write-baseline`` then ``--baseline``
  silences exactly the recorded findings, and fingerprints survive
  line-number shifts;
* the CLI speaks text/json/github, exits 0/1/2 correctly, and
  ``repro-lint src/repro`` runs clean on the real tree — the same
  self-check CI gates on.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.baseline import load_baseline, write_baseline
from repro.analysis.cli import main_lint
from repro.analysis.core import Finding, LintConfig, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[1]

# Fixture configs open the zone gates so snippets land inside them.
ALL_ZONES = LintConfig(deterministic_zones=("",), exception_zones=("",))


def run_lint(tmp_path: Path, source: str, config: LintConfig = ALL_ZONES, name: str = "snippet.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([path], config=config, root=tmp_path)


def rules_of(findings) -> "set[str]":
    return {finding.rule for finding in findings}


# -- determinism ---------------------------------------------------------------


class TestDeterminism:
    def test_wall_clock_and_entropy_flagged(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            import os
            import random
            import time
            import uuid

            def stamp():
                a = time.time()
                b = random.random()
                c = uuid.uuid4()
                d = os.urandom(8)
                return a, b, c, d
            """,
        )
        assert rules_of(findings) == {"determinism"}
        assert len(findings) == 4

    def test_unseeded_default_rng_flagged_seeded_ok(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            import numpy as np

            def make():
                bad = np.random.default_rng()
                good = np.random.default_rng(1234)
                gen = np.random.Generator(np.random.PCG64(7))
                return bad, good, gen
            """,
        )
        assert rules_of(findings) == {"determinism"}
        assert len(findings) == 1
        assert "default_rng" in findings[0].message

    def test_global_numpy_rng_flagged(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            import numpy as np

            def shuffle(items):
                np.random.shuffle(items)
            """,
        )
        assert rules_of(findings) == {"determinism"}

    def test_unsorted_listing_flagged_sorted_ok(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            import os
            from pathlib import Path

            def bad(d):
                return [name for name in os.listdir(d)]

            def bad_glob(d):
                for p in Path(d).glob("*.jsonl"):
                    yield p

            def good(d):
                return sorted(os.listdir(d))

            def good_set(d):
                return len(set(os.listdir(d)))
            """,
        )
        assert rules_of(findings) == {"determinism"}
        assert len(findings) == 2
        assert all("sorted" in finding.message for finding in findings)

    def test_zone_gating(self, tmp_path):
        # The same snippet outside every deterministic zone is clean.
        config = LintConfig(deterministic_zones=("repro/llm/",))
        findings = run_lint(tmp_path, "import time\nx = time.time()\n", config)
        assert findings == []


# -- lock discipline -----------------------------------------------------------

LOCKED_CLASS = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self._n = 0  # guarded-by: self._lock

        def bump(self):
            with self._lock:
                self._n += 1

        def read(self):
            return self._n

        def _bump_locked(self):  # caller holds self._lock
            self._n += 1
"""


class TestLockDiscipline:
    def test_unlocked_access_flagged(self, tmp_path):
        findings = run_lint(tmp_path, LOCKED_CLASS)
        assert rules_of(findings) == {"lock-discipline"}
        assert len(findings) == 1
        assert findings[0].symbol == "Counter.read._n"

    def test_with_lock_and_caller_holds_pass(self, tmp_path):
        source = LOCKED_CLASS.replace(
            "        def read(self):\n            return self._n\n", ""
        )
        findings = run_lint(tmp_path, source)
        assert findings == []

    def test_nested_def_does_not_inherit_lock(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            import threading

            class Spawner:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._fleet = []  # guarded-by: self._lock

                def start(self):
                    with self._lock:
                        def reader():
                            return list(self._fleet)  # runs on another thread
                        threading.Thread(target=reader).start()
            """,
        )
        assert rules_of(findings) == {"lock-discipline"}

    def test_non_self_guard_is_documentation_only(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            class Worker:
                def __init__(self):
                    self.dead = False  # guarded-by: Supervisor._lock

                def mark(self):
                    self.dead = True  # the supervisor's lock is not ours to check
            """,
        )
        assert findings == []

    def test_init_exempt(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            import threading

            class Plain:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: self._lock
                    self._n += 1  # still __init__: unshared, exempt
            """,
        )
        assert findings == []


# -- lifecycle -----------------------------------------------------------------


class TestLifecycle:
    def test_bare_construction_flagged(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            def boot():
                ctx = ExperimentContext("run")
                return ctx.seed
            """,
        )
        assert rules_of(findings) == {"lifecycle"}
        assert findings[0].symbol == "ExperimentContext"

    def test_with_and_finally_close_pass(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            def good_with():
                with ExperimentContext("run") as ctx:
                    return ctx.seed

            def good_finally():
                ctx = ExperimentContext("run")
                try:
                    return ctx.seed
                finally:
                    ctx.close()

            def good_return():
                return ExperimentContext("run")

            def good_handoff(registry):
                svc = GenerationService.build(llm=None)
                registry.adopt(svc)

            def good_attr(self):
                self.backend = ProcessBackend(llm=None)
            """,
        )
        assert findings == []

    def test_classmethod_factory_flagged(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            def boot():
                ctx = ExperimentContext.default()
                ctx.benchmark("spider")
            """,
        )
        assert rules_of(findings) == {"lifecycle"}

    def test_unrelated_classes_ignored(self, tmp_path):
        findings = run_lint(tmp_path, "def f():\n    x = Widget()\n    x.spin()\n")
        assert findings == []


# -- ipc protocol --------------------------------------------------------------

IPC_MODULE = """
    class ProcessBackend:
        def ping(self, transport):
            transport.send({"op": "ping"})

        def on_message(self, message):
            if message.get("op") == "pong":
                return True
            return False

    def worker_main(recv, send):
        while True:
            message = recv()
            op = message.get("op")
            if op == "ping":
                send({"op": "pong"})
"""


class TestIpcProtocol:
    def test_matched_vocabulary_clean(self, tmp_path):
        findings = run_lint(tmp_path, IPC_MODULE)
        assert findings == []

    def test_sent_but_unhandled_flagged(self, tmp_path):
        source = IPC_MODULE + """
    class ShmBackend(ProcessBackend):
        def free(self, transport):
            transport.send({"op": "arena_free"})
"""
        findings = run_lint(tmp_path, source)
        assert rules_of(findings) == {"ipc-protocol"}
        assert "arena_free" in findings[0].message
        assert "never matched" in findings[0].message

    def test_dead_handler_arm_flagged(self, tmp_path):
        source = IPC_MODULE.replace(
            'if op == "ping":',
            'if op in ("ping", "shutdown"):',
        )
        findings = run_lint(tmp_path, source)
        assert rules_of(findings) == {"ipc-protocol"}
        assert "shutdown" in findings[0].message
        assert "dead protocol arm" in findings[0].message

    def test_one_sided_module_ignored(self, tmp_path):
        # A module that only builds {"op": ...} dicts is not an IPC module.
        findings = run_lint(
            tmp_path,
            """
            def payload():
                return {"op": "whatever"}
            """,
        )
        assert findings == []


# -- exception hygiene ---------------------------------------------------------


class TestExceptionHygiene:
    def test_silent_swallow_flagged(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            def risky(task):
                try:
                    task()
                except Exception:
                    pass
            """,
        )
        assert rules_of(findings) == {"exception-hygiene"}

    def test_bare_except_flagged(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            def risky(task):
                try:
                    task()
                except:
                    return None
            """,
        )
        assert rules_of(findings) == {"exception-hygiene"}
        assert "bare except" in findings[0].message

    def test_traced_handlers_pass(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            import traceback

            class Stats:
                def a(self, task):
                    try:
                        task()
                    except Exception:
                        raise RuntimeError("wrapped")

                def b(self, task):
                    try:
                        task()
                    except Exception:
                        self._n_errors += 1

                def c(self, task):
                    try:
                        task()
                    except Exception:
                        traceback.print_exc()

                def d(self, task, future):
                    try:
                        task()
                    except BaseException as exc:
                        future.set_exception(exc)
            """,
        )
        assert findings == []

    def test_narrow_handlers_ignored(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            def narrow(task):
                try:
                    task()
                except (OSError, ValueError):
                    pass
            """,
        )
        assert findings == []

    def test_zone_gating(self, tmp_path):
        config = LintConfig(exception_zones=("repro/runtime/",))
        findings = run_lint(
            tmp_path,
            "def f(t):\n    try:\n        t()\n    except Exception:\n        pass\n",
            config,
        )
        assert findings == []


# -- suppressions --------------------------------------------------------------


class TestSuppression:
    def test_inline_suppression_with_reason(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()  # repro-lint: ignore[determinism] operator-facing uptime only
            """,
        )
        assert findings == []

    def test_standalone_suppression_covers_next_line(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            import time

            def stamp():
                # repro-lint: ignore[determinism] operator-facing uptime only
                return time.time()
            """,
        )
        assert findings == []

    def test_reasonless_suppression_is_a_finding(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()  # repro-lint: ignore[determinism]
            """,
        )
        assert rules_of(findings) == {"suppression"}

    def test_wrong_rule_does_not_suppress(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()  # repro-lint: ignore[lifecycle] wrong rule
            """,
        )
        assert rules_of(findings) == {"determinism"}


# -- baseline ------------------------------------------------------------------


class TestBaseline:
    def test_round_trip_silences_exactly_the_recorded_findings(self, tmp_path):
        source = textwrap.dedent(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        snippet = tmp_path / "snippet.py"
        snippet.write_text(source, encoding="utf-8")
        findings = lint_paths([snippet], config=ALL_ZONES, root=tmp_path)
        assert len(findings) == 1

        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, findings)
        fingerprints = load_baseline(baseline)
        assert fingerprints == {findings[0].fingerprint()}

        # Shift the finding down two lines: the fingerprint must hold.
        snippet.write_text("# moved\n# down\n" + source, encoding="utf-8")
        moved = lint_paths([snippet], config=ALL_ZONES, root=tmp_path)
        assert len(moved) == 1
        assert moved[0].line != findings[0].line
        assert moved[0].fingerprint() == findings[0].fingerprint()

        # A *new* violation is not covered by the old baseline.
        snippet.write_text(source + "\ndef stamp2():\n    return time.time()\n")
        grown = lint_paths([snippet], config=ALL_ZONES, root=tmp_path)
        fresh = [f for f in grown if f.fingerprint() not in fingerprints]
        assert len(grown) == 2 and len(fresh) == 1

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == set()

    def test_malformed_baseline_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 99}), encoding="utf-8")
        with pytest.raises(ValueError):
            load_baseline(bad)


# -- CLI -----------------------------------------------------------------------


class TestCli:
    # Lifecycle is not zone-gated, so the violation fires under the
    # CLI's default config no matter where tmp_path lives.
    def _violating_file(self, tmp_path) -> Path:
        path = tmp_path / "snippet.py"
        path.write_text(
            "def boot():\n    ctx = ExperimentContext('run')\n    ctx.ping()\n",
            encoding="utf-8",
        )
        return path

    def test_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert main_lint([str(clean)]) == 0
        assert main_lint([str(self._violating_file(tmp_path))]) == 1
        assert main_lint([str(tmp_path / "missing.py")]) == 2
        assert main_lint(["--rules", "made-up", str(clean)]) == 2
        capsys.readouterr()

    def test_json_format(self, tmp_path, capsys):
        path = self._violating_file(tmp_path)
        assert main_lint([str(path), "--format", "json", "--root", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule"] == "lifecycle"
        assert payload[0]["path"] == "snippet.py"
        assert payload[0]["fingerprint"]

    def test_github_format(self, tmp_path, capsys):
        path = self._violating_file(tmp_path)
        assert main_lint([str(path), "--format", "github", "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("::error file=snippet.py,line=2,")
        assert "title=repro-lint[lifecycle]" in out

    def test_write_then_check_baseline(self, tmp_path, capsys):
        path = self._violating_file(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main_lint([str(path), "--baseline", str(baseline), "--write-baseline"]) == 0
        assert main_lint([str(path), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_rules_subset(self, tmp_path, capsys):
        path = self._violating_file(tmp_path)
        assert main_lint([str(path), "--rules", "determinism"]) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main_lint(["--list-rules"]) == 0
        out = capsys.readouterr().out
        rules = ("determinism", "lock-discipline", "lifecycle", "ipc-protocol", "exception-hygiene")
        for rule in rules:
            assert rule in out

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n", encoding="utf-8")
        assert main_lint([str(path)]) == 2
        assert "parse-error" in capsys.readouterr().out


# -- the self-check CI gates on ------------------------------------------------


class TestSelfCheck:
    def test_real_tree_is_clean(self, capsys):
        src = REPO_ROOT / "src" / "repro"
        assert src.is_dir()
        code = main_lint([str(src), "--root", str(REPO_ROOT)])
        out = capsys.readouterr().out
        assert code == 0, f"repro-lint found regressions:\n{out}"

    def test_real_ipc_module_has_both_sides(self):
        # Guard against the ipc checker silently disengaging from
        # remote.py (e.g. the role heuristic drifting): it must see
        # traffic on both sides, including the lifecycle ops.
        from repro.analysis.ipc import _collect
        from repro.analysis.core import SourceFile

        remote = REPO_ROOT / "src" / "repro" / "runtime" / "remote.py"
        source = SourceFile.load(remote, "src/repro/runtime/remote.py")
        sent, handled = _collect(source, ("Backend", "Supervisor"))
        assert "generate" in sent["supervisor"]
        assert "shutdown" in sent["supervisor"]
        assert "result" in sent["worker"]
        assert "hello" in sent["worker"]
        assert "generate" in handled["worker"]
        assert "result" in handled["supervisor"]
