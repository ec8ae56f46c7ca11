"""The repro-lint core: findings, suppressions, configuration, driver.

This repository's reliability posture — backend byte-identity, kill-one
-worker recovery, zero-duplicate serving — rests on *conventions*: named
RNG streams only inside the deterministic zones, ``# caller holds
self._lock`` discipline in the supervisor, context-managed services, an
IPC op vocabulary kept in sync between supervisor and worker. This
package turns those conventions into machine-checked invariants: each
checker module encodes one of them over the stdlib :mod:`ast`, and this
module supplies everything they share.

Vocabulary
----------
finding
    One violation: ``(rule, path, line, col, message, symbol)``. The
    ``symbol`` (e.g. ``ProcessBackend._read_loop._pending``) anchors the
    baseline fingerprint so unrelated edits moving a line do not churn
    the baseline.
suppression
    ``# repro-lint: ignore[rule] reason`` on the flagged line, or alone
    on the line directly above it. The reason is mandatory: a reasonless
    suppression is itself reported (rule ``suppression``), so every
    silenced finding carries its justification in the diff.
zone
    A path scope a rule applies to. The determinism rule runs only in
    the deterministic zones (the generation kernel and the persistence/
    orchestration layers whose outputs are byte-compared in CI); the
    exception-hygiene rule runs across ``runtime/``.

Checkers are pure functions ``check(source, config) -> Iterable[Finding]``
registered in :data:`CHECKERS`; :func:`lint_paths` walks the files, runs
every enabled checker, applies suppressions, and returns the surviving
findings sorted by location. Adding a checker is one module and one
registry entry — see docs/static-analysis.md.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "CHECKERS",
    "RULES",
    "Finding",
    "LintConfig",
    "SourceFile",
    "Suppression",
    "in_zone",
    "iter_python_files",
    "lint_paths",
]

# -- findings -----------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One invariant violation at one source location."""

    rule: str
    path: str  # posix-style, relative to the scan root
    line: int
    col: int
    message: str
    symbol: str = ""  # stable anchor (Class.method.attr) for baselines

    def fingerprint(self) -> str:
        """A line-number-free identity for baseline matching.

        Keyed on (rule, path, symbol, message) so a finding keeps its
        baseline entry while unrelated edits shift it up or down the
        file — and loses it the moment the violation itself changes.
        """
        digest = hashlib.blake2b(digest_size=12)
        for part in (self.rule, self.path, self.symbol, self.message):
            digest.update(part.encode("utf-8"))
            digest.update(b"\x1f")
        return digest.hexdigest()

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "symbol": self.symbol,
            "fingerprint": self.fingerprint(),
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


# -- configuration ------------------------------------------------------------


@dataclass(frozen=True)
class LintConfig:
    """Which rules run where. The defaults encode *this* repository.

    Zones are path fragments matched against ``/``-joined relative
    paths at component boundaries (``"repro/llm/"`` matches
    ``src/repro/llm/hidden.py`` but not ``src/myrepro/llm/x.py``); an
    empty-string zone matches everything, which the fixture tests use.
    """

    rules: "tuple[str, ...]" = ()  # () = every registered rule
    #: Files whose outputs are byte-compared in CI: wall-clock reads,
    #: unseeded entropy and unsorted directory scans are violations here.
    deterministic_zones: "tuple[str, ...]" = (
        "repro/llm/",
        "repro/runtime/persist.py",
        "repro/runtime/service.py",
        "repro/runtime/sweep.py",
    )
    #: Where broad ``except Exception`` must re-raise, log, or count.
    exception_zones: "tuple[str, ...]" = ("repro/runtime/",)
    #: Resource-owning classes whose constructions must be context-
    #: managed, try/finally-closed, or handed off to an owner.
    lifecycle_classes: "tuple[str, ...]" = (
        "GenerationService",
        "ProcessBackend",
        "ExperimentContext",
        "SweepRunner",
    )
    #: Class-name markers splitting an IPC module into its two roles.
    ipc_supervisor_markers: "tuple[str, ...]" = ("Backend", "Supervisor")

    def enabled(self, rule: str) -> bool:
        return not self.rules or rule in self.rules


def in_zone(display_path: str, zones: "Sequence[str]") -> bool:
    """Whether ``display_path`` falls inside any of ``zones``."""
    anchored = "/" + display_path.replace("\\", "/").lstrip("/")
    for zone in zones:
        if not zone:
            return True
        if "/" + zone.lstrip("/") in anchored:
            return True
    return False


# -- suppressions and annotations ---------------------------------------------

# ``# repro-lint: ignore[rule, rule2] because ...``
_SUPPRESS = re.compile(r"#\s*repro-lint:\s*ignore\[([^\]]+)\]\s*(.*?)\s*$")
# ``# caller holds self._lock`` — the formalized lock-discipline comment.
_CALLER_HOLDS = re.compile(r"#\s*caller holds ([A-Za-z_][\w.]*)")
# ``self.attr = ...  # guarded-by: self._lock`` — attribute annotation.
_GUARDED_BY = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][\w.]*)")


@dataclass(frozen=True)
class Suppression:
    """One parsed ``ignore[...]`` comment."""

    line: int
    rules: "tuple[str, ...]"
    reason: str
    standalone: bool  # the comment is the whole line (covers the next line)

    def covers(self, rule: str) -> bool:
        return rule in self.rules or "*" in self.rules


@dataclass
class SourceFile:
    """One parsed file plus the comment-level facts checkers need."""

    path: Path
    display: str
    text: str
    tree: ast.Module
    lines: "list[str]" = field(default_factory=list)
    suppressions: "dict[int, Suppression]" = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path, display: str) -> "SourceFile":
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        lines = text.splitlines()
        suppressions: "dict[int, Suppression]" = {}
        for number, line in enumerate(lines, start=1):
            match = _SUPPRESS.search(line)
            if match is None:
                continue
            rules = tuple(
                rule.strip() for rule in match.group(1).split(",") if rule.strip()
            )
            standalone = line.strip().startswith("#")
            suppressions[number] = Suppression(
                line=number,
                rules=rules,
                reason=match.group(2).strip(),
                standalone=standalone,
            )
        return cls(
            path=path,
            display=display,
            text=text,
            tree=tree,
            lines=lines,
            suppressions=suppressions,
        )

    # -- comment helpers used by the checkers --------------------------------

    def line_at(self, number: int) -> str:
        if 1 <= number <= len(self.lines):
            return self.lines[number - 1]
        return ""

    def caller_holds(self, node: ast.AST) -> "tuple[str, ...]":
        """Locks a ``# caller holds <lock>`` comment pins on a def.

        The comment may trail the ``def`` line (the repository's
        existing convention) or stand alone directly above the def /
        its decorators.
        """
        held: "list[str]" = []
        first = getattr(node, "lineno", 0)
        for decorator in getattr(node, "decorator_list", []):
            first = min(first, decorator.lineno)
        candidates = [self.line_at(first - 1), *self._def_lines(node)]
        for line in candidates:
            held.extend(_CALLER_HOLDS.findall(line))
        return tuple(dict.fromkeys(held))

    def _def_lines(self, node: ast.AST) -> "list[str]":
        """The physical lines of a def's signature (may span rows)."""
        start = getattr(node, "lineno", 1)
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if body else start
        return [self.line_at(number) for number in range(start, end + 1)]

    def guarded_by(self, lineno: int) -> "str | None":
        """The ``# guarded-by:`` annotation on one physical line."""
        match = _GUARDED_BY.search(self.line_at(lineno))
        return match.group(1) if match else None

    def suppressed(self, finding: Finding) -> "Suppression | None":
        """The suppression covering ``finding``, if any."""
        inline = self.suppressions.get(finding.line)
        if inline is not None and inline.covers(finding.rule):
            return inline
        above = self.suppressions.get(finding.line - 1)
        if above is not None and above.standalone and above.covers(finding.rule):
            return above
        return None


# -- shared AST helpers --------------------------------------------------------


def dotted_name(node: ast.AST) -> "tuple[str, ...] | None":
    """``a.b.c`` as ``("a", "b", "c")``, or None for non-name chains."""
    parts: "list[str]" = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def build_parents(tree: ast.Module) -> "dict[ast.AST, ast.AST]":
    """child -> parent for every node (checkers ascend for context)."""
    parents: "dict[ast.AST, ast.AST]" = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


# -- registry and driver -------------------------------------------------------

Checker = Callable[[SourceFile, LintConfig], Iterable[Finding]]


def _registry() -> "dict[str, Checker]":
    # Imported here, not at module top: the checker modules import this
    # module for Finding/SourceFile, and a top-level import would cycle.
    from repro.analysis import determinism, hygiene, ipc, lifecycle, locks

    return {
        determinism.RULE: determinism.check,
        locks.RULE: locks.check,
        lifecycle.RULE: lifecycle.check,
        ipc.RULE: ipc.check,
        hygiene.RULE: hygiene.check,
    }


CHECKERS: "dict[str, Checker] | None" = None

RULES = (
    "determinism",
    "lock-discipline",
    "lifecycle",
    "ipc-protocol",
    "exception-hygiene",
    "suppression",
    "parse-error",
)


def checkers() -> "dict[str, Checker]":
    global CHECKERS
    if CHECKERS is None:
        CHECKERS = _registry()
    return CHECKERS


def iter_python_files(paths: "Sequence[str | Path]") -> "Iterator[Path]":
    """Every ``.py`` file under ``paths``, deterministically ordered."""
    seen: "set[Path]" = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def _display(path: Path, root: "Path | None") -> str:
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def lint_paths(
    paths: "Sequence[str | Path]",
    config: "LintConfig | None" = None,
    root: "str | Path | None" = None,
) -> "list[Finding]":
    """Run every enabled checker over ``paths``; surviving findings.

    Suppressed findings are dropped; suppressions *without a reason*
    surface as rule ``suppression`` findings so silencing stays
    accountable. Unparseable files surface as rule ``parse-error``.
    """
    config = config if config is not None else LintConfig()
    root = Path(root) if root is not None else None
    findings: "list[Finding]" = []
    for path in iter_python_files(paths):
        display = _display(path, root)
        try:
            source = SourceFile.load(path, display)
        except (SyntaxError, UnicodeDecodeError) as exc:
            line = getattr(exc, "lineno", None) or 1
            findings.append(
                Finding(
                    rule="parse-error",
                    path=display,
                    line=int(line),
                    col=0,
                    message=f"file does not parse: {exc.msg if hasattr(exc, 'msg') else exc}",
                )
            )
            continue
        raw: "list[Finding]" = []
        for rule, check in checkers().items():
            if config.enabled(rule):
                raw.extend(check(source, config))
        kept: "list[Finding]" = []
        used: "set[int]" = set()
        for finding in sorted(raw, key=lambda f: (f.line, f.col, f.rule)):
            suppression = source.suppressed(finding)
            if suppression is None:
                kept.append(finding)
            else:
                used.add(suppression.line)
        if config.enabled("suppression"):
            for number in sorted(used):
                suppression = source.suppressions[number]
                if not suppression.reason:
                    kept.append(
                        Finding(
                            rule="suppression",
                            path=display,
                            line=number,
                            col=0,
                            message=(
                                "suppression without a reason: write "
                                "'# repro-lint: ignore[rule] why it is safe'"
                            ),
                            symbol=",".join(suppression.rules),
                        )
                    )
        findings.extend(kept)
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def with_rules(config: LintConfig, rules: "Sequence[str]") -> LintConfig:
    return replace(config, rules=tuple(rules))
