"""Checker: the IPC op vocabulary matches in both directions.

``remote.py`` frames dicts tagged with an ``"op"`` key over a socket. The supervisor and the worker each *send* a set of ops
and *handle* a set of ops, and the protocol is only sound when the two
sides agree exhaustively: every op one side sends, the other side
matches by tag somewhere, and neither side matches ops that nobody
sends (dead protocol arms rot silently).

This checker rediscovers those four sets from the AST of each module:

* a **send** is a dict literal containing ``"op": "<const>"`` — this
  catches both ``transport.send({"op": "ping"})`` and the build-then-
  send idiom (``ready = {"op": "ready", ...}; transport.send(ready)``);
* a **handle** is a comparison of an op expression (a bare ``op`` name,
  ``msg.get("op")`` or ``msg["op"]``) against a string constant or a
  tuple/list/set of them, with ``==``, ``!=``, ``in`` or ``not in``.

Side attribution is lexical: code inside a class whose name contains a
supervisor marker (``Backend``, ``Supervisor``) is the supervisor side;
everything else — module functions like ``socket_worker_main`` — is the
worker side. The checker stays silent unless the file has traffic on both
sides, so ordinary modules that happen to build ``{"op": ...}`` dicts
are not dragged in.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import Finding, LintConfig, SourceFile, build_parents

RULE = "ipc-protocol"


def _enclosing_class(node: ast.AST, parents: "dict[ast.AST, ast.AST]") -> "str | None":
    current = parents.get(node)
    while current is not None:
        if isinstance(current, ast.ClassDef):
            return current.name
        current = parents.get(current)
    return None


def _side(node: ast.AST, parents: "dict[ast.AST, ast.AST]", markers: "tuple[str, ...]") -> str:
    cls = _enclosing_class(node, parents)
    if cls is not None and any(marker in cls for marker in markers):
        return "supervisor"
    return "worker"


def _is_op_expr(node: ast.AST) -> bool:
    """Does ``node`` read an op tag? ``op`` / ``msg.get("op")`` / ``msg["op"]``."""
    if isinstance(node, ast.Name) and node.id == "op":
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == "op"
    ):
        return True
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and node.slice.value == "op"
    ):
        return True
    return False


def _const_strings(node: ast.AST) -> "list[tuple[str, int, int]]":
    """String constants inside ``node`` (a literal or literal container)."""
    out: "list[tuple[str, int, int]]" = []
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        out.append((node.value, node.lineno, node.col_offset))
    elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                out.append((element.value, element.lineno, element.col_offset))
    return out


def _collect(source: SourceFile, markers: "tuple[str, ...]"):
    """(sent, handled) per side; each maps op -> first (line, col)."""
    parents = build_parents(source.tree)
    sent = {"supervisor": {}, "worker": {}}
    handled = {"supervisor": {}, "worker": {}}
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "op"
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    side = _side(node, parents, markers)
                    sent[side].setdefault(value.value, (node.lineno, node.col_offset))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if not any(_is_op_expr(operand) for operand in operands):
                continue
            if not all(
                isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops
            ):
                continue
            side = _side(node, parents, markers)
            for operand in operands:
                for value, line, col in _const_strings(operand):
                    handled[side].setdefault(value, (line, col))
    return sent, handled


def check(source: SourceFile, config: LintConfig) -> "Iterable[Finding]":
    sent, handled = _collect(source, config.ipc_supervisor_markers)
    # Only a real IPC module has both sides talking; otherwise any dict
    # with an "op" key in an unrelated file would trigger the rule.
    if not (sent["supervisor"] or handled["supervisor"]) or not (
        sent["worker"] or handled["worker"]
    ):
        return []
    findings: "list[Finding]" = []

    def mismatches(sender: str, receiver: str) -> None:
        for op, (line, col) in sorted(sent[sender].items()):
            if op not in handled[receiver]:
                findings.append(
                    Finding(
                        rule=RULE,
                        path=source.display,
                        line=line,
                        col=col,
                        message=(
                            f"op '{op}' is sent by the {sender} but never matched "
                            f"by tag on the {receiver} side"
                        ),
                        symbol=f"{sender}:{op}",
                    )
                )
        for op, (line, col) in sorted(handled[receiver].items()):
            if op not in sent[sender]:
                findings.append(
                    Finding(
                        rule=RULE,
                        path=source.display,
                        line=line,
                        col=col,
                        message=(
                            f"op '{op}' is matched on the {receiver} side but the "
                            f"{sender} never sends it (dead protocol arm?)"
                        ),
                        symbol=f"{receiver}:{op}",
                    )
                )

    mismatches("supervisor", "worker")
    mismatches("worker", "supervisor")
    return findings
