"""Checker: resource-owning objects are context-managed or handed off.

``GenerationService``, ``ProcessBackend``, ``ExperimentContext`` and
``SweepRunner`` own worker processes, file handles and threads; dropping one on the floor leaks them. A
construction (``Cls(...)`` or a classmethod factory like
``ExperimentContext.default()`` / ``GenerationService.build()``) is
accepted when it visibly escapes into someone else's ownership:

* it is the context expression of a ``with`` statement;
* it is returned or yielded (the caller owns it now);
* it is stored into an attribute or subscript (the container owns it);
* it is passed as an argument to another call (the callee owns it);
* it is bound to a local name that is later ``with``-ed, ``.close()``d
  inside a ``finally``, returned/yielded, stored, or passed on.

Everything else — most notably a bare ``Cls(...)`` expression statement
or a local that simply goes out of scope — is flagged. The name-flow
analysis is per-function and syntactic (no dataflow across branches),
which is exactly as clever as a reviewer scanning the function.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import Finding, LintConfig, SourceFile, build_parents

RULE = "lifecycle"


def _construction_name(node: ast.Call, classes: "tuple[str, ...]") -> "str | None":
    """The lifecycle class constructed by ``node``, if any."""
    func = node.func
    if isinstance(func, ast.Name) and func.id in classes:
        return func.id
    if isinstance(func, ast.Attribute):
        # Classmethod factories: ExperimentContext.default(), GenerationService.build()
        if isinstance(func.value, ast.Name) and func.value.id in classes:
            return func.value.id
    return None


def _enclosing_function(node: ast.AST, parents: "dict[ast.AST, ast.AST]") -> "ast.AST | None":
    current = parents.get(node)
    while current is not None and not isinstance(
        current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
    ):
        current = parents.get(current)
    return current


def _escapes_in_place(node: ast.Call, parents: "dict[ast.AST, ast.AST]") -> "str | None":
    """Ownership transferred right at the construction site?

    Returns the bound local name when the construction is assigned to a
    simple name (deciding the question needs the later uses), ``""``
    when it escapes in place, or ``None`` when it does not escape.
    """
    current: ast.AST = node
    parent = parents.get(current)
    while parent is not None:
        if isinstance(parent, ast.withitem) and parent.context_expr is current:
            return ""
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom, ast.Await)):
            return ""
        if isinstance(parent, ast.Call) and current is not parent.func:
            return ""  # passed to another callable: ownership handed off
        if isinstance(parent, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
            targets = (
                parent.targets if isinstance(parent, ast.Assign) else [parent.target]
            )
            names: "list[str]" = []
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    return ""  # stored into an owner
                if isinstance(target, ast.Name):
                    names.append(target.id)
                if isinstance(target, (ast.Tuple, ast.List)):
                    return ""  # destructuring: too opaque, assume handoff
            if names:
                return names[0]
            return None
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module, ast.Expr)):
            break
        # Conservatively keep ascending through wrappers (ternaries,
        # boolean ops, starred args) until a decisive parent appears.
        current, parent = parent, parents.get(parent)
    return None


def _local_escapes(name: str, scope: ast.AST, after_line: int) -> bool:
    """Does local ``name`` visibly escape later in ``scope``?"""
    for node in ast.walk(scope):
        lineno = getattr(node, "lineno", None)
        if lineno is None or lineno < after_line:
            continue
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                expr = item.context_expr
                if isinstance(expr, ast.Name) and expr.id == name:
                    return True
                # contextlib.closing(x), stack.enter_context(x), ...
                if isinstance(expr, ast.Call) and any(
                    isinstance(arg, ast.Name) and arg.id == name for arg in expr.args
                ):
                    return True
        if isinstance(node, ast.Return) and _returns_name(node.value, name):
            return True
        if isinstance(node, (ast.Yield, ast.YieldFrom)) and _returns_name(node.value, name):
            return True
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)) and _mentions(
                    node.value, name
                ):
                    return True
        if isinstance(node, ast.Call):
            if any(_is_name(arg, name) for arg in node.args) or any(
                _is_name(kw.value, name) for kw in node.keywords
            ):
                return True
        if isinstance(node, ast.Try) and node.finalbody:
            for cleanup in node.finalbody:
                for call in ast.walk(cleanup):
                    if (
                        isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr in ("close", "shutdown", "stop", "terminate")
                        and _is_name(call.func.value, name)
                    ):
                        return True
    return False


def _is_name(node: "ast.AST | None", name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _returns_name(node: "ast.AST | None", name: str) -> bool:
    """``return ctx`` / ``return ctx, other`` — but not ``return ctx.seed``.

    Returning an attribute *of* the object keeps ownership here; only
    handing the object itself (possibly inside a tuple/list, or as a
    ``ctx or default`` fallback) transfers it to the caller.
    """
    if _is_name(node, name):
        return True
    if isinstance(node, (ast.Tuple, ast.List)):
        return any(_is_name(element, name) for element in node.elts)
    if isinstance(node, ast.BoolOp):
        return any(_is_name(value, name) for value in node.values)
    return False


def _mentions(node: "ast.AST | None", name: str) -> bool:
    if node is None:
        return False
    return any(_is_name(child, name) for child in ast.walk(node))


def check(source: SourceFile, config: LintConfig) -> "Iterable[Finding]":
    classes = config.lifecycle_classes
    if not classes:
        return []
    parents = build_parents(source.tree)
    findings: "list[Finding]" = []
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        cls_name = _construction_name(node, classes)
        if cls_name is None:
            continue
        escape = _escapes_in_place(node, parents)
        if escape == "":
            continue
        if escape is not None:
            scope = _enclosing_function(node, parents) or source.tree
            if _local_escapes(escape, scope, node.lineno):
                continue
        findings.append(
            Finding(
                rule=RULE,
                path=source.display,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"{cls_name} constructed without lifecycle management: use "
                    f"'with', close it in a try/finally, or hand it to an owner"
                ),
                symbol=cls_name,
            )
        )
    return findings
