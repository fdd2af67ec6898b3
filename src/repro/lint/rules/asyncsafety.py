"""Rule ``async-safety``: no blocking calls on the event loop.

The live runtime, orchestrator, and chaos plane are single-event-loop
asyncio programs: one ``time.sleep`` inside an ``async def`` stalls
every concurrent migration, heartbeat, and telemetry poll at once —
and does so silently, as a tail-latency blip rather than an error.
This rule walks every ``async def`` body in ``runtime/``,
``orchestrator/``, and ``chaos/`` and flags:

* blocking calls — ``time.sleep``, builtin ``open``, ``os.fsync`` /
  ``os.fdatasync``, and the ``subprocess`` module;
* un-awaited coroutine calls — a bare ``self.foo()`` statement where
  ``foo`` is an ``async def`` in the same module creates a coroutine
  and drops it (the classic forgotten ``await``), unless it is handed
  to ``asyncio.create_task``/``ensure_future``/``gather``.

Nested synchronous ``def`` bodies are excluded: a sync helper defined
inside an async function may legitimately be shipped to a thread or
process executor.  Deliberate blocking calls (e.g. a sync flush on the
shutdown path) carry a ``# lint: ignore[async-safety]`` with a reason.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from repro.lint.core import Finding, Project

RULE_ID = "async-safety"

SCAN_PREFIXES = (
    "src/repro/runtime",
    "src/repro/orchestrator",
    "src/repro/chaos",
)

#: Dotted call names that block the loop.
_BLOCKING_CALLS: Set[str] = {
    "time.sleep",
    "os.fsync",
    "os.fdatasync",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
}

#: Wrappers that legitimately consume a coroutine object.
_COROUTINE_SINKS: Set[str] = {
    "create_task",
    "ensure_future",
    "gather",
    "wait",
    "wait_for",
    "shield",
    "run",
    "run_until_complete",
}


def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` attribute chains as a string, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _async_defs(tree: ast.Module) -> Set[str]:
    """Names of every ``async def`` in the module (functions+methods)."""
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.AsyncFunctionDef)
    }


class _AsyncBodyVisitor(ast.NodeVisitor):
    """Collects findings inside async bodies, skipping nested sync defs."""

    def __init__(self, rel: str, async_names: Set[str]) -> None:
        self.rel = rel
        self.async_names = async_names
        self.findings: List[Finding] = []
        self._in_async = False

    # --- function context ------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        was = self._in_async
        self._in_async = False
        self.generic_visit(node)
        self._in_async = was

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        was = self._in_async
        self._in_async = True
        self.generic_visit(node)
        self._in_async = was

    def visit_Lambda(self, node: ast.Lambda) -> None:
        was = self._in_async
        self._in_async = False
        self.generic_visit(node)
        self._in_async = was

    # --- blocking calls ---------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if self._in_async:
            dotted = _dotted(node.func)
            if dotted in _BLOCKING_CALLS or (
                dotted is not None and dotted.startswith("subprocess.")
            ):
                self.findings.append(Finding(
                    RULE_ID, self.rel, node.lineno,
                    f"blocking call {dotted}() inside an async def "
                    "stalls the event loop",
                ))
            elif isinstance(node.func, ast.Name) and node.func.id == "open":
                self.findings.append(Finding(
                    RULE_ID, self.rel, node.lineno,
                    "blocking builtin open() inside an async def stalls "
                    "the event loop",
                ))
        self.generic_visit(node)

    # --- un-awaited coroutines --------------------------------------------

    def visit_Expr(self, node: ast.Expr) -> None:
        if self._in_async and isinstance(node.value, ast.Call):
            call = node.value
            callee: Optional[str] = None
            if isinstance(call.func, ast.Name):
                callee = call.func.id
            elif isinstance(call.func, ast.Attribute) and \
                    isinstance(call.func.value, ast.Name) and \
                    call.func.value.id == "self":
                callee = call.func.attr
            if callee in self.async_names and callee not in _COROUTINE_SINKS:
                self.findings.append(Finding(
                    RULE_ID, self.rel, node.lineno,
                    f"coroutine {callee}() is neither awaited nor "
                    "scheduled — the call creates a coroutine object "
                    "and drops it",
                ))
        self.generic_visit(node)


def check(project: Project) -> Iterable[Finding]:
    """Flag blocking calls and dropped coroutines in async bodies."""
    findings: List[Finding] = []
    for rel in project.source_files(*SCAN_PREFIXES):
        tree = project.tree(rel)
        visitor = _AsyncBodyVisitor(rel, _async_defs(tree))
        visitor.visit(tree)
        findings.extend(visitor.findings)
    return findings
