"""Rule ``metric-names``: every metric literal matches the registry.

The registry is ``src/repro/obs/names.py``; this rule extracts every
string (and f-string) passed to a ``counter(...)``, ``gauge(...)``,
``histogram(...)``, or daemon ``_count(...)`` call across ``src/`` and
checks, statically:

* the name is declared — exactly, or by a ``<label>`` pattern for
  f-strings (``f"runtime.bytes.{kind}"`` must match a declared pattern
  with the placeholder in the same position);
* the instrument kind matches the declaration (a ``counter()`` call on
  a declared gauge is drift, not a new metric);
* names are dot-separated lowercase segments;
* no two declared names are near-duplicates (same letters, different
  separators — the classic rename-in-one-place bug);
* every declared name appears in ``docs/observability.md``.

Calls whose name argument is a plain variable are skipped — they are
pass-through plumbing (the registry internals, display loops), not new
name introductions.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lint.core import Finding, Project

RULE_ID = "metric-names"

NAMES_PATH = "src/repro/obs/names.py"
DOCS_PATH = "docs/observability.md"

#: Call attribute → instrument kind ("" means kind-agnostic).
_INSTRUMENT_CALLS: Dict[str, str] = {
    "counter": "counter",
    "gauge": "gauge",
    "histogram": "histogram",
    "_count": "counter",
}

_SEGMENT_RE = re.compile(r"^[a-z0-9_-]+$")
_WILDCARD = "<*>"


def _extract_literal_names(arg: ast.expr) -> List[str]:
    """Metric-name candidates inside a call's first argument.

    A plain string yields itself; an f-string yields a pattern with
    ``<*>`` standing for each formatted segment; a conditional or
    boolean expression yields every string constant inside it.  A bare
    variable yields nothing (not statically resolvable).
    """
    if isinstance(arg, ast.Constant):
        return [arg.value] if isinstance(arg.value, str) else []
    if isinstance(arg, ast.JoinedStr):
        parts = []
        for value in arg.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            else:
                parts.append(_WILDCARD)
        return ["".join(parts)]
    if isinstance(arg, (ast.IfExp, ast.BoolOp)):
        return [
            node.value
            for node in ast.walk(arg)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        ]
    return []


def _declared_specs(project: Project) -> List[Tuple[str, str, int]]:
    """(name, kind, lineno) for every MetricSpec literal in names.py."""
    specs = []
    for node in ast.walk(project.tree(NAMES_PATH)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "MetricSpec"):
            continue
        if len(node.args) < 2:
            continue
        name_node, kind_node = node.args[0], node.args[1]
        if not (isinstance(name_node, ast.Constant)
                and isinstance(name_node.value, str)):
            continue
        if isinstance(kind_node, ast.Constant):
            kind = str(kind_node.value)
        elif isinstance(kind_node, ast.Name):
            # COUNTER/GAUGE/HISTOGRAM module constants.
            kind = kind_node.id.lower()
        else:
            kind = ""
        specs.append((name_node.value, kind, node.lineno))
    return specs


def _pattern_matches(declared: str, emitted: str) -> bool:
    """Does the declared name/pattern cover the emitted name/pattern?"""
    want = declared.split(".")
    have = emitted.split(".")
    if len(want) != len(have):
        return False
    for w, h in zip(want, have):
        w_is_label = w.startswith("<") and w.endswith(">")
        if w_is_label:
            continue
        if h == _WILDCARD:
            # A formatted segment where the declaration expects a fixed
            # one: not covered.
            return False
        if w != h:
            return False
    return True


def _well_formed(name: str) -> bool:
    segments = name.split(".")
    if len(segments) < 2:
        return False
    for segment in segments:
        if segment == _WILDCARD:
            continue
        if segment.startswith("<") and segment.endswith(">"):
            segment = segment[1:-1]
        if not _SEGMENT_RE.match(segment):
            return False
    return True


def _normalize(name: str) -> str:
    return re.sub(r"[._-]", "", name)


def _lookup(
    specs: List[Tuple[str, str, int]], emitted: str
) -> Optional[Tuple[str, str, int]]:
    for spec in specs:
        if _pattern_matches(spec[0], emitted):
            return spec
    return None


def check(project: Project) -> Iterable[Finding]:
    """Check emitted metric literals against the declared registry."""
    findings: List[Finding] = []
    if not project.exists(NAMES_PATH):
        return [Finding(
            RULE_ID, NAMES_PATH, 1,
            "metric-name registry repro/obs/names.py is missing",
        )]
    specs = _declared_specs(project)

    # (1) declared-name hygiene: shape, near-duplicates, documentation.
    docs_text = project.try_text(DOCS_PATH) or ""
    seen_normalized: Dict[str, str] = {}
    for name, _kind, lineno in specs:
        if not _well_formed(name):
            findings.append(Finding(
                RULE_ID, NAMES_PATH, lineno,
                f"declared metric name {name!r} is not dot-separated "
                "lowercase segments",
            ))
        key = _normalize(re.sub(r"<[^>]*>", "<>", name))
        other = seen_normalized.get(key)
        if other is not None and other != name:
            findings.append(Finding(
                RULE_ID, NAMES_PATH, lineno,
                f"declared metric names {other!r} and {name!r} differ "
                "only in separators — near-duplicate drift",
            ))
        seen_normalized.setdefault(key, name)
        if name not in docs_text:
            findings.append(Finding(
                RULE_ID, NAMES_PATH, lineno,
                f"declared metric {name!r} is not documented in "
                f"{DOCS_PATH}",
            ))

    # (2) every emitted literal is declared with the right kind.
    for rel in project.source_files("src/repro"):
        if rel == NAMES_PATH:
            continue
        tree = project.tree(rel)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                call_name = func.attr
            elif isinstance(func, ast.Name):
                call_name = func.id
            else:
                continue
            kind = _INSTRUMENT_CALLS.get(call_name)
            if kind is None:
                continue
            for emitted in _extract_literal_names(node.args[0]):
                if "." not in emitted:
                    # Single-segment strings passed to something called
                    # counter(...) are not metric names (e.g. per-VM
                    # label fields); the shape check below only runs on
                    # real registry calls, which are all dotted.
                    continue
                if not _well_formed(emitted):
                    findings.append(Finding(
                        RULE_ID, rel, node.lineno,
                        f"metric name {emitted!r} is not dot-separated "
                        "lowercase segments",
                    ))
                    continue
                spec = _lookup(specs, emitted)
                if spec is None:
                    findings.append(Finding(
                        RULE_ID, rel, node.lineno,
                        f"metric name {emitted!r} is not declared in "
                        "repro/obs/names.py",
                    ))
                elif spec[1] and spec[1] != kind:
                    findings.append(Finding(
                        RULE_ID, rel, node.lineno,
                        f"metric {emitted!r} emitted as {kind} but "
                        f"declared as {spec[1]} in repro/obs/names.py",
                    ))
    return findings
