"""Rule ``fault-points``: the fault vocabulary is declared and tested.

``src/repro/chaos/faultpoints.py`` is the registry; this rule checks it
against the implementing modules, statically:

* ``REPOSITORY_FAULT_POINTS`` equals the ``FAULT_*`` constants (and
  ``FAULT_POINTS`` tuple) in ``storage/repository.py`` — both
  directions, so neither side can grow a point the other lacks;
* ``SCHEDULE_FAULT_KINDS`` equals the ``FaultKind`` vocabulary in
  ``chaos/schedule.py``;
* every fault-point string used at a ``_fault(...)`` call site or a
  ``fault_point=`` keyword in ``src/`` resolves to a declared point —
  no ad-hoc literals;
* every declared name is referenced by at least one file under
  ``tests/`` (by literal value, by constant name such as
  ``FAULT_SEGMENT_WRITTEN`` or ``FaultKind.RESTART``, or via the
  ``FAULT_POINTS``/``FAULT_KINDS`` sweep tuples).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.core import Finding, Project

RULE_ID = "fault-points"

REGISTRY_PATH = "src/repro/chaos/faultpoints.py"
REPOSITORY_PATH = "src/repro/storage/repository.py"
SCHEDULE_PATH = "src/repro/chaos/schedule.py"

_FAULT_CONST_RE = re.compile(r"^FAULT_[A-Z0-9_]+$")


def _dict_literal_keys(
    tree: ast.Module, name: str
) -> Tuple[Optional[Set[str]], int]:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        if name in targets and isinstance(node.value, ast.Dict):
            keys = {
                key.value
                for key in node.value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            }
            return keys, node.lineno
    return None, 0


def _repository_points(tree: ast.Module) -> Dict[str, str]:
    """Fault-point literal → FAULT_* constant name in repository.py."""
    points: Dict[str, str] = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and \
                    _FAULT_CONST_RE.match(target.id) and \
                    target.id != "FAULT_POINTS" and \
                    isinstance(node.value, ast.Constant) and \
                    isinstance(node.value.value, str):
                points[node.value.value] = target.id
    return points


def _fault_kinds(tree: ast.Module) -> Dict[str, str]:
    """Kind literal → ``FaultKind.<ATTR>`` from schedule.py."""
    kinds: Dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "FaultKind":
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and \
                        isinstance(stmt.value, ast.Constant) and \
                        isinstance(stmt.value.value, str):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            kinds[stmt.value.value] = f"FaultKind.{target.id}"
    return kinds


def _compare(
    findings: List[Finding],
    declared: Optional[Set[str]],
    lineno: int,
    actual: Set[str],
    registry_label: str,
    source_label: str,
) -> None:
    if declared is None:
        findings.append(Finding(
            RULE_ID, REGISTRY_PATH, 1,
            f"{registry_label} dict literal is missing from faultpoints.py",
        ))
        return
    for extra in sorted(actual - declared):
        findings.append(Finding(
            RULE_ID, REGISTRY_PATH, lineno,
            f"{source_label} defines {extra!r} but {registry_label} does "
            "not declare it",
        ))
    for missing in sorted(declared - actual):
        findings.append(Finding(
            RULE_ID, REGISTRY_PATH, lineno,
            f"{registry_label} declares {missing!r} but {source_label} "
            "does not define it",
        ))


def _tests_text(project: Project) -> str:
    chunks = []
    for rel in project.source_files("tests"):
        text = project.try_text(rel)
        if text:
            chunks.append(text)
    return "\n".join(chunks)


def _test_referenced(tests_text: str, aliases: Iterable[str]) -> bool:
    return any(alias in tests_text for alias in aliases)


def check(project: Project) -> Iterable[Finding]:
    """Check the fault registry against its sources and test coverage."""
    findings: List[Finding] = []
    if not project.exists(REGISTRY_PATH):
        return [Finding(
            RULE_ID, REGISTRY_PATH, 1,
            "fault-point registry repro/chaos/faultpoints.py is missing",
        )]
    registry_tree = project.tree(REGISTRY_PATH)
    declared_points, points_line = _dict_literal_keys(
        registry_tree, "REPOSITORY_FAULT_POINTS"
    )
    declared_kinds, kinds_line = _dict_literal_keys(
        registry_tree, "SCHEDULE_FAULT_KINDS"
    )

    repo_points = _repository_points(project.tree(REPOSITORY_PATH))
    kinds = _fault_kinds(project.tree(SCHEDULE_PATH))

    _compare(findings, declared_points, points_line, set(repo_points),
             "REPOSITORY_FAULT_POINTS", "storage/repository.py")
    _compare(findings, declared_kinds, kinds_line, set(kinds),
             "SCHEDULE_FAULT_KINDS", "chaos/schedule.py FaultKind")

    # Ad-hoc fault-point literals at call sites.
    known_points = set(repo_points) | (declared_points or set())
    for rel in project.source_files("src/repro"):
        tree = project.tree(rel)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_fault_call = (
                (isinstance(func, ast.Attribute) and func.attr == "_fault")
                or (isinstance(func, ast.Name) and func.id == "_fault")
            )
            candidates: List[Tuple[str, int]] = []
            if is_fault_call and node.args:
                arg = node.args[0]
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    candidates.append((arg.value, node.lineno))
            for keyword in node.keywords:
                if keyword.arg == "fault_point" and \
                        isinstance(keyword.value, ast.Constant) and \
                        isinstance(keyword.value.value, str):
                    candidates.append((keyword.value.value, node.lineno))
            for literal, lineno in candidates:
                if literal not in known_points:
                    findings.append(Finding(
                        RULE_ID, rel, lineno,
                        f"fault point {literal!r} is not declared in "
                        "repro/chaos/faultpoints.py",
                    ))

    # Every declared name must be exercised by at least one test.
    tests_text = _tests_text(project)
    for value, const in sorted(repo_points.items()):
        if (declared_points is not None and value in declared_points) and \
                not _test_referenced(
                    tests_text, (f'"{value}"', f"'{value}'", const,
                                 "FAULT_POINTS")):
            findings.append(Finding(
                RULE_ID, REGISTRY_PATH, points_line,
                f"fault point {value!r} is not referenced by any test",
            ))
    for value, attr in sorted(kinds.items()):
        if (declared_kinds is not None and value in declared_kinds) and \
                not _test_referenced(
                    tests_text, (f'"{value}"', f"'{value}'", attr,
                                 "FAULT_KINDS")):
            findings.append(Finding(
                RULE_ID, REGISTRY_PATH, kinds_line,
                f"fault kind {value!r} is not referenced by any test",
            ))
    return findings
