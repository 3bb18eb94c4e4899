"""The lint rule engine: modules, pragmas, rule dispatch.

Architecture
------------
* A :class:`Module` is one parsed source file (path, source lines, AST).
* A :class:`Rule` inspects one module at a time (:meth:`Rule.check`);
  a :class:`ProjectRule` additionally sees the whole parsed project at
  once (:meth:`ProjectRule.check_project`) — for cross-file contracts
  like registry completeness.
* :func:`run_lint` walks the target paths, parses every ``.py`` file,
  runs the rules and filters the findings through suppression pragmas.

Pragmas
-------
Findings can be suppressed in the source under inspection:

* ``# repro-lint: ignore=<rule>`` on the offending line suppresses that
  rule for that line (comma-separate several rules, or use ``all``);
* ``# repro-lint: disable-file=<rule>`` anywhere in the file disables
  the rule for the whole file.

These pragmas are the only suppression.  The engine applies them after
rules run, so rules stay pragma-oblivious.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.findings import Finding

__all__ = [
    "Module",
    "Project",
    "ProjectRule",
    "Rule",
    "parse_module",
    "run_lint",
]

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>ignore|disable-file)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\- ]+)"
)


def _pragma_rules(match: re.Match[str]) -> set[str]:
    return {r.strip() for r in match.group("rules").split(",") if r.strip()}


@dataclass
class Module:
    """One parsed source file under lint."""

    path: str  # repo-relative, forward slashes
    source: str
    tree: ast.Module
    #: line number -> rule names suppressed on that line
    line_pragmas: dict[int, set[str]] = field(default_factory=dict)
    #: rule names disabled for the whole file
    file_pragmas: set[str] = field(default_factory=set)

    def is_suppressed(self, finding: Finding) -> bool:
        for rules in (
            self.file_pragmas,
            self.line_pragmas.get(finding.line, ()),
        ):
            if finding.rule in rules or "all" in rules:
                return True
        return False


@dataclass
class Project:
    """Everything a cross-file rule may inspect."""

    root: Path
    modules: list[Module]

    def module(self, suffix: str) -> Module | None:
        """The module whose path ends with ``suffix`` (or ``None``)."""
        for mod in self.modules:
            if mod.path.endswith(suffix):
                return mod
        return None


class Rule:
    """Base class: one per-module diagnostic pass."""

    #: unique kebab-case rule id (used in reports and pragmas)
    name: str = ""
    #: one-line description for ``repro lint --list``-style catalogues
    description: str = ""

    def applies_to(self, path: str) -> bool:
        """Whether this rule inspects ``path`` (repo-relative)."""
        del path
        return True

    def check(self, module: Module) -> Iterable[Finding]:
        """Yield findings for one module."""
        del module
        return ()


class ProjectRule(Rule):
    """A rule that needs the whole parsed project at once."""

    def check_project(self, project: Project) -> Iterable[Finding]:
        del project
        return ()


def parse_module(path: str, source: str) -> Module:
    """Parse one file into a :class:`Module`, collecting pragmas."""
    tree = ast.parse(source, filename=path)
    line_pragmas: dict[int, set[str]] = {}
    file_pragmas: set[str] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(line)
        if match is None:
            continue
        rules = _pragma_rules(match)
        if match.group("kind") == "disable-file":
            file_pragmas |= rules
        else:
            line_pragmas.setdefault(lineno, set()).update(rules)
    return Module(path, source, tree, line_pragmas, file_pragmas)


def _iter_py_files(target: Path) -> Iterable[Path]:
    if target.is_file():
        yield target
        return
    yield from sorted(target.rglob("*.py"))


def _load_module(py: Path, rel: str) -> Module | Finding:
    """Parse ``py``; a SyntaxError becomes a Finding."""
    source = py.read_text(encoding="utf-8")
    try:
        return parse_module(rel, source)
    except SyntaxError as exc:
        return Finding(
            path=rel,
            line=exc.lineno or 1,
            col=(exc.offset or 1),
            rule="syntax-error",
            message=f"cannot parse: {exc.msg}",
        )


def run_lint(
    paths: Sequence[str | Path],
    rules: Sequence[Rule],
    *,
    root: str | Path | None = None,
) -> list[Finding]:
    """Lint ``paths`` with ``rules``; return sorted, pragma-filtered findings.

    ``root`` anchors the repo-relative paths in reports (and gives
    project rules access to out-of-tree context such as ``tests/``);
    it defaults to the common parent of ``paths``.  Project rules run
    once, after every module is parsed and checked.
    """
    targets = [Path(p).resolve() for p in paths]
    if root is None:
        root_path = targets[0] if targets[0].is_dir() else targets[0].parent
    else:
        root_path = Path(root).resolve()

    modules: list[Module] = []
    findings: list[Finding] = []
    seen: set[Path] = set()
    for target in targets:
        for py in _iter_py_files(target):
            if py in seen:
                continue
            seen.add(py)
            try:
                rel = py.relative_to(root_path).as_posix()
            except ValueError:
                rel = py.as_posix()
            item = _load_module(py, rel)
            if isinstance(item, Finding):
                findings.append(item)
            else:
                modules.append(item)

    for module in modules:
        for rule in rules:
            if isinstance(rule, ProjectRule) or not rule.applies_to(module.path):
                continue
            for finding in rule.check(module):
                if not module.is_suppressed(finding):
                    findings.append(finding)

    project = Project(root_path, modules)
    by_path = {m.path: m for m in modules}
    for rule in rules:
        if not isinstance(rule, ProjectRule):
            continue
        for finding in rule.check_project(project):
            module = by_path.get(finding.path)
            if module is None or not module.is_suppressed(finding):
                findings.append(finding)

    return sorted(findings)
