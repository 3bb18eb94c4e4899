"""Assemble the default rule set and drive a lint run (CLI backend)."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from repro.lint.engine import Rule, run_lint
from repro.lint.findings import Finding
from repro.lint.rules_async import AsyncBlockingRule
from repro.lint.rules_flow import FlowEncapsulationRule
from repro.lint.rules_hygiene import (
    BareExceptRule,
    ConstantComparisonRule,
    MutableDefaultRule,
    ShadowedBuiltinRule,
    UnusedImportRule,
)
from repro.lint.rules_interlock import InterproceduralLockRule, LockOrderRule
from repro.lint.rules_numeric import FloatFlowRule, IntegerCapacityRule
from repro.lint.rules_registry import RegistryCompletenessRule
from repro.lint.rules_wire import WireContractRule

__all__ = ["default_rules", "format_report", "lint_repo", "rule_catalog"]


def default_rules() -> list[Rule]:
    """One instance of every rule, project rules last."""
    return [
        FlowEncapsulationRule(),
        IntegerCapacityRule(),
        FloatFlowRule(),
        UnusedImportRule(),
        MutableDefaultRule(),
        ShadowedBuiltinRule(),
        BareExceptRule(),
        ConstantComparisonRule(),
        RegistryCompletenessRule(),
        InterproceduralLockRule(),
        LockOrderRule(),
        AsyncBlockingRule(),
        WireContractRule(),
    ]


def rule_catalog() -> list[tuple[str, str]]:
    """``(name, description)`` for every default rule, sorted by name."""
    return sorted((r.name, r.description) for r in default_rules())


def find_repo_root(start: str | Path | None = None) -> Path:
    """Walk up from ``start`` (default: this file) to the repo root.

    The root is the directory containing ``src/repro`` — works from an
    installed-in-place source tree and from the repository checkout.
    """
    here = Path(start) if start is not None else Path(__file__)
    for candidate in [here, *here.parents]:
        if (candidate / "src" / "repro").is_dir():
            return candidate
    # installed package without a src layout: lint the package itself
    return Path(__file__).resolve().parents[1]


def lint_repo(
    paths: Sequence[str | Path] | None = None,
    *,
    root: str | Path | None = None,
    rules: Sequence[Rule] | None = None,
    select: Sequence[str] | None = None,
    jobs: int = 1,
) -> list[Finding]:
    """Lint the repository (or explicit ``paths``) with the default rules.

    ``select`` restricts the run to the named rules; an unknown name
    raises :class:`ValueError` listing the valid ids (a silently-ignored
    typo would otherwise lint nothing and exit green).  ``jobs``
    parallelises parsing and the per-module passes (``0`` = auto).
    """
    root_path = Path(root) if root is not None else find_repo_root()
    if paths is None:
        src = root_path / "src" / "repro"
        paths = [src if src.is_dir() else Path(__file__).resolve().parents[1]]
    active = list(rules) if rules is not None else default_rules()
    if select:
        known = {r.name for r in active}
        unknown = sorted(set(select) - known)
        if unknown:
            raise ValueError(
                f"unknown rule(s): {', '.join(unknown)} — valid rules: "
                f"{', '.join(sorted(known))}"
            )
        wanted = set(select)
        active = [r for r in active if r.name in wanted]
    return run_lint(paths, active, root=root_path, jobs=jobs)


def format_report(findings: Sequence[Finding], fmt: str = "text") -> str:
    """Render findings as ``text``, ``json`` or ``sarif``."""
    if fmt == "sarif":
        from repro.lint.sarif import format_sarif

        return format_sarif(findings, catalog=rule_catalog())
    if fmt == "json":
        return json.dumps(
            {
                "findings": [f.to_dict() for f in findings],
                "count": len(findings),
            },
            indent=2,
            sort_keys=True,
        )
    if not findings:
        return "repro lint: clean (0 findings)"
    lines = [f.format_text() for f in findings]
    lines.append(f"repro lint: {len(findings)} finding(s)")
    return "\n".join(lines)
