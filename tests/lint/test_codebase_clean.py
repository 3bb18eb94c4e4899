"""The live tree passes its own linter — the repo-level acceptance gate.

This is the same check CI runs as ``repro lint``; keeping it in the test
suite means a plain ``pytest`` run cannot go green while the tree
violates its own contracts.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import format_report, lint_repo
from repro.lint.runner import find_repo_root


def test_find_repo_root_locates_src_repro():
    root = find_repo_root()
    assert (root / "src" / "repro" / "lint").is_dir()


def test_src_tree_is_clean():
    findings = lint_repo()
    assert findings == [], "\n" + format_report(findings)


def test_scripts_and_tests_are_clean_of_hygiene_findings():
    # the ruff-mirror rules hold outside src/ too; the deliberately-bad
    # fixtures are the only exception
    root = find_repo_root()
    findings = [
        f
        for f in lint_repo(
            paths=[root / "tests", root / "examples", root / "benchmarks"],
            select=[
                "unused-import",
                "shadowed-builtin",
                "mutable-default",
                "bare-except",
            ],
        )
        if "tests/lint/fixtures/" not in Path(f.path).as_posix()
    ]
    assert findings == [], "\n" + format_report(findings)


def test_fixture_directory_is_not_swept_by_default():
    # lint_repo only walks src/repro — the deliberately-bad fixtures next
    # to this test must not leak into the default run
    findings = lint_repo()
    assert not any("fixtures" in f.path for f in findings)


def test_lint_is_deterministic():
    assert lint_repo() == lint_repo()


def test_scoped_run_on_core_is_clean():
    root = find_repo_root()
    assert lint_repo(paths=[Path(root) / "src" / "repro" / "core"]) == []
