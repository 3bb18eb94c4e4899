"""registry-completeness: every solver/engine is reachable and tested.

The public API reaches solvers through ``repro.core.api.SOLVERS`` and
max-flow engines through ``repro.maxflow.ENGINES``.  A class that exists
but is missing from its registry is dead weight — unreachable from
``solve()``/``get_engine()``, invisible to the CLI, and silently skipped
by the differential cross-check that keeps the optimal solvers honest.
This project-level rule enforces:

* every ``*Solver`` class under ``core/`` appears as a value in the
  ``SOLVERS`` dict of ``core/api.py``;
* every ``*Engine`` class under ``maxflow/`` (except the abstract
  ``MaxFlowEngine`` base) appears as a value in ``ENGINES`` of
  ``maxflow/__init__.py``;
* every registry *name* appears somewhere in the test suite (as a
  string literal in a file under ``tests/``);
* every optimal solver name appears in the differential suite
  (``tests/**/test_differential*.py``).  Solvers that cannot take part
  are listed in :data:`DIFFERENTIAL_EXEMPT` with their reason.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import Module, Project, ProjectRule
from repro.lint.findings import Finding

__all__ = ["DIFFERENTIAL_EXEMPT", "RegistryCompletenessRule"]

#: solver names excused from the generalized differential cross-check
DIFFERENTIAL_EXEMPT: dict[str, str] = {
    "ff-basic": "Algorithm 1 solves only the basic (homogeneous) problem",
    "brute-force": "is itself the oracle the differential suite checks against",
    "greedy-finish-time": "heuristic baseline, documented as non-optimal",
    "round-robin": "heuristic baseline, documented as non-optimal",
}


def _registry_literal(
    module: Module, dict_name: str
) -> tuple[dict[str, str], dict[str, int]] | None:
    """Extract ``{key: class_name}`` and key line numbers from a module."""
    for node in module.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == dict_name
            for t in node.targets
        ):
            continue
        if not isinstance(node.value, ast.Dict):
            return None
        mapping: dict[str, str] = {}
        lines: dict[str, int] = {}
        for key, value in zip(node.value.keys, node.value.values):
            if (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(value, ast.Name)
            ):
                mapping[key.value] = value.id
                lines[key.value] = key.lineno
        return mapping, lines
    return None


def _class_defs(module: Module, suffix: str) -> Iterator[ast.ClassDef]:
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef) and node.name.endswith(suffix):
            yield node


def _is_abstract(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else ""
        )
        if name in {"ABC", "Protocol"}:
            return True
    return bool(
        any(
            isinstance(kw.value, ast.Name) and kw.value.id == "ABCMeta"
            for kw in node.keywords
            if kw.arg == "metaclass"
        )
    )


class RegistryCompletenessRule(ProjectRule):
    name = "registry-completeness"
    description = (
        "every solver/engine class is registered, and every registry "
        "name is exercised by the test suite"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        test_sources = self._test_sources(project)
        differential = "".join(
            src for path, src in test_sources if "test_differential" in path
        )
        all_tests = "".join(src for _, src in test_sources)

        yield from self._check_registry(
            project,
            registry_module="core/api.py",
            dict_name="SOLVERS",
            class_suffix="Solver",
            package_dir="core/",
            all_tests=all_tests,
            differential=differential,
        )
        yield from self._check_registry(
            project,
            registry_module="maxflow/__init__.py",
            dict_name="ENGINES",
            class_suffix="Engine",
            package_dir="maxflow/",
            all_tests=all_tests,
            differential=None,  # engines are unit-tested, not differential
        )

    # ------------------------------------------------------------------
    def _test_sources(self, project: Project) -> list[tuple[str, str]]:
        tests_root = project.root / "tests"
        if not tests_root.is_dir():
            return []
        return [
            (py.as_posix(), py.read_text(encoding="utf-8"))
            for py in sorted(tests_root.rglob("*.py"))
        ]

    def _check_registry(
        self,
        project: Project,
        *,
        registry_module: str,
        dict_name: str,
        class_suffix: str,
        package_dir: str,
        all_tests: str,
        differential: str | None,
    ) -> Iterator[Finding]:
        reg_mod = project.module(registry_module)
        if reg_mod is None:
            return
        extracted = _registry_literal(reg_mod, dict_name)
        if extracted is None:
            yield Finding(
                path=reg_mod.path,
                line=1,
                col=1,
                rule=self.name,
                message=f"{dict_name} is not a plain dict literal",
                hint="keep the registry statically analysable",
            )
            return
        registry, key_lines = extracted
        registered_classes = set(registry.values())

        # 1. every concrete class under the package is registered
        for module in project.modules:
            if package_dir not in module.path:
                continue
            for node in _class_defs(module, class_suffix):
                if node.name == f"MaxFlow{class_suffix}" or _is_abstract(node):
                    continue
                if node.name not in registered_classes:
                    yield Finding(
                        path=module.path,
                        line=node.lineno,
                        col=node.col_offset + 1,
                        rule=self.name,
                        message=(
                            f"class '{node.name}' is not registered in "
                            f"{registry_module}:{dict_name} — unreachable "
                            f"from the public API"
                        ),
                        hint=f"add it to {dict_name} or remove the class",
                    )

        # 2. every registry name is exercised somewhere under tests/
        for key, line in key_lines.items():
            if f'"{key}"' not in all_tests and f"'{key}'" not in all_tests:
                yield Finding(
                    path=reg_mod.path,
                    line=line,
                    col=1,
                    rule=self.name,
                    message=(
                        f"registry name '{key}' never appears in the test "
                        f"suite"
                    ),
                    hint="add a test that exercises it by name",
                )

        # 3. optimal solvers must be in the differential cross-check
        if differential is None:
            return
        for key, line in key_lines.items():
            if key in DIFFERENTIAL_EXEMPT:
                continue
            if f'"{key}"' not in differential and f"'{key}'" not in differential:
                yield Finding(
                    path=reg_mod.path,
                    line=line,
                    col=1,
                    rule=self.name,
                    message=(
                        f"optimal solver '{key}' is not covered by the "
                        f"differential suite"
                    ),
                    hint=(
                        "add it to tests/core/test_differential.py's solver "
                        "list, or record an exemption in "
                        "repro/lint/rules_registry.py with its reason"
                    ),
                )
