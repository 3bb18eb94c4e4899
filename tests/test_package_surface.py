"""Consistency checks on the public API surface.

Cheap tests that catch the easy-to-miss breakages: every ``__all__`` name
resolves, the lazy top-level re-exports work, registries and docs agree.
"""

from __future__ import annotations

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.graph",
    "repro.maxflow",
    "repro.decluster",
    "repro.storage",
    "repro.core",
    "repro.workloads",
    "repro.bench",
    "repro.analysis",
    "repro.fleet",
    "repro.service",
    "repro.online",
    "repro.net",
    "repro.obs",
    "repro.lint",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    for attr in getattr(mod, "__all__", []):
        assert getattr(mod, attr, None) is not None, f"{name}.{attr} missing"


class TestTopLevelLazyExports:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_core_reexports(self):
        import repro

        assert repro.solve is not None
        assert repro.RetrievalProblem is not None
        assert repro.SOLVERS

    def test_storage_reexports(self):
        import repro

        assert repro.StorageSystem is not None
        assert repro.DISK_CATALOG

    def test_unknown_attribute(self):
        import repro

        with pytest.raises(AttributeError):
            repro.nonexistent_thing


class TestRegistriesConsistent:
    def test_every_solver_instantiable(self):
        from repro.core.api import SOLVERS, get_solver

        for name in SOLVERS:
            assert get_solver(name).name == name

    def test_every_engine_instantiable(self):
        from repro.maxflow import ENGINES, get_engine

        for name in ENGINES:
            assert get_engine(name).name == name

    def test_every_figure_driver_callable(self):
        from repro.bench.figures import FIGURES

        for name, driver in FIGURES.items():
            assert callable(driver), name

    def test_cli_list_covers_registries(self, capsys):
        from repro.cli import main
        from repro.core.api import SOLVERS

        main(["list"])
        out = capsys.readouterr().out
        for name in SOLVERS:
            assert name in out

    def test_solver_names_match_instances(self):
        """Registry keys equal each solver class's .name attribute."""
        from repro.core.api import SOLVERS

        for key, cls in SOLVERS.items():
            assert cls.name == key


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        import repro.errors as errors

        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_catchable_as_one(self):
        from repro.core import RetrievalProblem
        from repro.errors import ReproError
        from repro.storage import StorageSystem

        with pytest.raises(ReproError):
            RetrievalProblem(StorageSystem.homogeneous(2, "cheetah"), ())


class TestOneSchedulerPerDeployment:
    """The cluster tier is gone: one scheduler per deployment."""

    @pytest.mark.parametrize(
        "module", ["repro.cluster", "repro.service.signature"]
    )
    def test_module_is_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    @pytest.mark.parametrize("command", ["cluster", "soak-bench"])
    def test_cli_command_is_gone(self, command, capsys):
        from repro.cli import main

        # --help keeps a build that still has the command from
        # launching it: there it exits 0 instead of 2
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
