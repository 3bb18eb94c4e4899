"""Each lint rule fires on its bad fixture — at exact locations — and
stays silent on the clean one."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.rules_flow import FlowEncapsulationRule
from repro.lint.rules_hygiene import (
    BareExceptRule,
    ConstantComparisonRule,
    MutableDefaultRule,
    ShadowedBuiltinRule,
    UnusedImportRule,
)
from repro.lint.rules_interlock import InterproceduralLockRule
from repro.lint.rules_numeric import FloatFlowRule, IntegerCapacityRule

FIXTURES = Path(__file__).parent / "fixtures"

HYGIENE_RULES = [
    UnusedImportRule(),
    MutableDefaultRule(),
    ShadowedBuiltinRule(),
    BareExceptRule(),
    ConstantComparisonRule(),
]


def lines_of(findings, rule=None):
    return [f.line for f in findings if rule is None or f.rule == rule]


class TestLockDiscipline:
    """The lock-discipline cases, checked by ``interprocedural-locks``."""

    def findings(self):
        return run_lint(
            [FIXTURES / "bad_locks.py"], [InterproceduralLockRule()],
            root=FIXTURES,
        )

    def test_exact_violation_lines(self):
        assert lines_of(self.findings()) == [25, 28, 33, 38, 47, 60]

    def test_mislocked_call_is_flagged_with_hint(self):
        # the deliberately mis-locked *_locked call (acceptance criterion)
        f = next(x for x in self.findings() if x.line == 25)
        assert f.rule == "interprocedural-locks"
        assert "_record_one_locked" in f.message
        assert "_lock" in f.message
        assert f.hint

    def test_guarded_mutation_names_the_attribute(self):
        f = next(x for x in self.findings() if x.line == 28)
        assert "SchedulerService._stats" in f.message

    def test_unresolved_receiver_locked_call_is_flagged(self):
        # `svc` has no annotation, so the call graph cannot name the
        # owning lock; the call still needs some `with …._lock` around it
        f = next(x for x in self.findings() if x.line == 47)
        assert "_record_one_locked" in f.message
        assert "unresolved_helper" in f.message
        assert f.hint

    def test_annotated_receiver_names_the_owning_lock(self):
        f = next(x for x in self.findings() if x.line == 60)
        assert "SchedulerService._lock" in f.message
        assert "annotated_helper" in f.message

    def test_exemptions_do_not_fire(self):
        # __init__ (13-14), _locked bodies (17, 56), with-blocks (21-22,
        # 37, 52) and unrelated classes (43) must stay silent
        flagged = set(lines_of(self.findings()))
        assert flagged.isdisjoint({13, 14, 17, 21, 22, 37, 43, 52, 56})


class TestFlowEncapsulation:
    def findings(self):
        return run_lint(
            [FIXTURES / "bad_flow.py"], [FlowEncapsulationRule()],
            root=FIXTURES,
        )

    def test_exact_violation_lines(self):
        assert lines_of(self.findings()) == [5, 6, 7, 8, 9, 10]

    def test_residual_capacity_write_is_flagged(self):
        # the deliberate direct residual-twin write (acceptance criterion)
        f = next(x for x in self.findings() if x.line == 6)
        assert f.rule == "flow-encapsulation"
        assert ".flow" in f.message

    def test_reads_and_arrays_view_are_fine(self):
        flagged = set(lines_of(self.findings()))
        assert flagged.isdisjoint({14, 15, 17, 22})

    def test_owning_files_are_exempt(self, tmp_path):
        core = tmp_path / "core"
        core.mkdir()
        shutil.copy(FIXTURES / "bad_flow.py", core / "network.py")
        assert run_lint(
            [core / "network.py"], [FlowEncapsulationRule()], root=tmp_path
        ) == []


class TestIntegerCapacity:
    @pytest.fixture
    def mounted(self, tmp_path):
        # the rule is scoped to core/ and maxflow/ — mount the fixture
        # inside a synthetic core/ tree
        core = tmp_path / "core"
        core.mkdir()
        shutil.copy(FIXTURES / "bad_numeric.py", core / "bad_numeric.py")
        return tmp_path

    def test_exact_violation_lines(self, mounted):
        findings = run_lint(
            [mounted / "core" / "bad_numeric.py"], [IntegerCapacityRule()],
            root=mounted,
        )
        assert lines_of(findings) == [9, 11, 17, 24, 26]
        messages = "\n".join(f.message for f in findings)
        assert "equality against a float literal" in messages
        assert "true division" in messages
        assert "non-integral float literal" in messages

    def test_out_of_scope_paths_are_ignored(self):
        assert run_lint(
            [FIXTURES / "bad_numeric.py"], [IntegerCapacityRule()],
            root=FIXTURES,
        ) == []

    def test_integral_floats_and_floor_division_pass(self, mounted):
        flagged = set(
            lines_of(
                run_lint(
                    [mounted / "core" / "bad_numeric.py"],
                    [IntegerCapacityRule()],
                    root=mounted,
                )
            )
        )
        assert flagged.isdisjoint({13, 18, 19, 25})


class TestFloatFlow:
    def findings(self):
        return run_lint(
            [FIXTURES / "bad_float_flow.py"], [FloatFlowRule()],
            root=FIXTURES,
        )

    def test_exact_violation_lines(self):
        assert lines_of(self.findings()) == [11, 12, 13, 14, 15, 16, 17]

    def test_every_float_era_pattern_is_named(self):
        messages = "\n".join(f.message for f in self.findings())
        assert "epsilon/float comparison" in messages
        assert "assigned into a flow/cap slot" in messages
        assert "push()" in messages
        assert "append()" in messages
        assert "set_capacity()" in messages

    def test_kernel_respecting_code_passes(self):
        """Int flow arithmetic, floats on the response-time side, and the
        pragma-suppressed compat cast all stay silent (lines 21-30)."""
        assert all(f.line <= 17 for f in self.findings())

    def test_applies_everywhere_no_mount_needed(self):
        """The rule has no core//maxflow/ scoping — it fired on a bare
        fixtures/ path above, unlike integer-capacity."""
        assert FloatFlowRule().applies_to("anything/at/all.py")
        assert self.findings() != []

    def test_hint_points_at_the_contract(self):
        hint = self.findings()[0].hint
        assert "exact Python ints" in hint


class TestHygieneRules:
    def findings(self):
        return run_lint(
            [FIXTURES / "bad_hygiene.py"], HYGIENE_RULES, root=FIXTURES
        )

    def test_exact_rule_and_line_pairs(self):
        got = [(f.line, f.rule) for f in self.findings()]
        assert got == [
            (3, "unused-import"),
            (4, "unused-import"),
            (5, "unused-import"),
            (9, "shadowed-builtin"),
            (12, "mutable-default"),
            (16, "mutable-default"),
            (20, "shadowed-builtin"),
            (20, "shadowed-builtin"),
            (27, "bare-except"),
            (32, "constant-comparison"),
            (34, "constant-comparison"),
        ]

    def test_used_import_not_flagged(self):
        assert not any(
            "threading" in f.message for f in self.findings()
        )


class TestCleanFixture:
    def test_no_rule_fires(self):
        rules = [
            InterproceduralLockRule(),
            FlowEncapsulationRule(),
            IntegerCapacityRule(),
            *HYGIENE_RULES,
        ]
        assert run_lint(
            [FIXTURES / "good_clean.py"], rules, root=FIXTURES
        ) == []
