"""Engine mechanics: pragmas, ordering, output formats, rule selection."""

from __future__ import annotations

import json


from repro.lint import (
    Finding,
    default_rules,
    format_report,
    lint_repo,
    parse_module,
    rule_catalog,
    run_lint,
)
from repro.lint.rules_hygiene import BareExceptRule, MutableDefaultRule

BAD_SOURCE = """\
def f(x=[]):
    try:
        return x
    except:
        return None
"""


def write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source)
    return path


class TestPragmas:
    def test_line_ignore_suppresses_one_rule(self, tmp_path):
        src = BAD_SOURCE.replace(
            "def f(x=[]):",
            "def f(x=[]):  # repro-lint: ignore=mutable-default",
        )
        path = write(tmp_path, "mod.py", src)
        findings = run_lint(
            [path], [MutableDefaultRule(), BareExceptRule()], root=tmp_path
        )
        assert [f.rule for f in findings] == ["bare-except"]

    def test_line_ignore_all(self, tmp_path):
        src = BAD_SOURCE.replace(
            "def f(x=[]):", "def f(x=[]):  # repro-lint: ignore=all"
        )
        path = write(tmp_path, "mod.py", src)
        findings = run_lint(
            [path], [MutableDefaultRule(), BareExceptRule()], root=tmp_path
        )
        assert [f.rule for f in findings] == ["bare-except"]

    def test_disable_file_suppresses_everywhere(self, tmp_path):
        src = "# repro-lint: disable-file=bare-except\n" + BAD_SOURCE
        path = write(tmp_path, "mod.py", src)
        findings = run_lint(
            [path], [MutableDefaultRule(), BareExceptRule()], root=tmp_path
        )
        assert [f.rule for f in findings] == ["mutable-default"]

    def test_pragma_on_other_line_does_not_leak(self, tmp_path):
        src = BAD_SOURCE + "# repro-lint: ignore=mutable-default\n"
        path = write(tmp_path, "mod.py", src)
        findings = run_lint([path], [MutableDefaultRule()], root=tmp_path)
        assert [f.rule for f in findings] == ["mutable-default"]

    def test_parse_module_collects_both_pragma_kinds(self):
        mod = parse_module(
            "m.py",
            "# repro-lint: disable-file=rule-a\n"
            "x = 1  # repro-lint: ignore=rule-b, rule-c\n",
        )
        assert mod.file_pragmas == {"rule-a"}
        assert mod.line_pragmas == {2: {"rule-b", "rule-c"}}


class TestRunLint:
    def test_findings_sorted_by_path_then_line(self, tmp_path):
        write(tmp_path, "b.py", BAD_SOURCE)
        write(tmp_path, "a.py", BAD_SOURCE)
        findings = run_lint(
            [tmp_path], [MutableDefaultRule(), BareExceptRule()],
            root=tmp_path,
        )
        assert [(f.path, f.line) for f in findings] == [
            ("a.py", 1), ("a.py", 4), ("b.py", 1), ("b.py", 4),
        ]

    def test_syntax_error_becomes_finding(self, tmp_path):
        write(tmp_path, "broken.py", "def f(:\n")
        findings = run_lint([tmp_path], [BareExceptRule()], root=tmp_path)
        assert len(findings) == 1
        assert findings[0].rule == "syntax-error"
        assert findings[0].path == "broken.py"

    def test_paths_relative_to_root(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        write(pkg, "mod.py", BAD_SOURCE)
        findings = run_lint([pkg], [BareExceptRule()], root=tmp_path)
        assert findings[0].path == "pkg/mod.py"


class TestReportFormats:
    def test_text_clean(self):
        assert "clean (0 findings)" in format_report([])

    def test_text_lists_findings_and_count(self):
        f = Finding(path="a.py", line=3, col=1, rule="r", message="m",
                    hint="do x")
        out = format_report([f])
        assert "a.py:3:1" in out
        assert "[r]" in out
        assert "1 finding(s)" in out

    def test_json_round_trips(self):
        f = Finding(path="a.py", line=3, col=1, rule="r", message="m")
        data = json.loads(format_report([f], "json"))
        assert data["count"] == 1
        assert data["findings"][0]["path"] == "a.py"
        assert data["findings"][0]["line"] == 3


class TestRunnerSurface:
    def test_catalog_covers_issue_rules(self):
        names = {name for name, _ in rule_catalog()}
        assert {
            "lock-discipline",
            "flow-encapsulation",
            "integer-capacity",
            "registry-completeness",
        } <= names

    def test_default_rules_have_unique_names(self):
        names = [r.name for r in default_rules()]
        assert len(names) == len(set(names))

    def test_select_filters_rules(self, tmp_path):
        path = write(tmp_path, "mod.py", BAD_SOURCE)
        findings = lint_repo(
            paths=[path], root=tmp_path, select=["bare-except"]
        )
        assert [f.rule for f in findings] == ["bare-except"]


class TestCli:
    def test_lint_command_clean_exit(self, capsys):
        from repro.cli import main

        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_command_flags_fixture(self, capsys):
        from repro.cli import main

        fixture = __file__.replace("test_engine.py", "fixtures/bad_flow.py")
        assert main(["lint", fixture, "--rules", "flow-encapsulation"]) == 1
        assert "flow-encapsulation" in capsys.readouterr().out

    def test_lint_command_json(self, capsys):
        from repro.cli import main

        assert main(["lint", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 0

    def test_list_rules(self, capsys):
        from repro.cli import main

        assert main(["lint", "--list-rules"]) == 0
        assert "lock-discipline" in capsys.readouterr().out
