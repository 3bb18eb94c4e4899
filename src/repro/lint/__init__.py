"""repro.lint — project-specific static analysis for the flow core and
the concurrent service layer.

An AST-based rule engine (:mod:`repro.lint.engine`) plus the rules that
turn this repository's implicit contracts into machine-checked ones:

============================  =========================================
rule                          contract
============================  =========================================
``interprocedural-locks``     whole-program: every *call path* into a
                              ``*_locked`` helper or guarded attribute
                              holds the owning lock (call-graph based)
``lock-order``                the acquired-while-holding graph over all
                              ``_lock`` attributes is acyclic
                              and non-reentrant locks are never
                              re-entered
``async-blocking``            coroutines under ``net/`` never reach a
                              blocking call (directly or transitively)
                              and never ``await`` holding a sync lock
``wire-contract``             protocol/codec encoder fields round-trip
                              through decoders and dataclasses; every
                              wire error code has a typed class; every
                              boundary-crossing exception is mappable
``flow-encapsulation``        ``.flow[...]``/``.cap[...]`` writes only
                              in the two network-owning files
``integer-capacity``          no float ``==``, ``/`` or fractional
                              literals in capacity arithmetic
``float-flow``                no float literal, ``/`` result,
                              ``float()`` cast or epsilon comparison
                              reaches a flow/cap slot anywhere in src/
``registry-completeness``     every solver/engine registered and tested
``unused-import`` et al.      hygiene (mirrors the ruff CI gate)
============================  =========================================

The whole-program rules share one project symbol table and call graph
(:class:`repro.lint.callgraph.CallGraph`), built once per run and
memoised on the :class:`Project`.

Run it as ``repro lint [--format text|json|sarif] [--jobs N]`` or from
Python::

    >>> from repro.lint import lint_repo
    >>> findings = lint_repo()          # [] when the tree is clean

Suppressions: ``# repro-lint: ignore=<rule>`` on the offending line,
``# repro-lint: disable-file=<rule>`` anywhere in the file; audited
long-lived suppressions live in the repo-root ``lint-baseline.json``
(see :mod:`repro.lint.sarif`).
"""

from repro.lint.callgraph import CallGraph
from repro.lint.engine import (
    Module,
    Project,
    ProjectRule,
    Rule,
    clear_parse_cache,
    parse_cache_size,
    parse_module,
    run_lint,
)
from repro.lint.findings import Finding
from repro.lint.runner import (
    default_rules,
    format_report,
    lint_repo,
    rule_catalog,
)
from repro.lint.sarif import (
    apply_baseline,
    format_sarif,
    load_baseline,
    to_sarif,
    write_baseline,
)

__all__ = [
    "CallGraph",
    "Finding",
    "Module",
    "Project",
    "ProjectRule",
    "Rule",
    "apply_baseline",
    "clear_parse_cache",
    "default_rules",
    "format_report",
    "format_sarif",
    "lint_repo",
    "load_baseline",
    "parse_cache_size",
    "parse_module",
    "rule_catalog",
    "run_lint",
    "to_sarif",
    "write_baseline",
]
