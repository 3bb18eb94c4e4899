"""The interprocedural lock rule: call paths into guarded code.

The first test class is the rule's founding case: a helper that
mutates guarded state *without any lexical lock in its own body*, called
from an unlocked public method.  A per-method lexical check is blind to
it (the class is in no curated map and no ``with self._lock`` appears
near the access); the call-graph rule flags both the bare access and
the unlocked call.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import run_lint
from repro.lint.rules_interlock import InterproceduralLockRule, LockOrderRule

#: a class the curated EXTRA_GUARDED map knows nothing about; `_pending` is
#: structurally guarded (mutated under the lock in `flush`), `_tick`
#: touches it bare, and `poke` calls the *_locked helper unlocked
SEEDED = '''\
import threading


class Tracker:
    def __init__(self):
        self._lock = threading.Lock()
        self._pending = []

    def flush(self):
        with self._lock:
            self._pending.clear()

    def _note_locked(self):
        self._pending.append(1)

    def _tick(self):
        self._pending.append(2)

    def poke(self):
        self._note_locked()

    def safe(self):
        with self._lock:
            self._note_locked()
'''


def seeded_findings(tmp_path: Path, rule, source: str = SEEDED):
    target = tmp_path / "svc"
    target.mkdir(exist_ok=True)
    (target / "tracker.py").write_text(source)
    return run_lint([target], [rule], root=tmp_path)


class TestLexicalRuleBlindSpot:
    """The seeded fixture: a bare access no lexical check could see."""

    def test_resolved_call_reported_once(self, tmp_path):
        # the unlocked *_locked call in `poke` resolves, so it is reported
        # once, naming the owning lock, and not again by the check for
        # receivers the call graph cannot type
        findings = seeded_findings(tmp_path, InterproceduralLockRule())
        poke = [f for f in findings if f.line == 20]
        assert len(poke) == 1
        assert "Tracker._lock" in poke[0].message

    def test_interprocedural_rule_catches_it(self, tmp_path):
        findings = seeded_findings(tmp_path, InterproceduralLockRule())
        lines = [f.line for f in findings]
        assert 17 in lines  # `_tick` mutates `_pending` bare
        assert 20 in lines  # `poke` calls `_note_locked` unlocked
        tick = next(f for f in findings if f.line == 17)
        assert "_pending" in tick.message
        assert "Tracker._lock" in tick.message
        poke = next(f for f in findings if f.line == 20)
        assert "_note_locked" in poke.message

    def test_locked_paths_stay_clean(self, tmp_path):
        clean = SEEDED.replace(
            "    def _tick(self):\n        self._pending.append(2)\n", ""
        ).replace(
            "    def poke(self):\n        self._note_locked()\n", ""
        )
        assert seeded_findings(tmp_path, InterproceduralLockRule(), clean) == []


class TestInheritedLock:
    SOURCE = '''\
import threading


class Base:
    def __init__(self):
        self._lock = threading.Lock()
        self._state = 0

    def _set_locked(self, v):
        self._state = v


class Child(Base):
    def unlocked_write(self):
        self._set_locked(3)

    def locked_write(self):
        with self._lock:
            self._set_locked(4)

    def _relay_locked(self):
        self._set_locked(5)
'''

    def test_subclass_call_requires_base_lock(self, tmp_path):
        findings = seeded_findings(
            tmp_path, InterproceduralLockRule(), self.SOURCE
        )
        assert [f.line for f in findings] == [15]
        assert "Base._lock" in findings[0].message

    def test_locked_and_relay_callers_exempt(self, tmp_path):
        findings = seeded_findings(
            tmp_path, InterproceduralLockRule(), self.SOURCE
        )
        assert all(f.line != 18 for f in findings)  # under with
        assert all(f.line != 22 for f in findings)  # *_locked caller


class TestPragmaInteraction:
    def test_line_pragma_suppresses_the_finding(self, tmp_path):
        source = SEEDED.replace(
            "        self._pending.append(2)",
            "        self._pending.append(2)"
            "  # repro-lint: ignore=interprocedural-locks",
        ).replace(
            "        self._note_locked()\n\n    def safe",
            "        self._note_locked()"
            "  # repro-lint: ignore=interprocedural-locks\n\n    def safe",
        )
        assert seeded_findings(tmp_path, InterproceduralLockRule(), source) == []

    def test_file_pragma_disables_the_rule(self, tmp_path):
        source = "# repro-lint: disable-file=interprocedural-locks\n" + SEEDED
        assert seeded_findings(tmp_path, InterproceduralLockRule(), source) == []


class TestLiveTreeCoverage:
    """The concurrent classes the analyzer exists for stay under guard."""

    def test_guarded_map_covers_every_concurrent_subsystem(self):
        from repro.lint.rules_interlock import EXTRA_GUARDED

        assert set(EXTRA_GUARDED) == {
            "SchedulerService",
            "OnlineScheduler",
            "SolveFleet",
        }
        # the attribute whose unlocked increment the rule caught in
        # fleet/pool.py must stay in the guarded set
        assert "solves_per_lane" in EXTRA_GUARDED["SolveFleet"]
        assert "_busy_until" in EXTRA_GUARDED["SchedulerService"]

    def test_concurrent_packages_are_clean_under_both_lock_rules(self):
        from repro.lint import lint_repo

        findings = lint_repo(
            select=["interprocedural-locks", "lock-order"]
        )
        assert findings == []


class TestLockOrder:
    CYCLE = '''\
import threading


class A:
    def __init__(self, b: "B"):
        self._lock = threading.Lock()
        self._b = b

    def forward(self):
        with self._lock:
            self._b.work()


class B:
    def __init__(self, a: A):
        self._lock = threading.Lock()
        self._a = a

    def work(self):
        with self._lock:
            pass

    def backward(self):
        with self._lock:
            self._a.direct()
'''

    def test_cycle_between_two_classes_is_flagged(self, tmp_path):
        source = self.CYCLE + (
            "\n"
            "class A2(A):\n"
            "    def direct(self):\n"
            "        with self._lock:\n"
            "            pass\n"
        )
        # A.forward: A._lock -> B._lock (via B.work); B.backward:
        # B._lock -> A._lock (via the A2 override of .direct)
        findings = seeded_findings(tmp_path, LockOrderRule(), source)
        assert findings, "expected a lock-order cycle"
        assert all("lock-order cycle" in f.message for f in findings)
        assert any("A._lock" in f.message and "B._lock" in f.message
                   for f in findings)

    def test_consistent_order_is_clean(self, tmp_path):
        # only A -> B edges: acyclic
        findings = seeded_findings(tmp_path, LockOrderRule(), self.CYCLE.replace(
            "    def backward(self):\n"
            "        with self._lock:\n"
            "            self._a.direct()\n",
            "",
        ))
        assert findings == []

    SELF_DEADLOCK = '''\
import threading


class C:
    def __init__(self):
        self._lock = threading.Lock()

    def _inner(self):
        with self._lock:
            pass

    def outer(self):
        with self._lock:
            self._inner()
'''

    def test_self_deadlock_on_plain_lock(self, tmp_path):
        findings = seeded_findings(tmp_path, LockOrderRule(), self.SELF_DEADLOCK)
        # anchored at the call that re-enters the lock, not the with
        assert [f.line for f in findings] == [14]
        assert "re-acquired" in findings[0].message
        assert "C._inner" in findings[0].message

    def test_rlock_self_entry_is_clean(self, tmp_path):
        source = self.SELF_DEADLOCK.replace(
            "threading.Lock()", "threading.RLock()"
        )
        assert seeded_findings(tmp_path, LockOrderRule(), source) == []

    def test_lexical_nested_reacquire_also_flagged(self, tmp_path):
        source = '''\
import threading


class D:
    def __init__(self):
        self._lock = threading.Lock()

    def nested(self):
        with self._lock:
            with self._lock:
                pass
'''
        findings = seeded_findings(tmp_path, LockOrderRule(), source)
        assert [f.line for f in findings] == [10]
