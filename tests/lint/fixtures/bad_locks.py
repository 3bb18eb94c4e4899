"""Fixture: lock-rule violations (and non-violations).

Line numbers are asserted exactly in test_rules.py — keep edits
append-only or update the expectations.
"""

import threading


class SchedulerService:
    def __init__(self):
        self._lock = threading.Lock()
        self._stats = {}          # line 13: __init__ is exempt
        self._busy_until = []

    def _record_one_locked(self, record):
        self._stats[record] = 1   # line 17: *_locked body is exempt

    def good_path(self):
        with self._lock:
            self._record_one_locked("x")   # line 21: inside with — fine
            self._stats["y"] = 2           # line 22: guarded mutation — fine

    def bad_call(self):
        self._record_one_locked("x")       # line 25: _locked call, no lock

    def bad_mutation(self):
        self._stats["y"] = 2               # line 28: guarded attr, no lock

    def bad_nested(self):
        if True:
            while True:
                self._busy_until.append(1.0)   # line 33: nested, no lock

    def mixed(self):
        with self._lock:
            self._stats.clear()            # line 37: fine
        self._stats.clear()                # line 38: lock released — flagged


class Unrelated:
    def anything(self):
        self._stats = {}                   # line 43: not a guarded class


def unresolved_helper(svc):
    svc._record_one_locked("x")            # line 47: receiver type unknown


def unresolved_under_lock(svc):
    with svc._lock:
        svc._record_one_locked("x")        # line 52: fine


def _relay_locked(svc):
    svc._record_one_locked("x")            # line 56: *_locked caller exempt


def annotated_helper(svc: SchedulerService):
    svc._record_one_locked("x")            # line 60: owning lock named
