"""Interprocedural lock rules built on the project call graph.

Two rules live here, both powered by :class:`repro.lint.callgraph.CallGraph`:

* ``interprocedural-locks`` — the project's lock-discipline rule.  It
  checks the *callers*: a ``*_locked`` method may only be invoked from a
  path that lexically holds the owning lock, and a method that touches
  guarded state without taking the lock in its own body is reported
  even when no ``with self._lock`` appears anywhere near the access.
  A ``*_locked`` call whose receiver the call graph cannot resolve
  (``def helper(svc): svc._advance_locked()``) must still sit inside
  some ``with …._lock`` block.
* ``lock-order`` — builds the acquired-while-holding graph across every
  class that owns a ``_lock`` and reports cycles (potential deadlocks)
  and non-reentrant self-acquisition (guaranteed deadlock).

Guarded state is discovered **structurally**: an attribute assigned in
``__init__`` counts as guarded when some method of the class hierarchy
mutates it (or calls through it) while holding the class lock, or does
so inside a ``*_locked`` helper.  A curated map seeds the core service
classes so a bug that leaves an attribute *never* locked (and therefore
structurally invisible) is still caught.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.callgraph import (
    CallGraph,
    CallSite,
    ClassInfo,
    FunctionInfo,
    LockToken,
)
from repro.lint.engine import Project, ProjectRule
from repro.lint.findings import Finding

__all__ = ["InterproceduralLockRule", "LockOrderRule"]

#: curated guarded attributes for the core concurrent classes — seeds
#: the structural inference so "never locked anywhere" bugs still trip;
#: the one hand-written map of which state each lock guards
EXTRA_GUARDED: dict[str, frozenset[str]] = {
    "SchedulerService": frozenset(
        {
            "system",
            "_busy_until",
            "_failed",
            "_last_arrival",
            "_stats",
            "_cache",
            "history",
        }
    ),
    "OnlineScheduler": frozenset(
        {"_inflight", "_events", "_clock_ms", "_next_query_id", "_online_stats"}
    ),
    "SolveFleet": frozenset(
        {"_lanes", "_closed", "crashes", "solves_per_lane"}
    ),
}


def _loc(node: ast.AST) -> tuple[int, int]:
    return getattr(node, "lineno", 1), getattr(node, "col_offset", 0) + 1


class InterproceduralLockRule(ProjectRule):
    """Require every path into lock-guarded code to hold the lock."""

    name = "interprocedural-locks"
    description = (
        "call-graph lock discipline: *_locked methods must only be called "
        "with the owning lock held, and guarded attributes must not be "
        "touched outside it"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        graph = CallGraph.of(project)
        guarded_by_class = self._guarded_map(graph)
        yield from self._check_unlocked_accesses(graph, guarded_by_class)
        yield from self._check_locked_callers(graph)

    # ------------------------------------------------------------------
    def _guarded_map(
        self, graph: CallGraph
    ) -> dict[int, tuple[LockToken, frozenset[str]]]:
        """id(ClassInfo) -> (canonical lock token, guarded attr names)."""
        out: dict[int, tuple[LockToken, frozenset[str]]] = {}
        for info in graph.classes:
            lock_attr = graph.lock_attr_of(info)
            if lock_attr is None:
                continue
            token = graph.lock_token(info, lock_attr)
            init_attrs: set[str] = set()
            for c in graph.mro(info):
                init_attrs |= c.init_attrs
            guarded: set[str] = set()
            for c in graph.mro(info):
                for fn in c.methods.values():
                    in_locked_helper = fn.name.endswith("_locked")
                    for access in fn.accesses:
                        if access.attr not in init_attrs:
                            continue
                        if access.attr == lock_attr:
                            continue
                        if token in access.locks_held or in_locked_helper:
                            guarded.add(access.attr)
                curated = EXTRA_GUARDED.get(c.name)
                if curated:
                    guarded |= curated & init_attrs
            out[id(info)] = (token, frozenset(guarded))
        return out

    def _check_unlocked_accesses(
        self,
        graph: CallGraph,
        guarded_by_class: dict[int, tuple[LockToken, frozenset[str]]],
    ) -> Iterator[Finding]:
        """Guarded-attr access in a method body that never took the lock."""
        for info in graph.classes:
            entry = guarded_by_class.get(id(info))
            if entry is None:
                continue
            token, guarded = entry
            for fn in info.methods.values():
                if fn.name == "__init__" or fn.name.endswith("_locked"):
                    continue  # construction / contract carriers are exempt
                for access in fn.accesses:
                    if access.attr not in guarded:
                        continue
                    if token in access.locks_held:
                        continue
                    line, col = _loc(access.node)
                    verb = (
                        "mutated" if access.kind == "mutate" else "called through"
                    )
                    yield Finding(
                        path=fn.path,
                        line=line,
                        col=col,
                        rule=self.name,
                        message=(
                            f"'{info.name}.{access.attr}' is guarded by "
                            f"{token[0]}.{token[1]} but is {verb} without it "
                            f"in '{fn.name}'"
                        ),
                        hint=(
                            f"wrap the access in 'with self.{token[1]}:' or "
                            "move it into a *_locked helper"
                        ),
                    )

    def _check_locked_callers(self, graph: CallGraph) -> Iterator[Finding]:
        """Calls to ``*_locked`` methods must hold the lock."""
        for fn in graph.functions:
            caller_cls = graph.class_of(fn)
            for call in fn.calls:
                if not call.targets:
                    yield from self._check_unresolved_call(fn, call)
                for target in call.targets:
                    if not target.name.endswith("_locked"):
                        continue
                    target_cls = graph.class_of(target)
                    if target_cls is None:
                        continue
                    lock_attr = graph.lock_attr_of(target_cls)
                    if lock_attr is None:
                        continue
                    token = graph.lock_token(target_cls, lock_attr)
                    if token in call.locks_held:
                        continue
                    if self._caller_exempt(graph, fn, caller_cls, token):
                        continue
                    line, col = _loc(call.node)
                    caller_name = (
                        f"{fn.class_name}.{fn.name}" if fn.class_name else fn.name
                    )
                    yield Finding(
                        path=fn.path,
                        line=line,
                        col=col,
                        rule=self.name,
                        message=(
                            f"'{target.class_name}.{target.name}' requires "
                            f"{token[0]}.{token[1]}, but '{caller_name}' calls "
                            "it without holding the lock"
                        ),
                        hint=(
                            f"acquire 'with self.{token[1]}:' around the call "
                            "or rename the caller to *_locked"
                        ),
                    )
                    break  # one finding per call site is enough

    def _check_unresolved_call(
        self, fn: FunctionInfo, call: CallSite
    ) -> Iterator[Finding]:
        """A ``*_locked`` call on a receiver of unknown type needs *some*
        lock held: without the type the owning lock cannot be named."""
        if (
            not isinstance(call.node.func, ast.Attribute)
            or not call.called_name.endswith("_locked")
            or call.locks_held
            or fn.name.endswith("_locked")
            or fn.name == "__init__"
        ):
            return
        line, col = _loc(call.node)
        yield Finding(
            path=fn.path,
            line=line,
            col=col,
            rule=self.name,
            message=(
                f"call to locked method '{call.called_name}' outside a "
                f"`with <obj>._lock` block in '{_qual(fn)}'"
            ),
            hint=(
                "take the lock around the call, move the call into a "
                "*_locked helper, or annotate the receiver's type"
            ),
        )

    @staticmethod
    def _caller_exempt(
        graph: CallGraph,
        fn: FunctionInfo,
        caller_cls: ClassInfo | None,
        token: LockToken,
    ) -> bool:
        """Callers that carry the lock contract themselves."""
        if caller_cls is None:
            return False
        lock_attr = graph.lock_attr_of(caller_cls)
        if lock_attr is None or graph.lock_token(caller_cls, lock_attr) != token:
            return False
        # a *_locked helper's own callers are checked instead; __init__
        # happens-before any concurrent access to the instance
        return fn.name.endswith("_locked") or fn.name == "__init__"


class LockOrderRule(ProjectRule):
    """Fail on cycles in the acquired-while-holding graph."""

    name = "lock-order"
    description = (
        "deadlock detection: the acquired-while-holding graph over all "
        "_lock attributes must stay acyclic, and non-reentrant "
        "locks must never be re-acquired while held"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        graph = CallGraph.of(project)
        reentrant = self._reentrant_tokens(graph)
        acq = self._acquired_sets(graph)

        # edge (held, acquired) -> earliest witness (path, line, col, note)
        edges: dict[tuple[LockToken, LockToken], tuple[str, int, int, str]] = {}

        def witness(
            held: LockToken,
            taken: LockToken,
            fn: FunctionInfo,
            node: ast.AST,
            note: str,
        ) -> None:
            line, col = _loc(node)
            key = (held, taken)
            site = (fn.path, line, col, note)
            if key not in edges or site[:2] < edges[key][:2]:
                edges[key] = site

        for fn in graph.functions:
            for a in fn.acquires:
                for held in a.held_before:
                    witness(held, a.token, fn, a.node, "acquired directly")
                if a.token in a.held_before and not a.reentrant:
                    witness(a.token, a.token, fn, a.node, "acquired directly")
            for call in fn.calls:
                if not call.locks_held:
                    continue
                for target in call.targets:
                    for taken in acq.get(target, ()):  # may-acquire set
                        note = f"via call to '{_qual(target)}'"
                        for held in call.locks_held:
                            witness(held, taken, fn, call.node, note)

        yield from self._self_deadlocks(edges, reentrant)
        yield from self._cycles(edges)

    # ------------------------------------------------------------------
    @staticmethod
    def _reentrant_tokens(graph: CallGraph) -> set[LockToken]:
        out: set[LockToken] = set()
        for info in graph.classes:
            for attr in info.reentrant_locks:
                out.add(graph.lock_token(info, attr))
        return out

    @staticmethod
    def _acquired_sets(
        graph: CallGraph,
    ) -> dict[FunctionInfo, frozenset[LockToken]]:
        """May-acquire fixpoint: locks taken directly or via callees."""
        acq: dict[FunctionInfo, set[LockToken]] = {
            fn: {a.token for a in fn.acquires} for fn in graph.functions
        }
        changed = True
        while changed:
            changed = False
            for fn in graph.functions:
                mine = acq[fn]
                before = len(mine)
                for call in fn.calls:
                    for target in call.targets:
                        mine |= acq.get(target, set())
                if len(mine) != before:
                    changed = True
        return {fn: frozenset(tokens) for fn, tokens in acq.items()}

    def _self_deadlocks(
        self,
        edges: dict[tuple[LockToken, LockToken], tuple[str, int, int, str]],
        reentrant: set[LockToken],
    ) -> Iterator[Finding]:
        for (held, taken), (path, line, col, note) in sorted(edges.items()):
            if held != taken or held in reentrant:
                continue
            yield Finding(
                path=path,
                line=line,
                col=col,
                rule=self.name,
                message=(
                    f"{held[0]}.{held[1]} may be re-acquired while already "
                    f"held ({note}): non-reentrant lock, this deadlocks"
                ),
                hint="release before re-entry, or make the lock an RLock",
            )

    def _cycles(
        self,
        edges: dict[tuple[LockToken, LockToken], tuple[str, int, int, str]],
    ) -> Iterator[Finding]:
        graph: dict[LockToken, set[LockToken]] = {}
        for held, taken in edges:
            if held != taken:
                graph.setdefault(held, set()).add(taken)
                graph.setdefault(taken, set())
        for scc in _strongly_connected(graph):
            if len(scc) < 2:
                continue
            ordered = sorted(scc)
            cycle = " -> ".join(f"{c}.{a}" for c, a in [*ordered, ordered[0]])
            for (held, taken), (path, line, col, note) in sorted(edges.items()):
                if held in scc and taken in scc and held != taken:
                    yield Finding(
                        path=path,
                        line=line,
                        col=col,
                        rule=self.name,
                        message=(
                            f"lock-order cycle {cycle}: "
                            f"{taken[0]}.{taken[1]} acquired while holding "
                            f"{held[0]}.{held[1]} ({note})"
                        ),
                        hint=(
                            "pick one global acquisition order and release "
                            "the outer lock before taking the inner one"
                        ),
                    )


def _qual(fn: FunctionInfo) -> str:
    return f"{fn.class_name}.{fn.name}" if fn.class_name else fn.name


def _strongly_connected(
    graph: dict[LockToken, set[LockToken]]
) -> list[set[LockToken]]:
    """Tarjan's algorithm, iterative (lint-sized graphs, but no recursion)."""
    index: dict[LockToken, int] = {}
    low: dict[LockToken, int] = {}
    on_stack: set[LockToken] = set()
    stack: list[LockToken] = []
    result: list[set[LockToken]] = []
    counter = 0

    for start in sorted(graph):
        if start in index:
            continue
        work: list[tuple[LockToken, Iterator[LockToken]]] = []
        index[start] = low[start] = counter
        counter += 1
        stack.append(start)
        on_stack.add(start)
        work.append((start, iter(sorted(graph[start]))))
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc: set[LockToken] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.add(member)
                    if member == node:
                        break
                result.append(scc)
    return result
