"""Event-loop protection: no blocking calls inside ``async def`` bodies.

The asyncio front end (``repro/net/``) runs every connection on one
thread; a single synchronous ``time.sleep``, socket call, or
``Lock.acquire`` stalls *all* clients.
This rule walks each coroutine in that package's modules and flags

* direct calls to known blocking primitives (``time.sleep``, blocking
  ``socket``/``select``/``subprocess`` entry points, ``.acquire()`` on a
  ``_lock`` attribute, ``.wait()`` on a ``threading.Event``
  or ``Condition``);
* calls to *project* functions that transitively block — resolved
  through the call graph, so ``self.service.stats()`` is flagged because
  ``SchedulerService.stats`` takes ``self._lock`` three frames down;
* synchronous ``with self._lock:`` blocks inside a coroutine; and
* ``await`` expressions evaluated while a sync lock is lexically held
  (the held lock stalls every other thread for the await's duration).

Calls hidden behind ``loop.run_in_executor(...)`` pass by construction:
the offloaded callable is a *reference* argument, not a call expression,
so the traversal never sees it as a call site.

Known limits: only the primitives above are modelled (e.g.
``ThreadPoolExecutor.shutdown(wait=True)`` is not), and calls whose
receiver type cannot be resolved are trusted.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.astutil import attr_chain
from repro.lint.callgraph import (
    LOCK_ATTRS,
    CallGraph,
    ClassInfo,
    FunctionInfo,
)
from repro.lint.engine import Project, ProjectRule
from repro.lint.findings import Finding

__all__ = ["AsyncBlockingRule"]

_SOCKET_BLOCKING = frozenset(
    {"create_connection", "getaddrinfo", "gethostbyname", "create_server"}
)
_SUBPROCESS_BLOCKING = frozenset({"run", "call", "check_call", "check_output"})
_WAITABLE_TYPES = frozenset({"threading.Event", "threading.Condition"})


def _loc(node: ast.AST) -> tuple[int, int]:
    return getattr(node, "lineno", 1), getattr(node, "col_offset", 0) + 1


def _qual(fn: FunctionInfo) -> str:
    return f"{fn.class_name}.{fn.name}" if fn.class_name else fn.name


class AsyncBlockingRule(ProjectRule):
    """Flag blocking work reachable from coroutines on an event loop.

    Applies to ``repro/net/`` — the package whose coroutines share an
    event loop with every connected client.
    """

    name = "async-blocking"
    description = (
        "asyncio safety: coroutines under net/ must not call "
        "blocking primitives (directly or transitively) or await while "
        "holding a sync lock"
    )

    #: directories whose coroutines run on a client-facing event loop
    _ASYNC_DIRS = ("net/",)

    def check_project(self, project: Project) -> Iterable[Finding]:
        graph = CallGraph.of(project)
        blocking = self._blocking_reasons(graph)
        for fn in graph.functions:
            if not fn.is_async or not any(
                d in fn.module.path for d in self._ASYNC_DIRS
            ):
                continue
            yield from self._check_coroutine(graph, fn, blocking)

    # ------------------------------------------------------------------
    def _blocking_reasons(
        self, graph: CallGraph
    ) -> dict[FunctionInfo, str]:
        """Sync project functions that block, with a one-line reason."""
        reasons: dict[FunctionInfo, str] = {}
        for fn in graph.functions:
            if fn.is_async:
                continue
            if fn.acquires:
                token = fn.acquires[0].token
                reasons[fn] = f"acquires {token[0]}.{token[1]}"
                continue
            owner = graph.class_of(fn)
            for call in fn.calls:
                desc = self._primitive(graph, fn, owner, call.node)
                if desc is not None:
                    reasons[fn] = f"calls {desc}"
                    break
        changed = True
        while changed:  # propagate through resolved sync callees
            changed = False
            for fn in graph.functions:
                if fn.is_async or fn in reasons:
                    continue
                for call in fn.calls:
                    hit = next(
                        (t for t in call.targets if t in reasons), None
                    )
                    if hit is not None:
                        reasons[fn] = f"calls '{_qual(hit)}' which {reasons[hit]}"
                        changed = True
                        break
        return reasons

    def _check_coroutine(
        self,
        graph: CallGraph,
        fn: FunctionInfo,
        blocking: dict[FunctionInfo, str],
    ) -> Iterator[Finding]:
        owner = graph.class_of(fn)
        for acquire in fn.acquires:
            line, col = _loc(acquire.node)
            token = acquire.token
            yield Finding(
                path=fn.path,
                line=line,
                col=col,
                rule=self.name,
                message=(
                    f"sync lock {token[0]}.{token[1]} acquired inside async "
                    f"'{_qual(fn)}' — blocks the event loop while contended"
                ),
                hint="offload the locked section via loop.run_in_executor",
            )
        for node, held in fn.awaits:
            if not held:
                continue
            line, col = _loc(node)
            token = sorted(held)[0]
            yield Finding(
                path=fn.path,
                line=line,
                col=col,
                rule=self.name,
                message=(
                    f"await while holding sync lock {token[0]}.{token[1]} in "
                    f"'{_qual(fn)}' — the lock stays held across suspension"
                ),
                hint="release the lock before awaiting",
            )
        for call in fn.calls:
            desc = self._primitive(graph, fn, owner, call.node)
            if desc is not None:
                line, col = _loc(call.node)
                yield Finding(
                    path=fn.path,
                    line=line,
                    col=col,
                    rule=self.name,
                    message=(
                        f"blocking call {desc} inside async '{_qual(fn)}'"
                    ),
                    hint="offload via loop.run_in_executor(...)",
                )
                continue
            hit = next(
                (
                    t
                    for t in call.targets
                    if not t.is_async and t in blocking
                ),
                None,
            )
            if hit is not None:
                line, col = _loc(call.node)
                yield Finding(
                    path=fn.path,
                    line=line,
                    col=col,
                    rule=self.name,
                    message=(
                        f"'{_qual(hit)}' blocks ({blocking[hit]}) and is "
                        f"called from async '{_qual(fn)}'"
                    ),
                    hint=(
                        "offload via loop.run_in_executor(None, ...) instead "
                        "of calling it on the event loop"
                    ),
                )

    # ------------------------------------------------------------------
    def _primitive(
        self,
        graph: CallGraph,
        fn: FunctionInfo,
        owner: ClassInfo | None,
        node: ast.Call,
    ) -> str | None:
        """A human-readable description if ``node`` is a known primitive."""
        func = node.func
        if isinstance(func, ast.Name):
            dotted = graph.imports.get(fn.module.path, {}).get(func.id)
            if dotted == "time.sleep":
                return "time.sleep()"
            return None
        chain = attr_chain(func)
        if chain is None:
            return None
        root, attrs = chain
        if root == "time" and attrs == ["sleep"]:
            return "time.sleep()"
        if root == "socket" and len(attrs) == 1 and attrs[0] in _SOCKET_BLOCKING:
            return f"socket.{attrs[0]}()"
        if root == "select" and attrs == ["select"]:
            return "select.select()"
        if (
            root == "subprocess"
            and len(attrs) == 1
            and attrs[0] in _SUBPROCESS_BLOCKING
        ):
            return f"subprocess.{attrs[0]}()"
        if attrs and attrs[-1] == "acquire":
            if (len(attrs) >= 2 and attrs[-2] in LOCK_ATTRS) or (
                root in LOCK_ATTRS and len(attrs) == 1
            ):
                return f"'{root}.{'.'.join(attrs)}' (sync Lock.acquire)"
        if (
            attrs
            and attrs[-1] == "wait"
            and len(attrs) == 2
            and root == "self"
            and owner is not None
        ):
            types = graph.attr_types_of(owner, attrs[0])
            if types & _WAITABLE_TYPES:
                kind = sorted(types & _WAITABLE_TYPES)[0]
                return f"'self.{attrs[0]}.wait()' ({kind})"
        return None
