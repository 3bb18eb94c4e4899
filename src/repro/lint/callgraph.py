"""Project-wide symbol table and call graph for the whole-program rules.

The per-module rules in this package are lexical: they see one AST at a
time and cannot answer "who calls this method, and does that caller hold
the lock?".  This module builds the shared substrate the interprocedural
rules (``rules_interlock``, ``rules_async``) stand on:

* a **symbol table** — every class and function in the linted project,
  with base classes resolved across modules (an MRO approximation), the
  attribute types each class's ``__init__`` establishes, and per-module
  import tables;
* a **call graph** — every call site, resolved where the receiver's type
  is statically known: ``self._method(...)`` through the MRO,
  ``self.attr.method(...)`` through ``__init__`` annotations and
  constructor assignments, ``module.func(...)`` through imports;
* **lexical lock context** — for every call, attribute mutation, lock
  acquisition and ``await``, the set of locks lexically held at that
  point, with inherited locks canonicalised to the class that creates
  them (``OnlineScheduler``'s ``self._lock`` *is*
  ``SchedulerService._lock``).

Resolution is deliberately *annotation-driven*: a call whose receiver
type cannot be established contributes nothing.  The alternative — a
unique-method-name fallback — resolves ``writer.close()`` to whatever
project class happens to define ``close`` and drowns the rules in false
positives.  Unresolved calls are simply silent, which keeps every rule
built on this graph sound-for-reporting (no finding without a resolved
reason) at the cost of completeness.

Deferred bodies (lambdas, nested ``def``) are not attributed to their
enclosing function: they run later, under unknown lock context.
Comprehension bodies run inline and are included.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.lint.astutil import attr_chain
from repro.lint.engine import Module, Project

__all__ = [
    "LOCK_ATTRS",
    "Acquire",
    "AttrAccess",
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "LockToken",
]

#: attribute names recognised as locks in ``with`` headers
LOCK_ATTRS = frozenset({"_lock"})

#: (owning class name, lock attribute) — the canonical identity of one
#: lock *instance* family, e.g. ``("SchedulerService", "_lock")``
LockToken = tuple[str, str]

#: ``threading`` constructors remembered as marker types on attributes
_THREADING_TYPES = frozenset({"Lock", "RLock", "Condition", "Event", "Semaphore"})

_FuncNode = ast.FunctionDef | ast.AsyncFunctionDef


@dataclass
class Acquire:
    """One ``with self._lock:`` entry."""

    token: LockToken
    node: ast.stmt
    held_before: frozenset[LockToken]
    #: True when the lock attribute is known to be an ``RLock``
    reentrant: bool


@dataclass
class AttrAccess:
    """A mutation of, or method call on, a ``self.<attr>`` attribute."""

    attr: str
    kind: str  # "mutate" | "call"
    node: ast.AST
    locks_held: frozenset[LockToken]


@dataclass
class CallSite:
    """One call expression with its resolution and lock context."""

    node: ast.Call
    caller: "FunctionInfo"
    #: resolved callees; empty when the receiver type is unknown
    targets: tuple["FunctionInfo", ...]
    #: the called attribute/function name (always known lexically)
    called_name: str
    locks_held: frozenset[LockToken]


@dataclass
class FunctionInfo:
    """One function or method in the project."""

    module: Module
    name: str
    class_name: str | None
    node: _FuncNode
    qualname: str  # "<path>::Class.name" — unique project-wide
    is_async: bool
    calls: list[CallSite] = field(default_factory=list)
    acquires: list[Acquire] = field(default_factory=list)
    accesses: list[AttrAccess] = field(default_factory=list)
    #: ``await`` expressions with their sync-lock context
    awaits: list[tuple[ast.Await, frozenset[LockToken]]] = field(
        default_factory=list
    )

    @property
    def path(self) -> str:
        return self.module.path

    def __hash__(self) -> int:  # identity-keyed in rule fixpoints
        return id(self)

    def __eq__(self, other: object) -> bool:
        return self is other


@dataclass
class ClassInfo:
    """One class definition with resolved inheritance and attr types."""

    module: Module
    name: str
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: attributes assigned ``self.x = ...`` in ``__init__``
    init_attrs: set[str] = field(default_factory=set)
    #: attr -> candidate type names ("SchedulerService", "threading.Event")
    attr_types: dict[str, set[str]] = field(default_factory=dict)
    #: lock attrs assigned ``threading.RLock()`` in ``__init__``
    reentrant_locks: set[str] = field(default_factory=set)
    #: resolved project base classes (post-build)
    bases: list["ClassInfo"] = field(default_factory=list)

    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other: object) -> bool:
        return self is other


def _dotted_name(path: str) -> str:
    """``src/repro/fleet/pool.py`` -> ``repro.fleet.pool``."""
    parts = path.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _annotation_names(node: ast.AST | None) -> Iterator[str]:
    """Candidate type names mentioned in an annotation expression."""
    if node is None:
        return
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


class CallGraph:
    """The project's symbol table plus resolved call sites.

    Build once per lint run with :meth:`CallGraph.of` (memoised on the
    :class:`~repro.lint.engine.Project`); every project rule that needs
    whole-program context shares the same instance.
    """

    def __init__(self, project: Project) -> None:
        self.project = project
        self.classes: list[ClassInfo] = []
        self.classes_by_name: dict[str, list[ClassInfo]] = {}
        #: dotted module name -> Module
        self.module_by_dotted: dict[str, Module] = {}
        #: (module path, function name) -> module-level FunctionInfo
        self.module_functions: dict[tuple[str, str], FunctionInfo] = {}
        #: module path -> {local name -> dotted import target}
        self.imports: dict[str, dict[str, str]] = {}
        self.functions: list[FunctionInfo] = []
        self._subclasses: dict[int, list[ClassInfo]] = {}
        self._build()

    # ------------------------------------------------------------------
    @classmethod
    def of(cls, project: Project) -> "CallGraph":
        """The memoised call graph for ``project``."""
        cached = project.__dict__.get("_callgraph")
        if cached is None:
            cached = cls(project)
            project.__dict__["_callgraph"] = cached
        return cached

    # ------------------------------------------------------------------
    # pass 1: declarations and imports
    # ------------------------------------------------------------------
    def _build(self) -> None:
        for mod in self.project.modules:
            self.module_by_dotted[_dotted_name(mod.path)] = mod
            self.imports[mod.path] = {}
            self._collect_module(mod)
        for cls_info in self.classes:
            self._resolve_bases(cls_info)
        for cls_info in self.classes:
            self._collect_attr_types(cls_info)
        for fn in self.functions:
            self._analyze_function(fn)

    def _collect_module(self, mod: Module) -> None:
        table = self.imports[mod.path]
        package = _dotted_name(mod.path).rsplit(".", 1)[0] if "." in _dotted_name(mod.path) else ""
        for stmt in mod.tree.body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    table[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname:
                        table[alias.asname] = alias.name
            elif isinstance(stmt, ast.ImportFrom):
                base = stmt.module or ""
                if stmt.level:
                    parts = _dotted_name(mod.path).split(".")[: -stmt.level]
                    base = ".".join(parts + ([stmt.module] if stmt.module else []))
                elif not base:
                    base = package
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    table[alias.asname or alias.name] = f"{base}.{alias.name}"
            elif isinstance(stmt, ast.ClassDef):
                self._collect_class(mod, stmt)
            elif isinstance(stmt, _FuncNode):
                fn = FunctionInfo(
                    module=mod,
                    name=stmt.name,
                    class_name=None,
                    node=stmt,
                    qualname=f"{mod.path}::{stmt.name}",
                    is_async=isinstance(stmt, ast.AsyncFunctionDef),
                )
                self.module_functions[(mod.path, stmt.name)] = fn
                self.functions.append(fn)

    def _collect_class(self, mod: Module, node: ast.ClassDef) -> None:
        info = ClassInfo(module=mod, name=node.name, node=node)
        for stmt in node.body:
            if isinstance(stmt, _FuncNode):
                fn = FunctionInfo(
                    module=mod,
                    name=stmt.name,
                    class_name=node.name,
                    node=stmt,
                    qualname=f"{mod.path}::{node.name}.{stmt.name}",
                    is_async=isinstance(stmt, ast.AsyncFunctionDef),
                )
                info.methods[stmt.name] = fn
                self.functions.append(fn)
        self.classes.append(info)
        self.classes_by_name.setdefault(node.name, []).append(info)

    # ------------------------------------------------------------------
    # pass 2: inheritance and attribute types
    # ------------------------------------------------------------------
    def _resolve_bases(self, info: ClassInfo) -> None:
        for base in info.node.bases:
            resolved: ClassInfo | None = None
            if isinstance(base, ast.Name):
                resolved = self._find_class(base.id, info.module)
            elif isinstance(base, ast.Attribute):
                resolved = self._find_class(base.attr, info.module)
            if resolved is not None and resolved is not info:
                info.bases.append(resolved)
                self._subclasses.setdefault(id(resolved), []).append(info)

    def mro(self, info: ClassInfo) -> list[ClassInfo]:
        """Depth-first linearisation (close enough to C3 for lint use)."""
        seen: list[ClassInfo] = []

        def visit(c: ClassInfo) -> None:
            if c not in seen:
                seen.append(c)
                for b in c.bases:
                    visit(b)

        visit(info)
        return seen

    def subclasses(self, info: ClassInfo) -> list[ClassInfo]:
        """All (transitive) project subclasses of ``info``."""
        out: list[ClassInfo] = []
        stack = list(self._subclasses.get(id(info), ()))
        while stack:
            c = stack.pop()
            if c not in out:
                out.append(c)
                stack.extend(self._subclasses.get(id(c), ()))
        return out

    def resolve_method(self, info: ClassInfo, name: str) -> FunctionInfo | None:
        for c in self.mro(info):
            fn = c.methods.get(name)
            if fn is not None:
                return fn
        return None

    def lock_owner(self, info: ClassInfo, attr: str) -> str:
        """The base-most MRO class whose ``__init__`` creates ``attr``.

        Canonicalises inherited locks: ``OnlineScheduler``'s ``_lock``
        is created by ``SchedulerService.__init__``, so both classes'
        ``with self._lock`` blocks map to the same token.
        """
        owner = info.name
        for c in self.mro(info):
            if attr in c.init_attrs:
                owner = c.name
        return owner

    def lock_token(self, info: ClassInfo, attr: str) -> LockToken:
        return (self.lock_owner(info, attr), attr)

    def is_reentrant(self, info: ClassInfo, attr: str) -> bool:
        return any(attr in c.reentrant_locks for c in self.mro(info))

    def _collect_attr_types(self, info: ClassInfo) -> None:
        init = info.methods.get("__init__")
        if init is None:
            return
        params = self._param_annotations(init.node, info.module)
        for stmt in ast.walk(init.node):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                target, value = stmt.target, stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, None
            if target is None:
                continue
            chain = attr_chain(target)
            if chain is None or chain[0] != "self" or len(chain[1]) != 1:
                continue
            attr = chain[1][0]
            info.init_attrs.add(attr)
            if value is None:
                continue
            for type_name in self._value_types(value, info.module, params):
                info.attr_types.setdefault(attr, set()).add(type_name)
            if attr in LOCK_ATTRS and self._is_rlock_value(value, init.node):
                info.reentrant_locks.add(attr)

    def _param_annotations(
        self, node: _FuncNode, mod: Module
    ) -> dict[str, set[str]]:
        """Parameter name -> resolvable class-name candidates."""
        out: dict[str, set[str]] = {}
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            names = {
                n
                for n in _annotation_names(arg.annotation)
                if self._find_class(n, mod) is not None
            }
            if names:
                out[arg.arg] = names
        return out

    def _value_types(
        self,
        value: ast.expr,
        mod: Module,
        params: dict[str, set[str]],
    ) -> Iterator[str]:
        """Type candidates for an assigned expression (best effort)."""
        if isinstance(value, ast.Name) and value.id in params:
            yield from params[value.id]
            return
        if not isinstance(value, ast.Call):
            return
        func = value.func
        chain = attr_chain(func)
        if chain is not None and chain[0] == "threading" and len(chain[1]) == 1:
            if chain[1][0] in _THREADING_TYPES:
                yield f"threading.{chain[1][0]}"
            return
        name: str | None = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name is None:
            return
        if self._find_class(name, mod) is not None:
            yield name
            return
        # a project function call: use its return annotation
        fn = self._find_function(name, mod)
        if fn is not None:
            for type_name in _annotation_names(fn.node.returns):
                if self._find_class(type_name, fn.module) is not None:
                    yield type_name

    @staticmethod
    def _is_rlock(value: ast.expr) -> bool:
        if not isinstance(value, ast.Call):
            return False
        chain = attr_chain(value.func)
        return chain is not None and (
            (chain[0] == "threading" and chain[1] == ["RLock"])
            or (chain[0] == "RLock" and not chain[1])
        )

    @classmethod
    def _is_rlock_value(cls, value: ast.expr, init: _FuncNode) -> bool:
        """``threading.RLock()`` directly, or a parameter annotated RLock."""
        if cls._is_rlock(value):
            return True
        if not isinstance(value, ast.Name):
            return False
        args = init.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.arg == value.id:
                return "RLock" in set(_annotation_names(arg.annotation))
        return False

    # ------------------------------------------------------------------
    # symbol lookup
    # ------------------------------------------------------------------
    def _find_class(self, name: str, mod: Module) -> ClassInfo | None:
        for info in self.classes_by_name.get(name, ()):  # same module first
            if info.module is mod:
                return info
        dotted = self.imports.get(mod.path, {}).get(name)
        if dotted is not None and "." in dotted:
            target_mod = self.module_by_dotted.get(dotted.rsplit(".", 1)[0])
            if target_mod is not None:
                for info in self.classes_by_name.get(
                    dotted.rsplit(".", 1)[1], ()
                ):
                    if info.module is target_mod:
                        return info
        candidates = self.classes_by_name.get(name, ())
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _find_function(self, name: str, mod: Module) -> FunctionInfo | None:
        fn = self.module_functions.get((mod.path, name))
        if fn is not None:
            return fn
        dotted = self.imports.get(mod.path, {}).get(name)
        if dotted is not None and "." in dotted:
            mod_dotted, fn_name = dotted.rsplit(".", 1)
            target_mod = self.module_by_dotted.get(mod_dotted)
            if target_mod is not None:
                return self.module_functions.get((target_mod.path, fn_name))
        return None

    def class_of(self, fn: FunctionInfo) -> ClassInfo | None:
        if fn.class_name is None:
            return None
        for info in self.classes_by_name.get(fn.class_name, ()):
            if info.module is fn.module:
                return info
        return None

    def attr_types_of(self, info: ClassInfo, attr: str) -> set[str]:
        """Candidate type names for ``self.<attr>`` across the MRO."""
        out: set[str] = set()
        for c in self.mro(info):
            out |= c.attr_types.get(attr, set())
        return out

    # ------------------------------------------------------------------
    # pass 3: per-function traversal (calls, locks, accesses, awaits)
    # ------------------------------------------------------------------
    def _analyze_function(self, fn: FunctionInfo) -> None:
        owner = self.class_of(fn)
        local_types = self._local_types(fn, owner)
        for stmt in fn.node.body:
            self._visit_stmt(fn, owner, local_types, stmt, frozenset())

    def _local_types(
        self, fn: FunctionInfo, owner: ClassInfo | None
    ) -> dict[str, set[str]]:
        """Types of parameters and constructor-assigned locals."""
        types = dict(self._param_annotations(fn.node, fn.module))
        params: dict[str, set[str]] = dict(types)
        for stmt in ast.walk(fn.node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    found = set(
                        self._value_types(stmt.value, fn.module, params)
                    )
                    if found:
                        types.setdefault(target.id, set()).update(found)
        return types

    def _visit_stmt(
        self,
        fn: FunctionInfo,
        owner: ClassInfo | None,
        local_types: dict[str, set[str]],
        stmt: ast.stmt,
        held: frozenset[LockToken],
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # deferred body: unknown lock context at run time
        if isinstance(stmt, ast.With):
            tokens: list[LockToken] = []
            for item in stmt.items:
                token = self._lock_token_of(item.context_expr, owner, local_types)
                if token is not None:
                    reentrant = self._token_reentrant(token, owner)
                    fn.acquires.append(
                        Acquire(token, stmt, held, reentrant)
                    )
                    tokens.append(token)
                self._scan_expr(fn, owner, local_types, item.context_expr, held)
            inner = held.union(tokens)
            for child in stmt.body:
                self._visit_stmt(fn, owner, local_types, child, inner)
            return
        if isinstance(stmt, ast.AsyncWith):
            # asyncio locks: not thread locks; context unchanged
            for item in stmt.items:
                self._scan_expr(fn, owner, local_types, item.context_expr, held)
            for child in stmt.body:
                self._visit_stmt(fn, owner, local_types, child, held)
            return

        # record guarded-attribute mutations on this statement
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            raw = (
                stmt.targets
                if isinstance(stmt, (ast.Assign, ast.Delete))
                else [stmt.target]
            )
            for target in raw:
                for leaf in self._flatten_targets(target):
                    chain = attr_chain(leaf)
                    if chain is not None and chain[0] == "self" and chain[1]:
                        fn.accesses.append(
                            AttrAccess(chain[1][0], "mutate", stmt, held)
                        )

        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_expr(fn, owner, local_types, child, held)
            elif isinstance(child, ast.stmt):
                self._visit_stmt(fn, owner, local_types, child, held)
            elif isinstance(child, (ast.excepthandler, *(
                (ast.match_case,) if hasattr(ast, "match_case") else ()
            ))):
                for inner in child.body:
                    self._visit_stmt(fn, owner, local_types, inner, held)

    @staticmethod
    def _flatten_targets(target: ast.expr) -> Iterator[ast.expr]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from CallGraph._flatten_targets(elt)
        elif isinstance(target, ast.Starred):
            yield from CallGraph._flatten_targets(target.value)
        else:
            yield target

    def _scan_expr(
        self,
        fn: FunctionInfo,
        owner: ClassInfo | None,
        local_types: dict[str, set[str]],
        expr: ast.expr,
        held: frozenset[LockToken],
    ) -> None:
        """Record calls/awaits in ``expr``, skipping deferred lambdas."""
        stack: list[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                continue  # deferred body
            if isinstance(node, ast.Await):
                fn.awaits.append((node, held))
            elif isinstance(node, ast.Call):
                self._record_call(fn, owner, local_types, node, held)
            stack.extend(ast.iter_child_nodes(node))

    def _lock_token_of(
        self,
        expr: ast.expr,
        owner: ClassInfo | None,
        local_types: dict[str, set[str]],
    ) -> LockToken | None:
        if isinstance(expr, ast.Call):  # timeout-taking acquire helpers
            expr = expr.func
        chain = attr_chain(expr)
        if chain is None or len(chain[1]) != 1 or chain[1][0] not in LOCK_ATTRS:
            return None
        root, attr = chain[0], chain[1][0]
        if root == "self" and owner is not None:
            return self.lock_token(owner, attr)
        for type_name in sorted(local_types.get(root, ())):
            info = self._find_class(type_name, owner.module if owner else self.project.modules[0])
            if info is not None:
                return self.lock_token(info, attr)
        return (root, attr) if root != "self" else None

    def _token_reentrant(
        self, token: LockToken, owner: ClassInfo | None
    ) -> bool:
        for info in self.classes_by_name.get(token[0], ()):
            if self.is_reentrant(info, token[1]):
                return True
        if owner is not None and self.is_reentrant(owner, token[1]):
            return True
        return False

    def _record_call(
        self,
        fn: FunctionInfo,
        owner: ClassInfo | None,
        local_types: dict[str, set[str]],
        node: ast.Call,
        held: frozenset[LockToken],
    ) -> None:
        func = node.func
        targets: list[FunctionInfo] = []
        called_name = ""
        if isinstance(func, ast.Name):
            called_name = func.id
            target = self._find_function(func.id, fn.module)
            if target is not None:
                targets.append(target)
            else:
                cls_target = self._find_class(func.id, fn.module)
                if cls_target is not None:
                    init = self.resolve_method(cls_target, "__init__")
                    if init is not None:
                        targets.append(init)
        elif isinstance(func, ast.Attribute):
            called_name = func.attr
            chain = attr_chain(func)
            if chain is not None:
                targets.extend(
                    self._resolve_attr_call(fn, owner, local_types, chain)
                )
        if called_name or targets:
            fn.calls.append(
                CallSite(
                    node=node,
                    caller=fn,
                    targets=tuple(dict.fromkeys(targets)),
                    called_name=called_name,
                    locks_held=held,
                )
            )
        if isinstance(func, ast.Attribute) and owner is not None:
            chain = attr_chain(func)
            if chain is not None and chain[0] == "self" and len(chain[1]) >= 2:
                fn.accesses.append(
                    AttrAccess(chain[1][0], "call", node, held)
                )

    def _resolve_attr_call(
        self,
        fn: FunctionInfo,
        owner: ClassInfo | None,
        local_types: dict[str, set[str]],
        chain: tuple[str, list[str]],
    ) -> list[FunctionInfo]:
        root, attrs = chain
        method = attrs[-1]
        out: list[FunctionInfo] = []
        if root == "self" and owner is not None:
            if len(attrs) == 1:
                target = self.resolve_method(owner, method)
                if target is not None:
                    out.append(target)
                return out
            if len(attrs) == 2:
                for type_name in sorted(self.attr_types_of(owner, attrs[0])):
                    out.extend(
                        self._methods_in_hierarchy(type_name, method, fn.module)
                    )
                return out
            return out
        if len(attrs) == 1 and root in local_types:
            for type_name in sorted(local_types[root]):
                out.extend(
                    self._methods_in_hierarchy(type_name, method, fn.module)
                )
            return out
        # module.func(...) through the import table
        table = self.imports.get(fn.module.path, {})
        dotted = table.get(root, root if root in self.module_by_dotted else None)
        if dotted is not None:
            dotted_path = dotted
            for extra in attrs[:-1]:
                dotted_path = f"{dotted_path}.{extra}"
            target_mod = self.module_by_dotted.get(dotted_path)
            if target_mod is not None:
                target = self.module_functions.get((target_mod.path, method))
                if target is not None:
                    out.append(target)
        return out

    def _methods_in_hierarchy(
        self, type_name: str, method: str, mod: Module
    ) -> list[FunctionInfo]:
        """Resolve ``method`` on ``type_name`` and its project subclasses."""
        info = self._find_class(type_name, mod)
        if info is None:
            return []
        out: list[FunctionInfo] = []
        target = self.resolve_method(info, method)
        if target is not None:
            out.append(target)
        for sub in self.subclasses(info):
            override = self.resolve_method(sub, method)
            if override is not None and override not in out:
                out.append(override)
        return out

    # ------------------------------------------------------------------
    # convenience for rules
    # ------------------------------------------------------------------
    def iter_methods(self) -> Iterable[tuple[ClassInfo, FunctionInfo]]:
        for info in self.classes:
            for fn in info.methods.values():
                yield info, fn

    def lock_attr_of(self, info: ClassInfo) -> str | None:
        """The lock attribute this class's instances carry (or None)."""
        for attr in LOCK_ATTRS:
            if any(attr in c.init_attrs for c in self.mro(info)):
                return attr
        return None
