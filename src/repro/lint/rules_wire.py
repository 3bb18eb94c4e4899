"""Wire/codec contract rule: encoders, decoders and errors stay in sync.

The network envelopes (``net/protocol.py``) and the fleet payloads
(``fleet/codec.py``) each have a hand-written encoder/decoder pair plus
a typed error vocabulary.  Nothing ties the halves together at runtime —
a field added to ``record_to_wire`` but not ``record_from_wire`` ships
silently and is dropped on the far side; an exception type that crosses
the boundary without a wire code surfaces as an opaque ``INTERNAL``.
This rule derives each contract from the AST and fails the build when
the halves drift:

* ``record_to_wire`` keys == ``record_from_wire`` reads == the
  ``ServiceRecord`` dataclass fields;
* every ``query_to_wire`` kind has a matching ``query_from_wire`` branch
  and vice versa, and each branch reads the keys its encoder emits;
* ``encode_problem``/``decode_problem`` and
  ``encode_schedule``/``decode_schedule`` top-level keys match;
* every ``RemoteError`` subclass code appears in ``ERROR_CODES``, every
  code has a class (``INTERNAL`` maps to the ``RemoteError`` base), and
  every subclass is registered in ``_REMOTE_BY_CODE``;
* every project-defined exception raised under ``repro/service``,
  ``repro/online`` or ``repro/fleet`` either derives from ``ReproError``
  (the server's blanket mapping) or is named explicitly in a
  ``net/server.py`` except clause — the ``WorkerCrashedError`` class of
  gap, caught by construction.

Key extraction is deliberately scoped: an encoder contributes only the
top-level keys of dict literals it *returns*; a decoder contributes only
keys read off its **first parameter** (``obj["k"]``, ``obj.get("k")``,
``helper(obj, "k", ...)``), so nested per-site/per-disk dicts don't
poison the top-level contract.  Each sub-check silently skips when its
module is not part of the linted tree, so the rule composes with
fixture projects and partial lint runs.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.callgraph import CallGraph
from repro.lint.engine import Module, Project, ProjectRule
from repro.lint.findings import Finding

__all__ = ["WireContractRule"]


def _loc(node: ast.AST) -> tuple[int, int]:
    return getattr(node, "lineno", 1), getattr(node, "col_offset", 0) + 1


def _find_def(mod: Module, name: str) -> ast.FunctionDef | None:
    for stmt in mod.tree.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
            return stmt
    return None


def _find_classdef(mod: Module, name: str) -> ast.ClassDef | None:
    for stmt in mod.tree.body:
        if isinstance(stmt, ast.ClassDef) and stmt.name == name:
            return stmt
    return None


def _return_dicts(fn: ast.FunctionDef) -> list[ast.Dict]:
    out = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            out.append(node.value)
    return out


def _dict_keys(d: ast.Dict) -> dict[str, ast.AST]:
    out: dict[str, ast.AST] = {}
    for key in d.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            out.setdefault(key.value, key)
    return out


def _first_param(fn: ast.FunctionDef) -> str | None:
    args = [*fn.args.posonlyargs, *fn.args.args]
    return args[0].arg if args else None


def _read_keys(body: Iterable[ast.AST], param: str) -> dict[str, ast.AST]:
    """String keys read off ``param`` anywhere in ``body``."""
    out: dict[str, ast.AST] = {}
    for root in body:
        for node in ast.walk(root):
            key: ast.AST | None = None
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == param
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)
            ):
                key = node.slice
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "get"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == param
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    key = node.args[0]
                elif (
                    isinstance(func, ast.Name)
                    and len(node.args) >= 2
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id == param
                    and isinstance(node.args[1], ast.Constant)
                    and isinstance(node.args[1].value, str)
                ):
                    key = node.args[1]
            if key is not None:
                out.setdefault(key.value, key)  # type: ignore[attr-defined]
    return out


class WireContractRule(ProjectRule):
    """Every wire field round-trips; every wire error has a typed code."""

    name = "wire-contract"
    description = (
        "wire/codec symmetry: encoder fields must round-trip through the "
        "paired decoder and dataclass, error codes must map to typed "
        "classes, and boundary-crossing exceptions must be representable"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        yield from self._check_record_roundtrip(project)
        yield from self._check_query_kinds(project)
        yield from self._check_codec_pair(
            project, "encode_problem", "decode_problem"
        )
        yield from self._check_codec_pair(
            project, "encode_schedule", "decode_schedule"
        )
        yield from self._check_error_codes(project)
        yield from self._check_boundary_exceptions(project)

    # ------------------------------------------------------------------
    # record envelope <-> ServiceRecord dataclass
    # ------------------------------------------------------------------
    def _check_record_roundtrip(self, project: Project) -> Iterator[Finding]:
        proto = project.module("net/protocol.py")
        stats = project.module("service/stats.py")
        if proto is None:
            return
        enc = _find_def(proto, "record_to_wire")
        dec = _find_def(proto, "record_from_wire")
        if enc is None or dec is None:
            return
        enc_keys: dict[str, ast.AST] = {}
        for d in _return_dicts(enc):
            enc_keys.update(_dict_keys(d))
        param = _first_param(dec)
        dec_keys = _read_keys(dec.body, param) if param else {}

        for key in sorted(set(enc_keys) - set(dec_keys)):
            line, col = _loc(enc_keys[key])
            yield Finding(
                path=proto.path,
                line=line,
                col=col,
                rule=self.name,
                message=(
                    f"record wire field '{key}' is encoded by record_to_wire "
                    "but never read by record_from_wire (silently dropped on "
                    "decode)"
                ),
                hint="read the field in record_from_wire or stop encoding it",
            )
        for key in sorted(set(dec_keys) - set(enc_keys)):
            line, col = _loc(dec_keys[key])
            yield Finding(
                path=proto.path,
                line=line,
                col=col,
                rule=self.name,
                message=(
                    f"record_from_wire reads field '{key}' that "
                    "record_to_wire never emits"
                ),
                hint="emit the field in record_to_wire or drop the read",
            )

        if stats is None:
            return
        record_cls = _find_classdef(stats, "ServiceRecord")
        if record_cls is None:
            return
        fields = {
            stmt.target.id: stmt
            for stmt in record_cls.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
        }
        for key in sorted(set(enc_keys) - set(fields)):
            line, col = _loc(enc_keys[key])
            yield Finding(
                path=proto.path,
                line=line,
                col=col,
                rule=self.name,
                message=(
                    f"record wire field '{key}' does not round-trip to a "
                    "ServiceRecord dataclass field"
                ),
                hint="add the field to ServiceRecord or stop encoding it",
            )
        for name in sorted(set(fields) - set(enc_keys)):
            line, col = _loc(fields[name])
            yield Finding(
                path=stats.path,
                line=line,
                col=col,
                rule=self.name,
                message=(
                    f"ServiceRecord field '{name}' never crosses the wire "
                    "(record_to_wire does not encode it)"
                ),
                hint="encode the field in record_to_wire or document why not",
            )

    # ------------------------------------------------------------------
    # query kinds
    # ------------------------------------------------------------------
    def _check_query_kinds(self, project: Project) -> Iterator[Finding]:
        proto = project.module("net/protocol.py")
        if proto is None:
            return
        enc = _find_def(proto, "query_to_wire")
        dec = _find_def(proto, "query_from_wire")
        if enc is None or dec is None:
            return
        # encoder: one returned dict per kind
        enc_kinds: dict[str, tuple[ast.Dict, ast.AST]] = {}
        for d in _return_dicts(enc):
            keys = _dict_keys(d)
            kind_key = keys.get("kind")
            if kind_key is None:
                continue
            for key_node, value in zip(d.keys, d.values):
                if (
                    key_node is kind_key
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    enc_kinds[value.value] = (d, kind_key)
        # decoder: `if kind == "x":` branches
        param = _first_param(dec)
        dec_kinds: dict[str, tuple[list[ast.stmt], ast.AST]] = {}
        for node in ast.walk(dec):
            if not isinstance(node, ast.If):
                continue
            test = node.test
            if (
                isinstance(test, ast.Compare)
                and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Eq)
                and isinstance(test.comparators[0], ast.Constant)
                and isinstance(test.comparators[0].value, str)
                and isinstance(test.left, ast.Name)
                and test.left.id == "kind"
            ):
                dec_kinds[test.comparators[0].value] = (
                    node.body,
                    test.comparators[0],
                )
        for kind in sorted(set(enc_kinds) - set(dec_kinds)):
            _, key_node = enc_kinds[kind]
            line, col = _loc(key_node)
            yield Finding(
                path=proto.path,
                line=line,
                col=col,
                rule=self.name,
                message=(
                    f"query kind '{kind}' is encoded by query_to_wire but "
                    "query_from_wire has no matching branch"
                ),
                hint=f"add an `if kind == \"{kind}\":` branch to the decoder",
            )
        for kind in sorted(set(dec_kinds) - set(enc_kinds)):
            _, test_node = dec_kinds[kind]
            line, col = _loc(test_node)
            yield Finding(
                path=proto.path,
                line=line,
                col=col,
                rule=self.name,
                message=(
                    f"query_from_wire decodes kind '{kind}' that "
                    "query_to_wire never produces"
                ),
                hint="emit the kind from query_to_wire or drop the branch",
            )
        if param is None:
            return
        for kind in sorted(set(enc_kinds) & set(dec_kinds)):
            enc_dict, _ = enc_kinds[kind]
            branch, _ = dec_kinds[kind]
            emitted = set(_dict_keys(enc_dict)) - {"kind"}
            read = set(_read_keys(branch, param))
            for key in sorted(emitted - read):
                line, col = _loc(_dict_keys(enc_dict)[key])
                yield Finding(
                    path=proto.path,
                    line=line,
                    col=col,
                    rule=self.name,
                    message=(
                        f"query kind '{kind}' encodes field '{key}' that its "
                        "decoder branch never reads"
                    ),
                    hint="read the field in the decoder branch",
                )

    # ------------------------------------------------------------------
    # fleet codec pairs
    # ------------------------------------------------------------------
    def _check_codec_pair(
        self, project: Project, enc_name: str, dec_name: str
    ) -> Iterator[Finding]:
        codec = project.module("fleet/codec.py")
        if codec is None:
            return
        enc = _find_def(codec, enc_name)
        dec = _find_def(codec, dec_name)
        if enc is None or dec is None:
            return
        enc_keys: dict[str, ast.AST] = {}
        for d in _return_dicts(enc):
            enc_keys.update(_dict_keys(d))
        param = _first_param(dec)
        if param is None:
            return
        dec_keys = _read_keys(dec.body, param)
        for key in sorted(set(enc_keys) - set(dec_keys)):
            line, col = _loc(enc_keys[key])
            yield Finding(
                path=codec.path,
                line=line,
                col=col,
                rule=self.name,
                message=(
                    f"fleet payload field '{key}' is emitted by {enc_name} "
                    f"but never read by {dec_name}"
                ),
                hint=f"read (and validate) '{key}' in {dec_name}",
            )
        for key in sorted(set(dec_keys) - set(enc_keys)):
            line, col = _loc(dec_keys[key])
            yield Finding(
                path=codec.path,
                line=line,
                col=col,
                rule=self.name,
                message=(
                    f"{dec_name} reads payload field '{key}' that "
                    f"{enc_name} never emits"
                ),
                hint=f"emit '{key}' from {enc_name} or drop the read",
            )

    # ------------------------------------------------------------------
    # error code vocabulary
    # ------------------------------------------------------------------
    def _check_error_codes(self, project: Project) -> Iterator[Finding]:
        proto = project.module("net/protocol.py")
        errors = project.module("net/errors.py")
        if proto is None or errors is None:
            return
        codes_node = self._error_codes_literal(proto)
        if codes_node is None:
            return
        wire_codes = {
            elt.value: elt
            for elt in ast.walk(codes_node)
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
        }
        remote_classes = self._remote_error_classes(errors)
        class_codes: dict[str, tuple[str, ast.AST]] = {}
        for cls_name, (node, code) in remote_classes.items():
            if code is not None:
                class_codes.setdefault(code, (cls_name, node))
        for code, (cls_name, node) in sorted(class_codes.items()):
            if code not in wire_codes:
                line, col = _loc(node)
                yield Finding(
                    path=errors.path,
                    line=line,
                    col=col,
                    rule=self.name,
                    message=(
                        f"'{cls_name}' declares wire code '{code}' that is "
                        "not in protocol.ERROR_CODES"
                    ),
                    hint="add the code to ERROR_CODES or fix the class",
                )
        for code in sorted(set(wire_codes) - set(class_codes)):
            line, col = _loc(wire_codes[code])
            yield Finding(
                path=proto.path,
                line=line,
                col=col,
                rule=self.name,
                message=(
                    f"wire error code '{code}' has no RemoteError subclass — "
                    "clients rehydrate it as the untyped RemoteError base"
                ),
                hint="add a RemoteError subclass with this code",
            )
        registered = self._remote_by_code_names(errors)
        if registered is not None:
            for cls_name, (node, code) in sorted(remote_classes.items()):
                if cls_name == "RemoteError" or code is None:
                    continue
                if cls_name not in registered:
                    line, col = _loc(node)
                    yield Finding(
                        path=errors.path,
                        line=line,
                        col=col,
                        rule=self.name,
                        message=(
                            f"'{cls_name}' is not registered in "
                            "_REMOTE_BY_CODE — remote_error_from_wire will "
                            "never raise it"
                        ),
                        hint="add the class to the _REMOTE_BY_CODE tuple",
                    )

    @staticmethod
    def _error_codes_literal(proto: Module) -> ast.AST | None:
        for stmt in proto.tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "ERROR_CODES"
            ):
                return stmt.value
        return None

    @staticmethod
    def _remote_error_classes(
        errors: Module,
    ) -> dict[str, tuple[ast.AST, str | None]]:
        """name -> (classdef node, wire code) for RemoteError + subclasses."""
        classes: dict[str, ast.ClassDef] = {
            stmt.name: stmt
            for stmt in errors.tree.body
            if isinstance(stmt, ast.ClassDef)
        }

        def derives_remote(name: str, seen: frozenset[str]) -> bool:
            if name == "RemoteError":
                return True
            node = classes.get(name)
            if node is None or name in seen:
                return False
            return any(
                isinstance(b, ast.Name)
                and derives_remote(b.id, seen | {name})
                for b in node.bases
            )

        out: dict[str, tuple[ast.AST, str | None]] = {}
        for name, node in classes.items():
            if not derives_remote(name, frozenset()):
                continue
            code: str | None = None
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id == "code"
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)
                ):
                    code = stmt.value.value
                elif (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "code"
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)
                ):
                    code = stmt.value.value
            out[name] = (node, code)
        return out

    @staticmethod
    def _remote_by_code_names(errors: Module) -> set[str] | None:
        for stmt in errors.tree.body:
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
            if not any(
                isinstance(t, ast.Name) and t.id == "_REMOTE_BY_CODE"
                for t in targets
            ):
                continue
            value = stmt.value
            assert value is not None
            return {
                node.id
                for node in ast.walk(value)
                if isinstance(node, ast.Name) and node.id != "cls"
            }
        return None

    # ------------------------------------------------------------------
    # exceptions crossing the wire
    # ------------------------------------------------------------------
    _BOUNDARY_DIRS = ("service/", "online/", "fleet/")

    #: modules whose except clauses count as explicit wire mappings —
    #: the scheduler server and its frame-server base translate
    #: exceptions to wire codes
    _HANDLER_MODULES = (
        "net/server.py",
        "net/frameserver.py",
    )

    def _check_boundary_exceptions(self, project: Project) -> Iterator[Finding]:
        server = project.module("net/server.py")
        if server is None:
            return
        handlers = [server] + [
            mod
            for suffix in self._HANDLER_MODULES[1:]
            if (mod := project.module(suffix)) is not None
        ]
        handled = {
            sub.id
            for handler in handlers
            for node in ast.walk(handler.tree)
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            for sub in ast.walk(node.type)
            if isinstance(sub, ast.Name)
        } | {
            sub.attr
            for handler in handlers
            for node in ast.walk(handler.tree)
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            for sub in ast.walk(node.type)
            if isinstance(sub, ast.Attribute)
        }
        graph = CallGraph.of(project)
        reported: set[str] = set()
        for mod in project.modules:
            if not any(d in mod.path for d in self._BOUNDARY_DIRS):
                continue
            for node in ast.walk(mod.tree):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                exc = node.exc
                name: str | None = None
                if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                    name = exc.func.id
                elif isinstance(exc, ast.Name):
                    name = exc.id
                if name is None or name in reported:
                    continue
                info = graph._find_class(name, mod)
                if info is None:
                    continue  # builtin or out-of-tree: server maps generically
                mro_names = {c.name for c in graph.mro(info)}
                base_names = {
                    b.id
                    for c in graph.mro(info)
                    for b in c.node.bases
                    if isinstance(b, ast.Name)
                }
                if "ReproError" in mro_names | base_names:
                    continue  # server maps every ReproError to a typed code
                looks_exceptional = any(
                    n.endswith(("Error", "Exception"))
                    for n in {name} | base_names
                )
                if not looks_exceptional:
                    continue
                if name in handled:
                    continue
                reported.add(name)
                line, col = _loc(node)
                yield Finding(
                    path=mod.path,
                    line=line,
                    col=col,
                    rule=self.name,
                    message=(
                        f"'{name}' can cross the service/net boundary but is "
                        "neither a ReproError nor named in a wire-handler "
                        "except clause (net/server.py, net/frameserver.py) "
                        "— clients would see an opaque INTERNAL"
                    ),
                    hint=(
                        "derive it from ReproError or add an explicit "
                        "handler mapping it to a wire code"
                    ),
                )
