"""Semantic analysis: scoping, type resolution and legality checks.

Walks the parsed :class:`~repro.idl.ast.Specification`, builds a scoped
symbol table, resolves every syntactic type reference into the runtime
type model of :mod:`repro.idl.types`, and enforces the IDL rules the
compiler relies on:

- names are unique within a scope;
- referenced types exist (searching enclosing scopes, as IDL does);
- ``oneway`` operations return ``void``, take only ``in`` parameters and
  raise no user exceptions;
- ``raises`` clauses name exception types;
- interface inheritance refers to interfaces and is acyclic.

The output is a :class:`ResolvedSpec` whose entries carry everything the
code generator needs, with inherited operations flattened into each
interface.
"""

from __future__ import annotations

import enum as _enum
import keyword
from dataclasses import dataclass, field
from typing import Union

from repro.errors import IdlSemanticError
from repro.idl import ast
from repro.idl.types import (
    PRIMITIVES,
    EnumType,
    ExceptionType,
    IdlType,
    ObjectRefType,
    PrimitiveType,
    SequenceType,
    StringType,
    StructType,
    VoidType,
)


@dataclass
class ResolvedParam:
    direction: str
    name: str
    idl_type: IdlType


@dataclass
class ResolvedOperation:
    name: str
    return_type: IdlType
    parameters: list[ResolvedParam]
    oneway: bool
    raises: list[ExceptionType]
    #: Interface that declared the operation (differs under inheritance).
    declared_in: str = ""

    @property
    def in_params(self) -> list[ResolvedParam]:
        return [p for p in self.parameters if p.direction in ("in", "inout")]

    @property
    def out_params(self) -> list[ResolvedParam]:
        return [p for p in self.parameters if p.direction in ("out", "inout")]


@dataclass
class ResolvedInterface:
    scoped_name: str
    name: str
    bases: list[str]
    operations: list[ResolvedOperation]

    def operation(self, name: str) -> ResolvedOperation:
        # Memoized index: stubs/skeletons look operations up on every
        # call, and a linear scan is measurable on wide interfaces.
        index = self.__dict__.get("_op_index")
        if index is None:
            index = self.__dict__["_op_index"] = {op.name: op for op in self.operations}
        try:
            return index[name]
        except KeyError:
            raise KeyError(name) from None


@dataclass
class ResolvedSpec:
    interfaces: dict[str, ResolvedInterface] = field(default_factory=dict)
    structs: dict[str, StructType] = field(default_factory=dict)
    enums: dict[str, EnumType] = field(default_factory=dict)
    exceptions: dict[str, ExceptionType] = field(default_factory=dict)
    typedefs: dict[str, IdlType] = field(default_factory=dict)
    constants: dict[str, object] = field(default_factory=dict)


Symbol = Union[IdlType, "_InterfaceSymbol", object]


@dataclass
class _InterfaceSymbol:
    scoped_name: str
    node: ast.Interface
    ref_type: ObjectRefType


def _make_plain_class(name: str, field_names: list[str], is_exception: bool) -> type:
    """Interim Python class for a struct/exception type.

    Semantic analysis can run without code generation (tests, tooling);
    these plain classes make the type model usable stand-alone. When a
    generated module is loaded it rebinds ``py_class`` to its emitted
    dataclass/exception class.
    """
    def __init__(self, **kwargs):
        for field_name in field_names:
            setattr(self, field_name, kwargs.pop(field_name))
        if kwargs:
            raise TypeError(f"unexpected fields for {name}: {sorted(kwargs)}")
        if is_exception:
            Exception.__init__(self, *(getattr(self, f) for f in field_names))

    def __eq__(self, other):
        return type(other) is type(self) and all(
            getattr(self, f) == getattr(other, f) for f in field_names
        )

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in field_names)
        return f"{name}({body})"

    bases = (Exception,) if is_exception else (object,)
    return type(name, bases, {"__init__": __init__, "__eq__": __eq__, "__repr__": __repr__,
                              "__hash__": None, "_idl_fields": tuple(field_names)})


def _check_identifier(name: str, context: str) -> None:
    """Reject identifiers this Python binding cannot represent.

    IDL itself would allow e.g. ``class`` as a name, but the generated
    Python could not; failing here gives a clear diagnostic instead of a
    SyntaxError inside generated code.
    """
    if keyword.iskeyword(name):
        raise IdlSemanticError(
            f"{context} {name!r} is a Python keyword and cannot be used"
            " by this language binding"
        )


class Analyzer:
    def __init__(self, spec: ast.Specification):
        self._spec = spec
        self._symbols: dict[str, Symbol] = {}
        self._resolved = ResolvedSpec()

    def analyze(self) -> ResolvedSpec:
        self._collect(self._spec.declarations, prefix="")
        self._resolve_bodies(self._spec.declarations, prefix="")
        self._resolve_interfaces()
        return self._resolved

    # ------------------------------------------------------------------
    # Pass 1: collect declared names (so forward references resolve)

    def _collect(self, declarations, prefix: str) -> None:
        seen: set[str] = set()
        for decl in declarations:
            name = decl.name
            _check_identifier(name, "declaration")
            if name in seen:
                raise IdlSemanticError(
                    f"duplicate declaration {prefix}{name!r} (line {decl.line})"
                )
            seen.add(name)
            scoped = f"{prefix}{name}"
            if isinstance(decl, ast.Module):
                self._collect(decl.declarations, prefix=f"{scoped}::")
            elif isinstance(decl, ast.Interface):
                self._symbols[scoped] = _InterfaceSymbol(
                    scoped_name=scoped, node=decl, ref_type=ObjectRefType(scoped)
                )
            elif isinstance(decl, (ast.Struct, ast.ExceptionDef, ast.Enum, ast.Typedef)):
                # Placeholder; replaced in pass 2. Presence is what matters.
                self._symbols[scoped] = decl
            elif isinstance(decl, ast.Const):
                self._symbols[scoped] = decl
            else:
                raise IdlSemanticError(f"unsupported declaration {decl!r}")

    # ------------------------------------------------------------------
    # Pass 2: resolve type bodies in declaration order

    def _resolve_bodies(self, declarations, prefix: str) -> None:
        for decl in declarations:
            scoped = f"{prefix}{decl.name}"
            if isinstance(decl, ast.Module):
                self._resolve_bodies(decl.declarations, prefix=f"{scoped}::")
            elif isinstance(decl, ast.Struct):
                self._resolve_struct(decl, scoped, is_exception=False)
            elif isinstance(decl, ast.ExceptionDef):
                self._resolve_struct(decl, scoped, is_exception=True)
            elif isinstance(decl, ast.Enum):
                labels = decl.labels
                for label in labels:
                    _check_identifier(label, "enum label")
                if len(set(labels)) != len(labels):
                    raise IdlSemanticError(f"duplicate enum label in {scoped}")
                py_enum = _enum.Enum(decl.name, {label: i for i, label in enumerate(labels)})
                enum_type = EnumType(scoped, labels, py_enum)
                self._symbols[scoped] = enum_type
                self._resolved.enums[scoped] = enum_type
            elif isinstance(decl, ast.Typedef):
                resolved = self._resolve_type(decl.type_ref, scope=prefix)
                self._symbols[scoped] = resolved
                self._resolved.typedefs[scoped] = resolved
            elif isinstance(decl, ast.Const):
                const_type = self._resolve_type(decl.type_ref, scope=prefix)
                self._check_const_value(scoped, const_type, decl.value)
                self._resolved.constants[scoped] = decl.value
                self._symbols[scoped] = decl

    def _resolve_struct(self, decl, scoped: str, is_exception: bool) -> None:
        fields: list[tuple[str, IdlType]] = []
        seen: set[str] = set()
        scope = scoped.rsplit("::", 1)[0] + "::" if "::" in scoped else ""
        for struct_field in decl.fields:
            _check_identifier(struct_field.name, "field")
            if struct_field.name in seen:
                raise IdlSemanticError(
                    f"duplicate field {struct_field.name!r} in {scoped}"
                )
            seen.add(struct_field.name)
            fields.append(
                (struct_field.name, self._resolve_type(struct_field.type_ref, scope=scope))
            )
        py_class = _make_plain_class(decl.name, [f for f, _ in fields], is_exception)
        type_cls = ExceptionType if is_exception else StructType
        resolved = type_cls(scoped, fields, py_class)
        self._symbols[scoped] = resolved
        target = self._resolved.exceptions if is_exception else self._resolved.structs
        target[scoped] = resolved

    def _check_const_value(self, scoped: str, const_type: IdlType, value) -> None:
        if isinstance(const_type, StringType) and not isinstance(value, str):
            raise IdlSemanticError(f"const {scoped}: expected string value")
        if isinstance(const_type, PrimitiveType):
            if const_type.kind == "boolean" and not isinstance(value, bool):
                raise IdlSemanticError(f"const {scoped}: expected boolean value")
            if const_type.kind in ("float", "double") and not isinstance(value, (int, float)):
                raise IdlSemanticError(f"const {scoped}: expected numeric value")
            if const_type.kind not in ("boolean", "float", "double", "char") and not isinstance(
                value, int
            ):
                raise IdlSemanticError(f"const {scoped}: expected integer value")

    # ------------------------------------------------------------------
    # Pass 3: interfaces (after all types exist)

    def _resolve_interfaces(self) -> None:
        for scoped_name, node in self._spec.iter_interfaces():
            self._resolve_interface(scoped_name)

    def _resolve_interface(self, scoped_name: str, _visiting: frozenset = frozenset()) -> ResolvedInterface:
        if scoped_name in self._resolved.interfaces:
            return self._resolved.interfaces[scoped_name]
        if scoped_name in _visiting:
            raise IdlSemanticError(f"inheritance cycle involving {scoped_name}")
        symbol = self._symbols.get(scoped_name)
        if not isinstance(symbol, _InterfaceSymbol):
            raise IdlSemanticError(f"{scoped_name} is not an interface")
        node = symbol.node
        scope = scoped_name.rsplit("::", 1)[0] + "::" if "::" in scoped_name else ""

        operations: list[ResolvedOperation] = []
        op_names: set[str] = set()
        base_names: list[str] = []
        for base_ref in node.bases:
            base_scoped = self._lookup_name(base_ref.name, scope)
            base = self._resolve_interface(base_scoped, _visiting | {scoped_name})
            base_names.append(base.scoped_name)
            for op in base.operations:
                if op.name not in op_names:
                    op_names.add(op.name)
                    operations.append(op)

        synthetic_ops = list(node.operations) + self._attribute_operations(node)
        for op_node in synthetic_ops:
            if op_node.name in op_names:
                raise IdlSemanticError(
                    f"duplicate operation {op_node.name!r} in {scoped_name}"
                )
            op_names.add(op_node.name)
            operations.append(self._resolve_operation(op_node, scope, scoped_name))

        resolved = ResolvedInterface(
            scoped_name=scoped_name,
            name=node.name,
            bases=base_names,
            operations=operations,
        )
        self._resolved.interfaces[scoped_name] = resolved
        return resolved

    def _attribute_operations(self, node: ast.Interface) -> list[ast.Operation]:
        """Expand attributes into _get_/_set_ operations, as CORBA mandates."""
        ops: list[ast.Operation] = []
        for attr in node.attributes:
            ops.append(
                ast.Operation(
                    name=f"_get_{attr.name}", return_type=attr.type_ref, line=attr.line
                )
            )
            if not attr.readonly:
                ops.append(
                    ast.Operation(
                        name=f"_set_{attr.name}",
                        return_type=ast.TypeRef("void"),
                        parameters=[
                            ast.Parameter(
                                direction="in", type_ref=attr.type_ref, name="value"
                            )
                        ],
                        line=attr.line,
                    )
                )
        return ops

    def _resolve_operation(
        self, node: ast.Operation, scope: str, declared_in: str
    ) -> ResolvedOperation:
        _check_identifier(node.name, "operation")
        return_type = self._resolve_type(node.return_type, scope, allow_void=True)
        parameters: list[ResolvedParam] = []
        param_names: set[str] = set()
        for param in node.parameters:
            _check_identifier(param.name, "parameter")
            if param.name in param_names:
                raise IdlSemanticError(
                    f"duplicate parameter {param.name!r} in {declared_in}::{node.name}"
                )
            param_names.add(param.name)
            parameters.append(
                ResolvedParam(
                    direction=param.direction,
                    name=param.name,
                    idl_type=self._resolve_type(param.type_ref, scope),
                )
            )
        raises: list[ExceptionType] = []
        for exc_ref in node.raises:
            exc_scoped = self._lookup_name(exc_ref.name, scope)
            exc_type = self._symbols.get(exc_scoped)
            if not isinstance(exc_type, ExceptionType):
                raise IdlSemanticError(
                    f"{declared_in}::{node.name} raises non-exception {exc_ref.name!r}"
                )
            raises.append(exc_type)
        if node.oneway:
            if not isinstance(return_type, VoidType):
                raise IdlSemanticError(
                    f"oneway operation {declared_in}::{node.name} must return void"
                )
            if any(p.direction != "in" for p in parameters):
                raise IdlSemanticError(
                    f"oneway operation {declared_in}::{node.name} may only take 'in' parameters"
                )
            if raises:
                raise IdlSemanticError(
                    f"oneway operation {declared_in}::{node.name} may not raise exceptions"
                )
        return ResolvedOperation(
            name=node.name,
            return_type=return_type,
            parameters=parameters,
            oneway=node.oneway,
            raises=raises,
            declared_in=declared_in,
        )

    # ------------------------------------------------------------------
    # Name lookup

    def _lookup_name(self, name: str, scope: str) -> str:
        """Resolve ``name`` against ``scope`` and enclosing scopes."""
        candidates: list[str] = []
        current = scope
        while True:
            candidates.append(f"{current}{name}")
            if not current:
                break
            current = current[:-2].rsplit("::", 1)[0] + "::" if "::" in current[:-2] else ""
        for candidate in candidates:
            if candidate in self._symbols:
                return candidate
        raise IdlSemanticError(f"unknown name {name!r} (searched from scope {scope!r})")

    def _resolve_type(
        self, type_ref: ast.TypeRefLike, scope: str, allow_void: bool = False
    ) -> IdlType:
        if isinstance(type_ref, ast.SequenceRef):
            return SequenceType(self._resolve_type(type_ref.element, scope))
        name = type_ref.name
        if name in PRIMITIVES:
            if name == "void" and not allow_void:
                raise IdlSemanticError("'void' is only legal as a return type")
            return PRIMITIVES[name]
        scoped = self._lookup_name(name, scope)
        symbol = self._symbols[scoped]
        if isinstance(symbol, _InterfaceSymbol):
            return symbol.ref_type
        if isinstance(symbol, IdlType):
            return symbol
        if isinstance(symbol, (ast.Struct, ast.ExceptionDef, ast.Enum, ast.Typedef)):
            raise IdlSemanticError(
                f"type {scoped} used before its declaration is complete"
            )
        raise IdlSemanticError(f"{scoped} does not name a type")


def analyze(spec: ast.Specification) -> ResolvedSpec:
    """Run semantic analysis over a parsed specification."""
    return Analyzer(spec).analyze()
