"""Runtime type model produced by semantic analysis.

Each IDL type resolves to an object that knows how to marshal and
unmarshal values through the CDR codec, supply a default value (used for
``out`` parameter placeholders), and print itself back as IDL (used to
render the Figure-3 "internal translation" of instrumented interfaces).
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Sequence

from repro.errors import MarshalError
from repro.orb.cdr import CdrDecoder, CdrEncoder


class IdlType:
    """Base class for the runtime type model."""

    idl_name: str = "?"
    #: True only for VoidType; lets the ORB runtime avoid importing this
    #: module at load time (which would be circular).
    is_void: bool = False

    def marshal(self, encoder: CdrEncoder, value: Any) -> None:
        raise NotImplementedError

    def unmarshal(self, decoder: CdrDecoder) -> Any:
        raise NotImplementedError

    def default(self) -> Any:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.idl_name

    def __repr__(self) -> str:
        return f"<idl type {self.idl_name}>"


class VoidType(IdlType):
    idl_name = "void"
    is_void = True

    def marshal(self, encoder: CdrEncoder, value: Any) -> None:
        if value is not None:
            raise MarshalError(f"void cannot carry {value!r}")

    def unmarshal(self, decoder: CdrDecoder) -> Any:
        return None

    def default(self) -> Any:
        return None


class PrimitiveType(IdlType):
    _DEFAULTS = {
        "octet": 0,
        "boolean": False,
        "char": "\x00",
        "short": 0,
        "unsigned short": 0,
        "long": 0,
        "unsigned long": 0,
        "long long": 0,
        "unsigned long long": 0,
        "float": 0.0,
        "double": 0.0,
    }

    def __init__(self, kind: str):
        if kind not in self._DEFAULTS:
            raise ValueError(f"unknown primitive {kind!r}")
        self.kind = kind
        self.idl_name = kind

    def marshal(self, encoder: CdrEncoder, value: Any) -> None:
        if self.kind in ("float", "double"):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise MarshalError(f"{self.kind} expects a number, got {value!r}")
        elif self.kind == "boolean":
            if not isinstance(value, (bool, int)):
                raise MarshalError(f"boolean expects a bool, got {value!r}")
        elif self.kind == "char":
            if not isinstance(value, str) or len(value) != 1:
                raise MarshalError(f"char expects a 1-char string, got {value!r}")
        else:
            if not isinstance(value, int) or isinstance(value, bool):
                raise MarshalError(f"{self.kind} expects an int, got {value!r}")
        encoder.write_primitive(self.kind, value)

    def unmarshal(self, decoder: CdrDecoder) -> Any:
        return decoder.read_primitive(self.kind)

    def default(self) -> Any:
        return self._DEFAULTS[self.kind]


class StringType(IdlType):
    idl_name = "string"

    def marshal(self, encoder: CdrEncoder, value: Any) -> None:
        encoder.write_string(value)

    def unmarshal(self, decoder: CdrDecoder) -> Any:
        return decoder.read_string()

    def default(self) -> Any:
        return ""


class SequenceType(IdlType):
    def __init__(self, element: IdlType):
        self.element = element
        self.idl_name = f"sequence<{element.idl_name}>"
        #: ``sequence<octet>`` maps to ``bytes`` (the OMG Python mapping)
        #: and travels as one block. An octet has no alignment, so the
        #: block is byte for byte the element-by-element encoding.
        self.octets = getattr(element, "kind", None) == "octet"

    def marshal(self, encoder: CdrEncoder, value: Any) -> None:
        if self.octets and isinstance(value, (bytes, bytearray)):
            encoder.write_bytes(value)
            return
        if not isinstance(value, (list, tuple)):
            raise MarshalError(f"sequence expects a list, got {type(value).__name__}")
        encoder.write_length(len(value))
        for item in value:
            self.element.marshal(encoder, item)

    def unmarshal(self, decoder: CdrDecoder) -> Any:
        if self.octets:
            return decoder.read_bytes()
        length = decoder.read_length()
        return [self.element.unmarshal(decoder) for _ in range(length)]

    def default(self) -> Any:
        return b"" if self.octets else []


class EnumType(IdlType):
    def __init__(self, name: str, labels: Sequence[str], py_enum: type[enum.Enum]):
        self.idl_name = name
        self.labels = list(labels)
        self.py_enum = py_enum

    def marshal(self, encoder: CdrEncoder, value: Any) -> None:
        if isinstance(value, self.py_enum):
            index = self.labels.index(value.name)
        elif isinstance(value, str) and value in self.labels:
            index = self.labels.index(value)
        elif isinstance(value, int) and 0 <= value < len(self.labels):
            index = value
        else:
            raise MarshalError(f"{value!r} is not a member of enum {self.idl_name}")
        encoder.write_primitive("unsigned long", index)

    def unmarshal(self, decoder: CdrDecoder) -> Any:
        index = decoder.read_primitive("unsigned long")
        if index >= len(self.labels):
            raise MarshalError(f"enum {self.idl_name} index {index} out of range")
        return self.py_enum[self.labels[index]]

    def default(self) -> Any:
        return self.py_enum[self.labels[0]]


class StructType(IdlType):
    def __init__(self, name: str, fields: list[tuple[str, IdlType]], py_class: type):
        self.idl_name = name
        self.fields = fields
        self.py_class = py_class

    def marshal(self, encoder: CdrEncoder, value: Any) -> None:
        for field_name, field_type in self.fields:
            try:
                field_value = getattr(value, field_name)
            except AttributeError:
                raise MarshalError(
                    f"struct {self.idl_name} value {value!r} lacks field {field_name!r}"
                ) from None
            field_type.marshal(encoder, field_value)

    def unmarshal(self, decoder: CdrDecoder) -> Any:
        values = {name: ftype.unmarshal(decoder) for name, ftype in self.fields}
        return self.py_class(**values)

    def default(self) -> Any:
        return self.py_class(**{name: ftype.default() for name, ftype in self.fields})


class ExceptionType(StructType):
    """IDL exceptions marshal exactly like structs, plus a repository id."""


class ObjectRefType(IdlType):
    """Object references marshal as stringified references (IOR-alike).

    ``resolve`` is installed by the ORB runtime so that unmarshalling on
    the receiving side can hand the servant a live stub. Until an ORB is
    attached, unmarshalled references stay as
    :class:`repro.orb.refs.ObjectRef` values.
    """

    def __init__(self, interface_name: str):
        self.idl_name = interface_name
        self.interface_name = interface_name

    def marshal(self, encoder: CdrEncoder, value: Any) -> None:
        from repro.orb.refs import ObjectRef

        if value is None:
            encoder.write_string("")
            return
        ref = getattr(value, "object_ref", None)
        if ref is None:
            # Activated servants carry their reference; allows passing a
            # servant where an object reference is expected.
            ref = getattr(value, "_repro_object_ref", None)
        if ref is None and isinstance(value, ObjectRef):
            ref = value
        if ref is None:
            raise MarshalError(
                f"cannot marshal {value!r} as an object reference to {self.interface_name}"
            )
        encoder.write_string(ref.to_url())

    def unmarshal(self, decoder: CdrDecoder) -> Any:
        from repro.orb.refs import ObjectRef

        url = decoder.read_string()
        if not url:
            return None
        return ObjectRef.from_url(url)

    def default(self) -> Any:
        return None


# Shared singletons for the primitives.
VOID = VoidType()
BOOLEAN = PrimitiveType("boolean")
OCTET = PrimitiveType("octet")
CHAR = PrimitiveType("char")
SHORT = PrimitiveType("short")
USHORT = PrimitiveType("unsigned short")
LONG = PrimitiveType("long")
ULONG = PrimitiveType("unsigned long")
LONGLONG = PrimitiveType("long long")
ULONGLONG = PrimitiveType("unsigned long long")
FLOAT = PrimitiveType("float")
DOUBLE = PrimitiveType("double")
STRING = StringType()

PRIMITIVES: dict[str, IdlType] = {
    "void": VOID,
    "boolean": BOOLEAN,
    "octet": OCTET,
    "char": CHAR,
    "short": SHORT,
    "unsigned short": USHORT,
    "long": LONG,
    "unsigned long": ULONG,
    "long long": LONGLONG,
    "unsigned long long": ULONGLONG,
    "float": FLOAT,
    "double": DOUBLE,
    "string": STRING,
    # convenience aliases used by hand-written signatures
    "int": LONG,
}


def marshal_value(idl_type: IdlType, value: Any) -> bytes:
    """Marshal one value into a standalone encapsulation (test helper)."""
    encoder = CdrEncoder()
    idl_type.marshal(encoder, value)
    return encoder.getvalue()


def unmarshal_value(idl_type: IdlType, payload: bytes) -> Any:
    """Inverse of :func:`marshal_value`."""
    decoder = CdrDecoder(payload)
    value = idl_type.unmarshal(decoder)
    decoder.expect_exhausted()
    return value
