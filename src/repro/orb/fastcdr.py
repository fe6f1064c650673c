"""Fused per-operation marshalling plans (the CDR fast path).

The slow path walks the IDL type tree per field per call — a Python-level
dispatch (``idl_type.marshal(encoder, value)``) plus an align/pack pair
for every primitive. A :class:`MarshalPlan` compiles an operation's
parameter (or result) type list **once**, at first use, into:

- *fused runs*: maximal stretches of fixed-size fields (primitives and
  enums) collapsed into a single precompiled :class:`struct.Struct`
  whose ``x`` pad bytes reproduce CDR natural alignment exactly, and
- *fallback steps*: variable-size types (strings, sequences, structs,
  object references) that keep using the slow-path codec object.

Because CDR alignment is relative to the encapsulation start, the inner
padding of a run depends on the byte offset at which the run begins.
Every fixed CDR size divides 8, so the offset **mod 8** fully determines
the padding; plans compile one Struct variant per starting mod actually
observed (at most 8) and cache them.

Byte-identity and error parity with the slow path are contractual (the
property suite in ``tests/unit/orb/test_fastcdr_equivalence.py`` holds
both paths to it): each fused field carries a precheck mirroring the
slow path's type validation, and any residual ``struct.error`` replays
the run through the slow codec so the exact slow-path exception
surfaces.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Sequence

from repro.errors import MarshalError
from repro.orb.cdr import CdrDecoder, CdrEncoder

_FIXED_FORMATS = {
    "octet": ("B", 1),
    "boolean": ("B", 1),
    "char": ("B", 1),
    "short": ("h", 2),
    "unsigned short": ("H", 2),
    "long": ("i", 4),
    "unsigned long": ("I", 4),
    "long long": ("q", 8),
    "unsigned long long": ("Q", 8),
    "float": ("f", 4),
    "double": ("d", 8),
}

_INT_KINDS = frozenset(
    ("octet", "short", "unsigned short", "long", "unsigned long", "long long", "unsigned long long")
)


class _Field:
    """One fixed-size field inside a fused run."""

    __slots__ = ("kind", "fmt", "size", "precheck", "enc_conv", "dec_post")

    def __init__(self, kind, fmt, size, precheck, enc_conv, dec_post):
        self.kind = kind
        self.fmt = fmt
        self.size = size
        #: Slow-path type validation, run before packing (parity).
        self.precheck = precheck
        #: Python value -> packable value (char -> ord, enum -> index).
        self.enc_conv = enc_conv
        #: Unpacked value -> Python value for non-builtin mappings (enum).
        self.dec_post = dec_post


def _precheck_int(kind: str) -> Callable[[Any], None]:
    def check(value):
        if not isinstance(value, int) or isinstance(value, bool):
            raise MarshalError(f"{kind} expects an int, got {value!r}")

    return check


def _precheck_float(kind: str) -> Callable[[Any], None]:
    def check(value):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise MarshalError(f"{kind} expects a number, got {value!r}")

    return check


def _precheck_boolean(value):
    if not isinstance(value, (bool, int)):
        raise MarshalError(f"boolean expects a bool, got {value!r}")


def _precheck_char(value):
    if not isinstance(value, str) or len(value) != 1:
        raise MarshalError(f"char expects a 1-char string, got {value!r}")


def _field_for(idl_type) -> _Field | None:
    """Compile one IDL type into a fused field, or None if not fixed-size."""
    kind = getattr(idl_type, "kind", None)
    if kind in _FIXED_FORMATS:
        fmt, size = _FIXED_FORMATS[kind]
        if kind in _INT_KINDS:
            return _Field(kind, fmt, size, _precheck_int(kind), None, None)
        if kind in ("float", "double"):
            return _Field(kind, fmt, size, _precheck_float(kind), None, None)
        if kind == "boolean":
            return _Field(kind, fmt, size, _precheck_boolean, lambda v: 1 if v else 0, None)
        if kind == "char":
            return _Field(kind, fmt, size, _precheck_char, ord, None)
    labels = getattr(idl_type, "labels", None)
    py_enum = getattr(idl_type, "py_enum", None)
    if labels is not None and py_enum is not None:
        idl_name = idl_type.idl_name
        label_list = list(labels)

        def enc_conv(value):
            # Mirrors EnumType.marshal's acceptance rules exactly.
            if isinstance(value, py_enum):
                return label_list.index(value.name)
            if isinstance(value, str) and value in label_list:
                return label_list.index(value)
            if isinstance(value, int) and 0 <= value < len(label_list):
                return value
            raise MarshalError(f"{value!r} is not a member of enum {idl_name}")

        def dec_post(index):
            if index >= len(label_list):
                raise MarshalError(f"enum {idl_name} index {index} out of range")
            return py_enum[label_list[index]]

        return _Field("unsigned long", "I", 4, None, enc_conv, dec_post)
    return None


class _FusedRun:
    """A maximal stretch of fixed-size fields packed by one Struct."""

    __slots__ = ("fields", "_variants")

    def __init__(self, fields: list[_Field]):
        self.fields = fields
        self._variants: dict[int, struct.Struct] = {}

    def _variant(self, start_mod: int) -> struct.Struct:
        compiled = self._variants.get(start_mod)
        if compiled is None:
            fmt = [">"]
            pos = start_mod
            for field in self.fields:
                pad = -pos % field.size
                if pad:
                    fmt.append("x" * pad)
                fmt.append(field.fmt)
                pos += pad + field.size
            compiled = self._variants[start_mod] = struct.Struct("".join(fmt))
        return compiled

    def pack_into(self, encoder: CdrEncoder, values: Sequence, index: int) -> int:
        chunks = encoder._chunks
        compiled = self._variant(len(chunks) % 8)
        converted = []
        for field in self.fields:
            value = values[index]
            index += 1
            if field.precheck is not None:
                field.precheck(value)
            converted.append(field.enc_conv(value) if field.enc_conv is not None else value)
        try:
            chunks.extend(compiled.pack(*converted))
        except struct.error:
            # A range error the prechecks can't see (e.g. long = 2**40).
            # Replay through the slow codec so the exact slow-path
            # MarshalError (naming the offending field) surfaces.
            for field, value in zip(self.fields, converted):
                encoder.write_primitive(field.kind, value)
            raise MarshalError("fused pack failed but slow-path replay succeeded")
        return index

    def unpack_into(self, decoder: CdrDecoder, out: list) -> None:
        payload = decoder._payload
        pos = decoder._pos
        compiled = self._variant(pos % 8)
        if pos + compiled.size > len(payload):
            # Underrun: replay field-by-field for the exact slow-path error.
            for field in self.fields:
                value = decoder.read_primitive(field.kind)
                out.append(field.dec_post(value) if field.dec_post is not None else value)
            return
        raw = compiled.unpack_from(payload, pos)
        decoder._pos = pos + compiled.size
        for field, value in zip(self.fields, raw):
            kind = field.kind
            if kind == "boolean":
                value = bool(value)
            elif kind == "char":
                value = chr(value)
            if field.dec_post is not None:
                value = field.dec_post(value)
            out.append(value)


class MarshalPlan:
    """Compiled encoder/decoder for one ordered list of IDL types."""

    __slots__ = ("arity", "_steps")

    def __init__(self, types: Sequence):
        self.arity = len(types)
        steps: list = []
        run: list[_Field] = []
        for idl_type in types:
            field = _field_for(idl_type)
            if field is not None:
                run.append(field)
                continue
            if run:
                steps.append(_FusedRun(run))
                run = []
            steps.append(idl_type)
        if run:
            steps.append(_FusedRun(run))
        self._steps = steps

    def marshal(self, values: Sequence) -> bytearray:
        """Encode ``values`` into a fresh encapsulation (no final copy)."""
        encoder = CdrEncoder()
        index = 0
        for step in self._steps:
            if type(step) is _FusedRun:
                index = step.pack_into(encoder, values, index)
            else:
                step.marshal(encoder, values[index])
                index += 1
        return encoder.getbuffer()

    def unmarshal(self, payload) -> tuple:
        """Decode a full encapsulation; enforces exhaustion like the slow path."""
        decoder = CdrDecoder(payload)
        values: list = []
        for step in self._steps:
            if type(step) is _FusedRun:
                step.unpack_into(decoder, values)
            else:
                values.append(step.unmarshal(decoder))
        decoder.expect_exhausted()
        return tuple(values)
