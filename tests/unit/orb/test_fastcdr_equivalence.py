"""Byte-identity of the fused CDR fast path against the slow path.

The fast path (:mod:`repro.orb.fastcdr`) compiles per-operation marshal
plans with fused ``struct`` runs; the contract is that for **every** IDL
type — primitive, enum, string, sequence, struct, and any interleaving
of them — the fast path produces byte-for-byte the same encapsulation
as the unfused reference codec, and decodes the slow path's bytes to
equal values. Property-driven: hypothesis draws random type signatures
and matching values.
"""

from __future__ import annotations

import enum

import pytest
from hypothesis import given, strategies as st

from repro.errors import MarshalError
from repro.idl import compile_idl
from repro.idl.types import (
    BOOLEAN,
    CHAR,
    DOUBLE,
    FLOAT,
    LONG,
    LONGLONG,
    OCTET,
    SHORT,
    STRING,
    ULONG,
    ULONGLONG,
    USHORT,
    EnumType,
    SequenceType,
    StructType,
)
from repro.orb.cdr import CdrDecoder, CdrEncoder
from repro.orb.fastcdr import MarshalPlan
from repro.orb.runtime import (
    InterfaceRegistry,
    _marshal_args,
    _marshal_result,
    _unmarshal_args,
    _unmarshal_result,
)


class _Color(enum.Enum):
    R = 0
    G = 1
    B = 2


_COLOR = EnumType("Color", ["R", "G", "B"], _Color)


class _Pair:
    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __eq__(self, other):
        return isinstance(other, _Pair) and (self.a, self.b) == (other.a, other.b)


_PAIR = StructType("Pair", [("a", LONG), ("b", STRING)], _Pair)

#: Every marshal-planable IDL type paired with a value strategy.
_TYPE_STRATEGIES = [
    (OCTET, st.integers(0, 255)),
    (BOOLEAN, st.booleans()),
    (CHAR, st.characters(min_codepoint=1, max_codepoint=127)),
    (SHORT, st.integers(-(2**15), 2**15 - 1)),
    (USHORT, st.integers(0, 2**16 - 1)),
    (LONG, st.integers(-(2**31), 2**31 - 1)),
    (ULONG, st.integers(0, 2**32 - 1)),
    (LONGLONG, st.integers(-(2**63), 2**63 - 1)),
    (ULONGLONG, st.integers(0, 2**64 - 1)),
    (FLOAT, st.just(1.5)),  # float32 round-trips exactly only for dyadics
    (DOUBLE, st.floats(allow_nan=False, allow_infinity=False)),
    (STRING, st.text(max_size=40)),
    (_COLOR, st.sampled_from(list(_Color))),
    (SequenceType(LONG), st.lists(st.integers(-(2**31), 2**31 - 1), max_size=8)),
    (
        _PAIR,
        st.builds(_Pair, st.integers(-(2**31), 2**31 - 1), st.text(max_size=10)),
    ),
    (
        SequenceType(OCTET),
        st.one_of(st.binary(max_size=8), st.lists(st.integers(0, 255), max_size=8)),
    ),
]

_signature = st.lists(
    st.sampled_from(range(len(_TYPE_STRATEGIES))), min_size=0, max_size=10
)


def _slow_marshal(types, values) -> bytes:
    encoder = CdrEncoder()
    for idl_type, value in zip(types, values):
        idl_type.marshal(encoder, value)
    return encoder.getvalue()


def _slow_unmarshal(types, body) -> tuple:
    decoder = CdrDecoder(body)
    values = tuple(idl_type.unmarshal(decoder) for idl_type in types)
    decoder.expect_exhausted()
    return values


# The per-field reference for whole operations: one ``idl_type.marshal``
# / ``unmarshal`` call per parameter through the unfused ``orb.cdr``
# codec, in in-parameter order and in [return?] + out-parameter order.


def _in_types(op):
    return [param.idl_type for param in op.in_params]


def _result_types(op):
    types = [] if op.return_type.is_void else [op.return_type]
    return types + [param.idl_type for param in op.out_params]


def _marshal_args_slow(op, values) -> bytes:
    return _slow_marshal(_in_types(op), values)


def _unmarshal_args_slow(op, body) -> tuple:
    return _slow_unmarshal(_in_types(op), body)


def _marshal_result_slow(op, result) -> bytes:
    types = _result_types(op)
    return _slow_marshal(types, result if len(types) > 1 else [result])


def _unmarshal_result_slow(op, body):
    values = _slow_unmarshal(_result_types(op), body)
    return values if len(values) > 1 else values[0]


class TestPlanEquivalence:
    @given(data=st.data(), indexes=_signature)
    def test_fast_bytes_identical_and_roundtrip(self, data, indexes):
        types = [_TYPE_STRATEGIES[i][0] for i in indexes]
        values = [data.draw(_TYPE_STRATEGIES[i][1]) for i in indexes]
        plan = MarshalPlan(types)
        fast = bytes(plan.marshal(values))
        slow = _slow_marshal(types, values)
        assert fast == slow
        # The fast decoder reads the slow path's bytes (and vice versa).
        assert list(plan.unmarshal(slow)) == list(plan.unmarshal(fast))

    @pytest.mark.parametrize(
        "index,value",
        [
            (0, 255), (1, True), (2, "k"), (3, -3), (4, 9), (5, -(2**31)),
            (6, 2**32 - 1), (7, -(2**63)), (8, 2**64 - 1), (9, 0.5),
            (10, -1.25), (11, "solo"), (12, _Color.B), (13, [7, 8]),
            (14, _Pair(1, "x")), (15, b"\x07\x08"), (15, [7, 8]), (15, b""),
        ],
    )
    def test_every_type_kind_alone(self, index, value):
        """Each type also fused as a single-field plan (alignment mod 0)."""
        idl_type, _ = _TYPE_STRATEGIES[index]
        plan = MarshalPlan([idl_type])
        assert bytes(plan.marshal([value])) == _slow_marshal([idl_type], [value])


_OCTETS = SequenceType(OCTET)


def _octets_element_by_element(encoder: CdrEncoder, values) -> None:
    """How ``sequence<octet>`` was marshalled before the block path: a
    length, then per element the octet's type check and one
    ``write_primitive("octet", ...)``."""
    encoder.write_length(len(values))
    for value in values:
        OCTET.marshal(encoder, value)


class TestOctetBlock:
    """``sequence<octet>`` travels as one block and maps to ``bytes``."""

    @given(data=st.binary(max_size=64), as_list=st.booleans(), offset=st.integers(0, 7))
    def test_block_is_the_element_by_element_encoding(self, data, as_list, offset):
        block, reference = CdrEncoder(), CdrEncoder()
        for encoder in (block, reference):
            for _ in range(offset):  # every alignment of the length prefix
                encoder.write_primitive("octet", 0)
        _OCTETS.marshal(block, list(data) if as_list else data)
        _octets_element_by_element(reference, list(data))
        assert block.getvalue() == reference.getvalue()
        decoder = CdrDecoder(block.getvalue())
        for _ in range(offset):
            decoder.read_primitive("octet")
        assert _OCTETS.unmarshal(decoder) == data
        decoder.expect_exhausted()

    @pytest.mark.parametrize("value", [b"", [], (), bytearray()])
    def test_the_empty_sequence(self, value):
        body = bytes(MarshalPlan([_OCTETS]).marshal([value]))
        assert body == b"\x00\x00\x00\x00"
        assert MarshalPlan([_OCTETS]).unmarshal(body) == (b"",)

    @pytest.mark.parametrize(
        "value", [[256], [-1], [0, 1.5], [1, "x"], [True], "text", 7, None]
    )
    def test_what_was_rejected_is_still_rejected(self, value):
        with pytest.raises(MarshalError) as block_exc:
            MarshalPlan([_OCTETS]).marshal([value])
        if isinstance(value, list):
            with pytest.raises(MarshalError) as element_exc:
                _octets_element_by_element(CdrEncoder(), value)
            assert str(block_exc.value) == str(element_exc.value)


IDL = """
module EQ {
  enum Mood { HAPPY, GRUMPY };
  struct Point { long x; double y; string tag; };
  interface Kitchen {
    double mix(in octet a, in boolean b, in char c, in short d,
               in unsigned short e, in long f, in unsigned long g,
               in long long h, in unsigned long long i, in float j,
               in double k, in string l, in Mood m, in Point p,
               in sequence<long> seq, out long leftovers);
  };
};
"""

_ARGS = (
    200, True, "q", -7, 65000, -(2**30), 2**31, -(2**62), 2**63,
    0.25, 3.5, "stir", "GRUMPY",
)


def _kitchen_op():
    registry = InterfaceRegistry()
    compiled = compile_idl(IDL, instrument=False, registry=registry)
    op = compiled._SPEC.interfaces["EQ::Kitchen"].operation("mix")
    point = compiled.Point(x=4, y=0.5, tag="here")
    args = _ARGS + (point, [1, 2, 3])
    return op, args


class TestOperationEquivalence:
    def test_args_bytes_identical(self):
        op, args = _kitchen_op()
        assert bytes(_marshal_args(op, args)) == _marshal_args_slow(op, args)

    def test_args_cross_unmarshal(self):
        op, args = _kitchen_op()
        body = _marshal_args_slow(op, args)
        fast_values = _unmarshal_args(op, body)
        slow_values = _unmarshal_args_slow(op, body)
        assert fast_values == slow_values

    def test_result_bytes_identical_and_roundtrip(self):
        op, _ = _kitchen_op()
        result = (2.5, 42)  # return value plus the out parameter
        fast = bytes(_marshal_result(op, result))
        slow = _marshal_result_slow(op, result)
        assert fast == slow
        assert _unmarshal_result(op, slow) == _unmarshal_result_slow(op, fast)

    def test_range_error_parity(self):
        """A value the prechecks can't reject (long = 2**40) surfaces the
        exact slow-path MarshalError via the fast path's replay."""
        op, args = _kitchen_op()
        bad = list(args)
        bad[5] = 2**40  # the 'long f' parameter
        with pytest.raises(MarshalError) as fast_exc:
            _marshal_args(op, tuple(bad))
        with pytest.raises(MarshalError) as slow_exc:
            _marshal_args_slow(op, tuple(bad))
        assert str(fast_exc.value) == str(slow_exc.value)

    def test_type_error_parity(self):
        op, args = _kitchen_op()
        bad = list(args)
        bad[0] = "not-an-octet"
        with pytest.raises(MarshalError) as fast_exc:
            _marshal_args(op, tuple(bad))
        with pytest.raises(MarshalError) as slow_exc:
            _marshal_args_slow(op, tuple(bad))
        assert str(fast_exc.value) == str(slow_exc.value)
