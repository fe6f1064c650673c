"""Property tests: CDR marshalling is a lossless inverse pair."""

import enum

from hypothesis import given, strategies as st

from repro.idl.types import (
    BOOLEAN,
    DOUBLE,
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
    marshal_value,
    unmarshal_value,
)

_PRIMITIVE_STRATEGIES = {
    OCTET: st.integers(0, 255),
    SHORT: st.integers(-(2**15), 2**15 - 1),
    USHORT: st.integers(0, 2**16 - 1),
    LONG: st.integers(-(2**31), 2**31 - 1),
    ULONG: st.integers(0, 2**32 - 1),
    LONGLONG: st.integers(-(2**63), 2**63 - 1),
    ULONGLONG: st.integers(0, 2**64 - 1),
    BOOLEAN: st.booleans(),
    DOUBLE: st.floats(allow_nan=False, allow_infinity=False),
    STRING: st.text(max_size=200),
}


class _Color(enum.Enum):
    R = 0
    G = 1
    B = 2


_COLOR_TYPE = EnumType("Color", ["R", "G", "B"], _Color)


class _Pair:
    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __eq__(self, other):
        return (self.a, self.b) == (other.a, other.b)


_PAIR_TYPE = StructType("Pair", [("a", LONG), ("b", STRING)], _Pair)


@st.composite
def typed_values(draw, depth=2):
    """A (type, value) pair drawn over the whole type algebra."""
    choices = ["primitive", "enum", "struct"]
    if depth > 0:
        choices.append("sequence")
    choice = draw(st.sampled_from(choices))
    if choice == "primitive":
        idl_type = draw(st.sampled_from(list(_PRIMITIVE_STRATEGIES)))
        return idl_type, draw(_PRIMITIVE_STRATEGIES[idl_type])
    if choice == "enum":
        return _COLOR_TYPE, draw(st.sampled_from(list(_Color)))
    if choice == "struct":
        return _PAIR_TYPE, _Pair(draw(_PRIMITIVE_STRATEGIES[LONG]), draw(st.text(max_size=50)))
    element_type, _ = draw(typed_values(depth=depth - 1))
    values = draw(
        st.lists(typed_values(depth=depth - 1).map(lambda tv: tv[1]), max_size=0)
    )
    # elements must share one type: draw values from the element type again
    if element_type is OCTET:
        # sequence<octet> maps to bytes (the OMG Python mapping).
        values = draw(st.binary(max_size=8))
    elif element_type in _PRIMITIVE_STRATEGIES:
        values = draw(st.lists(_PRIMITIVE_STRATEGIES[element_type], max_size=8))
    elif element_type is _COLOR_TYPE:
        values = draw(st.lists(st.sampled_from(list(_Color)), max_size=8))
    elif element_type is _PAIR_TYPE:
        values = [
            _Pair(a, b)
            for a, b in draw(
                st.lists(st.tuples(_PRIMITIVE_STRATEGIES[LONG], st.text(max_size=20)),
                         max_size=6)
            )
        ]
    else:
        values = []
    return SequenceType(element_type), values


@given(typed_values())
def test_marshal_unmarshal_roundtrip(tv):
    idl_type, value = tv
    assert unmarshal_value(idl_type, marshal_value(idl_type, value)) == value


@given(st.lists(typed_values(), min_size=1, max_size=6))
def test_concatenated_streams_decode_in_order(tvs):
    """Multiple values encoded back-to-back decode independently in order
    (the property argument marshalling relies on)."""
    from repro.orb.cdr import CdrDecoder, CdrEncoder

    encoder = CdrEncoder()
    for idl_type, value in tvs:
        idl_type.marshal(encoder, value)
    decoder = CdrDecoder(encoder.getvalue())
    for idl_type, value in tvs:
        assert idl_type.unmarshal(decoder) == value


@given(st.text(max_size=500))
def test_string_roundtrip_arbitrary_unicode(text):
    assert unmarshal_value(STRING, marshal_value(STRING, text)) == text
