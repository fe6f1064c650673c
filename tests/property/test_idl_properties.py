"""Property tests: generated IDL always compiles and round-trips.

Hypothesis generates random (valid) IDL specifications; the full pipeline
— lexer, parser, semantic analysis, both codegen back-ends, module
loading — must succeed, the generated classes must be present, and
marshalling random values through the generated signatures must
round-trip.
"""

import keyword

from hypothesis import given, strategies as st

from repro.idl import compile_idl, parse_idl
from repro.idl.semantics import analyze
from repro.orb import InterfaceRegistry

_PRIMS = ["long", "short", "double", "string", "boolean", "octet", "long long"]


@st.composite
def identifiers(draw, prefix):
    suffix = draw(st.integers(0, 999))
    return f"{prefix}{suffix}"


@st.composite
def idl_specs(draw):
    """A random valid spec: enums, structs, one module, interfaces."""
    pieces: list[str] = []
    type_names: list[str] = []

    for index in range(draw(st.integers(0, 2))):
        name = f"E{index}"
        labels = [f"L{index}_{i}" for i in range(draw(st.integers(1, 4)))]
        pieces.append(f"enum {name} {{ {', '.join(labels)} }};")
        type_names.append(name)

    for index in range(draw(st.integers(0, 2))):
        name = f"S{index}"
        field_count = draw(st.integers(1, 4))
        fields = []
        for f in range(field_count):
            ftype = draw(st.sampled_from(_PRIMS + type_names))
            fields.append(f"{ftype} f{f};")
        pieces.append(f"struct {name} {{ {' '.join(fields)} }};")
        type_names.append(name)

    interface_count = draw(st.integers(1, 3))
    for index in range(interface_count):
        ops = []
        for op_index in range(draw(st.integers(1, 4))):
            oneway = draw(st.booleans())
            if oneway:
                params = ", ".join(
                    f"in {draw(st.sampled_from(_PRIMS + type_names))} p{p}"
                    for p in range(draw(st.integers(0, 3)))
                )
                ops.append(f"oneway void op{op_index}({params});")
            else:
                ret = draw(st.sampled_from(["void"] + _PRIMS + type_names))
                params = []
                for p in range(draw(st.integers(0, 3))):
                    direction = draw(st.sampled_from(["in", "out", "inout"]))
                    ptype = draw(st.sampled_from(_PRIMS + type_names))
                    params.append(f"{direction} {ptype} p{p}")
                ops.append(f"{ret} op{op_index}({', '.join(params)});")
        pieces.append(f"interface I{index} {{ {' '.join(ops)} }};")

    return "module Fuzz { " + " ".join(pieces) + " };"


@given(idl_specs())
def test_pipeline_accepts_generated_idl(source):
    spec = analyze(parse_idl(source))
    assert spec.interfaces
    for variant in (True, False):
        compiled = compile_idl(source, instrument=variant,
                               registry=InterfaceRegistry())
        for scoped in spec.interfaces:
            simple = scoped.replace("::", "_")
            assert simple in compiled.namespace
            assert f"{simple}Stub" in compiled.namespace
            assert f"{simple}Skeleton" in compiled.namespace


@given(idl_specs())
def test_generated_source_is_clean_python(source):
    compiled = compile_idl(source, instrument=True, registry=InterfaceRegistry())
    compile(compiled.source, "<gen>", "exec")
    # No generated identifier may shadow a Python keyword.
    for name in compiled.namespace:
        assert not keyword.iskeyword(name)


@given(idl_specs(), st.data())
def test_generated_signatures_marshal_roundtrip(source, data):
    from repro.idl.types import EnumType, PrimitiveType, StringType, StructType
    from repro.orb.cdr import CdrDecoder, CdrEncoder

    compiled = compile_idl(source, instrument=True, registry=InterfaceRegistry())

    def value_for(idl_type):
        if isinstance(idl_type, PrimitiveType):
            if idl_type.kind in ("float", "double"):
                return data.draw(st.floats(-1e6, 1e6, allow_nan=False))
            if idl_type.kind == "boolean":
                return data.draw(st.booleans())
            if idl_type.kind == "octet":
                return data.draw(st.integers(0, 255))
            if idl_type.kind == "short":
                return data.draw(st.integers(-(2**15), 2**15 - 1))
            return data.draw(st.integers(-(2**31), 2**31 - 1))
        if isinstance(idl_type, StringType):
            return data.draw(st.text(max_size=20))
        if isinstance(idl_type, EnumType):
            return data.draw(st.sampled_from(list(idl_type.py_enum)))
        if isinstance(idl_type, StructType):
            return idl_type.py_class(
                **{name: value_for(ftype) for name, ftype in idl_type.fields}
            )
        return None

    for interface in compiled.spec.interfaces.values():
        for op in interface.operations:
            encoder = CdrEncoder()
            values = []
            for param in op.in_params:
                value = value_for(param.idl_type)
                values.append(value)
                param.idl_type.marshal(encoder, value)
            decoder = CdrDecoder(encoder.getvalue())
            for param, value in zip(op.in_params, values):
                restored = param.idl_type.unmarshal(decoder)
                if isinstance(value, float):
                    assert restored == value
                else:
                    assert restored == value
