"""Property tests: framing, references and clock-skew invariance."""

from hypothesis import given, strategies as st

from repro.analysis import latency_report, reconstruct_from_records
from repro.core import MonitorMode
from repro.orb.giop import ReplyMessage, ReplyStatus, RequestMessage, decode_message
from repro.orb.refs import ObjectRef

_name = st.text(
    alphabet=st.characters(categories=("Ll", "Lu", "Nd"), include_characters="_-."),
    min_size=1,
    max_size=30,
)


@given(
    request_id=st.integers(0, 2**32 - 1),
    object_key=_name,
    interface=_name,
    operation=_name,
    oneway=st.booleans(),
    body=st.binary(max_size=512),
    ftl=st.one_of(st.none(), st.binary(min_size=24, max_size=24)),
)
def test_request_framing_roundtrip(request_id, object_key, interface, operation,
                                   oneway, body, ftl):
    message = RequestMessage(
        request_id=request_id,
        object_key=object_key,
        interface=interface,
        operation=operation,
        oneway=oneway,
        body=body,
        ftl=ftl,
    )
    assert decode_message(message.encode()) == message


@given(
    request_id=st.integers(0, 2**32 - 1),
    status=st.sampled_from(list(ReplyStatus)),
    body=st.binary(max_size=512),
    ftl=st.one_of(st.none(), st.binary(min_size=24, max_size=24)),
)
def test_reply_framing_roundtrip(request_id, status, body, ftl):
    message = ReplyMessage(request_id=request_id, status=status, body=body, ftl=ftl)
    assert decode_message(message.encode()) == message


_segment = st.text(
    alphabet=st.characters(categories=("Ll", "Lu", "Nd"), include_characters="_-."),
    min_size=1,
    max_size=20,
)


@given(address=_segment, key=_segment, interface=_segment, component=_segment)
def test_object_ref_url_roundtrip(address, key, interface, component):
    ref = ObjectRef(address, key, interface, component)
    assert ObjectRef.from_url(ref.to_url()) == ref


@given(skew_ns=st.integers(-10**12, 10**12))
def test_latency_analysis_invariant_under_clock_skew(skew_ns):
    """Shifting every wall reading taken on one host by a constant must
    not change any latency result — the paper's no-global-clock-sync
    property (all subtractions are same-host)."""
    from tests.helpers import Call, simulate

    calls = [Call("I::F", cpu_ns=250, children=(Call("I::G", cpu_ns=100),))]
    baseline = simulate(calls, mode=MonitorMode.LATENCY, uuid_prefix="aa")
    skewed = simulate(calls, mode=MonitorMode.LATENCY, uuid_prefix="ab")
    for record in skewed.records:
        if record.wall_start is not None:
            record.wall_start += skew_ns
        if record.wall_end is not None:
            record.wall_end += skew_ns

    def latencies(records):
        report = latency_report(reconstruct_from_records(records))
        return {name: entry.samples for name, entry in report.items()}

    assert latencies(baseline.records) == latencies(skewed.records)
