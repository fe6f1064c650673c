"""Exporter tests: Chrome trace-event JSON and OTLP span JSON.

Two layers: deterministic simulated chains (virtual clock, exact
assertions) and a golden small PPS run exercising the acceptance
criterion — the exported trace parses as JSON, every span is a complete
``X`` event, and primary slice durations match the offline latency
analysis within probe-compensation tolerance.
"""

import json

import pytest

from repro.analysis import reconstruct_from_records
from repro.analysis.chrome_trace import chrome_trace_document, render_chrome_trace
from repro.analysis.latency import causality_overhead, end_to_end_latency
from repro.analysis.otlp import otlp_document, render_otlp
from repro.core import MonitorMode
from repro.core.events import CallKind, TracingEvent
from tests.helpers import Call, simulate


def build_dscg(calls, mode=MonitorMode.LATENCY, **kwargs):
    sim = simulate(calls, mode=mode, **kwargs)
    return reconstruct_from_records(sim.records)


def primary_window_start(node):
    """The record whose wall_end starts the latency-measured window."""
    if node.collocated or (
        node.call_kind is CallKind.ONEWAY and node.oneway_side == "skel"
    ):
        return node.records[TracingEvent.SKEL_START]
    return node.records[TracingEvent.STUB_START]


def x_events(document):
    return [e for e in document["traceEvents"] if e["ph"] == "X"]


class TestChromeTrace:
    def test_renders_parseable_json_with_complete_x_events(self):
        dscg = build_dscg([Call("I::F", cpu_ns=100, children=(Call("I::G", cpu_ns=50),))])
        document = json.loads(render_chrome_trace(dscg, run_id="r1"))
        slices = x_events(document)
        # Two nodes, each with a client and a server window.
        assert len(slices) == 4
        for event in slices:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
            assert {"name", "ts", "dur", "pid", "tid", "args"} <= event.keys()
        assert document["otherData"]["slices"] == 4
        assert document["otherData"]["run_id"] == "r1"

    def test_one_trace_id_per_chain(self):
        dscg = build_dscg(
            [Call("I::F", cpu_ns=10), Call("I::G", cpu_ns=10)],
            fresh_chain_per_top_call=True,
        )
        assert len(dscg.chains) == 2
        document = chrome_trace_document(dscg)
        trace_ids = {event["args"]["trace_id"] for event in x_events(document)}
        assert trace_ids == set(dscg.chains)

    def test_primary_duration_matches_latency_plus_overhead(self):
        dscg = build_dscg(
            [Call("I::F", cpu_ns=100, idle_ns=25, children=(Call("I::G", cpu_ns=50),))]
        )
        document = chrome_trace_document(dscg)
        primaries = {
            (e["args"]["trace_id"], e["args"]["event_seq"]): e
            for e in x_events(document)
            if e["args"].get("primary")
        }
        checked = 0
        for node in dscg.walk():
            latency = end_to_end_latency(node)
            if latency is None:
                continue
            start = primary_window_start(node)
            event = primaries[(node.chain_uuid, start.event_seq)]
            dur_ns = event["dur"] * 1000.0
            overhead = causality_overhead(node)
            # The slice is the raw window; subtracting the exported
            # probe-overhead term reproduces the offline L(F).
            assert event["args"]["probe_overhead_ns"] == overhead
            assert event["args"]["latency_compensated_ns"] == latency
            assert abs(dur_ns - (latency + overhead)) <= 2
            checked += 1
        assert checked == 2

    def test_collocated_primary_is_server_side(self):
        dscg = build_dscg([Call("I::F", cpu_ns=100, collocated=True)])
        (node,) = list(dscg.walk())
        primaries = [e for e in x_events(chrome_trace_document(dscg))
                     if e["args"].get("primary")]
        assert [e["args"]["side"] for e in primaries] == ["server"]
        assert primaries[0]["args"]["latency_compensated_ns"] == (
            end_to_end_latency(node)
        )

    def test_oneway_fork_flow_events(self):
        dscg = build_dscg(
            [Call("I::F", cpu_ns=10, children=(Call("I::Notify", oneway=True, cpu_ns=5),))]
        )
        assert len(dscg.chains) == 2
        document = chrome_trace_document(dscg)
        starts = [e for e in document["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in document["traceEvents"] if e["ph"] == "f"]
        assert len(starts) == 1 and len(finishes) == 1
        assert starts[0]["id"] == finishes[0]["id"]
        child_uuid = starts[0]["args"]["child_trace_id"]
        assert child_uuid in dscg.chains
        # The flow lands on the forked chain's root slice location.
        root_slices = [e for e in x_events(document)
                       if e["args"]["trace_id"] == child_uuid]
        assert finishes[0]["ts"] in {e["ts"] for e in root_slices}

    def test_process_and_thread_metadata(self):
        document = chrome_trace_document(build_dscg([Call("I::F", cpu_ns=10)]))
        metadata = [e for e in document["traceEvents"] if e["ph"] == "M"]
        names = {e["name"] for e in metadata}
        assert names == {"process_name", "thread_name"}
        assert any(e["args"]["name"] == "sim" for e in metadata)

    def test_timeless_modes_skip_and_count(self):
        dscg = build_dscg([Call("I::F", cpu_ns=10)], mode=MonitorMode.CAUSALITY)
        document = chrome_trace_document(dscg)
        assert x_events(document) == []
        assert document["otherData"]["skipped_timeless_nodes"] == 1


class TestOtlp:
    def test_renders_parseable_json_structure(self):
        dscg = build_dscg([Call("I::F", cpu_ns=100)])
        document = json.loads(render_otlp(dscg, run_id="r1"))
        (resource,) = document["resourceSpans"]
        attrs = {a["key"] for a in resource["resource"]["attributes"]}
        assert {"service.name", "host.name", "process.pid"} <= attrs
        (scope,) = resource["scopeSpans"]
        assert len(scope["spans"]) == 2  # client + server
        for span in scope["spans"]:
            assert span["traceId"] in dscg.chains
            assert len(span["spanId"]) == 16
            assert int(span["endTimeUnixNano"]) >= int(span["startTimeUnixNano"])

    def test_parent_child_edges(self):
        dscg = build_dscg([Call("I::F", cpu_ns=100, children=(Call("I::G", cpu_ns=50),))])
        spans = {}
        for resource in otlp_document(dscg)["resourceSpans"]:
            for span in resource["scopeSpans"][0]["spans"]:
                side = next(a["value"]["stringValue"]
                            for a in span["attributes"]
                            if a["key"] == "repro.side")
                spans[(span["name"], side)] = span
        # Root client span has no parent; its server span is its child.
        assert spans[("I::F", "client")]["parentSpanId"] == ""
        assert spans[("I::F", "server")]["parentSpanId"] == (
            spans[("I::F", "client")]["spanId"]
        )
        # Nested call parents into the enclosing server span.
        assert spans[("I::G", "client")]["parentSpanId"] == (
            spans[("I::F", "server")]["spanId"]
        )
        assert spans[("I::G", "server")]["parentSpanId"] == (
            spans[("I::G", "client")]["spanId"]
        )

    def test_span_ids_deterministic_across_exports(self):
        sim = simulate([Call("I::F", cpu_ns=100, children=(Call("I::G", cpu_ns=50),))],
                       mode=MonitorMode.LATENCY)
        dscg = reconstruct_from_records(sim.records)
        assert render_otlp(dscg, run_id="x") == render_otlp(dscg, run_id="x")

    def test_oneway_fork_becomes_link(self):
        dscg = build_dscg(
            [Call("I::F", cpu_ns=10, children=(Call("I::Notify", oneway=True, cpu_ns=5),))]
        )
        linked = [
            span
            for resource in otlp_document(dscg)["resourceSpans"]
            for span in resource["scopeSpans"][0]["spans"]
            if span["links"]
        ]
        assert len(linked) == 1
        (link,) = linked[0]["links"]
        assert link["traceId"] != linked[0]["traceId"]
        assert link["traceId"] in dscg.chains


@pytest.fixture(scope="module")
def pps_dscg():
    """A small collected PPS run (latency mode) reconstructed to a DSCG."""
    from repro.apps.pps import PpsSystem, four_process_deployment
    from repro.collector import LogCollector

    pps = PpsSystem(four_process_deployment(), mode=MonitorMode.LATENCY)
    try:
        pps.run(njobs=2, pages=2, complexity=1)
        pps.quiesce()
        collector = LogCollector()
        run_id = collector.collect(pps.processes.values(), description="exporter golden")
        from repro.analysis import reconstruct

        return reconstruct(collector.database, run_id)
    finally:
        pps.shutdown()


class TestPpsGolden:
    def test_chrome_trace_round_trips_and_matches_latency_analysis(self, pps_dscg):
        document = json.loads(render_chrome_trace(pps_dscg, run_id="golden"))
        slices = x_events(document)
        assert slices, "PPS run produced no slices"
        assert document["otherData"]["skipped_timeless_nodes"] == 0
        assert {e["args"]["trace_id"] for e in slices} == set(pps_dscg.chains)
        primaries = {
            (e["args"]["trace_id"], e["args"]["event_seq"]): e
            for e in slices
            if e["args"].get("primary")
        }
        checked = 0
        for node in pps_dscg.walk():
            latency = end_to_end_latency(node)
            if latency is None:
                continue
            event = primaries[(node.chain_uuid, primary_window_start(node).event_seq)]
            dur_ns = event["dur"] * 1000.0
            # µs-float rounding keeps the slice within 2ns of the raw window.
            assert abs(dur_ns - (latency + causality_overhead(node))) <= 2
            assert event["args"]["latency_compensated_ns"] == latency
            checked += 1
        assert checked == len(primaries)

    def test_otlp_spans_cover_every_slice(self, pps_dscg):
        chrome = chrome_trace_document(pps_dscg)
        otlp = json.loads(render_otlp(pps_dscg))
        spans = [
            span
            for resource in otlp["resourceSpans"]
            for span in resource["scopeSpans"][0]["spans"]
        ]
        assert len(spans) == chrome["otherData"]["slices"]
        span_ids = {span["spanId"] for span in spans}
        assert len(span_ids) == len(spans)
        dangling = [
            span for span in spans
            if span["parentSpanId"] and span["parentSpanId"] not in span_ids
        ]
        assert dangling == []
