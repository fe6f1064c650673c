"""OTLP-style span JSON export of a reconstructed DSCG.

Emits the OpenTelemetry OTLP/JSON trace shape (``resourceSpans`` →
``scopeSpans`` → ``spans``) without requiring any OpenTelemetry
dependency — the document is plain JSON that OTLP-compatible backends
and viewers understand:

- the FTL chain UUID (already 32 lowercase hex characters) **is** the
  OTLP ``traceId``;
- each call node yields a CLIENT span over the stub window and, for
  remote calls, a SERVER span over the skeleton window whose parent is
  the CLIENT span — the parent/child edges of the Figure-4 state machine
  become ``parentSpanId`` references;
- oneway forks become span **links** from the forked chain's root span
  back to the forking stub span (OTLP's mechanism for causality across
  trace boundaries);
- each simulated process is one OTLP *resource* (``service.name``,
  ``host.name``, ``process.pid``).

Span ids are 16-hex digests derived deterministically from (chain uuid,
event number, side), so re-exporting the same run yields the same ids.
"""

from __future__ import annotations

import hashlib
import json

from repro.analysis.dscg import (
    EVENT_SEQ, HOST, PID, PLATFORM, PROCESS, WALL_END, WALL_START, CallNode, Dscg,
)
from repro.analysis.latency import causality_overhead, end_to_end_latency
from repro.telemetry.chrome_trace import (
    _implicated_chains,
    _incident_summaries,
    _primary_side,
    _window,
)

_SPAN_KIND_INTERNAL = 1
_SPAN_KIND_SERVER = 2
_SPAN_KIND_CLIENT = 3


def _span_id(chain_uuid: str, node_seq: int, side: str) -> str:
    digest = hashlib.sha1(f"{chain_uuid}:{node_seq}:{side}".encode()).hexdigest()
    return digest[:16]


def _node_seq(node: CallNode) -> int:
    """Stable per-node discriminator: its earliest probe event number."""
    return min(
        reading[EVENT_SEQ]
        for reading in (node.stub_start, node.skel_start, node.skel_end, node.stub_end)
        if reading is not None
    )


def _attr(key: str, value) -> dict:
    if isinstance(value, bool):
        return {"key": key, "value": {"boolValue": value}}
    if isinstance(value, int):
        # OTLP/JSON encodes 64-bit ints as strings.
        return {"key": key, "value": {"intValue": str(value)}}
    return {"key": key, "value": {"stringValue": str(value)}}


def otlp_document(dscg: Dscg, run_id: str = "", incidents=None) -> dict:
    """Build the OTLP/JSON-shaped document (a JSON-serializable dict).

    ``incidents`` annotates every span on an implicated chain with a
    ``repro.incident_ids`` attribute (comma-joined incident ids) and
    summarizes the incidents in ``otherData.incidents``.
    """
    implicated = _implicated_chains(incidents)
    #: process name -> (resource attrs, spans)
    by_process: dict[str, dict] = {}
    skipped_timeless = 0
    #: chain uuid -> root span reference for oneway links.
    chain_root_span: dict[str, tuple[str, str]] = {}
    pending_links: list[tuple[str, str, str]] = []  # child chain, parent trace, parent span

    def resource_bucket(reading: tuple) -> list[dict]:
        entry = by_process.get(reading[PROCESS])
        if entry is None:
            entry = {
                "resource": {
                    "attributes": [
                        _attr("service.name", reading[PROCESS]),
                        _attr("host.name", reading[HOST]),
                        _attr("process.pid", reading[PID]),
                        _attr("repro.platform", reading[PLATFORM]),
                    ]
                },
                "spans": [],
            }
            by_process[reading[PROCESS]] = entry
        return entry["spans"]

    def parent_span_id(node: CallNode) -> str:
        """Nearest enclosing span id within the chain (server side preferred)."""
        parent = node.parent
        while parent is not None:
            seq = _node_seq(parent)
            if _window(parent, "server") is not None and not parent.collocated:
                return _span_id(parent.chain_uuid, seq, "server")
            if _window(parent, "client") is not None or _window(parent, "server"):
                side = "client" if _window(parent, "client") is not None else "server"
                return _span_id(parent.chain_uuid, seq, side)
            parent = parent.parent
        return ""

    for tree in dscg.chains.values():
        for node in tree.walk():
            seq = _node_seq(node)
            primary = _primary_side(node)
            client_window = _window(node, "client")
            server_window = _window(node, "server")
            if client_window is None and server_window is None:
                skipped_timeless += 1
                continue
            client_id = _span_id(node.chain_uuid, seq, "client")
            enclosing = parent_span_id(node)
            made_root = False

            for side, window in (("client", client_window), ("server", server_window)):
                if window is None:
                    continue
                start, end = window
                if node.collocated:
                    kind = _SPAN_KIND_INTERNAL
                else:
                    kind = _SPAN_KIND_CLIENT if side == "client" else _SPAN_KIND_SERVER
                if side == "client":
                    parent_id = enclosing
                else:
                    parent_id = client_id if client_window is not None else enclosing
                span_id = _span_id(node.chain_uuid, seq, side)
                attributes = [
                    _attr("repro.side", side),
                    _attr("repro.object_id", node.object_id),
                    _attr("repro.component", node.component),
                    _attr("repro.domain", node.domain.value),
                    _attr("repro.call_kind", node.call_kind.value),
                    _attr("repro.collocated", node.collocated),
                    _attr("repro.event_seq", start[EVENT_SEQ]),
                ]
                incident_ids = implicated.get(node.chain_uuid)
                if incident_ids:
                    attributes.append(
                        _attr("repro.incident_ids", ",".join(incident_ids))
                    )
                if side == primary:
                    attributes.append(
                        _attr("repro.probe_overhead_ns", causality_overhead(node))
                    )
                    latency = end_to_end_latency(node)
                    if latency is not None:
                        attributes.append(
                            _attr("repro.latency_compensated_ns", latency)
                        )
                span = {
                    "traceId": node.chain_uuid,
                    "spanId": span_id,
                    "parentSpanId": parent_id,
                    "name": node.function,
                    "kind": kind,
                    "startTimeUnixNano": str(start[WALL_END]),
                    "endTimeUnixNano": str(end[WALL_START]),
                    "attributes": attributes,
                    "links": [],
                }
                if (
                    node.parent is None
                    and not made_root
                    and node.chain_uuid not in chain_root_span
                ):
                    chain_root_span[node.chain_uuid] = (node.chain_uuid, span_id)
                    made_root = True
                resource_bucket(start).append(span)
            if node.forked_chain_uuid:
                origin_side = "client" if client_window is not None else "server"
                pending_links.append(
                    (
                        node.forked_chain_uuid,
                        node.chain_uuid,
                        _span_id(node.chain_uuid, seq, origin_side),
                    )
                )

    # Wire oneway-fork links: forked chain root span -> forking stub span.
    links_by_span: dict[str, list[dict]] = {}
    for child_chain, parent_trace, parent_span in pending_links:
        target = chain_root_span.get(child_chain)
        if target is None:
            continue
        _, child_span_id = target
        links_by_span.setdefault(child_span_id, []).append(
            {
                "traceId": parent_trace,
                "spanId": parent_span,
                "attributes": [_attr("repro.link", "oneway_fork")],
            }
        )
    if links_by_span:
        for entry in by_process.values():
            for span in entry["spans"]:
                extra = links_by_span.get(span["spanId"])
                if extra:
                    span["links"].extend(extra)

    resource_spans = [
        {
            "resource": entry["resource"],
            "scopeSpans": [
                {
                    "scope": {"name": "repro.telemetry", "version": "1"},
                    "spans": entry["spans"],
                }
            ],
        }
        for _, entry in sorted(by_process.items())
    ]
    other_data = {
        "format": "repro-otlp-trace",
        "run_id": run_id,
        "chains": len(dscg.chains),
        "skipped_timeless_nodes": skipped_timeless,
    }
    if incidents:
        other_data["incidents"] = _incident_summaries(incidents)
    return {
        "resourceSpans": resource_spans,
        "otherData": other_data,
    }


def render_otlp(
    dscg: Dscg, run_id: str = "", indent: int | None = None, incidents=None
) -> str:
    """OTLP/JSON text of the DSCG's spans."""
    return json.dumps(
        otlp_document(dscg, run_id=run_id, incidents=incidents), indent=indent
    )
