"""Chrome trace-event JSON export of a reconstructed DSCG.

Maps the paper's artifacts onto the trace-event format that Perfetto
(ui.perfetto.dev) and chrome://tracing load directly:

- one **trace id per FTL chain** — every event carries the chain's
  Function UUID as ``args.trace_id``;
- each reconstructed :class:`~repro.analysis.dscg.CallNode` becomes
  complete ``X`` duration events: a *client* slice spanning probe 1 end →
  probe 4 start on the caller's pid/tid, and a *server* slice spanning
  probe 2 end → probe 3 start on the callee's pid/tid (both windows are
  single-host, so no clock synchronization is assumed — the same
  invariant the Section 3.2 latency formulas rely on);
- the slice the latency analyzer measures (``primary: true``) also
  carries the **probe-overhead-compensated** latency L(F) and the O_F
  term, so the Perfetto slice duration minus ``args.probe_overhead_ns``
  reproduces the offline latency table;
- oneway forks become flow events (``s``/``f``) from the parent chain's
  stub slice to the forked chain's root slice;
- pid/tid metadata events name the simulated processes and threads.

Only nodes whose probes sampled wall clocks (latency/full monitor modes)
produce slices; the document counts what it had to skip instead of
silently truncating.
"""

from __future__ import annotations

import json

from repro.analysis.dscg import (
    EVENT_SEQ, PID, PROCESS, THREAD_ID, WALL_END, WALL_START, CallNode, Dscg,
)
from repro.analysis.latency import causality_overhead, end_to_end_latency
from repro.core.events import CallKind

_NS_PER_US = 1_000.0


def _window(node: CallNode, side: str):
    """(start reading, end reading) of one side's measured window, or None."""
    if side == "client":
        start, end = node.stub_start, node.stub_end
    else:
        start, end = node.skel_start, node.skel_end
    if start is None or end is None:
        return None
    if start[WALL_END] is None or end[WALL_START] is None:
        return None
    return start, end


def _primary_side(node: CallNode) -> str:
    """Which window the Section-3.2 latency formula measures for this node."""
    if node.collocated or (
        node.call_kind is CallKind.ONEWAY and node.oneway_side == "skel"
    ):
        return "server"
    return "client"


class _TidMap:
    """Remap CPython thread idents to small per-process tids for readability."""

    def __init__(self):
        self._tids: dict[tuple[int, int], int] = {}
        self._next: dict[int, int] = {}

    def tid(self, pid: int, thread_ident: int) -> int:
        key = (pid, thread_ident)
        tid = self._tids.get(key)
        if tid is None:
            tid = self._next.get(pid, 1)
            self._next[pid] = tid + 1
            self._tids[key] = tid
        return tid

    def items(self):
        return sorted(self._tids.items(), key=lambda kv: kv[1])


def _implicated_chains(incidents) -> dict[str, list[str]]:
    """chain uuid -> sorted incident ids that implicate it."""
    implicated: dict[str, list[str]] = {}
    for report in incidents or ():
        for chain_uuid in report.implicated_chains:
            implicated.setdefault(chain_uuid, []).append(report.incident_id)
    return {chain: sorted(ids) for chain, ids in implicated.items()}


def _incident_summaries(incidents) -> list[dict]:
    summaries = []
    for report in incidents or ():
        cause = report.root_cause
        summaries.append(
            {
                "incident_id": report.incident_id,
                "function": report.function,
                "root_cause_component": cause.component if cause else None,
                "root_cause_function": cause.function if cause else None,
            }
        )
    return summaries


def chrome_trace_document(dscg: Dscg, run_id: str = "", incidents=None) -> dict:
    """Build the trace-event document (a JSON-serializable dict).

    ``incidents`` (a list of streaming
    :class:`~repro.analysis.streaming.incident.IncidentReport`) annotates
    every slice on an implicated chain with its incident ids, so the
    Perfetto query ``args.incident_ids`` jumps straight to the affected
    traces; the summaries land in ``otherData.incidents``.
    """
    implicated = _implicated_chains(incidents)
    events: list[dict] = []
    tids = _TidMap()
    processes: dict[int, str] = {}
    skipped_timeless = 0
    #: chain uuid -> (pid, tid, ts) of its root slice, for oneway flows.
    chain_entry: dict[str, tuple[int, int, float]] = {}
    #: pending flows: (parent slice pid/tid/ts, child chain uuid)
    flow_origins: list[tuple[int, int, float, str]] = []

    for tree in dscg.chains.values():
        for node in tree.walk():
            primary = _primary_side(node)
            emitted = False
            for side in ("client", "server"):
                window = _window(node, side)
                if window is None:
                    continue
                start, end = window
                pid = start[PID]
                tid = tids.tid(pid, start[THREAD_ID])
                processes.setdefault(pid, start[PROCESS])
                ts_us = start[WALL_END] / _NS_PER_US
                dur_us = max(end[WALL_START] - start[WALL_END], 0) / _NS_PER_US
                args: dict = {
                    "trace_id": node.chain_uuid,
                    "side": side,
                    "object_id": node.object_id,
                    "component": node.component,
                    "domain": node.domain.value,
                    "event_seq": start[EVENT_SEQ],
                }
                incident_ids = implicated.get(node.chain_uuid)
                if incident_ids:
                    args["incident_ids"] = incident_ids
                if side == primary:
                    args["primary"] = True
                    args["probe_overhead_ns"] = causality_overhead(node)
                    latency = end_to_end_latency(node)
                    if latency is not None:
                        args["latency_compensated_ns"] = latency
                events.append(
                    {
                        "name": node.function,
                        "cat": f"{node.domain.value},{node.call_kind.value}",
                        "ph": "X",
                        "ts": ts_us,
                        "dur": dur_us,
                        "pid": pid,
                        "tid": tid,
                        "args": args,
                    }
                )
                emitted = True
                if side == primary:
                    if node.parent is None and node.chain_uuid not in chain_entry:
                        chain_entry[node.chain_uuid] = (pid, tid, ts_us)
                    if node.forked_chain_uuid:
                        flow_origins.append(
                            (pid, tid, ts_us, node.forked_chain_uuid)
                        )
            if not emitted:
                skipped_timeless += 1

    for pid, tid, ts_us, child_uuid in flow_origins:
        target = chain_entry.get(child_uuid)
        if target is None:
            continue
        flow_id = child_uuid[:16]
        events.append(
            {
                "name": "oneway_fork",
                "cat": "oneway",
                "ph": "s",
                "id": flow_id,
                "ts": ts_us,
                "pid": pid,
                "tid": tid,
                "args": {"child_trace_id": child_uuid},
            }
        )
        t_pid, t_tid, t_ts = target
        events.append(
            {
                "name": "oneway_fork",
                "cat": "oneway",
                "ph": "f",
                "bp": "e",
                "id": flow_id,
                "ts": t_ts,
                "pid": t_pid,
                "tid": t_tid,
                "args": {"child_trace_id": child_uuid},
            }
        )

    metadata: list[dict] = []
    for pid, name in sorted(processes.items()):
        metadata.append(
            {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": name}}
        )
    for (pid, thread_ident), tid in tids.items():
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": f"thread-{thread_ident}"},
            }
        )

    other_data = {
        "format": "repro-chrome-trace",
        "run_id": run_id,
        "chains": len(dscg.chains),
        "slices": sum(1 for e in events if e["ph"] == "X"),
        "skipped_timeless_nodes": skipped_timeless,
    }
    if incidents:
        other_data["incidents"] = _incident_summaries(incidents)
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": other_data,
    }


def render_chrome_trace(
    dscg: Dscg, run_id: str = "", indent: int | None = None, incidents=None
) -> str:
    """Chrome trace JSON text, ready for Perfetto's *Open trace file*."""
    return json.dumps(
        chrome_trace_document(dscg, run_id=run_id, incidents=incidents),
        indent=indent,
    )
