"""The per-process monitoring runtime.

This module is the "instrumentation-associated library" of the paper: it
is loaded at monitoring initialization, owns the thread-specific storage
slot that forms the in-process half of the virtual tunnel, and implements
the four probes that the instrumented stubs and skeletons call.

The runtime is deliberately independent of any particular remote
invocation infrastructure — the CORBA ORB, the COM runtime and the bridge
all drive the same four entry points:

- :meth:`MonitoringRuntime.stub_start`  (probe 1)
- :meth:`MonitoringRuntime.skel_start`  (probe 2)
- :meth:`MonitoringRuntime.skel_end`    (probe 3)
- :meth:`MonitoringRuntime.stub_end`    (probe 4)

Monitor modes follow Section 2.1: latency and CPU probes are never active
simultaneously ("to reduce interference"), but causality capture always
happens.
"""

from __future__ import annotations

import enum
import struct
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.core.events import CallKind, TracingEvent
from repro.core.ftl import _WIRE, FunctionTxLog, random_uuid_factory
from repro.core.probes import CallContext
from repro.core.records import CPU_END, WALL_END, OperationInfo, Site
from repro.errors import MonitorError
from repro.telemetry.metrics import NULL_COUNTER, NULL_REGISTRY
from repro.telemetry.runtime import metrics_binder

if TYPE_CHECKING:
    from repro.platform.process import SimProcess

_FTL_SLOT = "ftl"

# Probe-path constants: one cached global load each (an enum member
# reached through its class costs two).
_STUB_START = TracingEvent.STUB_START
_SKEL_START = TracingEvent.SKEL_START
_SKEL_END = TracingEvent.SKEL_END
_STUB_END = TracingEvent.STUB_END
_SYNC = CallKind.SYNC
_ONEWAY = CallKind.ONEWAY
_get_ident = threading.get_ident
_unpack_ftl = _WIRE.unpack


def _no_cpu_counter() -> None:
    """Prebound stand-in for hosts without per-thread CPU counters."""
    return None

# Framework self-metrics (no-ops until repro.telemetry.enable(), which
# rebinds them under live runtimes: the probes read them per activation).
# ``_COUNTING`` is true while telemetry is on: the probes test it before
# counting a record or a chain, so telemetry off costs no call at all.
_COUNTING = False
_PROBE_RECORDS = dict.fromkeys(TracingEvent, NULL_COUNTER)
_FTL_MALFORMED = {_SKEL_START: NULL_COUNTER, _STUB_END: NULL_COUNTER}
_CHAINS_STARTED = NULL_COUNTER


@metrics_binder
def _bind_metrics(registry) -> None:
    global _CHAINS_STARTED, _COUNTING
    _COUNTING = registry is not None
    registry = registry or NULL_REGISTRY
    family = registry.counter(
        "repro_probe_records_total",
        "Probe records written to process-local log buffers, by probe.",
        labels=("probe",),
    )
    for event in TracingEvent:
        _PROBE_RECORDS[event] = family.labels(event.name.lower())
    malformed = registry.counter(
        "repro_ftl_malformed_total",
        "Tunnel payloads a probe could not unmarshal and carried on without, by probe.",
        labels=("probe",),
    )
    for event in _FTL_MALFORMED:
        _FTL_MALFORMED[event] = malformed.labels(event.name.lower())
    _CHAINS_STARTED = registry.counter(
        "repro_chains_started_total",
        "Causal chains started (fresh Function UUIDs minted at root calls).",
    )


class MonitorMode(enum.Enum):
    """Which behaviour aspect the probes sample this run.

    ``CAUSALITY`` records events only; ``LATENCY`` adds wall-clock
    readings; ``CPU`` adds per-thread CPU readings; ``SEMANTICS`` adds
    application semantics (parameters/exceptions). ``FULL`` samples
    everything and is provided for convenience — the paper never runs
    latency and CPU probes together, so experiments reproducing the paper
    use one of the first four.
    """

    CAUSALITY = "causality"
    LATENCY = "latency"
    CPU = "cpu"
    SEMANTICS = "semantics"
    FULL = "full"

    def __init__(self, value: str):
        #: (samples wall clock, samples thread CPU, captures semantics):
        #: a probe reads its three gates with this one attribute.
        self.flags = tuple(value in (aspect, "full") for aspect in ("latency", "cpu", "semantics"))


@dataclass
class MonitorConfig:
    """Configuration for one process's monitoring runtime."""

    mode: MonitorMode = MonitorMode.CAUSALITY
    enabled: bool = True
    uuid_factory: Callable[[], str] = random_uuid_factory


class MonitoringRuntime:
    """Probe implementation attached to one simulated process.

    Each probe is one Python frame and enters no other: it reads
    ``config`` once and logs its record as a probe row (a list literal in
    ``ProbeRecord.__slots__`` order; no record is built on the probe path)
    through the buffer's C-level per-thread append, stamping the row's end
    readings after the append, and counts it only while telemetry is on.
    A root call's start probe mints the chain itself (the uuid factory and
    the ``FunctionTxLog`` constructor are the only frames it adds, once
    per chain) and binds it to the carrier.
    Prebound: the clock, the FTL slot's context variable and, per
    operation (:meth:`_bind_site`), the :class:`Site` — the ten record
    fields constant per *(process, operation)*, which a record refers to
    instead of copying. Read on every probe (once per fused pair),
    because the tree changes them under a live runtime: the telemetry
    flag and counters, ``process.log_buffer`` and every ``config`` field.
    """

    def __init__(self, process: SimProcess, config: MonitorConfig | None = None):
        self.process = process
        self.config = config if config is not None else MonitorConfig()
        process.monitor = self
        host = process.host
        self._wall_ns = host.clock.wall_ns
        if host.capabilities.supports_thread_cpu:
            self._cpu_ns = host.clock.thread_cpu_ns
        else:
            self._cpu_ns = _no_cpu_counter
        self._locality = (process.name, process.pid, host.name,
                          host.processor_type.value, host.platform_kind.value)
        #: This runtime's site per operation (by value): a re-bind costs a
        #: lookup, and a record of the operation always holds the same object.
        self._sites: dict[OperationInfo, Site] = {}
        # The in-process half of the virtual tunnel, resolved once: task-
        # and thread-locality are the variable's (observations O1/O2).
        self._ftl_var = process.tss.var(_FTL_SLOT)

    def _bind_site(self, op: OperationInfo) -> Site:
        """Cache on ``op`` the site this runtime's records of it refer to
        (built on first sight of the operation): one slot tagged with its
        runtime, so an operation object probed by two processes' runtimes is
        re-bound on each switch, never read stale."""
        site = self._sites.get(op)
        if site is None:
            site = self._sites[op] = Site(
                op.interface, op.operation, op.object_id, op.component,
                *self._locality, op.domain,
            )
        object.__setattr__(op, "_site", (self, site))  # frozen; the slot is not identity
        return site

    # ------------------------------------------------------------------
    # FTL / TSS plumbing

    def current_ftl(self) -> FunctionTxLog | None:
        """The FTL bound to the calling thread, if any."""
        return self._ftl_var.get()

    def bind_ftl(self, ftl: FunctionTxLog) -> FunctionTxLog:
        """Bind an FTL to the calling thread (channel hooks); returns it."""
        self._ftl_var.set(ftl)
        return ftl

    def unbind_ftl(self) -> FunctionTxLog | None:
        """Detach and return the calling thread's FTL (channel hooks)."""
        ftl = self._ftl_var.get()
        if ftl is not None:
            self._ftl_var.set(None)
        return ftl

    # ------------------------------------------------------------------
    # Probe 1: stub start

    def stub_start(
        self,
        op: OperationInfo,
        oneway: bool = False,
        collocated: bool = False,
        semantics: dict[str, Any] | None = None,
    ) -> CallContext | None:
        """Probe 1 — fired in the stub right after the client invokes.

        For synchronous calls the current chain's FTL is advanced and its
        snapshot travels with the request (nothing is marshalled for a
        collocated call, which sends no message). For oneway calls a
        *child* chain is forked; the parent chain records the link in this
        probe's record ("such a parent/child chain relationship is recorded
        in the stub start probes of the one-way function calls") and the
        child FTL travels with the request instead.
        """
        config = self.config
        if not config.enabled:
            return None
        wall_on, cpu_on, semantics_on = config.mode.flags
        wall = self._wall_ns() if wall_on else None
        cpu = self._cpu_ns() if cpu_on else None
        ftl = self._ftl_var.get()
        if ftl is None:  # a root call: mint its chain here, in the probe's frame
            ftl = FunctionTxLog(config.uuid_factory())
            self._ftl_var.set(ftl)
            if _COUNTING:
                _CHAINS_STARTED.inc()
        bound = op._site
        site = bound[1] if bound is not None and bound[0] is self else self._bind_site(op)
        seq = ftl.event_seq_no = ftl.event_seq_no + 1
        if oneway:
            kind = _ONEWAY
            child_ftl = ftl.fork_child(config.uuid_factory)
            child_uuid = child_ftl.chain_uuid
            payload = child_ftl.to_bytes()
        else:
            kind = _SYNC
            child_ftl = child_uuid = None
            payload = None if collocated else ftl.to_bytes()
        # A probe row: the record's fields in ProbeRecord.__slots__ order.
        row = [
            site, ftl.chain_uuid, seq, _STUB_START, _get_ident(), kind, collocated,
            wall, None, cpu, None, child_uuid, semantics if semantics_on else None,
        ]
        self.process.log_buffer.per_thread.append(row)
        if _COUNTING:
            _PROBE_RECORDS[_STUB_START].inc()
        ctx = CallContext(op, site, ftl, kind, collocated, child_ftl, payload)
        if wall_on:
            row[WALL_END] = self._wall_ns()
        if cpu_on:
            row[CPU_END] = self._cpu_ns()
        return ctx

    # ------------------------------------------------------------------
    # Probe 4: stub end

    def stub_end(
        self,
        ctx: CallContext | None,
        reply_ftl_payload: bytes | None = None,
        semantics: dict[str, Any] | None = None,
    ) -> None:
        """Probe 4 — fired in the stub when the response is ready to return.

        The FTL is deliberately re-read from thread-specific storage
        rather than from the call context: this is the behaviour that is
        correct under every CORBA threading policy (observations O1/O2)
        but *mingles* causal chains under COM STA nested pumping — the
        hazard Section 2.2 describes and the channel hooks repair. (A
        thread that lost its chain, possible only through misuse of the
        runtime, gets the context's FTL back: the record stays
        attributable.) A reply payload that cannot be unmarshalled is
        counted and ignored — a probe never raises into the application.
        """
        if ctx is None:
            return
        config = self.config
        if not config.enabled:
            return
        wall_on, cpu_on, semantics_on = config.mode.flags
        wall = self._wall_ns() if wall_on else None
        cpu = self._cpu_ns() if cpu_on else None
        ftl = self._ftl_var.get() or self.bind_ftl(ctx.ftl)
        if reply_ftl_payload is not None:
            try:
                raw, seq = _unpack_ftl(reply_ftl_payload)
            except struct.error:
                _FTL_MALFORMED[_STUB_END].inc()
            else:
                # Adopt the event number the callee side advanced to. If the
                # UUIDs disagree the chains were intertwined: the record keeps
                # whatever the thread holds and the analyzer flags it.
                own = ftl._raw_uuid
                if (raw == own) if own is not None else (raw.hex() == ftl.chain_uuid):
                    ftl.event_seq_no = seq
        seq = ftl.event_seq_no = ftl.event_seq_no + 1
        row = [
            ctx.site, ftl.chain_uuid, seq, _STUB_END, _get_ident(), ctx.call_kind,
            ctx.collocated, wall, None, cpu, None, None,
            semantics if semantics_on else None,
        ]
        self.process.log_buffer.per_thread.append(row)
        if _COUNTING:
            _PROBE_RECORDS[_STUB_END].inc()
        if wall_on:
            row[WALL_END] = self._wall_ns()
        if cpu_on:
            row[CPU_END] = self._cpu_ns()

    # ------------------------------------------------------------------
    # Probe 2: skeleton start

    def skel_start(
        self,
        op: OperationInfo,
        request_ftl_payload: bytes | None,
        oneway: bool = False,
        collocated: bool = False,
        semantics: dict[str, Any] | None = None,
    ) -> CallContext | None:
        """Probe 2 — fired when the invocation request reaches the skeleton.

        Unmarshals the FTL from the request, advances it, stores it into
        thread-specific storage (refreshing any stale FTL a recycled pool
        thread may hold — observation O2), and records the event. A
        payload that cannot be unmarshalled is counted and replaced by a
        *fresh* chain: the refresh still happens, the servant's children
        cannot attach to a stale chain, the dispatching thread lives.

        For collocated calls the caller passes ``request_ftl_payload=None``
        and the skeleton continues with the FTL already bound to the
        (shared) thread.
        """
        config = self.config
        if not config.enabled:
            return None
        wall_on, cpu_on, semantics_on = config.mode.flags
        wall = self._wall_ns() if wall_on else None
        cpu = self._cpu_ns() if cpu_on else None
        if request_ftl_payload is None:
            ftl = self._ftl_var.get()
            if ftl is None:
                ftl = FunctionTxLog(config.uuid_factory())
                self._ftl_var.set(ftl)
                if _COUNTING:
                    _CHAINS_STARTED.inc()
        else:
            try:
                raw, seq = _unpack_ftl(request_ftl_payload)
                ftl = FunctionTxLog(raw.hex(), seq, raw)
            except struct.error:
                ftl = FunctionTxLog(config.uuid_factory())
                _FTL_MALFORMED[_SKEL_START].inc()
            self._ftl_var.set(ftl)
        bound = op._site
        site = bound[1] if bound is not None and bound[0] is self else self._bind_site(op)
        seq = ftl.event_seq_no = ftl.event_seq_no + 1
        kind = _ONEWAY if oneway else _SYNC
        row = [
            site, ftl.chain_uuid, seq, _SKEL_START, _get_ident(), kind, collocated,
            wall, None, cpu, None, None, semantics if semantics_on else None,
        ]
        self.process.log_buffer.per_thread.append(row)
        if _COUNTING:
            _PROBE_RECORDS[_SKEL_START].inc()
        ctx = CallContext(op, site, ftl, kind, collocated)
        if wall_on:
            row[WALL_END] = self._wall_ns()
        if cpu_on:
            row[CPU_END] = self._cpu_ns()
        return ctx

    # ------------------------------------------------------------------
    # Probe 3: skeleton end

    def skel_end(
        self,
        ctx: CallContext | None,
        semantics: dict[str, Any] | None = None,
    ) -> bytes | None:
        """Probe 3 — fired when the function execution concludes.

        Reads the FTL back from thread-specific storage (children executed
        inside the implementation advanced it there), records the event,
        and returns the updated FTL payload for the reply message (``None``
        for oneway and collocated calls, which send no reply).
        """
        if ctx is None:
            return None
        config = self.config
        if not config.enabled:
            return None
        wall_on, cpu_on, semantics_on = config.mode.flags
        wall = self._wall_ns() if wall_on else None
        cpu = self._cpu_ns() if cpu_on else None
        ftl = self._ftl_var.get() or self.bind_ftl(ctx.ftl)
        seq = ftl.event_seq_no = ftl.event_seq_no + 1
        kind, collocated = ctx.call_kind, ctx.collocated
        row = [
            ctx.site, ftl.chain_uuid, seq, _SKEL_END, _get_ident(), kind, collocated,
            wall, None, cpu, None, None, semantics if semantics_on else None,
        ]
        self.process.log_buffer.per_thread.append(row)
        if _COUNTING:
            _PROBE_RECORDS[_SKEL_END].inc()
        if wall_on:
            row[WALL_END] = self._wall_ns()
        if cpu_on:
            row[CPU_END] = self._cpu_ns()
        if collocated or kind is _ONEWAY:
            return None
        return ftl.to_bytes()

    # ------------------------------------------------------------------
    # Collocated (degenerate) probe pairs

    def collocated_call_start(
        self, op: OperationInfo, semantics: dict[str, Any] | None = None
    ) -> tuple[Site, FunctionTxLog] | tuple[None, None]:
        """Fire probes 1 and 2 back-to-back for a collocated invocation.

        With collocation optimization the stub locates the servant
        directly, so "both stub start and skeleton start probes are
        triggered before the execution falls into the user-defined
        function implementation" (Section 2.2). Nothing runs between the
        two, so the pair shares one frame and one read of gates, carrier,
        site and buffer, and one clock reading at the seam: the first
        record's end reading is the second's start reading, so no gap
        between the two falls outside ``O_F``. Returns the token
        :meth:`collocated_call_end` takes, ``(site, ftl)`` (``(None,
        None)`` while monitoring is disabled).
        """
        config = self.config
        if not config.enabled:
            return None, None
        wall_on, cpu_on, semantics_on = config.mode.flags
        wall = self._wall_ns() if wall_on else None
        cpu = self._cpu_ns() if cpu_on else None
        ftl = self._ftl_var.get()
        if ftl is None:  # a root call: mint its chain here, in the probe's frame
            ftl = FunctionTxLog(config.uuid_factory())
            self._ftl_var.set(ftl)
            if _COUNTING:
                _CHAINS_STARTED.inc()
        bound = op._site
        site = bound[1] if bound is not None and bound[0] is self else self._bind_site(op)
        chain_uuid, thread_id = ftl.chain_uuid, _get_ident()
        seq = ftl.event_seq_no + 1
        ftl.event_seq_no = seq + 1
        row = [
            site, chain_uuid, seq, _STUB_START, thread_id, _SYNC, True,
            wall, None, cpu, None, None, semantics if semantics_on else None,
        ]
        append = self.process.log_buffer.per_thread.append
        append(row)
        if _COUNTING:
            _PROBE_RECORDS[_STUB_START].inc()
        # The seam: one reading ends the first record and starts the second.
        if wall_on:
            row[WALL_END] = wall = self._wall_ns()
        if cpu_on:
            row[CPU_END] = cpu = self._cpu_ns()
        row = [
            site, chain_uuid, seq + 1, _SKEL_START, thread_id, _SYNC, True, wall, None, cpu,
            None, None, None,
        ]
        append(row)
        if _COUNTING:
            _PROBE_RECORDS[_SKEL_START].inc()
        if wall_on:
            row[WALL_END] = self._wall_ns()
        if cpu_on:
            row[CPU_END] = self._cpu_ns()
        return site, ftl

    def collocated_call_end(
        self,
        site: Site | None,
        ftl: FunctionTxLog | None,
        semantics: dict[str, Any] | None = None,
    ) -> None:
        """Fire probes 3 and 4 back-to-back at collocated call return.

        Takes :meth:`collocated_call_start`'s token unpacked
        (``collocated_call_end(*token)``). Like :meth:`stub_end` it
        re-reads the carrier's FTL; the token's is the fallback. Probe 3's
        end reading is probe 4's start reading, as at the start pair's seam.
        """
        if site is None:
            return
        config = self.config
        if not config.enabled:
            return
        wall_on, cpu_on, semantics_on = config.mode.flags
        wall = self._wall_ns() if wall_on else None
        cpu = self._cpu_ns() if cpu_on else None
        ftl = self._ftl_var.get() or self.bind_ftl(ftl)
        chain_uuid, thread_id = ftl.chain_uuid, _get_ident()
        seq = ftl.event_seq_no + 1
        ftl.event_seq_no = seq + 1
        row = [
            site, chain_uuid, seq, _SKEL_END, thread_id, _SYNC, True,
            wall, None, cpu, None, None, semantics if semantics_on else None,
        ]
        append = self.process.log_buffer.per_thread.append
        append(row)
        if _COUNTING:
            _PROBE_RECORDS[_SKEL_END].inc()
        # The seam: one reading ends the first record and starts the second.
        if wall_on:
            row[WALL_END] = wall = self._wall_ns()
        if cpu_on:
            row[CPU_END] = cpu = self._cpu_ns()
        row = [
            site, chain_uuid, seq + 1, _STUB_END, thread_id, _SYNC, True, wall, None, cpu,
            None, None, None,
        ]
        append(row)
        if _COUNTING:
            _PROBE_RECORDS[_STUB_END].inc()
        if wall_on:
            row[WALL_END] = self._wall_ns()
        if cpu_on:
            row[CPU_END] = self._cpu_ns()


def install_monitoring(
    process: SimProcess, config: MonitorConfig | None = None
) -> MonitoringRuntime:
    """Attach a monitoring runtime to a process (idempotent per process)."""
    if process.monitor is not None:
        raise MonitorError(f"process {process.name} already monitored")
    return MonitoringRuntime(process, config)
