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
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.events import CallKind, TracingEvent
from repro.core.ftl import FunctionTxLog, new_chain, random_uuid_factory
from repro.core.probes import CallContext, ProbeSample
from repro.core.records import OperationInfo, ProbeRecord
from repro.errors import MonitorError
from repro.platform.process import SimProcess
from repro.telemetry.metrics import NULL_COUNTER, NULL_REGISTRY
from repro.telemetry.runtime import metrics_binder

_FTL_SLOT = "ftl"


def _no_cpu_counter() -> None:
    """Prebound stand-in for hosts without per-thread CPU counters."""
    return None

# Framework self-metrics (no-ops until repro.telemetry.enable()).
_PROBE_RECORDS = dict.fromkeys(TracingEvent, NULL_COUNTER)
_CHAINS_STARTED = NULL_COUNTER


@metrics_binder
def _bind_metrics(registry) -> None:
    global _CHAINS_STARTED
    registry = registry or NULL_REGISTRY
    family = registry.counter(
        "repro_probe_records_total",
        "Probe records written to process-local log buffers, by probe.",
        labels=("probe",),
    )
    for event in TracingEvent:
        _PROBE_RECORDS[event] = family.labels(event.name.lower())
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

    @property
    def samples_wall(self) -> bool:
        return self in (MonitorMode.LATENCY, MonitorMode.FULL)

    @property
    def samples_cpu(self) -> bool:
        return self in (MonitorMode.CPU, MonitorMode.FULL)

    @property
    def samples_semantics(self) -> bool:
        return self in (MonitorMode.SEMANTICS, MonitorMode.FULL)


#: Probe-path flag table: (samples_wall, samples_cpu, samples_semantics)
#: per mode, so a probe reads its three gates with one dict lookup
#: instead of three enum property calls.
_MODE_FLAGS = {
    _mode: (_mode.samples_wall, _mode.samples_cpu, _mode.samples_semantics)
    for _mode in MonitorMode
}


@dataclass
class MonitorConfig:
    """Configuration for one process's monitoring runtime."""

    mode: MonitorMode = MonitorMode.CAUSALITY
    enabled: bool = True
    uuid_factory: Callable[[], str] = random_uuid_factory
    extra: dict[str, Any] = field(default_factory=dict)


class MonitoringRuntime:
    """Probe implementation attached to one simulated process."""

    def __init__(self, process: SimProcess, config: MonitorConfig | None = None):
        self.process = process
        self.config = config if config is not None else MonitorConfig()
        process.monitor = self
        # Probe fast path: every record carries the same process/host
        # identity, and every sample reads the same (immutable) clock.
        # Prebinding both cuts attribute-chain walks out of the paper's
        # per-probe overhead term O_F. The monitor *mode* stays dynamic —
        # tests flip it mid-run — so it is re-read on each probe.
        host = process.host
        self._wall_ns = host.clock.wall_ns
        if host.capabilities.supports_thread_cpu:
            self._cpu_ns = host.clock.thread_cpu_ns
        else:
            self._cpu_ns = _no_cpu_counter
        self._process_name = process.name
        self._pid = process.pid
        self._host_name = host.name
        self._processor_type = host.processor_type.value
        self._platform = host.platform_kind.value

    # ------------------------------------------------------------------
    # Clock sampling

    def _sample(self) -> ProbeSample:
        wall, cpu, _ = _MODE_FLAGS[self.config.mode]
        return ProbeSample(
            self._wall_ns() if wall else None,
            self._cpu_ns() if cpu else None,
        )

    # ------------------------------------------------------------------
    # FTL / TSS plumbing

    def current_ftl(self) -> FunctionTxLog | None:
        """The FTL bound to the calling thread, if any."""
        return self.process.tss.get(_FTL_SLOT)

    def _ftl_for_call(self) -> FunctionTxLog:
        """Fetch the thread's FTL, starting a new chain at a root call."""
        ftl = self.process.tss.get(_FTL_SLOT)
        if ftl is None:
            ftl = new_chain(self.config.uuid_factory)
            self.process.tss.set(_FTL_SLOT, ftl)
            _CHAINS_STARTED.inc()
        return ftl

    def bind_ftl(self, ftl: FunctionTxLog) -> None:
        """Bind an FTL to the calling thread (used by channel hooks)."""
        self.process.tss.set(_FTL_SLOT, ftl)

    def unbind_ftl(self) -> FunctionTxLog | None:
        """Detach and return the calling thread's FTL (channel hooks)."""
        return self.process.tss.pop(_FTL_SLOT)

    # ------------------------------------------------------------------
    # Record construction

    def _make_record(
        self,
        op: OperationInfo,
        event: TracingEvent,
        ftl: FunctionTxLog,
        wall: int | None,
        cpu: int | None,
        call_kind: CallKind,
        collocated: bool,
        child_chain_uuid: str | None = None,
        semantics: dict[str, Any] | None = None,
    ) -> ProbeRecord:
        # Positional construction in declared field order: slotted
        # dataclass __init__ with keywords costs measurably more, and
        # this constructor runs four times per monitored invocation.
        record = ProbeRecord(
            ftl.chain_uuid,
            ftl.advance(),
            event,
            op.interface,
            op.operation,
            op.object_id,
            op.component,
            self._process_name,
            self._pid,
            self._host_name,
            threading.get_ident(),
            self._processor_type,
            self._platform,
            call_kind,
            collocated,
            op.domain,
            wall,
            None,
            cpu,
            None,
            child_chain_uuid,
            semantics,
        )
        self.process.log_buffer.append(record)
        _PROBE_RECORDS[event].inc()
        return record

    def _finish(self, record: ProbeRecord) -> None:
        wall, cpu, _ = _MODE_FLAGS[self.config.mode]
        record.wall_end = self._wall_ns() if wall else None
        record.cpu_end = self._cpu_ns() if cpu else None

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
        snapshot travels with the request. For oneway calls a *child*
        chain is forked; the parent chain records the link in this probe's
        record ("such a parent/child chain relationship is recorded in the
        stub start probes of the one-way function calls") and the child
        FTL travels with the request instead.
        """
        if not self.config.enabled:
            return None
        samples_wall, samples_cpu, samples_sem = _MODE_FLAGS[self.config.mode]
        wall = self._wall_ns() if samples_wall else None
        cpu = self._cpu_ns() if samples_cpu else None
        ftl = self._ftl_for_call()
        child_ftl: FunctionTxLog | None = None
        child_uuid: str | None = None
        if oneway:
            child_ftl = ftl.fork_child(self.config.uuid_factory)
            child_uuid = child_ftl.chain_uuid
        record = self._make_record(
            op,
            TracingEvent.STUB_START,
            ftl,
            wall,
            cpu,
            CallKind.ONEWAY if oneway else CallKind.SYNC,
            collocated,
            child_chain_uuid=child_uuid,
            semantics=semantics if samples_sem else None,
        )
        carried = child_ftl if oneway else ftl
        ctx = CallContext(
            op=op,
            ftl=ftl,
            call_kind=CallKind.ONEWAY if oneway else CallKind.SYNC,
            collocated=collocated,
            start_record=record,
            child_ftl=child_ftl,
            request_ftl_payload=carried.to_bytes(),
        )
        record.wall_end = self._wall_ns() if samples_wall else None
        record.cpu_end = self._cpu_ns() if samples_cpu else None
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
        hazard Section 2.2 describes and the channel hooks repair.
        """
        if ctx is None or not self.config.enabled:
            return
        samples_wall, samples_cpu, samples_sem = _MODE_FLAGS[self.config.mode]
        wall = self._wall_ns() if samples_wall else None
        cpu = self._cpu_ns() if samples_cpu else None
        ftl = self.process.tss.get(_FTL_SLOT)
        if ftl is None:
            # The thread lost its chain (possible only through misuse of
            # the runtime); fall back to the context's FTL so the record
            # is still attributable.
            ftl = ctx.ftl
            self.process.tss.set(_FTL_SLOT, ftl)
        if reply_ftl_payload is not None:
            returned = FunctionTxLog.from_bytes(reply_ftl_payload)
            # Adopt the event number the callee side advanced to. If the
            # UUIDs disagree the chains were intertwined; the record keeps
            # whatever the thread holds and the analyzer flags it.
            if returned.chain_uuid == ftl.chain_uuid:
                ftl.event_seq_no = returned.event_seq_no
        record = self._make_record(
            ctx.op,
            TracingEvent.STUB_END,
            ftl,
            wall,
            cpu,
            ctx.call_kind,
            ctx.collocated,
            semantics=semantics if samples_sem else None,
        )
        record.wall_end = self._wall_ns() if samples_wall else None
        record.cpu_end = self._cpu_ns() if samples_cpu else None

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
        thread may hold — observation O2), and records the event.

        For collocated calls the caller passes ``request_ftl_payload=None``
        and the skeleton continues with the FTL already bound to the
        (shared) thread.
        """
        if not self.config.enabled:
            return None
        samples_wall, samples_cpu, samples_sem = _MODE_FLAGS[self.config.mode]
        wall = self._wall_ns() if samples_wall else None
        cpu = self._cpu_ns() if samples_cpu else None
        if request_ftl_payload is not None:
            ftl = FunctionTxLog.from_bytes(request_ftl_payload)
            self.process.tss.set(_FTL_SLOT, ftl)
        else:
            ftl = self._ftl_for_call()
        record = self._make_record(
            op,
            TracingEvent.SKEL_START,
            ftl,
            wall,
            cpu,
            CallKind.ONEWAY if oneway else CallKind.SYNC,
            collocated,
            semantics=semantics if samples_sem else None,
        )
        ctx = CallContext(
            op=op,
            ftl=ftl,
            call_kind=CallKind.ONEWAY if oneway else CallKind.SYNC,
            collocated=collocated,
            start_record=record,
        )
        record.wall_end = self._wall_ns() if samples_wall else None
        record.cpu_end = self._cpu_ns() if samples_cpu else None
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
        for oneway calls, which have no reply).
        """
        if ctx is None or not self.config.enabled:
            return None
        samples_wall, samples_cpu, samples_sem = _MODE_FLAGS[self.config.mode]
        wall = self._wall_ns() if samples_wall else None
        cpu = self._cpu_ns() if samples_cpu else None
        ftl = self.process.tss.get(_FTL_SLOT)
        if ftl is None:
            ftl = ctx.ftl
            self.process.tss.set(_FTL_SLOT, ftl)
        record = self._make_record(
            ctx.op,
            TracingEvent.SKEL_END,
            ftl,
            wall,
            cpu,
            ctx.call_kind,
            ctx.collocated,
            semantics=semantics if samples_sem else None,
        )
        record.wall_end = self._wall_ns() if samples_wall else None
        record.cpu_end = self._cpu_ns() if samples_cpu else None
        if ctx.call_kind is CallKind.ONEWAY:
            return None
        return ftl.to_bytes()

    # ------------------------------------------------------------------
    # Convenience wrappers for collocated (degenerate) probe pairs

    def collocated_call_start(
        self, op: OperationInfo, semantics: dict[str, Any] | None = None
    ) -> tuple[CallContext | None, CallContext | None]:
        """Fire probes 1 and 2 back-to-back for a collocated invocation.

        With collocation optimization the stub locates the servant
        directly, so "both stub start and skeleton start probes are
        triggered before the execution falls into the user-defined
        function implementation" (Section 2.2).
        """
        stub_ctx = self.stub_start(op, collocated=True, semantics=semantics)
        skel_ctx = self.skel_start(op, None, collocated=True)
        return stub_ctx, skel_ctx

    def collocated_call_end(
        self,
        stub_ctx: CallContext | None,
        skel_ctx: CallContext | None,
        semantics: dict[str, Any] | None = None,
    ) -> None:
        """Fire probes 3 and 4 back-to-back at collocated call return."""
        self.skel_end(skel_ctx, semantics=semantics)
        self.stub_end(stub_ctx, None)


def install_monitoring(
    process: SimProcess, config: MonitorConfig | None = None
) -> MonitoringRuntime:
    """Attach a monitoring runtime to a process (idempotent per process)."""
    if process.monitor is not None:
        raise MonitorError(f"process {process.name} already monitored")
    return MonitoringRuntime(process, config)
