"""Probe primitives shared by the monitoring runtime.

A probe activation has a uniform shape regardless of which of the four
probe points it implements:

1. sample the local wall clock and/or per-thread CPU counter,
2. manipulate the FTL (advance the event number, fork a child chain,
   store to / load from thread-specific storage),
3. log its record as a probe row (:mod:`repro.core.records`) through the
   process-local log buffer's per-thread append,
4. sample the clocks again and stamp the record's completion readings.

Steps 1 and 4 bracket the probe so the analyzer can subtract probe
overhead (the O_F term) from end-to-end latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.events import CallKind
from repro.core.ftl import FunctionTxLog
from repro.core.records import OperationInfo, Site


@dataclass(slots=True)
class CallContext:
    """State threaded from a start probe to the matching end probe.

    The stub keeps one across the request/reply round trip; the skeleton
    keeps one across the servant up-call. The start probes build it
    positionally, in field order. A fused collocated pair needs only the
    site and the FTL, and hands them over as a plain tuple instead.
    """

    op: OperationInfo
    #: The site the start probe resolved for ``op`` (see
    #: ``OperationInfo._site``): the end probe's record refers to the same.
    site: Site
    ftl: FunctionTxLog
    call_kind: CallKind
    collocated: bool
    #: For oneway stubs: the forked child chain's FTL (sent in the request).
    child_ftl: FunctionTxLog | None = None
    #: Wire payload of the FTL to transport with the request; ``None`` for
    #: a skeleton context and for a collocated call, which sends nothing.
    request_ftl_payload: bytes | None = None
