"""Causality reconstruction — the Figure-4 state machine.

For each Function UUID, the analyzer scans the event records in ascending
event-number order — as *rows*, the tuples a store decodes (the fields a
probe logged, in ``ProbeRecord.__slots__`` order) — and rebuilds the call
hierarchy, "similar to the compiler parsing that creates an abstract
syntax tree and performs type checking". The machine is a pushdown automaton: starts open a frame,
matching ends close it, and the event repeating patterns of Table 1
uniquely determine sibling versus parent/child structure.

Transitions (solid lines in Figure 4 = synchronous, dashed = oneway):

- ``F.stub_start``  → push a new frame as a child of the open frame.
- ``F.skel_start``  → attach to the open frame (sync), or open a
  skeleton-side oneway root when the chain begins with it.
- ``F.skel_end``    → attach; closes a skeleton-side oneway frame.
- ``F.stub_end``    → attach and pop the frame (sync return, or
  stub-side oneway return).

Any record fitting none of these takes the "abnormal" transition: the
analyzer records the failure and restarts from the next log record
(Section 3.1). Mingled causal chains — the COM STA hazard of Section 2.2
— surface as abnormal events, which is how the benchmarks count them.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.events import CallKind, TracingEvent
from repro.core.records import ProbeRecord, as_row, from_row
from repro.analysis.dscg import AbnormalEvent, CallNode, ChainTree, Dscg

if TYPE_CHECKING:
    from repro.store.backend import StorageBackend
    from repro.store.query import ScanPredicate


# Read by ``ChainBuilder.apply`` on every row; one global lookup each.
_STUB_START = TracingEvent.STUB_START
_SKEL_START = TracingEvent.SKEL_START
_SKEL_END = TracingEvent.SKEL_END
_STUB_END = TracingEvent.STUB_END
_ONEWAY = CallKind.ONEWAY


class ChainBuilder:
    """Incremental Figure-4 pushdown automaton for one causal chain.

    Both reconstruction paths run through this class: the batch analyzer
    (:func:`reconstruct_chain`) applies a pre-sorted row list, and the
    streaming reconstructor (:mod:`repro.analysis.streaming`) applies
    records one at a time, as rows, as they arrive. A single transition
    implementation is what makes the streaming engine's final chain set
    bit-identical to the batch analyzer's on the same record sequence.

    :meth:`apply` returns the :class:`CallNode` whose measured frame the
    row *closed* (sync/stub-side return at ``stub_end``, skeleton-only
    frame at ``skel_end``), or ``None`` — the hook live detectors use to
    observe completions without re-walking the tree.
    """

    __slots__ = ("tree", "stack", "finished")

    def __init__(self, chain_uuid: str):
        self.tree = ChainTree(chain_uuid)
        self.stack: list[CallNode] = []
        self.finished = False

    def _abnormal(self, reason: str, row) -> None:
        # The one place a record is built: an abnormal event carries it.
        self.tree.flag(
            AbnormalEvent(self.tree.chain_uuid, row[2], reason, from_row(row))
        )

    def apply(self, row) -> CallNode | None:
        """Advance the machine with one row (a record's fields in
        ``ProbeRecord.__slots__`` order); return the closed frame."""
        (site, chain_uuid, seq, event, tid, call_kind, collocated,
         ws, we, cs, ce, child, sem) = row
        # The reading: what the row says that its frame does not already
        # hold (repro.analysis.dscg's index order), an exact tuple of atoms
        # so the collector stops tracking it.
        reading = (
            seq, site.process, site.pid, site.host, tid, site.processor_type,
            site.platform, ws, we, cs, ce, child, sem,
        )
        stack = self.stack
        top = stack[-1] if stack else None

        if event is _STUB_START:
            node = CallNode(
                site.interface, site.operation, site.object_id, site.component,
                chain_uuid, call_kind, collocated, site.domain,
                "stub" if call_kind is _ONEWAY else "", forked_chain_uuid=child,
            )
            node.stub_start = reading
            if top is not None:
                top.add_child(node)
            else:
                self.tree.roots.append(node)
            stack.append(node)
            return None

        # Every other transition needs the row to be of the open frame's call.
        fits = (
            top is not None
            and top.interface == site.interface
            and top.operation == site.operation
            and top.object_id == site.object_id
        )

        if event is _SKEL_START:
            if fits and top.stub_start is not None and top.skel_start is None:
                top.skel_start = reading
            elif top is None:
                # Chain begins at a skeleton: either the skeleton side of a
                # oneway fork (the dashed Figure-4 path) or a sync call
                # whose client process is unmonitored.
                node = CallNode(
                    site.interface, site.operation, site.object_id, site.component,
                    chain_uuid, call_kind, collocated, site.domain,
                    "skel" if call_kind is _ONEWAY else "", forked_chain_uuid=child,
                )
                node.skel_start = reading
                if call_kind is not _ONEWAY:
                    node.partial = True
                self.tree.roots.append(node)
                stack.append(node)
            else:
                self._abnormal(
                    f"skel_start for {site.interface}::{site.operation} does not"
                    f" match open frame {top.function if top else '<none>'}",
                    row,
                )
            return None

        if event is _SKEL_END:
            if fits and top.skel_start is not None and top.skel_end is None:
                top.skel_end = reading
                # A skeleton-side frame with no stub side closes here:
                # oneway skeleton-side return, or an unmonitored client.
                if top.stub_start is None:
                    return stack.pop()
            else:
                self._abnormal(
                    f"skel_end for {site.interface}::{site.operation} without"
                    " a matching open skel_start",
                    row,
                )
            return None

        if event is _STUB_END:
            if fits and top.stub_start is not None and top.stub_end is None:
                top.stub_end = reading
                if top.call_kind is not _ONEWAY and (
                    top.skel_start is None or top.skel_end is None
                ):
                    # Sync call whose server side produced no records
                    # (unmonitored peer process).
                    top.partial = True
                return stack.pop()
            self._abnormal(
                f"stub_end for {site.interface}::{site.operation} does not"
                f" close open frame {top.function if top else '<none>'}",
                row,
            )
        return None

    def finish(self) -> ChainTree:
        """Salvage any still-open frames and return the chain tree."""
        if not self.finished:
            self.finished = True
            for leftover in self.stack:
                # Salvage, not discard: the frame keeps its place in the
                # tree but is flagged partial so latency math and reports
                # can exclude it.
                leftover.partial = True
                reason = f"call {leftover.function} never completed (missing end events)"
                self.tree.flag(AbnormalEvent(self.tree.chain_uuid, -1, reason))
        return self.tree


def reconstruct_chain(chain_uuid: str, rows: Sequence) -> ChainTree:
    """Unfold one chain's rows, sorted by event number, into a tree Ti."""
    builder = ChainBuilder(chain_uuid)
    for row in rows:
        builder.apply(row)
    return builder.finish()


def reconstruct_from_records(records: Iterable[ProbeRecord]) -> Dscg:
    """Build a DSCG directly from in-memory records (tests, small runs)."""
    by_chain: dict[str, list[list]] = defaultdict(list)
    for record in records:
        by_chain[record.chain_uuid].append(as_row(record))
    dscg = Dscg()
    for chain_uuid, rows in by_chain.items():
        rows.sort(key=lambda row: row[2])
        dscg.add_chain(reconstruct_chain(chain_uuid, rows))
    dscg.link_chains()
    return dscg


def reconstruct_range(
    database: "StorageBackend",
    run_id: str,
    predicate: "ScanPredicate | None" = None,
    first_chain: str | None = None,
    last_chain: str | None = None,
) -> list[ChainTree]:
    """Rebuild, in uuid order, the chains of one inclusive chain-uuid
    range of a run — by default all of it. The one per-chain loop: the
    whole of :func:`reconstruct`, and one shard of ``reconstruct_sharded``."""
    return [
        reconstruct_chain(chain_uuid, rows)
        for chain_uuid, rows in database.chains_for_run(
            run_id, first_chain=first_chain, last_chain=last_chain, predicate=predicate
        )
    ]


def reconstruct(
    database: "StorageBackend",
    run_id: str,
    predicate: "ScanPredicate | None" = None,
) -> Dscg:
    """Build the DSCG for one collected run.

    The two standard queries of Section 3.1 are fused into one grouped
    scan (``chains_for_run`` on any :class:`~repro.store.StorageBackend`)
    that streams each chain's sorted rows in turn — no per-chain query
    round-trip. Both backends honor the same ordering contract, so the
    DSCG is bit-identical whether the run lives in SQLite or in the
    segment store.

    One serial pass — chains are independent, but a thread pool over them
    never measured faster under the GIL (:mod:`repro.analysis.parallel`).
    The annotations are left to their first read (see
    :class:`~repro.analysis.dscg.CallNode`).

    ``predicate`` pushes a :class:`~repro.store.ScanPredicate` down into
    the backend scan, reconstructing only matching records (entire
    segments and chain groups are pruned before decode on the segment
    store). A chain-structure predicate — e.g. a time window that cuts
    calls in half — can of course surface as abnormal events; that is
    the record stream the caller asked to analyze.
    """
    dscg = Dscg()
    for tree in reconstruct_range(database, run_id, predicate):
        dscg.add_chain(tree)
    dscg.link_chains()
    return dscg
