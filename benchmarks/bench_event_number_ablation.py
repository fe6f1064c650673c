"""Section 5 ablation — the FTL's event number is load-bearing.

"From Sections 2 and 3, it is clear that without the additional event
number in the FTL, the full causality relationship reconstruction into a
call graph is impossible."

A UUID alone groups records into a chain but provides no order. This
ablation strips the event numbers (records arrive in arbitrary log-
collection order, as they would from unsynchronized per-process buffers)
and measures how much call structure survives reconstruction, compared
with the full FTL.
"""

import random

from repro.analysis import reconstruct_from_records
from repro.core import MonitorMode
from repro.core.records import as_row, from_row
from tests.helpers import Call, simulate


def _workload_records():
    def nested(levels, tag):
        if levels == 0:
            return ()
        return (Call(f"I::{tag}{levels}", cpu_ns=10, children=nested(levels - 1, tag)),)

    calls = [
        Call(f"I::root{i}", cpu_ns=10, children=nested(4, chr(ord("a") + i)))
        for i in range(6)
    ]
    sim = simulate(calls, mode=MonitorMode.CAUSALITY, fresh_chain_per_top_call=True)
    return sim.records


def _strip_event_numbers(records, seed=7):
    """The ablated carrier: UUID only. Collection order is arbitrary, so
    we shuffle within each chain and renumber by arrival."""
    rng = random.Random(seed)
    by_chain = {}
    for record in records:
        by_chain.setdefault(record.chain_uuid, []).append(record)
    ablated = []
    for chain_records in by_chain.values():
        shuffled = list(chain_records)
        rng.shuffle(shuffled)
        for arrival, record in enumerate(shuffled):
            clone = from_row(as_row(record))
            clone.event_seq = arrival  # order information is gone
            ablated.append(clone)
    return ablated


def test_event_number_ablation(benchmark, reporter):
    records = _workload_records()
    full = reconstruct_from_records(records)
    ablated_records = _strip_event_numbers(records)
    ablated = benchmark.pedantic(
        reconstruct_from_records, args=(ablated_records,), rounds=3, iterations=1
    )

    full_stats = full.stats()
    ablated_stats = ablated.stats()
    reporter.section("Sec. 5 ablation: FTL with vs without the event number")
    reporter.line(f"  probe records            : {len(records)}")
    reporter.line(f"  full FTL   : {full_stats['nodes']} nodes,"
                  f" max depth {full_stats['max_depth']},"
                  f" {full_stats['abnormal_events']} abnormal")
    reporter.line(f"  UUID only  : {ablated_stats['nodes']} nodes,"
                  f" max depth {ablated_stats['max_depth']},"
                  f" {ablated_stats['abnormal_events']} abnormal")
    reporter.line("  -> without event numbers the state machine cannot order the")
    reporter.line("     chain: reconstruction degrades to abnormal-event noise")

    assert full_stats["abnormal_events"] == 0
    assert full_stats["max_depth"] == 5
    # The ablated carrier must visibly fail: either a flood of abnormal
    # transitions or a collapsed/garbled hierarchy.
    assert (
        ablated_stats["abnormal_events"] > 0
        or ablated_stats["max_depth"] != full_stats["max_depth"]
    )
