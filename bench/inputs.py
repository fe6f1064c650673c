"""Everything made from ``--seed``: synthetic captures, arrival orders,
query predicates. The program under test sees only these inputs, never
the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.core import (
    MonitorConfig,
    MonitoringRuntime,
    MonitorMode,
    OperationInfo,
    ProbeRecord,
    SequentialUuidFactory,
)
from repro.platform import Host, SimProcess, VirtualClock
from repro.store import ScanPredicate

#: The synthetic hosts' virtual clock starts here (ns), far above any real
#: monotonic reading, so a time window placed on synthetic records never
#: overlaps a real-clock chain and its pruning counts repeat exactly.
#: hostB reads the same clock ``HOST_SKEW_NS`` ahead (unsynchronized
#: hosts), and the clock idles ``ROUND_GAP_NS`` between two captures.
SYNTHETIC_EPOCH_NS = 10**18
HOST_SKEW_NS = 2_000_000
ROUND_GAP_NS = 1_000_000_000

FLAT_SHARE, NESTED_SHARE = 0.70, 0.20  # the rest are oneway forks


@dataclass
class Capture:
    """One round's synthetic records, per process, and their closed form."""

    per_process: list[list[ProbeRecord]]
    nodes: int
    chains: int


class SyntheticSource:
    """Drives the four real probes on four processes over two hosts.

    No fake records: each chain is a sequence of ``stub_start`` /
    ``skel_start`` / ``skel_end`` / ``stub_end`` calls on virtual clocks
    (wall and CPU readings, ``MonitorMode.FULL``), so the records are
    exactly what an instrumented run of that call tree would log.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._clock = VirtualClock(SYNTHETIC_EPOCH_NS)
        hosts = [
            Host("hostA", clock=self._clock),
            Host("hostB", clock=self._clock, clock_skew_ns=HOST_SKEW_NS),
        ]
        self.processes = [SimProcess(f"syn{i}", hosts[i % 2]) for i in range(4)]
        uuid_factory = SequentialUuidFactory("5e")
        self._monitors = [
            MonitoringRuntime(
                process, MonitorConfig(mode=MonitorMode.FULL, uuid_factory=uuid_factory)
            )
            for process in self.processes
        ]
        self._ops = [
            OperationInfo(f"Syn::Iface{i}", f"op{j}", f"obj-{i}", f"Comp{i}")
            for i in range(8)
            for j in range(5)
        ]

    def capture(self, chains: int) -> Capture:
        rng = self._rng
        monitors, ops = self._monitors, self._ops
        work = self._clock.consume  # virtual CPU + wall, in ns
        self._clock.idle(ROUND_GAP_NS)
        nodes = forks = 0
        for _ in range(chains):
            caller, servant, inner_servant = (monitors[i] for i in rng.sample(range(4), 3))
            op = ops[rng.randrange(40)]
            shape = rng.random()
            if shape < FLAT_SHARE + NESTED_SHARE:
                stub = caller.stub_start(op)
                work(20_000)
                skel = servant.skel_start(op, stub.request_ftl_payload)
                work(100_000 + rng.randrange(400_000))
                if shape >= FLAT_SHARE:
                    inner_op = ops[rng.randrange(40)]
                    inner_stub = servant.stub_start(inner_op)
                    inner_skel = inner_servant.skel_start(
                        inner_op, inner_stub.request_ftl_payload
                    )
                    work(50_000 + rng.randrange(200_000))
                    inner_reply = inner_servant.skel_end(inner_skel)
                    inner_servant.unbind_ftl()
                    servant.stub_end(inner_stub, inner_reply)
                    work(30_000)
                    nodes += 1
                reply = servant.skel_end(skel)
                servant.unbind_ftl()
                work(30_000)
                caller.stub_end(stub, reply)
                caller.unbind_ftl()
                nodes += 1
            else:
                stub = caller.stub_start(op, oneway=True)
                caller.stub_end(stub, None)
                caller.unbind_ftl()
                skel = servant.skel_start(op, stub.request_ftl_payload, oneway=True)
                work(70_000 + rng.randrange(100_000))
                servant.skel_end(skel)
                servant.unbind_ftl()
                nodes += 2  # stub side in the parent chain, skeleton side in the child
                forks += 1
        return Capture(
            [process.log_buffer.drain() for process in self.processes], nodes, chains + forks
        )

    def load(self, capture: Capture) -> None:
        """Put one round's records back into the process log buffers."""
        for process, batch in zip(self.processes, capture.per_process):
            append = process.log_buffer.append
            for record in batch:
                append(record)


def arrival_order(
    records: list[ProbeRecord], seed: int, interleave: int, reorder: float
) -> tuple[list[ProbeRecord], list[ProbeRecord]]:
    """(in-order stream, locally reordered stream) of one capture.

    Chains arrive ``interleave`` at a time, each in event order, the next
    record coming from a seeded choice among the chains in flight; in the
    second stream a ``reorder`` share of the records is additionally
    delivered late, by up to ``interleave`` positions — a process buffer
    polled a moment after its peers — so a late record holds its chain's
    successors in the consumer's pending buffer until it lands.
    """
    rng = random.Random(seed)
    by_chain: dict[str, list[ProbeRecord]] = {}
    for record in records:
        by_chain.setdefault(record.chain_uuid, []).append(record)
    waiting = []
    for uuid in sorted(by_chain):
        chain = by_chain[uuid]
        chain.sort(key=lambda r: r.event_seq)
        waiting.append(iter(chain))
    waiting.reverse()
    in_flight = [waiting.pop() for _ in range(min(interleave, len(waiting)))]
    stream: list[ProbeRecord] = []
    while in_flight:
        slot = rng.randrange(len(in_flight))
        record = next(in_flight[slot], None)
        if record is not None:
            stream.append(record)
        elif waiting:
            in_flight[slot] = waiting.pop()
        else:
            in_flight.pop(slot)
    late = list(stream)
    for i in range(len(late) - 1):
        if rng.random() < reorder:
            landing = min(len(late) - 1, i + 1 + rng.randrange(interleave))
            late.insert(landing, late.pop(i))
    return stream, late


@dataclass
class QueryPlan:
    """Seeded predicates over one stored run, per shape."""

    time_window: list[ScanPredicate]
    operation: list[ScanPredicate]
    chain_prefix: list[ScanPredicate]


def query_plan(records: list[ProbeRecord], seed: int, count: int) -> QueryPlan:
    """``count`` predicates per shape, spread evenly over the run.

    Each shape's predicates are stratified — one per equal slice of the
    timeline, of the function list, of the chain list — with the seed
    choosing only the position inside each slice, so that a shape's
    median query time does not depend on where a seed happens to cluster.
    """
    rng = random.Random(seed)

    def stratified(population: int) -> list[int]:
        # With fewer members than slices the seed has nothing to choose:
        # the split between members must not flip from seed to seed.
        return [
            int((k + (rng.random() if population > count else 0.5)) * population / count)
            for k in range(count)
        ]

    anchors = sorted(
        r.wall_start for r in records
        if r.wall_start is not None and r.wall_start >= SYNTHETIC_EPOCH_NS
    ) or sorted(r.wall_start for r in records if r.wall_start is not None)
    width = max(1, len(anchors) // 100)  # 1 % of the records, by rank
    windows = [
        ScanPredicate(ts_min=anchors[lo], ts_max=anchors[lo + width])
        for lo in stratified(len(anchors) - width)
    ]

    functions = sorted({(r.interface, r.operation) for r in records})
    operations = [
        ScanPredicate(interfaces={interface}, operations={operation})
        for interface, operation in (functions[i] for i in stratified(len(functions)))
    ]

    chains = sorted({r.chain_uuid for r in records})
    # Sequential uuids share leading digits; dropping ``drop`` trailing hex
    # digits selects up to 16**drop neighbours — aim at ~0.5 % of the chains.
    drop = max(1, round(math.log(max(16.0, 0.005 * len(chains)), 16)))
    prefixes = [
        ScanPredicate(chain_prefix=chains[i][:-drop]) for i in stratified(len(chains))
    ]
    return QueryPlan(windows, operations, prefixes)
