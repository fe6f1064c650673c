"""What a worker ships, and what the coordinator makes of it.

A sharded collector commits its collection as one *sealed* segment
(chain-grouped, arrival ranks in the footer); a worker's ``Shipment``
carries those bytes as they are, and the central re-ingest must recover
the worker's arrival order from the ranks, not from file order.
"""

import os

from repro.collector.sharded import ShardedSpoolCollector
from repro.store import ScanStats, SegmentReader, SegmentStore
from repro.store.ingest import ingest_shipments, receive_shipment

from tests.helpers import Call, simulate


def worker_processes(prefix):
    """Two processes whose chains interleave in the drained buffers."""
    calls = [
        Call("Ship::outer", cpu_ns=500, children=(Call("Ship::inner", cpu_ns=200),)),
        Call("Ship::cast", cpu_ns=100, oneway=True),
        Call("Ship::outer", cpu_ns=300),
    ]
    sims = [
        simulate(calls * 3, fresh_chain_per_top_call=True, uuid_prefix=prefix + tag)
        for tag in ("a", "b")
    ]
    return [sim.process for sim in sims], [r for sim in sims for r in sim.records]


def ship(spool_dir, processes, run_id):
    """Collect ``processes`` on a shard and decode what it would ship;
    returns the shipped segment names and the decoded shipment."""
    shard = ShardedSpoolCollector(spool_dir, retries=0, backoff_s=0.0)
    shard.collect(processes, run_id=run_id)
    manifest = shard.manifest(run_id)
    shard.seal()
    names = sorted(os.listdir(os.path.join(spool_dir, "runs", run_id)))
    shipment = receive_shipment(manifest, shard.segments(run_id))
    return [name for name in names if name.endswith(".seg")], shipment


def test_a_shard_ships_one_sealed_segment_in_arrival_order(tmp_path):
    processes, records = worker_processes("5")
    spool_dir = str(tmp_path / "spool")
    names, shipment = ship(spool_dir, processes, "w0")
    assert names == ["000001.sealed.seg"]
    reader = SegmentReader(os.path.join(spool_dir, "runs", "w0", names[0]))
    try:
        assert reader.sealed and not reader.partial
        in_file_order = [
            r for _cid, _ranks, group in reader.scan(None, ScanStats()) for r in group
        ]
    finally:
        reader.close()
    # Chain-grouped on disk — so file order is not arrival order...
    assert in_file_order != records
    assert sorted(map(repr, in_file_order)) == sorted(map(repr, records))
    # ...which the re-ingest recovers from the footer's ranks.
    assert shipment.records == records
    assert shipment.record_count == len(records)


def test_ingested_shipments_leave_the_central_run_sealed(tmp_path):
    shipments, expected = [], []
    for index, prefix in enumerate(("6", "7")):
        processes, records = worker_processes(prefix)
        _names, shipment = ship(str(tmp_path / f"spool-{index}"), processes, f"w{index}")
        shipments.append(shipment)
        expected += records
    central = SegmentStore(str(tmp_path / "central"), auto_compact=0)
    try:
        assert ingest_shipments(central, "merged", shipments) == len(expected)
        state = central.compaction_state("merged")
        assert (state["segments"], state["compacted"]) == (1, True)
        assert central.compact("merged") is False
        # Worker order, each worker's arrival order within it.
        assert list(central.all_records("merged")) == expected
        (meta,) = central.runs()
        assert meta.extra["processes"] == ["sim", "sim", "sim", "sim"]
    finally:
        central.close()
