"""What a worker ships, and what the coordinator makes of it.

A sharded collector commits its collection as one *sealed* segment
(chain-grouped, arrival ranks in the footer); a worker's ``Shipment``
carries those bytes as they are, and the central re-ingest must recover
the worker's arrival order from the ranks, not from file order.
"""

import os
import struct

import pytest

from repro.collector.sharded import ShardedSpoolCollector
from repro.errors import StoreError
from repro.store import ScanStats, SegmentReader, SegmentStore
from repro.store.ingest import ingest_shipments, receive_shipment

from tests.helpers import Call, rows_of, simulate


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
    assert in_file_order != rows_of(records)
    assert sorted(map(repr, in_file_order)) == sorted(map(repr, rows_of(records)))
    # ...which the re-ingest recovers from the footer's ranks.
    assert shipment.records == rows_of(records)
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


def test_a_salvaged_shipped_segment_is_refused(tmp_path):
    """A shipped segment whose footer does not parse would be salvaged —
    its rows regrouped by chain, no longer in the worker's arrival order —
    and still match the manifest's record count: it must be refused."""
    processes, _records = worker_processes("8")
    shard = ShardedSpoolCollector(str(tmp_path / "spool"), retries=0, backoff_s=0.0)
    shard.collect(processes, run_id="w0")
    manifest = shard.manifest("w0")
    shard.seal()
    (data,) = shard.segments("w0")
    footer_off = struct.unpack_from("<Q", data, len(data) - 16)[0]
    damaged = bytearray(data)
    damaged[footer_off + 8] = 7  # the rank width code: no such width
    with pytest.raises(StoreError, match=r"shipped segment 000000\.seg .* dropped"):
        receive_shipment(manifest, [bytes(damaged)])
    # The undamaged bytes still arrive whole.
    assert receive_shipment(manifest, [data]).record_count == manifest["record_count"]
