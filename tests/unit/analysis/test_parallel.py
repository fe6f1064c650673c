"""Unit tests for the sharded analyzer.

The contract: ``reconstruct_sharded`` yields what the serial single-scan
``reconstruct`` yields — identical DSCG, identical chain order,
identical serialized JSON — over exactly ``min(workers, chains)`` shard
scans, and worker failures surface as exceptions rather than silently
dropped chains.
"""

import pytest

from repro.analysis import (
    dscg_to_json,
    end_to_end_latency,
    reconstruct,
    reconstruct_sharded,
    self_cpu,
)
from repro.analysis.parallel import shard_bounds
import repro.analysis.parallel as parallel_mod
from repro.collector import collect_run
from repro.core import CallKind, Domain, MonitorMode, ProbeRecord, Site, TracingEvent
from repro.store import MonitoringDatabase
from tests.helpers import Call, simulate


def _mingled_record(chain, seq):
    """A stray skel_end that violates the Figure-4 machine (STA mingling)."""
    return ProbeRecord(
        chain_uuid=chain,
        event_seq=seq,
        event=TracingEvent.SKEL_END,
        site=Site(
            interface="Rogue",
            operation="mingled",
            object_id="rogue.obj",
            component="Rogue",
            process="sim",
            pid=1,
            host="sim-host",
            processor_type="PA-RISC",
            platform="HPUX 11",
            domain=Domain.CORBA,
        ),
        thread_id=9,
        call_kind=CallKind.SYNC,
        collocated=False,
        wall_start=1,
        wall_end=2,
    )


def _collected_workload(tmp_path, filename="run.db"):
    """A multi-chain workload with sync, oneway, collocated and abnormal."""
    calls = [
        Call("A::f", cpu_ns=100, children=(
            Call("B::g", cpu_ns=50),
            Call("C::h", cpu_ns=25, collocated=True),
        )),
        Call("A::f", cpu_ns=10, children=(Call("D::k", oneway=True, cpu_ns=5),)),
        Call("B::g", cpu_ns=70),
        Call("E::m", cpu_ns=30, children=(Call("E::n", cpu_ns=10),)),
    ]
    sim = simulate(calls, mode=MonitorMode.FULL, fresh_chain_per_top_call=True)
    # Two mingled chains: a fresh chain that starts with a stray skel_end,
    # and a corrupted tail on an otherwise clean chain.
    sim.process.log_buffer.append(_mingled_record("ff" * 16, 0))
    first_chain = sim.records[0].chain_uuid
    last_seq = max(r.event_seq for r in sim.records if r.chain_uuid == first_chain)
    sim.process.log_buffer.append(_mingled_record(first_chain, last_seq + 1))
    database, run_id = collect_run(
        [sim.process], database=MonitoringDatabase(str(tmp_path / filename))
    )
    return database, run_id


class TestEquivalence:
    def test_parallel_equals_serial_file_backed(self, tmp_path):
        database, run_id = _collected_workload(tmp_path)
        serial = reconstruct(database, run_id)
        parallel = reconstruct_sharded(database, run_id, workers=3)
        assert list(parallel.chains) == list(serial.chains)
        assert dscg_to_json(parallel) == dscg_to_json(serial)
        assert len(serial.abnormal_events()) >= 2  # the mingled chains

    def test_parallel_equals_serial_memory_fallback(self):
        calls = [Call("A::f", children=(Call("B::g"),)), Call("C::h")]
        sim = simulate(calls, fresh_chain_per_top_call=True)
        database, run_id = collect_run([sim.process])
        assert database.path == ":memory:"
        serial = reconstruct(database, run_id)
        parallel = reconstruct_sharded(database, run_id, workers=4)
        assert dscg_to_json(parallel) == dscg_to_json(serial)

    def test_annotation_matches_serial(self, tmp_path):
        database, run_id = _collected_workload(tmp_path)
        serial = reconstruct(database, run_id)
        parallel = reconstruct_sharded(database, run_id, workers=3)
        for uuid, tree in serial.chains.items():
            other = parallel.chains[uuid].walk()
            for node, twin in zip(tree.walk(), other):
                assert end_to_end_latency(node) == end_to_end_latency(twin)
                assert self_cpu(node) == self_cpu(twin)

    def test_more_workers_than_chains(self, tmp_path):
        database, run_id = _collected_workload(tmp_path)
        parallel = reconstruct_sharded(database, run_id, workers=64)
        assert dscg_to_json(parallel) == dscg_to_json(reconstruct(database, run_id))

    def test_empty_run(self, tmp_path):
        database = MonitoringDatabase(str(tmp_path / "empty.db"))
        from repro.core import RunMetadata

        database.create_run(RunMetadata(run_id="r0"))
        dscg = reconstruct_sharded(database, "r0", workers=4)
        assert dscg.chains == {}


class TestPoolWidth:
    """The width is the caller's number — never the host's core count."""

    @pytest.fixture
    def collected(self, tmp_path, monkeypatch):
        """(database, run_id, shard scans): every bounded scan is noted."""
        database, run_id = _collected_workload(tmp_path)
        scans = []
        real = database.chains_for_run

        def counting(run_id, first_chain=None, last_chain=None, predicate=None):
            scans.append((first_chain, last_chain))
            return real(run_id, first_chain, last_chain, predicate)

        monkeypatch.setattr(database, "chains_for_run", counting)
        return database, run_id, scans

    @pytest.mark.parametrize("workers", [1, 2, 4, 6, 64])
    def test_runs_exactly_min_workers_chains_shard_scans(self, collected, workers):
        database, run_id, scans = collected
        chains = database.unique_chain_uuids(run_id)
        assert len(chains) == 6
        reconstruct_sharded(database, run_id, workers=workers)
        assert sorted(scans) == shard_bounds(chains, workers)
        assert len(scans) == min(workers, len(chains))

    @pytest.mark.parametrize("workers", [0, -1])
    def test_width_below_one_is_rejected(self, collected, workers):
        database, run_id, scans = collected
        with pytest.raises(ValueError, match="workers must be >= 1"):
            reconstruct_sharded(database, run_id, workers=workers)
        assert scans == []


class TestShardBounds:
    def test_partition_covers_all_uuids(self):
        uuids = [f"{i:04x}" for i in range(17)]
        bounds = shard_bounds(uuids, 4)
        assert len(bounds) == 4
        covered = []
        for lo, hi in bounds:
            covered.extend(u for u in uuids if lo <= u <= hi)
        assert covered == uuids  # disjoint, ordered, complete

    def test_clamps_to_chain_count(self):
        assert len(shard_bounds(["a", "b"], 8)) == 2
        assert shard_bounds([], 4) == []

    def test_single_shard(self):
        assert shard_bounds(["a", "b", "c"], 1) == [("a", "c")]


class TestFailureSurfacing:
    def test_worker_exception_propagates(self, tmp_path, monkeypatch):
        database, run_id = _collected_workload(tmp_path)

        def explode(chain_uuid, records):
            raise RuntimeError(f"worker died on {chain_uuid}")

        monkeypatch.setattr(
            parallel_mod.statemachine, "reconstruct_chain", explode
        )
        with pytest.raises(RuntimeError, match="worker died"):
            reconstruct_sharded(database, run_id, workers=3)

    def test_partial_failure_does_not_drop_chains(self, tmp_path, monkeypatch):
        """A failure in one shard must not yield a silently truncated DSCG."""
        database, run_id = _collected_workload(tmp_path)
        real = parallel_mod.statemachine.reconstruct_chain
        calls = {"n": 0}

        def flaky(chain_uuid, records):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ValueError("flaky shard")
            return real(chain_uuid, records)

        monkeypatch.setattr(parallel_mod.statemachine, "reconstruct_chain", flaky)
        with pytest.raises(ValueError, match="flaky shard"):
            reconstruct_sharded(database, run_id, workers=2)
