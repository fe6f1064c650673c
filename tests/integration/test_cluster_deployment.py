"""Multi-process cluster deployment: identity, liveness, loss balance.

Every test here launches real worker OS processes wired over real TCP
sockets. The headline claim is bit-identity — the cluster's collected
run reconstructs to byte-for-byte the same DSCG JSON and CCSG XML as the
single-interpreter reference — and the failure-path claim is that loss
accounting still balances when a worker is SIGKILLed mid-flight: its
buffered records are charged to ``records_uncollected`` from its last
heartbeat, so ``stored + uncollected == produced`` cluster-wide.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.cluster import Cluster
from repro.cluster.identity import run_identity_check
from repro.cluster.workload import driver_name, server_name
from repro.store import SegmentStore

#: Records per monitored ring call: request + reply on the driver side,
#: request + reply on the serving side (latency mode).
RECORDS_PER_CALL = 4


def _run_meta(store, run_id):
    return next(m for m in store.runs() if m.run_id == run_id)


class TestClusterIdentity:
    def test_cluster_matches_single_process_bit_for_bit(self, tmp_path):
        outcome = run_identity_check(2, 3, str(tmp_path))
        assert outcome["checks"]["identical"], outcome["checks"]
        # The comparison only proves cluster == reference; pin both to
        # the expected shape so an empty run can't vacuously pass.
        assert outcome["cluster"]["records"] == 2 * 3 * RECORDS_PER_CALL
        assert outcome["cluster"]["processes"] == [
            "driver-00", "server-00", "driver-01", "server-01",
        ]
        loss = outcome["cluster"]["loss"]
        assert loss["records_uncollected"] == 0
        assert loss["records_dropped_at_probe"] == 0
        assert loss["records_lost_in_delivery"] == 0


class TestKillNineAccounting:
    def test_sigkill_charges_uncollected_and_balances(self, tmp_path):
        calls = 3
        store = SegmentStore(str(tmp_path / "central"))
        try:
            cluster = Cluster(2, spool_root=str(tmp_path))
            cluster.up()
            try:
                replies = cluster.run_calls(calls)
                assert sum(r["errors"] for r in replies) == 0
                # The done replies carried buffer occupancy, so the
                # coordinator knows exactly what worker 1 held.
                doomed = cluster.handles[1]
                produced = sum(
                    sum(h.last_buffered.values()) for h in cluster.handles
                )
                assert produced == 2 * calls * RECORDS_PER_CALL
                expected_uncollected = sum(doomed.last_buffered.values())
                assert expected_uncollected > 0
                cluster.kill(1)
                stored = cluster.collect(store, "after-kill")
            finally:
                cluster.down()
            meta = _run_meta(store, "after-kill")
            loss = meta.extra["loss"]
            assert loss["records_uncollected"] == expected_uncollected
            assert sorted(loss["failed_drains"]) == sorted(
                [driver_name(1), server_name(1)]
            )
            # The balance that makes the loss report trustworthy:
            assert stored + loss["records_uncollected"] == produced
            assert stored == store.record_count("after-kill")
            # Survivors' processes still collected in ring order.
            assert meta.extra["processes"][:2] == [
                driver_name(0), server_name(0),
            ]
        finally:
            store.close()

    def test_unanswering_worker_is_charged_and_the_rest_collected(self, tmp_path):
        # A stopped worker never answers ``collect``: after the timeout it
        # is charged like a dead one, and the live worker's records land.
        store = SegmentStore(str(tmp_path / "central"))
        try:
            cluster = Cluster(2, spool_root=str(tmp_path))
            cluster.up()
            try:
                cluster.run_calls(2)
                held = [sum(h.last_buffered.values()) for h in cluster.handles]
                os.kill(cluster.handles[1].pid, signal.SIGSTOP)
                stored = cluster.collect(store, "stopped", timeout=5.0)
                cluster.kill(1)
            finally:
                cluster.down()
            loss = _run_meta(store, "stopped").extra["loss"]
            assert stored == held[0] == 2 * RECORDS_PER_CALL
            assert store.record_count("stopped") == stored
            assert loss["records_uncollected"] == held[1] == 2 * RECORDS_PER_CALL
            assert sorted(loss["failed_drains"]) == [driver_name(1), server_name(1)]
        finally:
            store.close()

    def test_dead_neighbour_fails_fast_not_hang(self, tmp_path):
        # The ring survivor's next call lands on a reset TCP connection;
        # it must surface as a counted error promptly, not a hang.
        store = SegmentStore(str(tmp_path / "central"))
        try:
            cluster = Cluster(2, spool_root=str(tmp_path))
            cluster.up()
            try:
                cluster.kill(1)
                replies = cluster.run_calls(1, timeout=30.0)
                assert len(replies) == 1  # only the survivor was driven
                assert replies[0]["errors"] == 1
            finally:
                cluster.down()
        finally:
            store.close()


class TestGracefulDrain:
    def test_sigterm_ships_final_spools(self, tmp_path):
        calls = 2
        store = SegmentStore(str(tmp_path / "central"))
        try:
            cluster = Cluster(2, spool_root=str(tmp_path))
            cluster.up()
            try:
                cluster.run_calls(calls)
                inserted = cluster.drain(store, run_id="drained")
            finally:
                cluster.down()
            assert inserted == 2 * calls * RECORDS_PER_CALL
            meta = _run_meta(store, "drained")
            loss = meta.extra["loss"]
            assert loss["records_uncollected"] == 0
            assert loss["failed_drains"] == []
            assert store.record_count("drained") == inserted
        finally:
            store.close()


class TestLoadPlane:
    def test_open_loop_step_reports_latency_and_goodput(self, tmp_path):
        cluster = Cluster(2, plane="load", spool_root=str(tmp_path))
        cluster.up()
        try:
            merged, per_worker = cluster.run_load(
                rate_per_worker=200.0, arrivals_per_worker=100, seed=7
            )
        finally:
            cluster.down()
        assert len(per_worker) == 2
        assert merged.offered == 200
        assert merged.completed + merged.shed + merged.errors == 200
        assert merged.errors == 0
        summary = merged.to_json()
        assert {"p50_ms", "p99_ms", "p999_ms"} <= set(summary)
        assert summary["p50_ms"] > 0
        if merged.completed:
            assert merged.goodput > 0


@pytest.mark.parametrize("workers", [1, 3])
def test_ring_scales_beyond_two(tmp_path, workers):
    calls = 2
    store = SegmentStore(str(tmp_path / "central"))
    try:
        cluster = Cluster(workers, spool_root=str(tmp_path))
        cluster.up()
        try:
            replies = cluster.run_calls(calls)
            assert sum(r["errors"] for r in replies) == 0
            stored = cluster.collect(store, "ring")
        finally:
            cluster.down()
        assert stored == workers * calls * RECORDS_PER_CALL
        meta = _run_meta(store, "ring")
        assert len(meta.extra["processes"]) == 2 * workers
    finally:
        store.close()
