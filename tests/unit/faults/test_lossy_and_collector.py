"""Lossy probe-record delivery and the collector's resilience to it."""

import pytest

from repro.collector import LogCollector
from repro.core import MonitorMode, ProbeRecord, Site, TracingEvent
from repro.errors import TransientCollectorError
from repro.faults import FaultInjector, FaultPlan, LossyLogBuffer
from repro.platform.process import LocalLogBuffer
from repro.store import MonitoringDatabase
from tests.helpers import Call, simulate

_SITE = Site("M::I", "op", "p.obj-1", "Comp", "p", 1, "h", "x86", "Linux")


def rec(tag) -> ProbeRecord:
    """A record told apart from the others by its chain uuid."""
    return ProbeRecord(_SITE, str(tag), 0, TracingEvent.STUB_START, 0)


def _simulated_process(calls=3):
    sim = simulate(
        [Call("I::f", cpu_ns=100) for _ in range(calls)],
        mode=MonitorMode.LATENCY,
        fresh_chain_per_top_call=True,
    )
    return sim.process


class TestBoundedLogBuffer:
    def test_capacity_drops_and_counts(self):
        buffer = LocalLogBuffer(capacity=3)
        for i in range(5):
            buffer.append(rec(i))
        assert len(buffer) == 3
        assert buffer.dropped == 2
        assert buffer.snapshot() == [rec(0), rec(1), rec(2)]

    def test_unbounded_by_default(self):
        buffer = LocalLogBuffer()
        for i in range(1000):
            buffer.append(rec(i))
        assert len(buffer) == 1000
        assert buffer.dropped == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LocalLogBuffer(capacity=0)


class TestLossyLogBuffer:
    def test_appends_pass_through(self):
        injector = FaultInjector(FaultPlan(seed=1))
        inner = LocalLogBuffer()
        lossy = LossyLogBuffer(inner, injector, "proc")
        lossy.append(rec("r1"))
        assert len(lossy) == 1
        assert lossy.snapshot() == [rec("r1")]
        assert lossy.drain() == [rec("r1")]
        assert len(inner) == 0

    def test_transient_failure_leaves_records_intact(self):
        injector = FaultInjector(FaultPlan(seed=1, collect_fail_attempts=2))
        lossy = LossyLogBuffer(LocalLogBuffer(), injector, "proc")
        lossy.append(rec("r1"))
        for _ in range(2):
            with pytest.raises(TransientCollectorError):
                lossy.drain()
            assert len(lossy) == 1
        assert lossy.drain() == [rec("r1")]

    def test_record_loss_filters_deterministically(self):
        def run():
            injector = FaultInjector(FaultPlan(seed=5, record_loss_rate=0.4))
            lossy = LossyLogBuffer(LocalLogBuffer(), injector, "proc")
            for i in range(100):
                lossy.append(rec(i))
            return lossy.drain()

        first, second = run(), run()
        assert first == second
        assert 0 < len(first) < 100

    def test_lossy_delivery_wraps_once(self):
        injector = FaultInjector(FaultPlan(seed=1))
        process = _simulated_process()
        injector.lossy_delivery(process)
        wrapped = process.log_buffer
        assert isinstance(wrapped, LossyLogBuffer)
        injector.lossy_delivery(process)
        assert process.log_buffer is wrapped


class TestCollectorResilience:
    def test_retry_recovers_transient_failures(self):
        process = _simulated_process()
        expected = len(process.log_buffer)
        injector = FaultInjector(FaultPlan(seed=1, collect_fail_attempts=2))
        injector.lossy_delivery(process)
        collector = LogCollector(MonitoringDatabase(), retries=3, backoff_s=0.0)
        run_id = collector.collect([process], description="retry test")
        assert collector.database.record_count(run_id) == expected
        loss = _loss(collector.database, run_id)
        assert loss["drain_retries"] == 2
        assert loss["failed_drains"] == []
        assert loss["records_uncollected"] == 0

    def test_exhausted_retries_account_uncollected(self):
        process = _simulated_process()
        buffered = len(process.log_buffer)
        injector = FaultInjector(FaultPlan(seed=1, collect_fail_attempts=10))
        injector.lossy_delivery(process)
        collector = LogCollector(MonitoringDatabase(), retries=2, backoff_s=0.0)
        run_id = collector.collect([process], description="failed drain")
        assert collector.database.record_count(run_id) == 0
        loss = _loss(collector.database, run_id)
        assert loss["failed_drains"] == ["sim"]
        assert loss["records_uncollected"] == buffered
        # The records survive for a later, healthier collection.
        assert len(process.log_buffer) == buffered

    def test_delivery_loss_is_accounted(self):
        process = _simulated_process(calls=10)
        expected = len(process.log_buffer)
        injector = FaultInjector(FaultPlan(seed=7, record_loss_rate=0.3))
        injector.lossy_delivery(process)
        collector = LogCollector(MonitoringDatabase(), backoff_s=0.0)
        run_id = collector.collect([process])
        delivered = collector.database.record_count(run_id)
        loss = _loss(collector.database, run_id)
        assert loss["records_lost_in_delivery"] == expected - delivered > 0

    def test_probe_drops_are_accounted(self):
        process = _simulated_process()
        process.log_buffer.append  # sanity: buffer is live
        # Re-bound: replace with a tiny buffer and overflow it.
        records = process.log_buffer.drain()
        bounded = LocalLogBuffer(capacity=2)
        for record in records:
            bounded.append(record)
        process.log_buffer = bounded
        collector = LogCollector(MonitoringDatabase(), backoff_s=0.0)
        run_id = collector.collect([process])
        loss = _loss(collector.database, run_id)
        assert loss["records_dropped_at_probe"] == len(records) - 2

    def test_clean_collection_reports_zero_loss(self):
        process = _simulated_process()
        collector = LogCollector(MonitoringDatabase())
        run_id = collector.collect([process])
        loss = _loss(collector.database, run_id)
        assert loss == {
            "drain_retries": 0,
            "failed_drains": [],
            "records_dropped_at_probe": 0,
            "records_lost_in_delivery": 0,
            "records_uncollected": 0,
        }

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError):
            LogCollector(MonitoringDatabase(), retries=-1)


def _loss(database, run_id):
    for meta in database.runs():
        if meta.run_id == run_id:
            return meta.extra["loss"]
    raise AssertionError(f"run {run_id} not found")
