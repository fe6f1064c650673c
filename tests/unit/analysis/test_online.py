"""Unit tests for the on-line monitor (future-work extension)."""

import copy

from repro.analysis import Alert, OnlineMonitor
from repro.core import MonitorMode
from repro.telemetry import MetricsRegistry
from tests.helpers import Call, simulate


def records_for(calls, **kwargs):
    return simulate(calls, mode=MonitorMode.LATENCY, **kwargs).records


def _renumbered(record, event_seq):
    clone = copy.copy(record)
    clone.event_seq = event_seq
    return clone


class TestLiveState:
    def test_completed_calls_counted(self):
        monitor = OnlineMonitor()
        monitor.ingest_many(records_for([Call("I::F", cpu_ns=10), Call("I::G")]))
        assert monitor.completed_calls() == 2
        assert monitor.live_chain_count() == 0
        assert monitor.open_invocations() == []

    def test_open_invocations_visible_mid_chain(self):
        records = records_for([Call("I::F", cpu_ns=10, children=(Call("I::G"),))])
        monitor = OnlineMonitor()
        # feed only up to G's stub_start: F and G are both in flight
        for record in records[:3]:
            monitor.ingest(record)
        open_calls = monitor.open_invocations()
        assert [c.function for c in open_calls] == ["I::F", "I::G"]
        assert open_calls[1].depth == 2
        assert monitor.live_chain_count() == 1

    def test_latency_stats_accumulate(self):
        monitor = OnlineMonitor()
        monitor.ingest_many(
            records_for([Call("I::F", cpu_ns=100), Call("I::F", cpu_ns=300)])
        )
        stats = monitor.latency_stats()["I::F"]
        assert stats.count == 2
        assert stats.mean_ns == 200
        assert stats.max_ns == 300

    def test_latency_stats_streaming_percentiles(self):
        monitor = OnlineMonitor()
        # 100 calls: 1ns, 2ns, ... 100ns of consumed CPU -> latencies
        # spread over two orders of magnitude.
        monitor.ingest_many(
            records_for([Call("I::F", cpu_ns=i) for i in range(1, 101)])
        )
        stats = monitor.latency_stats()["I::F"]
        assert stats.count == 100
        # P² estimates: within a few ranks of the exact percentiles.
        assert stats.p50_ns <= stats.p95_ns <= stats.p99_ns <= stats.max_ns
        assert abs(stats.p50_ns - 50) <= 10
        assert stats.p95_ns >= 85
        assert stats.p99_ns >= 90

    def test_poll_is_incremental(self):
        sim = simulate([Call("I::F", cpu_ns=5)], mode=MonitorMode.LATENCY)
        monitor = OnlineMonitor()
        assert monitor.poll([sim.process]) == 4
        assert monitor.poll([sim.process]) == 0  # nothing new
        assert monitor.completed_calls() == 1


class TestAlerts:
    def test_latency_slo_alert(self):
        fired = []
        monitor = OnlineMonitor(latency_slo_ns=50, on_alert=fired.append)
        monitor.ingest_many(records_for([Call("I::slow", cpu_ns=100)]))
        assert len(fired) == 1
        alert = fired[0]
        assert alert.kind == "latency"
        assert alert.function == "I::slow"
        assert alert.latency_ns == 100

    def test_no_alert_under_slo(self):
        monitor = OnlineMonitor(latency_slo_ns=1_000)
        monitor.ingest_many(records_for([Call("I::fast", cpu_ns=100)]))
        assert monitor.alerts() == []

    def test_duplicate_event_number_alerts(self):
        # Two records with the same event number on one chain (the data
        # race a mingled COM STA produces) is genuinely abnormal.
        records = records_for([Call("I::F", cpu_ns=5)])
        monitor = OnlineMonitor()
        monitor.ingest_many(records)
        monitor.ingest(records[0])  # replayed seq 0: collision
        alerts = monitor.alerts()
        assert len(alerts) == 1
        assert alerts[0].kind == "abnormal"

    def test_out_of_order_arrival_reordered_not_alerted(self):
        import random

        records = records_for(
            [Call("I::F", cpu_ns=5, children=(Call("I::G", cpu_ns=2),))]
        )
        shuffled = list(records)
        random.Random(3).shuffle(shuffled)
        monitor = OnlineMonitor()
        monitor.ingest_many(shuffled)
        assert monitor.alerts() == []
        assert monitor.completed_calls() == 2


class TestBoundedPending:
    def test_overflow_drops_counts_and_alerts_once(self):
        records = records_for(
            [Call("I::F", cpu_ns=5, children=(Call("I::G", cpu_ns=2),))]
        )
        monitor = OnlineMonitor(max_pending=2)
        # Withhold seq 0: everything else is out-of-order and must buffer.
        for record in records[1:]:
            monitor.ingest(record)
        assert monitor.pending_records() == 2
        assert monitor.pending_dropped == len(records) - 3
        overflow = [a for a in monitor.alerts() if a.kind == "overflow"]
        assert len(overflow) == 1  # one alert per saturation episode
        # Delivering the gap record drains the survivors.
        monitor.ingest(records[0])
        assert monitor.pending_records() == 0

    def test_duplicate_pending_record_not_double_counted(self):
        records = records_for([Call("I::F", cpu_ns=5)])
        monitor = OnlineMonitor(max_pending=4)
        monitor.ingest(records[2])
        monitor.ingest(records[2])  # same seq again: overwrites, no growth
        assert monitor.pending_records() == 1

    def test_unbounded_when_disabled(self):
        records = records_for(
            [Call("I::F", cpu_ns=5, children=(Call("I::G", cpu_ns=2),))]
        )
        monitor = OnlineMonitor(max_pending=None)
        for record in records[1:]:
            monitor.ingest(record)
        assert monitor.pending_records() == len(records) - 1
        assert monitor.pending_dropped == 0


class TestRidesTheStreamingReconstructor:
    def test_completed_chains_hold_no_builder(self):
        # A monitor never finalizes: what it retains must be bounded by
        # live chains, not by every chain it has ever seen.
        records = simulate(
            [Call("I::F", cpu_ns=1)] * 10_000,
            mode=MonitorMode.LATENCY,
            fresh_chain_per_top_call=True,
        ).records
        monitor = OnlineMonitor()
        monitor.ingest_many(records)
        assert monitor.completed_calls() == 10_000
        streams = monitor._stream._chains.values()
        assert len(streams) == 10_000
        assert [s for s in streams if s.builder is not None] == []

    def test_sibling_roots_on_one_chain_survive_release(self):
        # Both top-level calls share a chain; the first root's release
        # must not lose the chain's place in the event numbering.
        records = records_for([Call("I::F", cpu_ns=5), Call("I::G", cpu_ns=7)])
        assert len({r.chain_uuid for r in records}) == 1
        monitor = OnlineMonitor()
        monitor.ingest_many(reversed(records))
        assert monitor.alerts() == []
        assert monitor.completed_calls() == 2
        assert monitor.latency_stats()["I::G"].max_ns == 7

    def test_replayed_stub_start_opens_no_phantom_frame(self):
        records = records_for([Call("I::F", cpu_ns=5, children=(Call("I::G"),))])
        monitor = OnlineMonitor()
        monitor.ingest_many(records[:3])  # F and G in flight
        monitor.ingest(records[2])  # G's stub_start again
        assert [c.function for c in monitor.open_invocations()] == ["I::F", "I::G"]
        (alert,) = monitor.alerts()
        assert alert.kind == "abnormal" and alert.function == "I::G"
        monitor.ingest_many(records[3:])
        assert monitor.open_invocations() == []
        assert monitor.completed_calls() == 2

    def test_abnormal_alert_carries_the_machine_reason(self):
        records = records_for([Call("I::F", cpu_ns=5, children=(Call("I::G"),))])
        # Lose G's stub_start but close the numbering gap, as a mingled
        # chain would: G's skel_start meets F's open frame.
        mingled = [records[0], records[1]] + [
            _renumbered(r, r.event_seq - 1) for r in records[3:]
        ]
        monitor = OnlineMonitor()
        monitor.ingest_many(mingled)
        abnormal = [a for a in monitor.alerts() if a.kind == "abnormal"]
        assert abnormal and "does not match open frame I::F" in abnormal[0].detail

    def test_gauges_track_the_stream(self):
        records = records_for([Call("I::F", cpu_ns=5, children=(Call("I::G"),))])
        registry = MetricsRegistry()
        monitor = OnlineMonitor(registry=registry)
        monitor.ingest_many(records[:3])
        monitor.ingest(records[5])
        assert registry.gauge("repro_online_inflight_invocations").value() == 2
        assert registry.gauge("repro_online_live_chains").value() == 1
        assert registry.gauge("repro_online_pending_records").value() == 1
        monitor.ingest_many(records[3:5] + records[6:])
        assert registry.gauge("repro_online_inflight_invocations").value() == 0
        assert registry.gauge("repro_online_live_chains").value() == 0
        assert registry.gauge("repro_online_pending_records").value() == 0
        assert registry.counter("repro_online_completed_calls_total").value() == 2
