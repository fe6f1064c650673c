"""Lifecycle tests for the live metrics pipeline (start/stop/sampler)."""

import time

import pytest

from repro.analysis.pipeline import LiveMetricsPipeline
from repro.core import MonitorMode
from tests.helpers import Call, simulate


def _pipeline(calls, **kwargs):
    sim = simulate(calls, mode=MonitorMode.LATENCY)
    return LiveMetricsPipeline([sim.process], **kwargs), sim


class TestLifecycle:
    def test_start_stop_joins_thread(self):
        pipeline, _ = _pipeline([Call("I::F", cpu_ns=10)])
        pipeline.start(interval_s=0.005)
        assert pipeline.running
        thread = pipeline._thread
        pipeline.stop()
        assert not pipeline.running
        assert not thread.is_alive()
        # Records were picked up (by the sampler or the catch-up poll).
        assert pipeline.monitor.completed_calls() == 1

    def test_stop_runs_catch_up_poll(self):
        pipeline, _ = _pipeline([Call("I::F", cpu_ns=10)])
        pipeline.start(interval_s=60.0)  # sampler never fires on its own
        pipeline.stop()
        assert pipeline.monitor.completed_calls() == 1

    def test_start_twice_is_idempotent(self):
        pipeline, _ = _pipeline([Call("I::F", cpu_ns=10)])
        pipeline.start(interval_s=0.005)
        thread = pipeline._thread
        pipeline.start(interval_s=0.005)
        assert pipeline._thread is thread
        pipeline.stop()

    def test_stop_without_start_is_noop(self):
        pipeline, _ = _pipeline([Call("I::F", cpu_ns=10)])
        pipeline.stop()
        assert not pipeline.running

    def test_sampler_death_surfaces_at_stop(self, monkeypatch):
        pipeline, _ = _pipeline([Call("I::F", cpu_ns=10)])
        calls = {"n": 0}
        real_poll = pipeline.monitor.poll

        def dying_poll(processes):
            if calls["n"] == 0:
                calls["n"] += 1
                raise ValueError("buffer exploded")
            return real_poll(processes)

        monkeypatch.setattr(pipeline.monitor, "poll", dying_poll)
        pipeline.start(interval_s=0.001)
        deadline = time.monotonic() + 2.0
        while pipeline.running and time.monotonic() < deadline:
            time.sleep(0.002)
        assert not pipeline.running  # the thread died, silently so far
        with pytest.raises(RuntimeError, match="sampler thread died") as excinfo:
            pipeline.stop()
        assert isinstance(excinfo.value.__cause__, ValueError)
        # The error is surfaced once, then cleared; the catch-up poll ran.
        assert pipeline.sampler_error is None
        assert pipeline.monitor.completed_calls() == 1

    def test_restart_after_sampler_death(self, monkeypatch):
        pipeline, _ = _pipeline([Call("I::F", cpu_ns=10)])
        pipeline.sampler_error = ValueError("stale")
        pipeline.start(interval_s=0.005)
        assert pipeline.sampler_error is None  # start() clears stale errors
        pipeline.stop()


class TestAlertsPassthrough:
    def test_alerts_surface_through_pipeline(self):
        sim = simulate([Call("I::slow", cpu_ns=500)], mode=MonitorMode.LATENCY)
        pipeline = LiveMetricsPipeline([sim.process], latency_slo_ns=100)
        pipeline.poll()
        alerts = pipeline.alerts()
        assert len(alerts) == 1
        assert alerts[0].kind == "latency"
        assert alerts[0].function == "I::slow"

    def test_render_contains_online_series(self):
        pipeline, _ = _pipeline([Call("I::F", cpu_ns=10)])
        pipeline.poll()
        body = pipeline.render()
        assert "repro_online_completed_calls_total 1" in body
