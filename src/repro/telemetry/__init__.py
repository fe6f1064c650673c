"""Telemetry: the framework's self-metrics core.

A thread-safe, lock-striped :class:`MetricsRegistry` with counters,
gauges and fixed-boundary nanosecond histograms
(:mod:`repro.telemetry.metrics`), the global on/off switch
(:mod:`repro.telemetry.runtime`) and Prometheus text exposition
(:mod:`repro.telemetry.exposition`). The framework's hot paths (ORB
dispatch, GIOP framing, COM ORPC, apartment queues, probe recording,
collector drains) are instrumented behind no-op defaults — call
:func:`enable` to start collecting.

This package sits at the bottom of the layer order: it imports only
:mod:`repro.errors`, so every layer above may instrument itself. The
DSCG trace exporters and the live metrics pipeline read reconstructed
chains and live in :mod:`repro.analysis` (``chrome_trace``, ``otlp``,
``pipeline``).
"""

from repro.telemetry.exposition import render_prometheus
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BOUNDARIES_NS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
)
from repro.telemetry.runtime import (
    active_registry,
    disable,
    enable,
    is_enabled,
    metrics_binder,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BOUNDARIES_NS",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_REGISTRY",
    "active_registry",
    "disable",
    "enable",
    "is_enabled",
    "metrics_binder",
    "render_prometheus",
]

