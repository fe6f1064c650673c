"""Telemetry: framework self-metrics, trace export, and a live pipeline.

Three pillars:

- **Metrics core** (:mod:`repro.telemetry.metrics`,
  :mod:`repro.telemetry.exposition`): a thread-safe, lock-striped
  :class:`MetricsRegistry` with counters, gauges and fixed-boundary
  nanosecond histograms, plus Prometheus text exposition. The framework's
  hot paths (ORB dispatch, GIOP framing, COM ORPC, apartment queues,
  probe recording, collector drains) are instrumented behind no-op
  defaults — call :func:`enable` to start collecting.
- **Trace export** (:mod:`repro.telemetry.chrome_trace`,
  :mod:`repro.telemetry.otlp`): reconstructed DSCG chains rendered as
  Chrome trace-event JSON (loadable in Perfetto) or OTLP-style span JSON
  with parent/child and oneway-fork links.
- **Live pipeline** (:mod:`repro.telemetry.pipeline`): stream probe
  records through the online monitor into a registry while the system
  runs, for scrape-style management.

The exporters and the pipeline depend on :mod:`repro.analysis`, which the
instrumented core modules sit underneath — so those names load lazily
(PEP 562) and only the dependency-free metrics core is imported eagerly.
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

#: Lazily imported name -> defining submodule (avoids telemetry → analysis
#: → collector → core → telemetry import cycles at package-init time).
_LAZY = {
    "chrome_trace_document": "repro.telemetry.chrome_trace",
    "render_chrome_trace": "repro.telemetry.chrome_trace",
    "otlp_document": "repro.telemetry.otlp",
    "render_otlp": "repro.telemetry.otlp",
    "LiveMetricsPipeline": "repro.telemetry.pipeline",
}

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BOUNDARIES_NS",
    "Gauge",
    "Histogram",
    "LiveMetricsPipeline",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_REGISTRY",
    "active_registry",
    "chrome_trace_document",
    "disable",
    "enable",
    "is_enabled",
    "metrics_binder",
    "otlp_document",
    "render_chrome_trace",
    "render_otlp",
    "render_prometheus",
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
