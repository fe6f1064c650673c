"""Process-global telemetry switch and the metric-handle binder protocol.

Hot paths (ORB dispatch, GIOP framing, probe recording, collector
drains) cannot afford a registry lookup per event, and they also cannot
capture real metric objects at import time because telemetry is off by
default. The binder protocol resolves both:

- an instrumented module declares module-level handles initialized to
  the no-op singletons, and registers one ``@metrics_binder`` function;
- the binder rewrites those handles from a real registry when telemetry
  is enabled, and back to the no-ops when it is disabled;
- binders run immediately at registration (so modules imported after
  :func:`enable` pick up the active registry) and again on every
  enable/disable flip.

The result: with telemetry off, an instrumented call site is a dict/
attribute load plus an empty method call — no allocation, no lock. A site
hot enough that the empty call itself shows (each probe record, in
:mod:`repro.core.monitor`) also has its binder set a module flag — true
while a registry is bound — and tests the flag instead, so telemetry off
costs it one global load and no call; counts stay exact while it is on.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.telemetry.metrics import MetricsRegistry

_lock = threading.Lock()
_registry: MetricsRegistry | None = None
_binders: list[Callable[[MetricsRegistry | None], None]] = []


def metrics_binder(
    bind: Callable[[MetricsRegistry | None], None],
) -> Callable[[MetricsRegistry | None], None]:
    """Register (and immediately run) a module's metric-handle binder.

    ``bind`` receives the active registry, or ``None`` meaning "reset
    your handles to the no-op singletons" (``registry or NULL_REGISTRY``
    yields them from the same registration calls).
    """
    with _lock:
        _binders.append(bind)
        registry = _registry
    bind(registry)
    return bind


def enable(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Turn framework self-metrics on, rebinding every instrumented module.

    Idempotent: enabling twice without an explicit registry keeps the
    first registry (and its accumulated values) rather than discarding it.
    """
    global _registry
    with _lock:
        if registry is None:
            registry = _registry if _registry is not None else MetricsRegistry()
        _registry = registry
        binders = list(_binders)
    for bind in binders:
        bind(registry)
    return registry


def disable() -> None:
    """Turn self-metrics off; instrumented modules go back to no-ops."""
    global _registry
    with _lock:
        _registry = None
        binders = list(_binders)
    for bind in binders:
        bind(None)


def active_registry() -> MetricsRegistry | None:
    """The enabled registry, or ``None`` while telemetry is off."""
    with _lock:
        return _registry


def is_enabled() -> bool:
    return active_registry() is not None
