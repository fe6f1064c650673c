"""Quiescence-time log collection: drain each process's log buffer into a
storage backend (:mod:`repro.store`).

``MonitoringDatabase`` is re-exported from :mod:`repro.store` for callers
that still import it from here.
"""

from repro.collector.collector import LogCollector, collect_run
from repro.store import MonitoringDatabase

__all__ = ["LogCollector", "MonitoringDatabase", "collect_run"]
