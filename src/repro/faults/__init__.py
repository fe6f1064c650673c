"""Deterministic fault injection (``repro.faults``).

The paper's monitor claims to work "without global clock synchronization
and without log concatenation"; this package supplies the adversary that
claim must survive: seeded, replayable faults at every boundary —

- network links (:class:`FaultyNetwork`): drop, duplicate, reorder,
  corrupt, truncate, reset, latency spikes;
- components (:meth:`FaultInjector.arm_crashes`): mid-call death so the
  end probes never fire;
- probe-record delivery (:meth:`FaultInjector.lossy_delivery`): lossy
  drains and transient collector failures.

Everything is scheduled by a :class:`FaultPlan` — a pure function of a
seed — so any chaotic run replays exactly from its seed, and the chaos
test matrix can assert byte-identical loss accounting back to back.
"""

from repro.errors import ComponentCrash, TransientCollectorError
from repro.faults.injector import CrashArm, FaultEvent, FaultInjector
from repro.faults.lossy import LossyLogBuffer
from repro.faults.network import FaultyConnection, FaultyNetwork, link_scope
from repro.faults.plan import (
    MESSAGE_FAULT_PRIORITY,
    FaultKind,
    FaultPlan,
    WindowedDelayPlan,
)

__all__ = [
    "ComponentCrash",
    "CrashArm",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultyConnection",
    "FaultyNetwork",
    "LossyLogBuffer",
    "MESSAGE_FAULT_PRIORITY",
    "TransientCollectorError",
    "WindowedDelayPlan",
    "link_scope",
]
