"""Execution-local storage: the FTL carrier behind the virtual tunnel.

The virtual tunnel's in-process half: after the skeleton start probe, the
current FTL is stored in execution-local storage so that any child stub
invoked from the function implementation can retrieve, update and carry it
further down the chain (paper Section 2.1, Figure 2). The storage "is
created at the monitoring initialization phase by loading the
instrumentation-associated library, and is independent of user
applications".

Two carriers implement the same slot API (``get``/``set``/``pop``/
``clear_thread``):

- :class:`ThreadSpecificStorage` — the paper-literal TSS, keyed by OS
  thread identifier. Correct under every *threaded* dispatch policy
  (observations O1/O2) but blind to asyncio: every task on an event loop
  shares one carrier thread, so thread keying would mingle their chains.
- :class:`ContextVarStorage` — the default carrier since the asyncio data
  plane landed: one :class:`contextvars.ContextVar` per slot. A context
  variable is implicitly per-thread (each OS thread runs in its own
  context, so the threaded plane keeps exactly the TSS semantics) *and*
  per-task (each asyncio task runs in a copy of its creator's context, so
  the FTL flows with the logical task across ``await`` boundaries and
  ``gather`` fan-outs instead of sticking to the carrier thread).

Because we simulate many OS processes inside one interpreter, the storage
is owned by each :class:`~repro.platform.process.SimProcess`. A real
thread (or task) only ever executes inside one simulated process at a
time, so per-process instances preserve the paper's process-isolation
semantics.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar
from typing import Any, Iterator


class ThreadSpecificStorage:
    """A small per-process map from OS thread id to named slots.

    Slots are arbitrary; the monitoring runtime uses the ``"ftl"`` slot to
    hold the current :class:`~repro.core.ftl.FunctionTxLog`.
    """

    def __init__(self):
        self._slots: dict[int, dict[str, Any]] = {}
        self._lock = threading.Lock()

    def get(self, slot: str, default: Any = None) -> Any:
        """Return the calling thread's value for ``slot``.

        Lock-free: each thread only ever writes its *own* entry, and the
        individual dict operations are atomic under the GIL, so the hot
        probe path (several TSS reads per monitored invocation, on every
        thread at once) never serializes on a shared lock. The lock is
        kept only for cross-thread snapshots (``threads``/``__len__``).
        """
        thread_slots = self._slots.get(threading.get_ident())
        if thread_slots is None:
            return default
        return thread_slots.get(slot, default)

    def set(self, slot: str, value: Any) -> None:
        """Bind ``slot`` for the calling thread."""
        ident = threading.get_ident()
        thread_slots = self._slots.get(ident)
        if thread_slots is None:
            thread_slots = self._slots[ident] = {}
        thread_slots[slot] = value

    def pop(self, slot: str, default: Any = None) -> Any:
        """Remove and return the calling thread's value for ``slot``."""
        thread_slots = self._slots.get(threading.get_ident())
        if thread_slots is None:
            return default
        return thread_slots.pop(slot, default)

    def clear_thread(self) -> None:
        """Drop every slot bound to the calling thread.

        Called when a pooled server thread is recycled; observation O2 in
        the paper notes the stale FTL is harmless because it is always
        refreshed on the next dispatch, but clearing keeps tests tidy.
        """
        ident = threading.get_ident()
        with self._lock:
            self._slots.pop(ident, None)

    def threads(self) -> Iterator[int]:
        """Iterate over thread ids that currently hold any slot."""
        with self._lock:
            return iter(list(self._slots))

    def __len__(self) -> int:
        with self._lock:
            return len(self._slots)


class ContextVarStorage:
    """Execution-local slots backed by :mod:`contextvars`.

    Drop-in replacement for :class:`ThreadSpecificStorage` on the probe
    path: ``get``/``set``/``pop`` operate on the *current execution
    context* instead of the current OS thread. On plain threads the two
    are indistinguishable (each thread starts in its own empty context);
    under asyncio each task inherits a copy of its creator's context, so
    a child task sees the parent's FTL reference at spawn time while
    later ``set``s in either context stay isolated — exactly the fork
    semantics the virtual tunnel needs for ``gather`` fan-outs.

    One :class:`~contextvars.ContextVar` is created per slot name, on
    first use, under a lock. An unbound slot reads ``None`` (the
    variable's default, and what ``pop`` leaves behind), so a hot path
    resolves :meth:`var` once and pays one ``ContextVar`` op per access,
    as the monitoring runtime does for its FTL slot.
    """

    def __init__(self):
        self._vars: dict[str, ContextVar[Any]] = {}
        self._lock = threading.Lock()

    def var(self, slot: str) -> ContextVar[Any]:
        """The slot's context variable (created on first use)."""
        var = self._vars.get(slot)
        if var is None:
            with self._lock:
                var = self._vars.get(slot)
                if var is None:
                    var = ContextVar(f"repro-tss-{slot}", default=None)
                    self._vars[slot] = var
        return var

    def get(self, slot: str, default: Any = None) -> Any:
        value = self.var(slot).get()
        return default if value is None else value

    def set(self, slot: str, value: Any) -> None:
        self.var(slot).set(value)

    def pop(self, slot: str, default: Any = None) -> Any:
        var = self.var(slot)
        value = var.get()
        if value is None:
            return default
        var.set(None)
        return value

    def clear_thread(self) -> None:
        """Drop every slot bound to the current execution context.

        Name kept for API compatibility with :class:`ThreadSpecificStorage`
        (the monitor calls it when a pooled server thread is recycled).
        """
        for var in list(self._vars.values()):
            var.set(None)

    def slots(self) -> Iterator[str]:
        """Iterate over slot names that have ever been bound anywhere."""
        with self._lock:
            return iter(list(self._vars))

    def __len__(self) -> int:
        """Number of slots bound (to a real value) in the current context."""
        return sum(1 for var in self._vars.values() if var.get() is not None)
