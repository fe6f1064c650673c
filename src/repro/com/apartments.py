"""Apartments: the COM threading model.

Two apartment kinds, as in COM:

**STA (single-threaded apartment)** — one dedicated thread runs a message
loop; every call into the apartment's objects executes on that thread.
When code already running on the STA thread makes a *blocking outbound
call*, the thread cannot simply block — it must keep pumping the message
loop (a modal wait), or the apartment would deadlock on reentrant calls.
This pumping is exactly what breaks the paper's observation O1: "the
apartment thread T can switch to serve another incoming call C2 when the
call C1 that T is serving issues an outbound call C3 and suffers
blocking" (Section 2.2). Without extra runtime instrumentation the
thread-specific FTL is overwritten mid-call and causal chains mingle.

**MTA (multi-threaded apartment)** — a small pool of threads dispatches
incoming calls; outbound calls block their thread outright (no pumping),
so O1 holds and no extra instrumentation is needed.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ComError
from repro.telemetry.metrics import NULL_COUNTER, NULL_GAUGE, NULL_REGISTRY
from repro.telemetry.runtime import metrics_binder

# Framework self-metrics (no-ops until repro.telemetry.enable()).
_POSTED = {"sta": NULL_COUNTER, "mta": NULL_COUNTER}
_QUEUE_DEPTH = {"sta": NULL_GAUGE, "mta": NULL_GAUGE}
_NESTED_DISPATCH = NULL_COUNTER


@metrics_binder
def _bind_metrics(registry) -> None:
    global _NESTED_DISPATCH
    registry = registry or NULL_REGISTRY
    posted = registry.counter(
        "repro_apartment_posted_total",
        "Call messages posted to apartment inboxes, by apartment kind.",
        labels=("kind",),
    )
    depth = registry.gauge(
        "repro_apartment_queue_depth",
        "Call messages currently queued in apartment inboxes, by kind.",
        labels=("kind",),
    )
    for kind in ("sta", "mta"):
        _POSTED[kind] = posted.labels(kind)
        _QUEUE_DEPTH[kind] = depth.labels(kind)
    _NESTED_DISPATCH = registry.counter(
        "repro_sta_nested_dispatch_total",
        "Dispatches pumped inside an STA modal wait (the chain-mingling"
        " hazard window of Section 2.2).",
    )


@dataclass
class ReplySlot:
    """Completion slot for one outbound call."""

    done: threading.Event = field(default_factory=threading.Event)
    value: Any = None
    error: BaseException | None = None
    ftl: bytes | None = None

    def complete(self, value: Any, error: BaseException | None, ftl: bytes | None) -> None:
        self.value = value
        self.error = error
        self.ftl = ftl
        self.done.set()


@dataclass
class CallMessage:
    """One ORPC request posted to an apartment."""

    dispatch: Callable[["CallMessage"], tuple[Any, BaseException | None, bytes | None]]
    reply_slot: ReplySlot | None
    #: Apartment to wake when the reply completes (STA modal waits).
    reply_apartment: "Apartment | None"
    ftl: bytes | None = None
    payload: Any = None


_WAKEUP = object()


class Apartment:
    """Common apartment interface."""

    name = "apartment"

    def post(self, message: CallMessage) -> None:
        raise NotImplementedError

    def wait_for_reply(self, slot: ReplySlot, timeout: float) -> None:
        """Block the calling thread until the slot completes."""
        if not slot.done.wait(timeout):
            raise ComError("outbound COM call timed out")

    def wakeup(self) -> None:
        """Nudge a modal wait (no-op outside STAs)."""

    def hosts_current_thread(self) -> bool:
        return False

    def shutdown(self) -> None:
        raise NotImplementedError


class Sta(Apartment):
    """Single-threaded apartment with a pumping message loop."""

    name = "sta"

    def __init__(self, process, label: str, timeout: float = 30.0):
        self.process = process
        self.label = label
        self.timeout = timeout
        self._inbox: "queue.Queue[CallMessage | object | None]" = queue.Queue()
        self._stopping = False
        self._thread = process.spawn_thread(self._message_loop, name=f"sta-{label}")

    def post(self, message: CallMessage) -> None:
        if self._stopping:
            raise ComError(f"STA {self.label} is shut down")
        _POSTED["sta"].inc()
        _QUEUE_DEPTH["sta"].inc()
        self._inbox.put(message)

    def wakeup(self) -> None:
        self._inbox.put(_WAKEUP)

    def hosts_current_thread(self) -> bool:
        return threading.current_thread() is self._thread

    # ------------------------------------------------------------------

    def _message_loop(self) -> None:
        while not self._stopping:
            message = self._inbox.get()
            if message is None:
                return
            if message is _WAKEUP:
                continue
            _QUEUE_DEPTH["sta"].dec()
            self._dispatch(message)

    def _dispatch(self, message: CallMessage) -> None:
        value, error, ftl = message.dispatch(message)
        if message.reply_slot is not None:
            message.reply_slot.complete(value, error, ftl)
            if message.reply_apartment is not None:
                message.reply_apartment.wakeup()

    def wait_for_reply(self, slot: ReplySlot, timeout: float) -> None:
        """Modal wait: pump incoming calls while the reply is pending.

        Runs only on the STA thread; this nested dispatching is the
        chain-mingling hazard the channel hooks repair.
        """
        if not self.hosts_current_thread():
            super().wait_for_reply(slot, timeout)
            return
        while not slot.done.is_set():
            try:
                message = self._inbox.get(timeout=timeout)
            except queue.Empty:
                raise ComError("outbound COM call timed out while pumping") from None
            if message is None:
                self._stopping = True
                raise ComError(f"STA {self.label} shut down during modal wait")
            if message is _WAKEUP:
                continue
            _QUEUE_DEPTH["sta"].dec()
            _NESTED_DISPATCH.inc()
            self._dispatch(message)  # nested dispatch of another chain

    def shutdown(self) -> None:
        self._stopping = True
        self._inbox.put(None)


class Mta(Apartment):
    """Multi-threaded apartment: a worker pool, no pumping."""

    name = "mta"

    def __init__(self, process, label: str = "mta", size: int = 4):
        if size < 1:
            raise ComError("MTA pool size must be >= 1")
        self.process = process
        self.label = label
        self._inbox: "queue.Queue[CallMessage | None]" = queue.Queue()
        self._stopping = False
        self._threads = [
            process.spawn_thread(self._worker, name=f"mta-{label}-{i}") for i in range(size)
        ]

    def post(self, message: CallMessage) -> None:
        if self._stopping:
            raise ComError(f"MTA {self.label} is shut down")
        _POSTED["mta"].inc()
        _QUEUE_DEPTH["mta"].inc()
        self._inbox.put(message)

    def hosts_current_thread(self) -> bool:
        return threading.current_thread() in self._threads

    def _worker(self) -> None:
        while True:
            message = self._inbox.get()
            if message is None:
                return
            _QUEUE_DEPTH["mta"].dec()
            value, error, ftl = message.dispatch(message)
            if message.reply_slot is not None:
                message.reply_slot.complete(value, error, ftl)
                if message.reply_apartment is not None:
                    message.reply_apartment.wakeup()

    def shutdown(self) -> None:
        self._stopping = True
        for _ in self._threads:
            self._inbox.put(None)
