"""The cluster coordinator: spawns workers, wires the ring, runs loads,
and re-ingests shipped spools into the central store.

Every exchange is a call on the ``Control`` IDL module
(:mod:`repro.cluster.control`). The lifecycle behind ``repro cluster
up/run/down``::

    up:      spawn W ``python -m repro.cluster.worker`` processes; each
             says ``hello``, then every worker is ``wire``d to the ring
    run:     ``run_calls`` / ``run_load`` on every live worker at once
    collect: ``Worker.collect`` returns the run's sealed segments as
             exact bytes, re-ingested as one merged run
    down:    ``Worker.shutdown``; or SIGTERM (:meth:`Cluster.drain`), on
             which each worker ``deliver``s its final spool and exits

Workers send a oneway ``heartbeat`` with their log-buffer occupancy.
The newest report is ``last_buffered``: what an abruptly dead worker's
records are charged to ``records_uncollected`` from, so cluster-wide
loss accounting balances even under kill -9.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

from repro.cluster import control
from repro.cluster.loadgen import LoadResult, merge_results
from repro.cluster.transport import SocketTransport
from repro.cluster.workload import driver_name, server_name
from repro.errors import TransportError
from repro.store.ingest import ingest_shipments, receive_shipment


def _src_pythonpath() -> str:
    """PYTHONPATH entry that makes ``import repro`` resolve to this tree."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class WorkerHandle:
    """Coordinator-side state for one worker process."""

    def __init__(self, index: int):
        self.index = index
        self.process: subprocess.Popen | None = None
        self.pid: int | None = None
        self.stub = None  # Control::Worker, resolved at hello
        self.hello: tuple = ()  # (server ref URL, endpoints)
        #: Newest log-buffer occupancy the worker reported (heartbeat or
        #: command reply) — the kill -9 loss-accounting source.
        self.last_buffered: dict[str, int] = {}
        self.alive = True
        self.delivered = None  # the final spool of a SIGTERM drain
        self.greeted = threading.Event()
        self._seq = -1
        self._lock = threading.Lock()

    @property
    def process_names(self) -> list[str]:
        return [driver_name(self.index), server_name(self.index)]

    def report(self, report) -> None:
        """Keep ``report`` unless a newer one already arrived."""
        with self._lock:
            if report.seq > self._seq:
                self._seq = report.seq
                self.last_buffered = {o.process: o.records for o in report.buffered}


class Cluster:
    """Process-per-host launcher and control plane; also the
    ``Control::Coordinator`` servant that workers call."""

    def __init__(
        self,
        workers: int,
        plane: str = "identity",
        spool_root: str | None = None,
        python: str | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.plane = plane
        self.spool_root = spool_root
        self.python = python or sys.executable
        self.handles: list[WorkerHandle] = []
        self.transport = SocketTransport()
        self.orb = None
        self._commands = threading.Lock()

    # -- lifecycle -------------------------------------------------------

    def up(self, timeout: float = 60.0) -> None:
        """Spawn the workers and wire the ring; returns when all ready."""
        ref = control.COORDINATOR
        self.orb = control.control_orb(ref.address, self.transport, timeout)
        self.orb.activate(self, interface=ref.interface, object_key=ref.object_key)
        host, port = self.transport.local_endpoints()[ref.address]
        env = dict(os.environ)
        src = _src_pythonpath()
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
        self.handles = [WorkerHandle(index) for index in range(self.workers)]
        for handle in self.handles:
            argv = [
                self.python,
                "-m",
                "repro.cluster.worker",
                "--index",
                str(handle.index),
                "--workers",
                str(self.workers),
                "--connect",
                f"{host}:{port}",
                "--plane",
                self.plane,
            ]
            if self.spool_root:
                argv += ["--spool-root", self.spool_root]
            handle.process = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL)
        for handle in self.handles:
            if not handle.greeted.wait(timeout):
                raise TransportError(f"worker {handle.index} sent no hello in {timeout:g}s")
        refs = [handle.hello[0] for handle in self.handles]
        endpoints = [e for handle in self.handles for e in handle.hello[1]]
        self._broadcast(lambda h: h.stub.wire(endpoints, refs), timeout)

    def down(self, graceful: bool = False, timeout: float = 30.0) -> None:
        """Stop the workers. One still running after ``timeout`` is killed,
        or with ``graceful=True`` raises ``TimeoutExpired``; :meth:`drain`
        is the SIGTERM ship-final-spool path."""
        self._broadcast(lambda h: h.stub.shutdown(), timeout, tolerate_loss=True)
        self._reap(timeout, force=not graceful)

    def _reap(self, timeout: float, force: bool) -> None:
        for handle in self.handles:
            try:
                handle.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                if not force:
                    raise
                handle.process.kill()
                handle.process.wait(timeout=timeout)
            handle.alive = False
        if self.orb is not None:
            self.orb.process.shutdown()
            self.transport.close()
            self.orb = None

    def kill(self, index: int) -> None:
        """SIGKILL one worker (the failure-injection path for tests)."""
        handle = self.handles[index]
        handle.process.kill()
        handle.process.wait()
        handle.alive = False

    # -- Control::Coordinator --------------------------------------------

    def hello(self, index, pid, worker_ref, server_ref, endpoints) -> None:
        handle = self.handles[index]
        self.transport.set_endpoints({e.address: (e.host, e.port) for e in endpoints})
        handle.pid, handle.hello = pid, (server_ref, endpoints)
        handle.stub = self.orb.resolve(worker_ref)
        handle.greeted.set()

    def heartbeat(self, index, report) -> None:
        self.handles[index].report(report)

    def deliver(self, index, shipment) -> None:
        self.handles[index].delivered = shipment

    # -- commands --------------------------------------------------------

    def _broadcast(self, call, timeout: float, tolerate_loss: bool = False) -> dict:
        """``call(handle)`` on every live worker at once → ``{handle:
        result}`` in ring order. A worker whose link fails, or that does
        not answer within ``timeout``, is marked dead; its
        :class:`TransportError` propagates unless ``tolerate_loss``."""
        live = [handle for handle in self.handles if handle.alive]
        if not live:
            return {}
        # One command at a time, so the ORB's timeout is this command's.
        with self._commands:
            self.orb.request_timeout = timeout
            with ThreadPoolExecutor(len(live), thread_name_prefix="control") as pool:
                futures = {handle: pool.submit(call, handle) for handle in live}
        answers = {}
        for handle, future in futures.items():
            try:
                answers[handle] = future.result()
            except TransportError:
                handle.alive = False
                if not tolerate_loss:
                    raise
        return answers

    def run_calls(self, calls: int, timeout: float = 120.0) -> list[dict]:
        """Drive ``calls`` monitored ring calls on every live worker."""
        replies = []
        for handle, done in self._broadcast(
            lambda h: h.stub.run_calls(calls), timeout
        ).items():
            handle.report(done.report)
            replies.append({
                "index": handle.index,
                "errors": sum(1 for o in done.outcomes if o.error),
                "results": [o.error or o.value for o in done.outcomes],
                "buffered": dict(handle.last_buffered),
            })
        return replies

    def run_load(
        self,
        rate_per_worker: float,
        arrivals_per_worker: int,
        seed: int,
        max_inflight: int = 4096,
        timeout: float = 600.0,
    ) -> tuple[LoadResult, list[LoadResult]]:
        """One open-loop load step on every live worker, concurrently
        (worker ``i`` seeded ``seed + i``). Returns ``(merged,
        per_worker)``; offered load is ``rate_per_worker * live_workers``."""
        loads = self._broadcast(
            lambda h: h.stub.run_load(
                rate_per_worker, arrivals_per_worker, seed + h.index, max_inflight
            ),
            timeout,
        ).values()
        results = [control.load_result(load) for load in loads]
        return merge_results(results), results

    # -- collection ------------------------------------------------------

    def collect(
        self, backend, run_id: str, description: str = "", timeout: float = 120.0
    ) -> int:
        """Collect every worker's spool into ``backend`` as one run.

        Live workers are collected in ring order (matching the
        single-process reference's process order); dead workers are
        charged to ``failed_drains`` / ``records_uncollected`` from
        their last report, keeping the cluster-wide balance
        ``stored + lost + uncollected == produced``.

        Returns the number of records ingested.
        """
        shipped = self._broadcast(
            lambda h: h.stub.collect(run_id), timeout, tolerate_loss=True
        )
        return self._ingest(backend, run_id, description, shipped)

    def drain(self, backend, run_id: str = "drain", timeout: float = 60.0) -> int:
        """Graceful teardown: SIGTERM every worker, reap, and ingest the
        final spools they delivered on their way out."""
        for handle in self.handles:
            if handle.alive:
                handle.process.send_signal(signal.SIGTERM)
        self._reap(timeout, force=True)
        delivered = {h: h.delivered for h in self.handles if h.delivered is not None}
        return self._ingest(backend, run_id, "graceful drain", delivered)

    def _ingest(self, backend, run_id: str, description: str, shipped: dict) -> int:
        shipments, extra_loss, dead = [], [], []
        for handle in self.handles:
            if handle in shipped:
                shipment = shipped[handle]
                received = receive_shipment(asdict(shipment.manifest), shipment.segments)
                received.run_id = run_id
                shipments.append(received)
                continue
            extra_loss.append({
                "failed_drains": handle.process_names,
                "records_uncollected": sum(handle.last_buffered.values()),
            })
            dead.extend(handle.process_names)
        return ingest_shipments(
            backend, run_id, shipments, description=description,
            extra_loss=extra_loss, dead_processes=dead,
        )

    def poll(self) -> dict[int, bool]:
        """Liveness sweep: a worker is alive until its process exits."""
        for handle in self.handles:
            if handle.process.poll() is not None:
                handle.alive = False
        return {handle.index: handle.alive for handle in self.handles}

    def __enter__(self) -> "Cluster":
        self.up()
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is None:
            self.down()
            return
        # The with-body's own error is the one to report.
        with contextlib.suppress(TransportError, subprocess.TimeoutExpired):
            self.down()
