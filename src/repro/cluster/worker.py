"""One cluster worker: a real OS process hosting ORB endpoints.

Launched by the coordinator as ``python -m repro.cluster.worker`` with
its ring index, the worker builds its driver/server deployment on a
:class:`~repro.cluster.transport.SocketTransport`, adds a control ORB on
a process of its own, and calls ``Coordinator.hello`` with its endpoints
and object refs. From then on it is the ``Control::Worker`` servant of
:mod:`repro.cluster.control`: ``wire`` resolves its ring neighbour,
``run_calls`` / ``run_load`` drive the data plane, ``collect`` returns
its local spool's sealed segments, and ``shutdown`` ends the process.

A heartbeat thread reports log-buffer occupancy as a oneway call — what
lets the coordinator charge an abruptly killed worker's records to
``records_uncollected``. SIGTERM drains: the main thread collects a
final spool under ``drain-<index>``, ``deliver``s it to the coordinator
and exits 0. A heartbeat that cannot reach the coordinator ends the
worker with status 1, telling a lost coordinator from a clean stop.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import os
import queue
import shutil
import signal
import sys
import tempfile
import threading

from repro.cluster import control
from repro.cluster.loadgen import open_loop
from repro.cluster.transport import SocketTransport
from repro.cluster.workload import (
    build_load_deployment,
    build_worker_deployment,
    drive_calls,
)
from repro.collector.sharded import ShardedSpoolCollector
from repro.errors import OrbError, TransportError
from repro.orb.refs import ObjectRef
from repro.platform import quiesce

HEARTBEAT_INTERVAL_S = 0.5


class Worker:
    def __init__(
        self,
        index: int,
        workers: int,
        coordinator: tuple[str, int],
        plane: str = "identity",
        spool_root: str | None = None,
    ):
        self.index = index
        self.workers = workers
        self.coordinator = coordinator
        self.plane = plane
        self.spool_root = spool_root
        self.deployment = None
        self.transport = SocketTransport()
        #: Serializes commands, and the drain after them.
        self._lock = threading.Lock()
        #: Report sequence numbers, taken with the reading they stamp.
        self._reports = itertools.count()
        self._report_lock = threading.Lock()
        #: Why the main thread should stop. ``SimpleQueue.put`` is
        #: reentrant, so the SIGTERM handler may call it.
        self._wake: queue.SimpleQueue[str] = queue.SimpleQueue()
        self._stopped = threading.Event()

    # -- lifecycle -------------------------------------------------------

    def run(self) -> int:
        signal.signal(signal.SIGTERM, lambda _signum, _frame: self._wake.put("drain"))
        build = build_load_deployment if self.plane == "load" else build_worker_deployment
        self.deployment = build(self.index, self.workers, self.transport)
        orb = control.control_orb(f"control-{self.index:02d}", self.transport)
        ref = orb.activate(self, interface="Control::Worker")
        self.transport.set_endpoints({control.COORDINATOR.address: self.coordinator})
        coordinator = orb.resolve(control.COORDINATOR)
        endpoints = [
            control.idl().Endpoint(address, host, port)
            for address, (host, port) in self.transport.local_endpoints().items()
        ]
        coordinator.hello(
            self.index, os.getpid(), ref.to_url(), self.deployment.local_ref_url, endpoints
        )
        threading.Thread(
            target=self._heartbeat_loop, args=(coordinator,),
            name="cluster-heartbeat", daemon=True,
        ).start()
        reason = self._wake.get()
        try:
            if reason == "drain":
                with self._lock:
                    coordinator.deliver(self.index, self._ship(f"drain-{self.index:02d}"))
        finally:
            self._stopped.set()
            orb.process.shutdown()
            self.transport.close()
        return 1 if reason == "lost" else 0

    def _heartbeat_loop(self, coordinator) -> None:
        try:
            while not self._stopped.wait(HEARTBEAT_INTERVAL_S):
                coordinator.heartbeat(self.index, self._report())
        except (TransportError, OrbError):
            self._wake.put("lost")

    def _report(self):
        with self._report_lock:
            buffered = {p.name: len(p.log_buffer) for p in self.deployment.processes}
            seq = next(self._reports)
        return control.idl().Report(seq, control.occupancy(buffered))

    # -- Control::Worker --------------------------------------------------

    def wire(self, endpoints, refs) -> None:
        self.transport.set_endpoints({e.address: (e.host, e.port) for e in endpoints})
        self.deployment.connect({ObjectRef.from_url(url).address: url for url in refs})

    def run_calls(self, calls):
        types = control.idl()
        with self._lock:
            _errors, results = drive_calls(self.deployment, calls)
            quiesce(self.deployment.processes)
            outcomes = [
                types.Outcome(0, r) if isinstance(r, str) else types.Outcome(r, "")
                for r in results
            ]
            return types.CallsDone(outcomes, self._report())

    def run_load(self, rate, arrivals, seed, max_inflight):
        stub = self.deployment.stub

        async def call(i):
            await stub.ping(i)

        with self._lock:
            result = asyncio.run(open_loop(
                call, rate_per_s=rate, arrivals=arrivals, seed=seed,
                max_inflight=max_inflight,
            ))
        return control.load_struct(result)

    def collect(self, run_id):
        with self._lock:
            return self._ship(run_id)

    def shutdown(self) -> None:
        self._wake.put("shutdown")

    def _ship(self, run_id: str):
        """Collect the local buffers into a sealed spool and return it as a
        ``Shipment``: the manifest plus every segment's exact bytes."""
        quiesce(self.deployment.processes)
        spool = tempfile.mkdtemp(
            prefix=f"repro-spool-{self.index:02d}-", dir=self.spool_root
        )
        try:
            shard = ShardedSpoolCollector(spool)
            shard.collect(self.deployment.processes, run_id=run_id)
            manifest = shard.manifest(run_id)
            shard.seal()
            segments = shard.segments(run_id)
        finally:
            shutil.rmtree(spool, ignore_errors=True)
        types = control.idl()
        manifest["loss"] = types.Loss(**manifest["loss"])
        return types.Shipment(types.Manifest(**manifest), segments)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repro cluster worker")
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument(
        "--connect", required=True, help="coordinator control address host:port"
    )
    parser.add_argument(
        "--plane", choices=("identity", "load"), default="identity"
    )
    parser.add_argument("--spool-root", default=None)
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    worker = Worker(
        index=args.index,
        workers=args.workers,
        coordinator=(host, int(port)),
        plane=args.plane,
        spool_root=args.spool_root,
    )
    return worker.run()


if __name__ == "__main__":
    sys.exit(main())
