"""Long-lived cluster service behind ``repro cluster up/run/down``.

A :class:`~repro.cluster.coordinator.Cluster` lives only as long as the
process that created it, so the CLI's ``up`` command spawns *this*
module as a detached daemon. The daemon brings the cluster up, activates
the ``Control::Service`` servant (:mod:`repro.cluster.control`) on a
control ORB of its own, and records the servant's object ref URL and
endpoint in ``<state>/state.json``. Later ``repro cluster
run/collect/status/down`` invocations resolve that ref (:func:`service`)
and call it.

The state directory is the handle: one directory == one running
cluster. ``down`` and ``drain`` tear the cluster down (``drain`` via the
SIGTERM path, shipping final spools into a store first); once the reply
has gone out the daemon removes the state file and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import threading

from repro.cluster import control
from repro.cluster.coordinator import Cluster
from repro.cluster.transport import SocketTransport
from repro.errors import RemoteApplicationError
from repro.store import open_store

STATE_FILE = "state.json"
#: The service servant's address and object key.
SERVICE = "service"


def state_path(state_dir: str) -> str:
    return os.path.join(state_dir, STATE_FILE)


def read_state(state_dir: str) -> dict:
    path = state_path(state_dir)
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise SystemExit(f"no cluster state at {path} (is the cluster up?)")


@contextlib.contextmanager
def service(state_dir: str, timeout: float = 600.0):
    """A ``Control::Service`` stub for the daemon named by ``state_dir``,
    whose calls fail after ``timeout`` seconds; a failure the daemon
    reports exits with its message."""
    state = read_state(state_dir)
    transport = SocketTransport()
    transport.set_endpoints({SERVICE: ("127.0.0.1", state["port"])})
    orb = control.control_orb("cli", transport, timeout)
    try:
        yield orb.resolve(state["url"])
    except RemoteApplicationError as exc:
        raise SystemExit(f"cluster service failed: {exc}") from exc
    finally:
        orb.process.shutdown()
        transport.close()


class ClusterService:
    """The daemon's cluster, and its ``Control::Service`` servant."""

    def __init__(self, state_dir: str, workers: int, plane: str):
        self.state_dir = state_dir
        self.cluster = Cluster(workers, plane=plane, spool_root=state_dir)
        self._done = threading.Event()
        self._answering: threading.Thread | None = None

    def serve(self) -> int:
        os.makedirs(self.state_dir, exist_ok=True)
        self.cluster.up()
        transport = SocketTransport()
        orb = control.control_orb(SERVICE, transport)
        ref = orb.activate(self, interface="Control::Service", object_key=SERVICE)
        with open(state_path(self.state_dir), "w") as handle:
            json.dump(
                {
                    "pid": os.getpid(),
                    "port": transport.local_endpoints()[SERVICE][1],
                    "url": ref.to_url(),
                    "workers": self.cluster.workers,
                    "plane": self.cluster.plane,
                    "worker_pids": [h.pid for h in self.cluster.handles],
                },
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        try:
            self._done.wait()
            # The thread that served down/drain sends its reply on return.
            self._answering.join()
        finally:
            os.unlink(state_path(self.state_dir))
            orb.process.shutdown()
            transport.close()
        return 0

    def _finish(self) -> None:
        self._answering = threading.current_thread()
        self._done.set()

    # -- Control::Service -------------------------------------------------

    def status(self):
        alive = self.cluster.poll()
        return [
            control.idl().Liveness(
                h.index, alive[h.index], control.occupancy(h.last_buffered)
            )
            for h in self.cluster.handles
        ]

    def run_calls(self, calls):
        return [reply["errors"] for reply in self.cluster.run_calls(calls)]

    def run_load(self, rate, arrivals, seed, max_inflight):
        _merged, per_worker = self.cluster.run_load(
            rate_per_worker=rate, arrivals_per_worker=arrivals, seed=seed,
            max_inflight=max_inflight,
        )
        return [control.load_struct(result) for result in per_worker]

    def collect(self, database, backend, run_id, description):
        store = open_store(database, backend=backend or None)
        try:
            return self.cluster.collect(store, run_id, description=description)
        finally:
            store.close()

    def drain(self, database, backend, run_id):
        store = open_store(database, backend=backend or None)
        try:
            records = self.cluster.drain(store, run_id=run_id)
        finally:
            store.close()
        self._finish()
        return records

    def down(self) -> None:
        self.cluster.down()
        self._finish()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repro cluster service daemon")
    parser.add_argument("--state", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--plane", choices=("identity", "load"), default="identity")
    args = parser.parse_args(argv)
    return ClusterService(args.state, args.workers, args.plane).serve()


if __name__ == "__main__":
    sys.exit(main())
