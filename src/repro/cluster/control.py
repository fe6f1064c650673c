"""The cluster's control surface, declared in IDL and served by the ORB.

Control calls ride the data plane's
:class:`~repro.cluster.transport.SocketTransport`, each endpoint on a
control :class:`~repro.platform.SimProcess` of its own, so the monitored
processes never see them; the stubs are compiled uninstrumented. The
three servants: ``Worker`` (:mod:`repro.cluster.worker`), whose
``collect`` returns the run's sealed segments as ``sequence<octet>`` —
their exact on-disk bytes; ``Coordinator``
(:class:`~repro.cluster.coordinator.Cluster`); and ``Service``
(:mod:`repro.cluster.service`), the daemon behind ``repro cluster``.

A ``Report``'s ``seq`` orders a worker's occupancy reports: heartbeats
and command replies travel on different connections, in either order.
"""

from __future__ import annotations

import functools

from repro.cluster.loadgen import LatencyHistogram, LoadResult
from repro.idl import compile_idl
from repro.orb import InterfaceRegistry, Orb
from repro.orb.refs import ObjectRef
from repro.platform import Host, PlatformKind, SimProcess

CONTROL_IDL = """
module Control {
  typedef sequence<octet> Blob;
  struct Endpoint { string address; string host; long port; };
  struct Occupancy { string process; long records; };
  struct Report { unsigned long long seq; sequence<Occupancy> buffered; };
  struct Outcome { long value; string error; };
  struct CallsDone { sequence<Outcome> outcomes; Report report; };
  struct Load {
    long offered; long completed; long shed; long errors;
    long long duration_ns; sequence<long> histogram;
  };
  struct Loss {
    long drain_retries; sequence<string> failed_drains;
    long records_dropped_at_probe; long records_lost_in_delivery;
    long records_uncollected;
  };
  struct Manifest {
    string run_id; long record_count; Loss loss; sequence<string> processes;
    string monitor_mode; long schema_version;
  };
  struct Shipment { Manifest manifest; sequence<Blob> segments; };
  struct Liveness { long index; boolean alive; sequence<Occupancy> buffered; };

  interface Worker {
    void wire(in sequence<Endpoint> endpoints, in sequence<string> refs);
    CallsDone run_calls(in long calls);
    Load run_load(in double rate, in long arrivals, in long seed,
                  in long max_inflight);
    Shipment collect(in string run_id);
    oneway void shutdown();
  };

  interface Coordinator {
    void hello(in long index, in long pid, in string worker_ref,
               in string server_ref, in sequence<Endpoint> endpoints);
    oneway void heartbeat(in long index, in Report report);
    void deliver(in long index, in Shipment shipment);
  };

  interface Service {
    sequence<Liveness> status();
    sequence<long> run_calls(in long calls);  // errors, per live worker
    sequence<Load> run_load(in double rate, in long arrivals, in long seed,
                            in long max_inflight);
    long collect(in string database, in string backend, in string run_id,
                 in string description);
    long drain(in string database, in string backend, in string run_id);
    void down();
  };
};
"""

REGISTRY = InterfaceRegistry()
#: The coordinator's servant: a fixed address and key, so a worker needs
#: only the control endpoint named on its command line to find it.
COORDINATOR = ObjectRef("coordinator", "coordinator", "Control::Coordinator")


@functools.cache
def idl():
    """The compiled control module (compiled once, on first use)."""
    return compile_idl(CONTROL_IDL, instrument=False, registry=REGISTRY)


def control_orb(name: str, transport, timeout: float = 60.0) -> Orb:
    """An ORB for control traffic on an unmonitored process of its own; a
    call not answered within ``timeout`` seconds raises ``TransportError``."""
    idl()
    process = SimProcess(name, Host(f"{name}-host", PlatformKind.HPUX_11))
    return Orb(process, transport, registry=REGISTRY, request_timeout=timeout)


def occupancy(buffered: dict[str, int]) -> list:
    """``{process: records}`` as ``Occupancy`` structs."""
    return [idl().Occupancy(name, count) for name, count in buffered.items()]


def load_struct(result: LoadResult):
    return idl().Load(
        result.offered, result.completed, result.shed, result.errors,
        result.duration_ns, result.histogram.counts,
    )


def load_result(load) -> LoadResult:
    return LoadResult(
        load.offered, load.completed, load.shed, load.errors, load.duration_ns,
        LatencyHistogram.from_counts(load.histogram),
    )
