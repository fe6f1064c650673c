"""repro.cluster — real-socket, multi-process deployment.

The paper's Section-3 architecture run for real: ORB endpoints in
separate OS processes over a framed TCP transport
(:class:`SocketTransport`, the in-memory network seam over actual
sockets), one sharded collector per host collecting locally
(:class:`~repro.collector.sharded.ShardedSpoolCollector`), sealed
``.seg`` files shipped to a central store (:mod:`repro.store.ingest`)
where the unchanged analyzer runs — and an open-loop load generator
(:mod:`repro.cluster.loadgen`) that sweeps offered load across worker
processes to find the saturation knee. The control plane itself is IDL
(:mod:`repro.cluster.control`) on the same ORB and transport.

The deployment topology is provably transparent:
:mod:`repro.cluster.identity` shows a seeded cluster run's DSCG/CCSG
output byte-identical to the same workload in one interpreter.
"""

from repro.cluster.coordinator import Cluster, WorkerHandle
from repro.cluster.loadgen import (
    LatencyHistogram,
    LoadResult,
    find_knee,
    merge_results,
    modeled_users,
    open_loop,
)
from repro.cluster.transport import SocketConnection, SocketTransport
from repro.cluster.workload import (
    CLUSTER_IDL,
    WorkerDeployment,
    build_load_deployment,
    build_reference_deployments,
    build_worker_deployment,
    drive_calls,
)

__all__ = [
    "CLUSTER_IDL",
    "Cluster",
    "LatencyHistogram",
    "LoadResult",
    "SocketConnection",
    "SocketTransport",
    "WorkerDeployment",
    "WorkerHandle",
    "build_load_deployment",
    "build_reference_deployments",
    "build_worker_deployment",
    "drive_calls",
    "find_knee",
    "merge_results",
    "modeled_users",
    "open_loop",
]
