"""Cluster-vs-single-process bit-identity verification.

The cluster's correctness claim is not "roughly the same picture" — it
is that running the seeded ring workload across real OS processes, with
per-host sharded collection and spool shipping, produces **byte-for-byte
the same DSCG JSON and CCSG XML** as running every endpoint inside one
interpreter and collecting directly. Global causality capture must not
depend on where the components ran (paper Section 3: logs are merged at
quiescence; nothing in the analysis consumes machine-local identity).

Both passes run the same builders (:mod:`repro.cluster.workload`); this
module executes them, reduces each store to a canonical JSON document
(DSCG, CCSG, loss accounting, process list, monitor modes), and compares.
``repro cluster identity`` writes the two documents for CI to ``diff``.
"""

from __future__ import annotations

import json
import os

from repro.analysis import (
    CpuAnalysis,
    build_ccsg,
    dscg_to_json,
    reconstruct,
    render_ccsg_xml,
)
from repro.cluster.coordinator import Cluster
from repro.cluster.workload import build_reference_deployments, drive_calls
from repro.collector import LogCollector
from repro.platform import Network, quiesce
from repro.store import SegmentStore

#: Fixed run id for both passes, so run-scoped strings (the CCSG XML
#: description) cannot differ for bookkeeping reasons.
IDENTITY_RUN_ID = "cluster-identity"


def summarize_run(backend, run_id: str, workers: int, calls: int) -> dict:
    """Reduce one collected run to the canonical comparison document."""
    dscg = reconstruct(backend, run_id)
    ccsg = build_ccsg(dscg, CpuAnalysis(dscg))
    meta = next(m for m in backend.runs() if m.run_id == run_id)
    return {
        "run_id": run_id,
        "workers": workers,
        "calls_per_worker": calls,
        "records": backend.record_count(run_id),
        "monitor_mode": meta.monitor_mode,
        "processes": meta.extra.get("processes", []),
        "loss": meta.extra.get("loss", {}),
        "dscg_json": dscg_to_json(dscg),
        "ccsg_xml": render_ccsg_xml(ccsg, description=run_id),
    }


def run_cluster_pass(
    workers: int, calls: int, store_path: str, spool_root: str | None = None
) -> dict:
    """The real thing: worker OS processes, TCP data plane, shipped spools."""
    store = SegmentStore(store_path)
    try:
        cluster = Cluster(workers, plane="identity", spool_root=spool_root)
        cluster.up()
        try:
            cluster.run_calls(calls)
            cluster.collect(store, IDENTITY_RUN_ID, description=IDENTITY_RUN_ID)
        finally:
            cluster.down()
        return summarize_run(store, IDENTITY_RUN_ID, workers, calls)
    finally:
        store.close()


def run_reference_pass(workers: int, calls: int, store_path: str) -> dict:
    """The reference: identical builders, one interpreter, direct collection."""
    network = Network()
    deployments = build_reference_deployments(workers, network)
    try:
        for deployment in deployments:
            drive_calls(deployment, calls)
            quiesce(deployment.processes)
        processes = [
            process
            for deployment in deployments
            for process in deployment.processes
        ]
        store = SegmentStore(store_path)
        try:
            LogCollector(backend=store).collect(
                processes, run_id=IDENTITY_RUN_ID, description=IDENTITY_RUN_ID
            )
            return summarize_run(store, IDENTITY_RUN_ID, workers, calls)
        finally:
            store.close()
    finally:
        for deployment in deployments:
            deployment.shutdown()


def compare_documents(cluster_doc: dict, reference_doc: dict) -> dict:
    """Field-by-field identity verdict (all must hold for bit-identity)."""
    checks = {
        key: cluster_doc[key] == reference_doc[key]
        for key in (
            "records",
            "monitor_mode",
            "processes",
            "loss",
            "dscg_json",
            "ccsg_xml",
        )
    }
    checks["identical"] = all(checks.values())
    return checks


def run_identity_check(
    workers: int,
    calls: int,
    workdir: str,
    cluster_output: str | None = None,
    reference_output: str | None = None,
) -> dict:
    """Run both passes under ``workdir`` and compare.

    Returns ``{"checks": ..., "cluster": ..., "reference": ...}``; the
    optional output paths get each pass's canonical JSON document, byte
    comparable with ``diff`` (what the CI job does).
    """
    cluster_doc = run_cluster_pass(
        workers,
        calls,
        os.path.join(workdir, "cluster-store"),
        spool_root=workdir,
    )
    reference_doc = run_reference_pass(
        workers, calls, os.path.join(workdir, "reference-store")
    )
    for path, doc in (
        (cluster_output, cluster_doc),
        (reference_output, reference_doc),
    ):
        if path:
            with open(path, "w") as handle:
                json.dump(doc, handle, indent=2, sort_keys=True)
                handle.write("\n")
    return {
        "checks": compare_documents(cluster_doc, reference_doc),
        "cluster": cluster_doc,
        "reference": reference_doc,
    }
