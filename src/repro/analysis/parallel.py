"""Sharded DSCG reconstruction — kept for the ledger, not for speed.

Chains are independent by construction: each Function UUID's chain
reconstructs from its own sorted event records (the Figure-4 state
machine never looks across chains), and the chain-local annotations
— end-to-end latency L(F) and self CPU SC_F — read only records inside
one chain. Concurrency-preserving monitoring work (Nazarpour et al.)
makes the same observation for multi-threaded CBSs: per-trace analysis
need not serialize. Under the GIL that buys no speed — the work is pure
Python, and the ledger's ``analysis.parallel.sharded2_records_per_s``
never resolves above the serial pass — so :func:`repro.analysis.reconstruct`
is serial and nothing in ``src/`` calls this module. It stays because
``bench/pipeline.py`` imports :func:`reconstruct_sharded` to measure that
metric (retiring it is a ``benchmark``-archetype change) and because it
is the unit a free-threaded interpreter would scale.

Sharding model: the sorted chain-uuid space is split into contiguous
ranges, one per worker, each handed to the backend as a bounded
``chains_for_run(first_chain, last_chain)`` scan. SQLite serves every
shard over its one connection, the lock taken per row batch, so shard
scans interleave rather than overlap. On the segment store the chain
groups of a sealed segment are byte-contiguous and sorted, so each shard
decodes a disjoint ``mmap`` range once the run is one sealed segment:
where the backend has a ``compact(run_id)`` (the segment store; SQLite
has none), it runs once before the pool starts. The merge is
deterministic: shards are consumed in range order, so the resulting
:class:`Dscg` is byte-identical to a serial reconstruction — the
equivalence the property tests assert.

Worker failures are never swallowed: the first shard exception propagates
out of :func:`reconstruct_sharded` (chains are either all present or the
call raises).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Sequence

import repro.analysis.statemachine as statemachine
from repro.analysis.dscg import Dscg

if TYPE_CHECKING:
    from repro.store.backend import StorageBackend
    from repro.store.query import ScanPredicate


def shard_bounds(
    chain_uuids: Sequence[str], workers: int
) -> list[tuple[str, str]]:
    """Split sorted chain uuids into contiguous inclusive (lo, hi) ranges.

    Ranges partition the input: concatenating each range's chains in
    order reproduces the full sorted sequence, which is what keeps the
    parallel merge deterministic.
    """
    count = len(chain_uuids)
    if count == 0:
        return []
    workers = max(1, min(workers, count))
    base, extra = divmod(count, workers)
    bounds: list[tuple[str, str]] = []
    start = 0
    for index in range(workers):
        size = base + (1 if index < extra else 0)
        bounds.append((chain_uuids[start], chain_uuids[start + size - 1]))
        start += size
    return bounds


def reconstruct_sharded(
    database: "StorageBackend",
    run_id: str,
    workers: int,
    predicate: "ScanPredicate | None" = None,
) -> Dscg:
    """:func:`repro.analysis.reconstruct` over a pool of shard scans.

    The chain-uuid space is cut exactly ``min(workers, chains)`` ways,
    one thread per shard, whatever the host's core count, and the shards
    merge in range order: the DSCG — chain iteration order and serialized
    JSON included — is identical to the serial pass. A ``predicate`` is
    pushed into every shard's bounded scan; chains whose records are all
    filtered out simply do not appear, as in the serial predicated pass.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    compact = getattr(database, "compact", None)
    if compact is not None:
        # Segment store: merge the run into one sealed segment so every
        # shard becomes a disjoint byte-range decode of it.
        compact(run_id)
    bounds = shard_bounds(database.unique_chain_uuids(run_id), workers)
    dscg = Dscg()
    if bounds:
        with ThreadPoolExecutor(
            max_workers=len(bounds), thread_name_prefix="repro-analyzer"
        ) as pool:
            futures = [
                pool.submit(
                    statemachine.reconstruct_range,
                    database, run_id, predicate, first, last,
                )
                for first, last in bounds
            ]
            # Consume in shard order, not completion order: the merged chain
            # sequence is then sorted by chain uuid exactly like the serial
            # scan. result() re-raises the first worker failure.
            for future in futures:
                for tree in future.result():
                    dscg.add_chain(tree)
    dscg.link_chains()
    return dscg
