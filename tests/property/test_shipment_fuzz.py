"""Byte-level fuzzing of what a coordinator receives from a worker.

A worker ships its sealed segments as exact bytes (``receive_shipment``);
the network, a disk or a bug may hand over something else. Take a valid
shipment — a shard's collection of simulated processes, or the golden
sealed file ``data/v3_sealed.seg``, whose arrival ranks pass ``u32`` —
truncate it, flip bits in it, overwrite a run of it (a length word among
them), delete a run of it, and receive it. It must then either decode to
exactly the shipped rows in the worker's arrival order, or raise
:class:`StoreError`: never another exception, never other rows. (The
column format's CRC32s make that possible.)

Derandomized: the examples are a function of this file alone. Tier-1
runs the suite profile's budget (``tests/conftest.py``); CI's fuzz job
raises it through ``REPRO_FUZZ_EXAMPLES``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.collector.sharded import ShardedSpoolCollector
from repro.core.records import SCHEMA_VERSION, as_row
from repro.errors import StoreError
from repro.store.ingest import receive_shipment

from tests.property.test_segment_fuzz import MUTATIONS, mutate
from tests.unit.cluster.test_shipping import worker_processes
from tests.unit.store.test_format_v3 import data as golden, expected_pairs

LENGTHS = st.lists(
    st.tuples(
        st.just("overwrite"), st.integers(0, 1 << 30),
        st.sampled_from([b"\xff\xff\xff\x7f", b"\x00\x00\x00\x00", b"\x01\x00\x00\x80"]),
    ),
    min_size=1, max_size=2,
)


@pytest.fixture(scope="module", params=["columns", "golden"])
def shipped(request, tmp_path_factory):
    """A manifest, the one shipped segment's bytes, and the rows that must
    come out of them, in the worker's arrival order."""
    if request.param == "golden":
        pairs = sorted(expected_pairs("v3_sealed.seg"), key=lambda pair: pair[0])
        manifest = {
            "run_id": "golden", "schema_version": SCHEMA_VERSION,
            "record_count": len(pairs), "processes": [], "loss": {}, "monitor_mode": "",
        }
        data = golden("v3_sealed.seg")
        rows = [tuple(as_row(record)) for _rank, record in pairs]
    else:
        processes, _records = worker_processes("9")
        shard = ShardedSpoolCollector(
            str(tmp_path_factory.mktemp("spool")), retries=0, backoff_s=0.0
        )
        shard.collect(processes, run_id="w0")
        manifest = shard.manifest("w0")
        shard.seal()
        (data,) = shard.segments("w0")
        rows = receive_shipment(manifest, [data]).records
    assert receive_shipment(manifest, [data]).records == rows
    return manifest, data, rows


def receive(manifest, data, rows, staging) -> None:
    try:
        shipment = receive_shipment(manifest, [data], workdir=str(staging))
    except StoreError:
        return
    assert shipment.records == rows


@settings(
    derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutations=MUTATIONS)
def test_damaged_shipment_decodes_whole_or_raises_store_error(shipped, mutations, tmp_path):
    manifest, data, rows = shipped
    receive(manifest, mutate(data, mutations), rows, tmp_path)


@settings(
    derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutations=LENGTHS)
def test_corrupted_length_words_decode_whole_or_raise_store_error(
    shipped, mutations, tmp_path
):
    manifest, data, rows = shipped
    receive(manifest, mutate(data, mutations), rows, tmp_path)
