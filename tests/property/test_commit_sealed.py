"""Property: a collection commits the file compaction would have written.

Over the record sets of ``test_compaction_relocation`` — every presence
combination of the four clock readings (LATENCY and CPU processes), child
links (oneway forks), semantics payloads, event-number ties, start
readings on both sides of the ``i32`` boundary (wide columns) — handed to
``SegmentStore.bulk_ingest`` in one to four batches, with a column-block
size small enough that most files hold several blocks:

- the sealed segment the commit writes is, byte for byte, what
  ``reference_compact`` (decode + per chain ``append(records, ranks)``,
  the record-level oracle) writes over a spool of the same
  batches, *and* what a non-transactional insert of the same batches,
  then ``compact()``, writes;
- a second collection into the run commits a second sealed segment whose
  ranks are ``base + position`` (its header says ``arrival_base = base``,
  the only bytes the oracle's file differs in); the first stays, through a
  close and reopen; and compacting the two equals ``reference_compact`` of
  both.

CI's fuzz job raises the example count through ``REPRO_FUZZ_EXAMPLES``.
"""

import os
import struct
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core import RunMetadata
from repro.store import SegmentStore
from repro.store import segment as segment_module

from tests.property.test_compaction_relocation import _record
from tests.unit.store.test_compaction_relocation import (
    RUN,
    brute_arrival,
    brute_chains,
    reference_compact,
    write_spool,
)

#: Each example commits, compacts and reads back two stores (about 60 ms),
#: so tier-1 keeps 60 of them; ``REPRO_FUZZ_EXAMPLES`` overrides.
EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "0")) or 60

_records = st.lists(_record, min_size=1, max_size=40)
_flush = st.sampled_from([6, 40, 4096])


def split(records, parts):
    step = -(-len(records) // parts)
    return [records[lo:lo + step] for lo in range(0, len(records), step)]


def commit(store, batches):
    """One collection transaction; returns the path of what it wrote."""
    before = {reader.path for reader in store._segments(store._run(RUN, create=True))}
    with store.bulk_ingest():
        store.create_run(RunMetadata(run_id=RUN))
        for batch in batches:
            store.insert_records(RUN, batch)
    (written,) = [
        reader for reader in store._segments(store._run(RUN))
        if reader.path not in before
    ]
    assert written.sealed and not written.partial
    return written.path


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


@settings(max_examples=EXAMPLES)
@given(records=_records, parts=st.integers(1, 4), flush=_flush)
def test_commit_writes_what_compaction_would(tmp_path_factory, records, parts, flush):
    root = tmp_path_factory.mktemp("commit")
    batches = split(records, parts)
    with mock.patch.object(segment_module, "_BLOCK_ROWS", flush):
        store = SegmentStore(str(root / "committed"), auto_compact=0)
        parent = SegmentStore(str(root / "compacted"), auto_compact=0)
        try:
            committed = read(commit(store, batches))
            assert store.compact(RUN) is False
            assert store.compaction_state(RUN)["compacted"]

            # (a) the record-level oracle over a spool of the same batches.
            spool = write_spool(str(root), 1, records, 0)
            pairs = reference_compact([spool], str(root / "expected.sealed.seg"))
            assert committed == read(root / "expected.sealed.seg")

            # (b) spool(s), then the merge.
            for batch in batches:
                parent.insert_records(RUN, batch)
            assert parent.compact(RUN) is True
            (merged,) = parent._segments(parent._run(RUN))
            assert committed == read(merged.path)

            assert list(store.chains_for_run(RUN)) == brute_chains(pairs)
            assert list(store.all_records(RUN)) == records
        finally:
            store.close()
            parent.close()


@settings(max_examples=EXAMPLES)
@given(first=_records, second=_records, parts=st.integers(1, 3), flush=_flush)
def test_second_collection_is_a_second_sealed_segment(
    tmp_path_factory, first, second, parts, flush
):
    root = tmp_path_factory.mktemp("second")
    with mock.patch.object(segment_module, "_BLOCK_ROWS", flush):
        store = SegmentStore(str(root / "store"), auto_compact=0)
        try:
            one = commit(store, split(first, parts))
            two = commit(store, split(second, parts))

            # The second file alone: ranks are base + position.
            spool = write_spool(str(root), 2, second, len(first))
            reference_compact([spool], str(root / "second.sealed.seg"))
            committed = read(two)
            assert struct.unpack_from("<Q", committed, 8) == (len(first),)
            assert committed[:8] + bytes(8) + committed[16:] == read(
                root / "second.sealed.seg"
            )

            pairs = reference_compact([one, two], str(root / "both.sealed.seg"))
            assert brute_arrival(pairs) == first + second

            def same_answers():
                assert store.record_count(RUN) == len(pairs)
                assert list(store.chains_for_run(RUN)) == brute_chains(pairs)
                assert list(store.all_records(RUN)) == first + second

            same_answers()
            state = store.compaction_state(RUN)
            assert (state["sealed_segments"], state["compacted"]) == (2, False)

            # Closed and reopened, both segments are still there.
            store.close()
            store = SegmentStore(str(root / "store"), auto_compact=0)
            assert store.compaction_state(RUN)["sealed_segments"] == 2
            same_answers()

            assert store.compact(RUN) is True
            (merged,) = store._segments(store._run(RUN))
            assert read(merged.path) == read(root / "both.sealed.seg")
            same_answers()
        finally:
            store.close()
