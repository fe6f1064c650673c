"""Property: the frame-level fold answers what the record-level fold does.

``SegmentStore.fold_operations`` folds per-operation counts and wall
intervals straight from the frames (``SegmentReader.fold``); the oracle is
:func:`repro.store.query.fold_operations` over ``chains_for_run``, which
builds every record. On random stores in every physical state the
function zone map property builds (several spools, one sealed segment,
sealed + fresh spools, recompacted), plus a salvaged one (a spool cut
short), under random predicates, the two must agree on every operation's records, timed count, wall sum / min /
max and sorted intervals, on the chain count, and on every
:class:`ScanStats` field. ``population_stats`` — the same walk — must
equal :func:`~repro.store.query.fold_population_stats` over the
predicated ``all_records``, and the anchor bounds a catalog summary keeps
must equal the records' own. The same property runs again with column
blocks of a few rows over a wider chain pool, so that every store holds
several blocks, each sealed block several groups, and a pruned read
gathers a few groups out of many blocks.
"""

import os
from unittest import mock

from hypothesis import given, strategies as st

from repro.core import TracingEvent
from repro.store import RunCatalog, ScanStats, SegmentStore
from repro.store import segment as segment_module
from repro.store.query import fold_operations, fold_population_stats, record_anchor

from tests.property.test_function_zone_map import (
    CHAINS,
    INTERFACES,
    OPERATIONS,
    build_store,
    predicates,
)


#: Chains for the small-block stores: CHAINS and more under both prefixes,
#: so a sealed block holds several groups and a prefix keeps some of them.
WIDE_CHAINS = [f"{prefix}{i:030x}" for prefix in ("0a", "0b") for i in range(10)]
#: Rows per column block in the small-block stores.
SMALL_BLOCK = 5


def _records(chains):
    # Either wall reading may be missing: an interval needs both, and a
    # frame with only ``wall_end`` stores it absolute.
    return st.builds(
        lambda chain, interface, operation, event, thread, start, end, semantics: dict(
            chain=chain, interface=interface, operation=operation, event=event,
            thread_id=thread, wall_start=start, wall_end=end, semantics=semantics,
        ),
        st.sampled_from(chains),
        st.sampled_from(INTERFACES),
        st.sampled_from(OPERATIONS),
        st.sampled_from(list(TracingEvent)),
        st.sampled_from([111, 112, 140_000_000_000_001]),
        st.one_of(st.none(), st.integers(0, 1000)),
        st.one_of(st.none(), st.integers(0, 1200)),
        st.one_of(st.none(), st.dictionaries(st.sampled_from("ab"), st.integers(0, 9),
                                             max_size=2)),
    )


def normalized(operations):
    return {
        key: (op.records, op.timed, op.wall_sum, op.wall_min, op.wall_max,
              sorted(op.durations))
        for key, op in operations.items()
    }


def assert_folds_agree(store, run_id, predicate):
    by_frames, by_records = ScanStats(), ScanStats()
    folded, chains = store.fold_operations(run_id, predicate, by_frames)
    expected, expected_chains = fold_operations(
        store.chains_for_run(run_id, predicate=predicate, stats=by_records)
    )
    assert normalized(folded) == normalized(expected)
    assert chains == expected_chains
    assert by_frames == by_records
    assert store.population_stats(run_id, predicate) == fold_population_stats(
        store.all_records(run_id, predicate=predicate)
    )


def assert_bounds_agree(store, run_id):
    anchors = [
        anchor for record in store.all_records(run_id)
        if (anchor := record_anchor(record.wall_start, record.wall_end)) is not None
    ]
    bounds = [
        fold.bounds for fold in store.fold_segments(run_id, anchors=True)
        if fold.bounds is not None
    ]
    expected = (min(anchors, default=None), max(anchors, default=None))
    assert (
        min((lo for lo, _hi in bounds), default=None),
        max((hi for _lo, hi in bounds), default=None),
    ) == expected
    summary = RunCatalog(store).summary(run_id, refresh=True)
    assert (summary.ts_min, summary.ts_max) == expected


def salvage_last_segment(store, cut):
    """Reopen ``store`` with its newest segment cut to ``cut`` of its bytes."""
    run_dir = os.path.join(store.path, "runs", "p")
    store.close()
    victim = os.path.join(
        run_dir, max(name for name in os.listdir(run_dir) if name.endswith(".seg"))
    )
    with open(victim, "rb") as handle:
        data = handle.read()
    with open(victim, "wb") as handle:
        handle.write(data[: int(len(data) * cut)])
    return SegmentStore(store.path, auto_compact=0)


def check_folds(root, fields, layout, batches, overflow, cut, wanted):
    store, _records = build_store(
        root, fields, "spools" if layout == "salvaged" else layout, batches, overflow,
    )
    if layout == "salvaged":
        store = salvage_last_segment(store, cut)
    try:
        for predicate in [None, *wanted]:
            assert_folds_agree(store, "p", predicate)
        assert_bounds_agree(store, "p")
    finally:
        store.close()


_LAYOUTS = st.sampled_from(["spools", "sealed", "sealed+spool", "recompacted", "salvaged"])


@given(
    fields=st.lists(_records(CHAINS), min_size=1, max_size=40),
    layout=_LAYOUTS,
    batches=st.integers(1, 4),
    overflow=st.booleans(),
    cut=st.floats(0.3, 0.95),
    wanted=st.lists(predicates(), min_size=1, max_size=4),
)
def test_frame_fold_equals_record_fold(
    tmp_path_factory, fields, layout, batches, overflow, cut, wanted
):
    check_folds(
        str(tmp_path_factory.mktemp("fold")), fields, layout, batches, overflow, cut, wanted
    )


@given(
    fields=st.lists(_records(WIDE_CHAINS), min_size=1, max_size=60),
    layout=_LAYOUTS,
    batches=st.integers(1, 4),
    overflow=st.booleans(),
    cut=st.floats(0.3, 0.95),
    wanted=st.lists(predicates(), min_size=1, max_size=4),
)
def test_small_block_fold_equals_record_fold(
    tmp_path_factory, fields, layout, batches, overflow, cut, wanted
):
    with mock.patch.object(segment_module, "_BLOCK_ROWS", SMALL_BLOCK):
        check_folds(
            str(tmp_path_factory.mktemp("fold")), fields, layout, batches, overflow, cut,
            wanted,
        )
