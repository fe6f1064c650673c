"""Property: the frame-level fold answers what the record-level fold does.

``SegmentStore.fold_operations`` folds per-operation counts and wall
intervals straight from the frames (``SegmentReader.fold``); the oracle is
:func:`repro.store.query.fold_operations` over ``chains_for_run``, which
builds every record. On random stores in every physical state the
function zone map property builds (several spools, one sealed segment,
sealed + fresh spools, recompacted), plus a salvaged one (a spool cut
short), and on the schema v1 files, under random predicates, the two
must agree on every operation's records, timed count, wall sum / min /
max and sorted intervals, on the chain count, and on every
:class:`ScanStats` field. ``population_stats`` — the same walk — must
equal :func:`~repro.store.query.fold_population_stats` over the
predicated ``all_records``, and the anchor bounds a catalog summary keeps
must equal the records' own.
"""

import json
import os
import shutil

import pytest
from hypothesis import given, strategies as st

from repro.store import ScanPredicate, ScanStats, SegmentStore
from repro.store.query import fold_operations, fold_population_stats, record_anchor

from tests.property.test_function_zone_map import (
    CHAINS,
    INTERFACES,
    OPERATIONS,
    build_store,
    predicates,
)
from tests.unit.store.test_schema_v1 import DATA, FILES, expected_pairs


# Either wall reading may be missing: an interval needs both, and a frame
# with only ``wall_end`` stores it absolute.
_record = st.builds(
    lambda chain, interface, operation, start, end, semantics: dict(
        chain=chain, interface=interface, operation=operation,
        wall_start=start, wall_end=end, semantics=semantics,
    ),
    st.sampled_from(CHAINS),
    st.sampled_from(INTERFACES),
    st.sampled_from(OPERATIONS),
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
    assert (
        min((lo for lo, _hi in bounds), default=None),
        max((hi for _lo, hi in bounds), default=None),
    ) == (min(anchors, default=None), max(anchors, default=None))


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


@given(
    fields=st.lists(_record, min_size=1, max_size=40),
    layout=st.sampled_from(["spools", "sealed", "sealed+spool", "recompacted", "salvaged"]),
    batches=st.integers(1, 4),
    overflow=st.booleans(),
    cut=st.floats(0.3, 0.95),
    wanted=st.lists(predicates(), min_size=1, max_size=4),
)
def test_frame_fold_equals_record_fold(
    tmp_path_factory, fields, layout, batches, overflow, cut, wanted
):
    store, _records = build_store(
        str(tmp_path_factory.mktemp("fold")), fields,
        "spools" if layout == "salvaged" else layout, batches, overflow,
    )
    if layout == "salvaged":
        store = salvage_last_segment(store, cut)
    try:
        for predicate in [None, *wanted]:
            assert_folds_agree(store, "p", predicate)
        assert_bounds_agree(store, "p")
    finally:
        store.close()


_V1_RECORDS = [record for name in FILES for _rank, record in expected_pairs(name)]
_V1_CHAINS = sorted({record.chain_uuid for record in _V1_RECORDS})
_V1_ANCHORS = sorted(
    anchor for record in _V1_RECORDS
    if (anchor := record_anchor(record.wall_start, record.wall_end)) is not None
)


@st.composite
def v1_predicates(draw):
    def names(pool):
        return st.one_of(st.none(), st.sets(st.sampled_from(sorted(pool) + ["absent"]),
                                            min_size=1, max_size=2))

    lo = draw(st.one_of(st.none(), st.sampled_from(_V1_ANCHORS)))
    hi = draw(st.one_of(st.none(), st.sampled_from([a for a in _V1_ANCHORS if a >= (lo or 0)])))
    return ScanPredicate(
        ts_min=lo, ts_max=hi,
        interfaces=draw(names({r.interface for r in _V1_RECORDS})),
        operations=draw(names({r.operation for r in _V1_RECORDS})),
        chain_prefix=draw(st.one_of(st.none(), st.sampled_from(
            sorted({chain[:31] for chain in _V1_CHAINS}) + ["f"]
        ))),
    )


@pytest.fixture(scope="module")
def v1_run(tmp_path_factory):
    """The three schema v1 files as one run ``p``, read-only."""
    root = str(tmp_path_factory.mktemp("v1fold"))
    run_dir = os.path.join(root, "runs", "p")
    os.makedirs(run_dir)
    for number, name in enumerate(FILES, start=1):
        kind = "sealed" if name == "v1_sealed.seg" else "spool"
        shutil.copy(os.path.join(DATA, name), os.path.join(run_dir, f"{number:06d}.{kind}.seg"))
    with open(os.path.join(root, "repro-store.json"), "w") as handle:
        json.dump({"format": "repro-segment-store", "version": 1, "schema_version": 1}, handle)
    store = SegmentStore(root, auto_compact=0)
    assert_bounds_agree(store, "p")
    yield store
    store.close()


@given(predicate=st.one_of(st.none(), v1_predicates()))
def test_v1_segments_fold_as_their_records_do(v1_run, predicate):
    assert_folds_agree(v1_run, "p", predicate)
