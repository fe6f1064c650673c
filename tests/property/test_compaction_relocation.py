"""Property: compaction writes what the record-level oracle writes.

Generated record sets — every presence combination of the four clock
readings, start readings whose deltas fall on both sides of the i32
boundary (in the sources' arrival order *and* in the output's chain
order), semantics payloads, child links, all four domains, event-number
ties — are split over one to four spools behind an optional pre-compacted
head (a sealed segment with u32 ranks, the committed u64-rank fixture, or
a sealed segment written without ranks), with optionally one source cut
short mid-frame or mid-footer. ``SegmentStore.compact`` must then produce
the file that decoding every source and feeding a sealed
``SegmentWriter.append`` produces, byte for byte — so dictionary order,
rank width, ``FXTS`` bounds and the ``FXFN`` zone map are equal by
construction — and the compacted run must answer ``chains_for_run``,
``all_records`` and a pruned function scan as the decoded records say.

CI's fuzz job raises the example count through ``REPRO_FUZZ_EXAMPLES``
(the suite-wide hypothesis profile in ``tests/conftest.py``).
"""

import os
import shutil

from hypothesis import given, strategies as st

from repro.core import CallKind, Domain, TracingEvent
from repro.store import ScanPredicate, ScanStats

from tests.unit.store.test_compaction_relocation import (
    RUN,
    brute_arrival,
    brute_chains,
    compact_against_reference,
    new_run_dir,
    write_sealed,
    write_spool,
)
from tests.unit.store.test_function_zone_map import (
    OLD_FORMAT_SEGMENT,
    old_format_records,
)
from tests.unit.store.test_segment_codec import make_record

#: Byte order of the uuids differs from their first-appearance order, and
#: two are not ASCII (one a lone surrogate: ``surrogatepass`` territory).
CHAINS = [f"{i:032x}" for i in (3, 1, 2)] + ["é" * 16, "\ud800chain"]
NAMES = ["M::A", "M::B", "op0", "op1", "Comp", "p0", "p1", "höst", "x86", ""]
_HEADER_BYTES = 20

_WALL = 10**18
_I32 = 2**31
#: Differences between any two of these straddle the i32 boundary.
_OFFSETS = [0, 1, 40, _I32 - 1, _I32, _I32 + 1, -_I32, -_I32 - 1, 3 * _I32]


def _readings(base):
    return st.one_of(
        st.none(),
        st.sampled_from(_OFFSETS).map(lambda offset: base + offset),
        st.integers(0, 2**62),
    )


_json = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-2**40, 2**40),
        st.floats(allow_nan=False), st.text(max_size=6),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=6,
)

_record = st.builds(
    make_record,
    chain=st.sampled_from(CHAINS),
    seq=st.integers(0, 5),
    event=st.sampled_from(list(TracingEvent)),
    interface=st.sampled_from(NAMES[:2]),
    operation=st.sampled_from(NAMES[2:4]),
    object_id=st.sampled_from(NAMES),
    component=st.sampled_from(NAMES),
    process=st.sampled_from(NAMES),
    pid=st.integers(0, 2**40),
    host=st.sampled_from(NAMES),
    thread_id=st.integers(-2**40, 2**40),
    processor_type=st.sampled_from(NAMES),
    platform=st.sampled_from(NAMES),
    call_kind=st.sampled_from(list(CallKind)),
    collocated=st.booleans(),
    domain=st.sampled_from(list(Domain)),
    wall_start=_readings(_WALL),
    wall_end=_readings(_WALL),
    cpu_start=_readings(10**9),
    cpu_end=_readings(10**9),
    child_chain_uuid=st.one_of(st.none(), st.sampled_from(CHAINS + NAMES[:3])),
    semantics=st.one_of(st.none(), st.dictionaries(st.text(max_size=4), _json, max_size=3)),
)

#: Which source to cut short, and where: a fraction of its body, or a few
#: bytes off its end (inside the footer or the trailer).
_cut = st.one_of(
    st.none(),
    st.tuples(st.integers(0, 4), st.floats(0, 1, exclude_max=True)),
    st.tuples(st.integers(0, 4), st.integers(1, 60)),
)


def build_sources(root, records, spools, head, cut):
    run_dir = new_run_dir(root)
    paths = []
    step = -(-len(records) // spools)
    chunks = [records[lo:lo + step] for lo in range(0, len(records), step)]
    base = 0
    if head == "fixture-u64":
        paths.append(os.path.join(run_dir, "000001.sealed.seg"))
        shutil.copy(OLD_FORMAT_SEGMENT, paths[0])
        base = len(old_format_records())
    elif head != "spool":
        first = chunks.pop(0)
        paths.append(write_sealed(run_dir, 1, first, ranked=head == "sealed-u32"))
        base = len(first)
    for chunk in chunks:
        paths.append(write_spool(run_dir, len(paths) + 1, chunk, base))
        base += len(chunk)
    if cut is not None:
        path = paths[cut[0] % len(paths)]
        size = os.path.getsize(path)
        if isinstance(cut[1], float):
            keep = _HEADER_BYTES + int(cut[1] * (size - _HEADER_BYTES))
        else:
            keep = max(_HEADER_BYTES, size - cut[1])
        os.truncate(path, keep)
    return paths


@given(
    records=st.lists(_record, min_size=1, max_size=40),
    spools=st.integers(1, 4),
    head=st.sampled_from(["spool", "spool", "sealed-u32", "sealed-noranks", "fixture-u64"]),
    cut=_cut,
    wanted=st.sampled_from(["op0", "op1", "op3", "absent"]),
)
def test_relocated_file_equals_decode_and_append(
    tmp_path_factory, records, spools, head, cut, wanted
):
    root = tmp_path_factory.mktemp("relocate")
    paths = build_sources(root, records, spools, head, cut)
    if len(paths) == 1 and head != "spool" and cut is None:
        return  # one complete sealed segment: compaction has nothing to do
    store, pairs = compact_against_reference(root)
    try:
        chains = brute_chains(pairs)
        assert list(store.chains_for_run(RUN)) == chains
        assert list(store.all_records(RUN)) == brute_arrival(pairs)
        assert store.record_count(RUN) == len(pairs)

        predicate = ScanPredicate(operations={wanted})
        stats = ScanStats()
        assert list(store.chains_for_run(RUN, predicate=predicate, stats=stats)) == [
            (uuid, kept) for uuid, group in chains
            if (kept := [row for row in group if row[0].operation == wanted])
        ]
        holding = [group for _uuid, group in chains
                   if any(row[0].operation == wanted for row in group)]
        assert stats.records_matched == sum(
            r.operation == wanted for _rank, r in pairs
        )
        assert stats.frames_decoded == sum(len(group) for group in holding)
        if stats.segments_pruned:
            assert not holding
        else:
            assert stats.groups_pruned == len(chains) - len(holding)
    finally:
        store.close()
