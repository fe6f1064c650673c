"""Property: function-zone-map pruning never changes an answer.

Random stores in every physical state (several spools, one sealed
segment, sealed + fresh spools, recompacted) — some with a chain group
past the 254-function overflow marker — under random interface /
operation predicates, alone and combined with a time range and a chain
prefix: ``chains_for_run`` and ``all_records`` must equal a brute-force
:meth:`ScanPredicate.matches` pass over the unpredicated scan and report
the same :class:`ScanStats` as each other (one scan serves both, so a
sealed segment's groups are pruned whatever else the run holds), a fully
sealed run must decode exactly the groups that hold a wanted function,
and an interface and an operation that both exist but never on one
record must prune the sealed segment outright.
"""

from hypothesis import given, strategies as st

from repro.core import RunMetadata
from repro.core.records import from_row
from repro.store import ScanPredicate, ScanStats, SegmentStore

from tests.unit.store.test_segment_codec import make_record

CHAINS = [f"{prefix}{i:030x}" for prefix in ("0a", "0b") for i in range(3)]
INTERFACES = ["M::A", "M::B", "M::C"]
OPERATIONS = ["op0", "op1", "op2", "op3"]
_OVERFLOW_FUNCTIONS = 260

_record = st.builds(
    lambda chain, interface, operation, start, semantics: dict(
        chain=chain, interface=interface, operation=operation,
        wall_start=start, wall_end=None if start is None else start + 5,
        semantics=semantics,
    ),
    st.sampled_from(CHAINS),
    st.sampled_from(INTERFACES),
    st.sampled_from(OPERATIONS),
    st.one_of(st.none(), st.integers(0, 1000)),
    st.one_of(st.none(), st.dictionaries(st.sampled_from("ab"), st.integers(0, 9),
                                         max_size=2)),
)


def _names(pool):
    return st.one_of(
        st.none(),
        st.sets(st.sampled_from(pool + ["absent"]), min_size=1, max_size=2),
    )


@st.composite
def predicates(draw):
    interfaces, operations = draw(_names(INTERFACES)), draw(_names(OPERATIONS))
    if interfaces is None and operations is None:
        operations = {draw(st.sampled_from(OPERATIONS))}
    lo = draw(st.one_of(st.none(), st.integers(0, 1000)))
    hi = draw(st.one_of(st.none(), st.integers(lo or 0, 1000)))
    prefix = draw(st.sampled_from([None, None, "0a", "0b", CHAINS[4], "0c"]))
    return ScanPredicate(ts_min=lo, ts_max=hi, interfaces=interfaces,
                         operations=operations, chain_prefix=prefix)


def build_store(root, fields, layout, batches, overflow):
    records = [make_record(seq=seq, **f) for seq, f in enumerate(fields)]
    if overflow:
        records += [
            make_record(chain=CHAINS[1], seq=len(fields) + i, interface="M::Wide",
                        operation=f"wide{i}", wall_start=i, wall_end=i + 1)
            for i in range(_OVERFLOW_FUNCTIONS)
        ]
    store = SegmentStore(root, auto_compact=0)
    store.create_run(RunMetadata(run_id="p"))
    step = max(1, -(-len(records) // batches))
    spools = [records[lo:lo + step] for lo in range(0, len(records), step)]
    # "sealed+spool" and "recompacted" hold the last spool back until
    # the others are compacted.
    held_back = layout in ("sealed+spool", "recompacted") and len(spools) > 1
    late = spools.pop() if held_back else None
    for spool in spools:
        store.insert_records("p", spool)
    if layout != "spools":
        store.compact("p")
    if late is not None:
        store.insert_records("p", late)
        if layout == "recompacted":
            store.compact("p")
    return store, records
@given(
    fields=st.lists(_record, min_size=1, max_size=40),
    layout=st.sampled_from(["spools", "sealed", "sealed+spool", "recompacted"]),
    batches=st.integers(1, 4),
    overflow=st.booleans(),
    wanted=st.lists(predicates(), min_size=1, max_size=4),
)
def test_pruned_scans_equal_brute_force(
    tmp_path_factory, fields, layout, batches, overflow, wanted
):
    store, records = build_store(
        str(tmp_path_factory.mktemp("zone")), fields, layout, batches, overflow
    )
    try:
        full_chains = list(store.chains_for_run("p"))
        full_records = list(store.all_records("p"))
        assert sorted(full_records, key=lambda r: r.event_seq) == records
        one_sealed = store.compaction_state("p")["compacted"]

        for predicate in wanted:
            stats = ScanStats()
            expected = [
                (chain, kept) for chain, group in full_chains
                if (kept := [row for row in group if predicate.matches(from_row(row))])
            ]
            assert list(
                store.chains_for_run("p", predicate=predicate, stats=stats)
            ) == expected
            flat_stats = ScanStats()
            assert list(
                store.all_records("p", predicate=predicate, stats=flat_stats)
            ) == [r for r in full_records if predicate.matches(r)]
            assert flat_stats == stats
            functions_only = (
                not predicate.has_time_range and predicate.chain_prefix is None
            )
            if one_sealed and functions_only and stats.segments_pruned == 0:
                # Costs what it matches: exactly the groups holding a
                # wanted function are decoded (plus any overflowed one).
                functions = ScanPredicate(interfaces=predicate.interfaces,
                                          operations=predicate.operations)
                must_decode = sum(
                    len(group) for _chain, group in full_chains
                    if any(functions.matches(from_row(row)) for row in group)
                    or len({(row[0].interface, row[0].operation) for row in group}) > 254
                )
                assert stats.frames_decoded == must_decode
                assert flat_stats.frames_decoded == must_decode
                assert flat_stats.groups_pruned == stats.groups_pruned

        # Both names exist, never on one record: only the function table
        # can tell, and it prunes the whole sealed segment.
        pairs = {(r.interface, r.operation) for r in records}
        apart = [
            (i, o) for i in {p[0] for p in pairs} for o in {p[1] for p in pairs}
            if (i, o) not in pairs
        ]
        if apart:
            interface, operation = sorted(apart)[0]
            stats = ScanStats()
            assert list(store.chains_for_run(
                "p", predicate=ScanPredicate(interfaces={interface},
                                             operations={operation}),
                stats=stats,
            )) == []
            if one_sealed:
                assert (stats.segments_pruned, stats.frames_decoded) == (1, 0)
    finally:
        store.close()
