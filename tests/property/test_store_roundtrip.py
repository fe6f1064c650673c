"""Property tests: the segment codec is lossless and backend-neutral.

Two invariants:

- any list of :class:`ProbeRecord` round-trips bit-exactly through the
  segment frame codec (spool and sealed, with and without compaction);
- a run stored in the segment store and the same run stored in SQLite
  answer every backend query identically, so analysis results cannot
  depend on which backend held the records.
"""

from hypothesis import given, strategies as st

from repro.core import (
    CallKind,
    Domain,
    ProbeRecord,
    RunMetadata,
    Site,
    TracingEvent,
)
from repro.store import MonitoringDatabase, SegmentStore
from repro.store.segment import KIND_SPOOL, SegmentReader, SegmentWriter
from tests.helpers import rows_of

_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=30
)
_name = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABC::._-0123456789", min_size=1, max_size=24
)
#: Wall-clock readings span raw ns-since-epoch magnitudes so narrow and
#: wide frames both appear; CPU readings stay small and monotonic-ish.
_wall = st.one_of(st.none(), st.integers(0, 2**62))
_cpu = st.one_of(st.none(), st.integers(0, 2**40))
_semantics = st.one_of(
    st.none(),
    st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(st.integers(-1000, 1000), _text,
                  st.lists(_text, max_size=3)),
        max_size=4,
    ),
)


@st.composite
def probe_records(draw):
    return ProbeRecord(
        chain_uuid=draw(st.sampled_from([f"{i:032x}" for i in range(6)])),
        event_seq=draw(st.integers(0, 2**40)),
        event=draw(st.sampled_from(list(TracingEvent))),
        site=Site(
            interface=draw(_name),
            operation=draw(_name),
            object_id=draw(_name),
            component=draw(_name),
            process=draw(_name),
            pid=draw(st.integers(0, 2**31)),
            host=draw(_name),
            processor_type=draw(_name),
            platform=draw(_text),
            domain=draw(st.sampled_from(list(Domain))),
        ),
        thread_id=draw(st.integers(0, 2**40)),
        call_kind=draw(st.sampled_from(list(CallKind))),
        collocated=draw(st.booleans()),
        wall_start=draw(_wall),
        wall_end=draw(_wall),
        cpu_start=draw(_cpu),
        cpu_end=draw(_cpu),
        child_chain_uuid=draw(st.one_of(st.none(), _name)),
        semantics=draw(_semantics),
    )
@given(records=st.lists(probe_records(), max_size=40))
def test_spool_segment_roundtrips_any_records(tmp_path_factory, records):
    path = str(tmp_path_factory.mktemp("seg") / "prop.spool.seg")
    writer = SegmentWriter(path, kind=KIND_SPOOL)
    writer.append(records)
    writer.seal()
    reader = SegmentReader(path)
    ranked = []
    reader.load_ranked(ranked)
    reader.close()
    assert [r for _k, r in sorted(ranked, key=lambda p: p[0])] == rows_of(records)
@given(
    records=st.lists(probe_records(), max_size=40),
    batches=st.integers(1, 5),
    compact=st.booleans(),
)
def test_segment_store_matches_sqlite(tmp_path_factory, records, batches, compact):
    # Duplicate (chain, event_seq) pairs are fine: both backends break
    # the tie by arrival order (SQLite's rowid, the store's ranks).
    meta = RunMetadata(run_id="prop", description="", monitor_mode="cpu")
    store = SegmentStore(str(tmp_path_factory.mktemp("store")), auto_compact=0)
    reference = MonitoringDatabase()
    store.create_run(meta)
    reference.create_run(meta)
    step = max(1, (len(records) + batches - 1) // batches)
    for lo in range(0, len(records), step):
        batch = records[lo:lo + step]
        with store.bulk_ingest():
            store.insert_records("prop", batch)
        with reference.bulk_ingest():
            reference.insert_records("prop", batch)
    if compact:
        store.compact("prop")

    assert store.record_count("prop") == reference.record_count("prop")
    assert store.unique_chain_uuids("prop") == reference.unique_chain_uuids("prop")
    assert list(store.chains_for_run("prop")) == list(reference.chains_for_run("prop"))
    assert list(store.all_records("prop")) == list(reference.all_records("prop"))
    assert store.population_stats("prop") == reference.population_stats("prop")
    store.close()
    reference.close()
