"""Predicate-pushdown scanning for the record stores.

A :class:`ScanPredicate` narrows a scan along three axes the paper's
Section-3 analyses actually ask about:

- a **time range** over the record's anchor timestamp (``wall_start``,
  falling back to ``wall_end`` when the probe only captured the end
  reading) — "what happened between t0 and t1";
- **interface / operation sets** — "only calls to ``Printer::print``";
- a **chain-uuid prefix** — "only the chains of this tenant / shard".

The predicate is *pushed down* into the segment store so filtering
happens before decode, at three pruning levels:

1. **segment level** — the footer's timestamp bounds skip segments whose
   time range cannot overlap; the function table and the site table
   prove no row carries a wanted interface/operation pair; the footer
   chain index proves no chain carries the prefix;
2. **chain-group level** (sealed segments) — the chain index, the
   per-group timestamp bounds and the per-group function sets skip
   whole byte ranges without touching them;
3. **row level** — string predicates are resolved once to the ids of
   this segment's chains and *sites* (:func:`segment_filter`), so a
   block's row test is a 0/1 mask built from its site-id, chain and
   reading columns, and no row is built for a non-matching one.

The SQLite backend accepts the same predicate and compiles it to indexed
``WHERE`` clauses; both backends return bit-identical results for any
predicate (the cross-backend identity suite asserts it), because the
record-level semantics live in exactly one place:
:meth:`ScanPredicate.matches`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.errors import StoreError
from repro.store.segment import (  # ScanStats, record_anchor re-exported
    ScanStats,
    SegmentFold,
    bounds_overlap,
    record_anchor,
)

if TYPE_CHECKING:
    from repro.core.records import ProbeRecord
    from repro.store.segment import SegmentReader


@dataclass(frozen=True)
class ScanPredicate:
    """A conjunction of record filters a scan can push below decode.

    All parts are optional and AND-ed; an all-``None`` predicate matches
    every record. ``ts_min``/``ts_max`` are inclusive nanosecond bounds
    on the record anchor timestamp (see :func:`record_anchor`).
    """

    ts_min: int | None = None
    ts_max: int | None = None
    interfaces: frozenset[str] | None = None
    operations: frozenset[str] | None = None
    chain_prefix: str | None = None

    def __post_init__(self):
        # Normalize iterables to frozensets so predicates hash/compare
        # and an empty set is rejected early (it would match nothing
        # silently — almost always a caller bug).
        for name in ("interfaces", "operations"):
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, str):
                value = (value,)
            value = frozenset(value)
            if not value:
                raise StoreError(f"predicate {name} must not be an empty set")
            object.__setattr__(self, name, value)
        if (
            self.ts_min is not None
            and self.ts_max is not None
            and self.ts_min > self.ts_max
        ):
            raise StoreError(
                f"predicate time range is empty: ts_min {self.ts_min} >"
                f" ts_max {self.ts_max}"
            )

    # ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when every part is None — the scan needs no filtering."""
        return (
            self.ts_min is None
            and self.ts_max is None
            and self.interfaces is None
            and self.operations is None
            and self.chain_prefix is None
        )

    @property
    def has_time_range(self) -> bool:
        return self.ts_min is not None or self.ts_max is not None

    def matches(self, record: "ProbeRecord") -> bool:
        """Record-level semantics — the single source of truth.

        Every pushdown level (segment pruning, group pruning, the
        integer-id frame filter, the SQLite WHERE clauses) must accept
        exactly the records this accepts.
        """
        if self.chain_prefix is not None and not record.chain_uuid.startswith(
            self.chain_prefix
        ):
            return False
        if self.interfaces is not None and record.site.interface not in self.interfaces:
            return False
        if self.operations is not None and record.site.operation not in self.operations:
            return False
        if self.has_time_range:
            anchor = record_anchor(record.wall_start, record.wall_end)
            if anchor is None:
                return False
            if self.ts_min is not None and anchor < self.ts_min:
                return False
            if self.ts_max is not None and anchor > self.ts_max:
                return False
        return True

    def to_dict(self) -> dict:
        """JSON-friendly form (sorted sets), also the CLI echo format."""
        return {
            "ts_min": self.ts_min,
            "ts_max": self.ts_max,
            "interfaces": sorted(self.interfaces) if self.interfaces else None,
            "operations": sorted(self.operations) if self.operations else None,
            "chain_prefix": self.chain_prefix,
        }


class SegmentFilter:
    """A :class:`ScanPredicate` resolved against one segment's tables.

    String predicates become integer id sets (``None`` = that axis needs
    no per-row test), so the row mask is built from integer columns only:
    ``sites`` is the set of site ids whose interface and operation the
    predicate accepts. ``fn_groups`` holds one flag per sealed chain
    group — may it carry a wanted function, by the function zone map? —
    and is ``None`` when there is nothing to prune on: no
    interface/operation predicate, no map in the file, or every function
    of the segment wanted. Built by :func:`segment_filter`; consumed by
    :meth:`SegmentReader.scan <repro.store.segment.SegmentReader.scan>`.
    """

    __slots__ = ("cids", "sites", "ts_lo", "ts_hi", "fn_groups")

    def __init__(self, cids, sites, ts_lo, ts_hi, fn_groups):
        self.cids = cids
        self.sites = sites
        self.ts_lo = ts_lo
        self.ts_hi = ts_hi
        self.fn_groups = fn_groups

    @property
    def is_pass(self) -> bool:
        """True when no per-row test remains (decode everything)."""
        return (
            self.cids is None
            and self.sites is None
            and self.ts_lo is None
            and self.ts_hi is None
        )

    def within_group(self) -> "SegmentFilter | None":
        """The per-row filter inside the sealed chain groups that group
        pruning let through: the chain test is settled there (a group is
        one chain), and ``None`` means no per-row test remains."""
        rest = SegmentFilter(None, self.sites, self.ts_lo, self.ts_hi, self.fn_groups)
        return None if rest.is_pass else rest


def segment_filter(
    reader: "SegmentReader", predicate: ScanPredicate
) -> SegmentFilter | None:
    """Resolve ``predicate`` against one segment; ``None`` prunes it.

    Segment-level pruning uses only footer metadata — the function
    table, the site table, the chain index, and the timestamp-bounds
    extension — so a pruned segment costs zero row decodes.
    """
    ts_lo = ts_hi = None
    if predicate.has_time_range:
        ts_lo, ts_hi = predicate.ts_min, predicate.ts_max
        if not bounds_overlap(reader.ts_bounds, ts_lo, ts_hi):
            return None

    sites = fn_groups = None
    strings = reader.strings
    ifcs, ops = predicate.interfaces, predicate.operations
    if ifcs is not None or ops is not None:
        table = reader.fn_table
        if table is not None:
            # The table lists every (interface, operation) pair some row
            # carries: no pair accepted, no row can match; not all of
            # them wanted, groups can be pruned on the zone map.
            fns = {
                k >> 1 for k in range(0, len(table), 2)
                if (ifcs is None or strings[table[k]] in ifcs)
                and (ops is None or strings[table[k + 1]] in ops)
            }
            if not fns:
                return None
            if 2 * len(fns) < len(table):
                fn_groups = reader.groups_holding(fns)
        # Every row names a site: the sites both sets accept are exactly
        # the rows that can match, and with every site of the segment
        # wanted there is nothing left to test per row.
        sites = {
            sid for sid, site in enumerate(reader.sites)
            if (ifcs is None or site.interface in ifcs)
            and (ops is None or site.operation in ops)
        }
        if not sites:
            return None
        if len(sites) == len(reader.sites):
            sites = None

    cids = None
    if predicate.chain_prefix is not None:
        prefix = predicate.chain_prefix
        cids = {cid for cid in reader.chain_ids if strings[cid].startswith(prefix)}
        if not cids:
            return None
        if len(cids) == len(reader.chain_ids):
            cids = None  # every chain matches: no per-row test needed

    return SegmentFilter(cids, sites, ts_lo, ts_hi, fn_groups)


def fold_population_stats(records: Iterable["ProbeRecord"]) -> dict[str, int]:
    """Figure-5 population statistics folded from a record stream.

    The record-level definition both backends' ``population_stats`` must
    agree with: ``calls`` counts STUB_START events, the ``unique_*``
    figures count distinct values using the same string identities the
    SQLite aggregation uses (``interface || '::' || operation``,
    ``process || '/' || thread_id``). The segment store folds the same
    figures from its columns (:func:`merge_population`); SQLite compiles
    the identical semantics to WHERE clauses.
    """
    calls = 0
    methods: set[str] = set()
    interfaces: set[str] = set()
    components: set[str] = set()
    objects: set[str] = set()
    processes: set[str] = set()
    threads: set[str] = set()
    chains: set[str] = set()
    for record in records:
        if record.event == 1:
            calls += 1
        site = record.site
        methods.add(f"{site.interface}::{site.operation}")
        interfaces.add(site.interface)
        components.add(site.component)
        objects.add(site.object_id)
        processes.add(site.process)
        threads.add(f"{site.process}/{record.thread_id}")
        chains.add(record.chain_uuid)
    return {
        "calls": calls,
        "unique_methods": len(methods),
        "unique_interfaces": len(interfaces),
        "unique_components": len(components),
        "unique_objects": len(objects),
        "processes": len(processes),
        "threads": len(threads),
        "chains": len(chains),
    }


def merge_population(folds: Iterable[SegmentFold]) -> dict[str, int]:
    """The population statistics of segment folds made with ``threads``."""
    sites: set = set()
    threads: set[tuple[str, int]] = set()
    chains: set[str] = set()
    calls = 0
    for fold in folds:
        sites.update(fold.sites)
        threads |= fold.threads
        chains |= fold.chains
        calls += fold.calls
    return {
        "calls": calls,
        "unique_methods": len({f"{s.interface}::{s.operation}" for s in sites}),
        "unique_interfaces": len({s.interface for s in sites}),
        "unique_components": len({s.component for s in sites}),
        "unique_objects": len({s.object_id for s in sites}),
        "processes": len({s.process for s in sites}),
        "threads": len({f"{process}/{tid}" for process, tid in threads}),
        "chains": len(chains),
    }


# ----------------------------------------------------------------------
# Per-operation latency: what `repro query` and the catalog answer

#: log2 histogram: bin b holds durations in [2**b, 2**(b+1)) ns
#: (non-positive durations land in bin 0). 64 bins cover any i64.
HIST_BINS = 64

_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def _nearest_rank(sorted_values: list[int], q: float) -> int:
    """Deterministic nearest-rank percentile of a non-empty sorted list."""
    index = max(0, min(len(sorted_values) - 1,
                       int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[index]


def _hist_quantile(hist: dict[int, int], q: float) -> int | None:
    """Nearest-rank quantile over a log2 histogram (bin upper bound)."""
    total = sum(hist.values())
    if total == 0:
        return None
    rank = max(0, min(total - 1, int(round(q * (total - 1)))))
    seen = 0
    for bin_index in sorted(hist):
        seen += hist[bin_index]
        if seen > rank:
            return (1 << (bin_index + 1)) - 1
    return (1 << HIST_BINS) - 1  # unreachable


@dataclass
class OpStats:
    """One operation's record count and wall intervals (``wall_end -
    wall_start`` of the records that carry both), mergeable across runs.

    A live scan holds the intervals raw in ``durations`` and leaves
    ``hist`` empty; what a run summary keeps is their log2 histogram
    (``durations`` is then ``None``). Never both: a pool that a
    histogram-only side joins drops to histogram resolution.
    """

    records: int = 0
    timed: int = 0
    wall_sum: int = 0
    wall_min: int | None = None
    wall_max: int | None = None
    hist: dict[int, int] = field(default_factory=dict)
    durations: list[int] | None = None

    def histogram(self) -> dict[int, int]:
        """The intervals' log2 histogram, binned now if still held raw."""
        if self.durations is None:
            return self.hist
        hist: dict[int, int] = {}
        for ns in self.durations:
            bin_index = min(HIST_BINS - 1, ns.bit_length() - 1) if ns > 0 else 0
            hist[bin_index] = hist.get(bin_index, 0) + 1
        return hist

    def merge(self, other: "OpStats") -> None:
        self.records += other.records
        self.timed += other.timed
        self.wall_sum += other.wall_sum
        for bound, pick in (("wall_min", min), ("wall_max", max)):
            theirs = getattr(other, bound)
            if theirs is not None:
                ours = getattr(self, bound)
                setattr(self, bound, theirs if ours is None else pick(ours, theirs))
        if self.durations is not None and other.durations is not None:
            self.durations.extend(other.durations)
            return
        self.hist, self.durations = self.histogram(), None
        for bin_index, count in other.histogram().items():
            self.hist[bin_index] = self.hist.get(bin_index, 0) + count

    def to_dict(self) -> dict:
        return {
            "records": self.records,
            "timed": self.timed,
            "wall_sum": self.wall_sum,
            "wall_min": self.wall_min,
            "wall_max": self.wall_max,
            "hist": {str(k): v for k, v in sorted(self.histogram().items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OpStats":
        return cls(
            records=data["records"],
            timed=data["timed"],
            wall_sum=data["wall_sum"],
            wall_min=data["wall_min"],
            wall_max=data["wall_max"],
            hist={int(k): v for k, v in data["hist"].items()},
        )

    def render(self, exact: bool) -> dict:
        """JSON row: counts plus latency percentiles."""
        row: dict = {"records": self.records, "timed": self.timed}
        if self.timed:
            row["wall_ns"] = self.wall_ns(exact)
        return row

    def wall_ns(self, exact: bool) -> dict:
        """Interval statistics of a non-empty pool; percentiles exact
        (nearest rank over the raw values) or at histogram resolution."""
        wall = {
            "min": self.wall_min,
            "max": self.wall_max,
            "mean": round(self.wall_sum / self.timed, 1),
        }
        if exact and self.durations is not None:
            values = sorted(self.durations)
            for name, q in _QUANTILES:
                wall[name] = _nearest_rank(values, q)
        else:
            hist = self.histogram()
            for name, q in _QUANTILES:
                wall[name] = _hist_quantile(hist, q)
        return wall


def fold_operations(groups) -> tuple[dict[str, OpStats], int]:
    """Fold ``chains_for_run`` groups of rows into
    ``{"Interface::operation": OpStats}`` (intervals held raw) and the
    number of groups seen — the record-level definition of a backend's
    ``fold_operations``."""
    counts: dict[str, int] = {}
    durations: dict[str, list[int]] = {}
    chains = 0
    for _chain, group in groups:
        chains += 1
        for row in group:
            site, ws, we = row[0], row[7], row[8]
            key = f"{site.interface}::{site.operation}"
            counts[key] = counts.get(key, 0) + 1
            if ws is not None and we is not None:
                durations.setdefault(key, []).append(we - ws)
    return _op_stats(counts, durations), chains


def merge_operations(folds: Iterable[SegmentFold]) -> tuple[dict[str, OpStats], int]:
    """Segment folds merged by ``"Interface::operation"`` (intervals held
    raw) and by chain uuid: the operations and how many chains hold one."""
    counts: dict[str, int] = {}
    durations: dict[str, list[int]] = {}
    chains: set[str] = set()
    for fold in folds:
        chains |= fold.chains
        for site, (frames, intervals) in fold.sites.items():
            key = f"{site.interface}::{site.operation}"
            counts[key] = counts.get(key, 0) + frames
            durations.setdefault(key, []).extend(intervals)
    return _op_stats(counts, durations), len(chains)


def _op_stats(
    counts: dict[str, int], durations: dict[str, list[int]]
) -> dict[str, OpStats]:
    """Each operation's :class:`OpStats`, its intervals sorted once (runs
    that already ascend, as a segment fold's do, merge in near-linear
    time) and its bounds read off their ends."""
    operations = {}
    for key, records in counts.items():
        values = durations.get(key, [])
        values.sort()
        operations[key] = OpStats(
            records, len(values), sum(values),
            values[0] if values else None, values[-1] if values else None,
            durations=values,
        )
    return operations

