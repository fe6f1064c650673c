"""One workload, start to finish, in this process.

Every workload runs the same phases, because every run reports every
metric; the workload's spec decides the traffic shape and which records
the offline half carries. After **set-up** (three times, the median is
``setup_s``; the last one is measured: compile the IDL, build the
monitored world and its twin, warm both up, generate the synthetic
captures, open the store) come ``spec.rounds`` rounds of

1. **online**: ABBA quads of root-call blocks against the monitored
   world (A) and the twin (B);
2. **offline journey**: ``collect`` → scan → ``compact`` →
   ``reconstruct`` → annotate → CCSG → JSON + XML, timed stage by stage;
   the round becomes one stored run;
3. **queries** over that run and across the newest ``CROSS_RUNS`` runs,
   each checked against a brute-force ``ScanPredicate.matches`` pass;
4. **stream replay** of the round's records in arrival order through
   ``StreamingDetector`` and ``OnlineMonitor``.

Every metric is a median over the samples of all rounds, so its samples
span the whole run: a burst of machine noise that lasts seconds covers a
few rounds and moves no median.

End-to-end metrics come from plain ``perf_counter`` readings; between
the timed intervals the run takes passes of a reference kernel, and the
reported times are divided by the run's host-speed factor
(``bench.hostspeed``). With ``--trace 1`` the same calls are additionally
wrapped in spans and the per-layer metrics — as measured, not brought to
reference speed — are derived from those.
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.analysis import (
    CpuAnalysis,
    OnlineMonitor,
    annotate_latency,
    build_ccsg,
    dscg_to_json,
    latency_report,
    loss_report,
    reconstruct,
    reconstruct_chain,
    reconstruct_sharded,
    render_ccsg_xml,
)
from repro.analysis.streaming import StreamingDetector, StreamingReconstructor
from repro.collector import LogCollector, MonitoringDatabase
from repro.core import RunMetadata
from repro.store import RunCatalog, ScanStats, SegmentStore, run_query

from bench import inputs, layers, stats
from bench.hostspeed import HostSpeed
from bench.spans import SpanRecorder
from bench.spec import CROSS_RUNS, STREAM_REORDER, WorkloadSpec, recipe_us
from bench.worlds import World, build_world, expected_records, expected_shape

SETUP_REPEATS = 3
#: Records of the SQLite comparison pass (trace runs only).
SQLITE_SUBSET = 8000


@dataclass
class Outcome:
    """What one workload run produced."""

    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: how much slower than the quiet reference box the run ran
    host_speed_factor: float = 1.0
    #: correctness checks that did not hold, as readable sentences
    violations: list[str] = field(default_factory=list)

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.violations.append(message)

    @property
    def correct(self) -> bool:
        return not self.violations and self.failed == 0


@dataclass
class Deployment:
    monitored: World
    twin: World
    source: inputs.SyntheticSource | None
    captures: list[inputs.Capture]
    store: SegmentStore
    path: str

    def close(self) -> None:
        self.monitored.close()
        self.twin.close()
        if self.source is not None:
            for process in self.source.processes:
                process.shutdown()
        self.store.close()
        shutil.rmtree(self.path, ignore_errors=True)


def set_up(spec: WorkloadSpec, seed: int, path: str) -> Deployment:
    monitored = build_world(spec.traffic, monitored=True)
    twin = build_world(spec.traffic, monitored=False)
    warmup = spec.block_roots if spec.traffic == "async_fanout" else spec.warmup_roots
    for world in (monitored, twin):
        world.run_block(warmup)
    monitored.drain()
    source = None
    captures: list[inputs.Capture] = []
    if spec.synthetic_chains:
        source = inputs.SyntheticSource(seed)
        captures = [source.capture(spec.synthetic_chains) for _ in range(spec.rounds)]
    store = SegmentStore(os.path.join(path, "store"), auto_compact=0)
    return Deployment(monitored, twin, source, captures, store, path)


def run_workload(
    name: str, spec: WorkloadSpec, seed: int, trace: bool, scratch: str, trace_path: str
) -> Outcome:
    out = Outcome()
    recorder = SpanRecorder(enabled=trace)
    speed = HostSpeed()
    clock = time.perf_counter

    setup_s = []
    deployment = None
    for attempt in range(SETUP_REPEATS):
        if deployment is not None:
            deployment.close()
        speed.sample()
        started = clock()
        deployment = set_up(spec, seed, os.path.join(scratch, f"setup-{attempt}"))
        setup_s.append(clock() - started)
        speed.sample()
    try:
        online = _Online()
        journeys: list[_Journey] = []
        streams: list[_Replay] = []
        run_ids: list[str] = []
        #: the newest ``CROSS_RUNS`` rounds' records, for the query oracle
        sources: list[list] = []
        queries = _Queries(deployment.store, seed, spec, recorder, speed, out)
        for round_index in range(spec.rounds):
            kept_roots = _online_round(
                deployment, spec, recorder, speed, round_index, online, out
            )
            journey, records = _journey(
                deployment, spec, recorder, speed, round_index, kept_roots, out
            )
            journeys.append(journey)
            run_ids.append(journey.run_id)
            sources = [*sources, records][-CROSS_RUNS:]
            queries.run_round(round_index, run_ids[-CROSS_RUNS:], sources)
            streams.append(_replay(
                records, seed + round_index, spec, journey, recorder, speed, out,
                verify=round_index == spec.rounds - 1,
            ))

        e2e = out.end_to_end
        e2e["setup_s"] = statistics.median(setup_s)
        online.report(spec, deployment.monitored.records_per_root, out)
        median = statistics.median
        e2e["capture_to_queryable_s"] = median(j.queryable_s for j in journeys)
        e2e["capture_to_dscg_s"] = median(j.dscg_s for j in journeys)
        e2e["capture_to_report_s"] = median(j.report_s for j in journeys)
        e2e["store_bytes_per_record"] = median(j.sealed_bytes / j.records for j in journeys)
        for shape, result in queries.results.items():
            e2e[f"query_{shape}_p50_ms"] = median(result.times_s) * 1e3
        e2e["stream_records_per_s"] = median(s.records / s.detector_s for s in streams)
        e2e["online_monitor_records_per_s"] = median(s.records / s.monitor_s for s in streams)

        out.host_speed_factor = factor = speed.factor()
        if trace:
            _per_layer(
                spec, deployment, recorder, online, journeys, sources[-1], queries.results,
                streams, out,
            )
            out.per_layer["driver.host_speed_factor"] = factor
            recorder.write(trace_path, {"workload": name, "seed": seed})
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Every time and rate, as on the quiet reference box. The overhead
        # ratio compensates for drift by itself (ABBA); bytes and RSS are
        # not times.
        for metric in e2e.keys() - {
            "monitor_overhead_ratio", "store_bytes_per_record", "peak_rss_mb"
        }:
            e2e[metric] = e2e[metric] * factor if metric.endswith("_per_s") else e2e[metric] / factor
    finally:
        deployment.close()
    return out


# ----------------------------------------------------------------------
# Phase 2: online


class _Online:
    """Accumulates the online blocks of every round."""

    def __init__(self):
        self.blocks: list[tuple[str, float]] = []  # (side, median per-call ns), run order
        self.monitored_samples: list[int] = []
        self.twin_samples: list[int] = []
        self.throughputs: list[float] = []  # monitored roots/s, one per block
        self.block_p90s: list[float] = []  # monitored, ns, one per block
        self.traced_medians: list[float] = []
        self.untraced_medians: list[float] = []
        self.monitored_roots = 0
        self.records_written = 0

    def report(self, spec: WorkloadSpec, records_per_root: int, out: Outcome) -> None:
        # Typical call and tail are medians over the monitored blocks of each
        # block's own p50 / p90: a burst that hits a few blocks (a neighbour,
        # a gen-2 collection) then moves neither, where it would drag a p90
        # taken over all samples at once. The all-sample tail is
        # ``driver.call_p99_us``.
        e2e = out.end_to_end
        medians = [typical for side, typical in self.blocks if side == "A"]
        e2e["monitored_calls_per_s"] = stats.block_median(self.throughputs, spec.min_blocks)
        e2e["monitored_call_p50_us"] = stats.block_median(medians, spec.min_blocks) / 1e3
        e2e["monitored_call_p90_us"] = stats.block_median(self.block_p90s, spec.min_blocks) / 1e3
        e2e["monitor_overhead_ratio"] = statistics.median(stats.abba_ratios(self.blocks))
        out.require(
            self.records_written == self.monitored_roots * records_per_root,
            f"{self.records_written} probe records for {self.monitored_roots} monitored roots,"
            f" expected exactly {records_per_root} each",
        )


def _online_round(
    deployment: Deployment, spec: WorkloadSpec, recorder: SpanRecorder, speed: HostSpeed,
    round_index: int, online: _Online, out: Outcome,
) -> int:
    """Run one round's quads; returns the monitored roots whose records
    stay in the log buffers for the offline journey."""
    monitored, twin = deployment.monitored, deployment.twin
    roots = spec.block_roots
    for quad in range(spec.quads_per_round):
        if quad == spec.quads_per_round - spec.kept_quads:
            online.records_written += monitored.drain()
        # In a trace run every other quad is spanned call by call; the
        # untraced quads beside them give the tracing overhead.
        traced = recorder.enabled and quad % 2 == 0
        speed.sample()
        for position, side in enumerate("ABBA"):
            world = monitored if side == "A" else twin
            first_op = ((round_index * spec.quads_per_round + quad) * 4 + position) * roots
            if traced:
                with recorder.span(f"online.block.{side}", op=quad):
                    block = world.run_block(roots, recorder, first_op)
            else:
                block = world.run_block(roots)
            typical = statistics.median(block.per_call_ns)
            online.blocks.append((side, typical))
            out.attempted += roots
            out.failed += block.failed
            if side == "A":
                online.monitored_samples += block.per_call_ns
                online.throughputs.append(roots / (block.wall_ns / 1e9))
                online.block_p90s.append(stats.percentile(sorted(block.per_call_ns), 90))
                online.monitored_roots += roots
                (online.traced_medians if traced else online.untraced_medians).append(typical)
            else:
                online.twin_samples += block.per_call_ns
    kept = sum(len(process.log_buffer) for process in monitored.processes)
    online.records_written += kept
    return spec.kept_quads * 2 * roots


# ----------------------------------------------------------------------
# Phase 3: the record's offline journey


@dataclass
class _Journey:
    run_id: str
    records: int
    nodes: int
    queryable_s: float
    dscg_s: float
    report_s: float
    sealed_bytes: int
    dscg_sha256: str


def _journey(
    deployment: Deployment, spec: WorkloadSpec, recorder: SpanRecorder, speed: HostSpeed,
    round_index: int, kept_roots: int, out: Outcome,
) -> tuple[_Journey, list]:
    monitored, store = deployment.monitored, deployment.store
    processes = list(monitored.processes)
    online_records = [r for p in monitored.processes for r in p.log_buffer.snapshot()]
    written = Counter((r.operation, r.event.name, r.process) for r in online_records)
    out.require(
        written == expected_records(spec.traffic, kept_roots),
        f"round {round_index}: probe records by (operation, event, process) are {dict(written)},"
        f" expected {expected_records(spec.traffic, kept_roots)}",
    )
    nodes, chains = expected_shape(spec.traffic, kept_roots)
    records = online_records
    if deployment.source is not None:
        capture = deployment.captures[round_index]
        deployment.source.load(capture)
        processes += deployment.source.processes
        records = online_records + [r for batch in capture.per_process for r in batch]
        nodes += capture.nodes
        chains += capture.chains
    run_id = f"round-{round_index}"
    collector = LogCollector(backend=store)
    gc.collect()

    clock = time.perf_counter
    speed.sample()
    started = clock()
    with recorder.span("capture_to_report", op=round_index):
        with recorder.span("collector.collect"):
            collector.collect(processes, run_id=run_id)
        with recorder.span("store.scan_spool"):
            scanned = sum(len(group) for _chain, group in store.chains_for_run(run_id))
        queryable = clock()
        with recorder.span("store.compact"):
            store.compact(run_id)
        with recorder.span("analysis.reconstruct"):
            dscg = reconstruct(store, run_id)
        with recorder.span("analysis.latency.annotate"):
            annotate_latency(dscg)
        with recorder.span("analysis.cpu.annotate"):
            cpu = CpuAnalysis(dscg)
            cpu.annotate()
        with recorder.span("analysis.ccsg.build"):
            ccsg = build_ccsg(dscg, cpu)
        built = clock()
        with recorder.span("analysis.serialize.dscg_json"):
            document = dscg_to_json(dscg)
        with recorder.span("analysis.xmlview.ccsg_xml"):
            xml = render_ccsg_xml(ccsg)
    reported = clock()
    speed.sample()

    out.attempted += len(records)
    out.failed += abs(len(records) - scanned)
    loss = loss_report(dscg)
    out.require(
        (loss.nodes, loss.chains) == (nodes, chains),
        f"round {round_index}: DSCG has {loss.nodes} nodes in {loss.chains} chains,"
        f" the inputs' closed form says {nodes} in {chains}",
    )
    out.require(
        (loss.partial_chains, loss.abnormal_events, loss.missing_records) == (0, 0, 0),
        f"round {round_index}: loss report is not empty: {loss.to_dict()}",
    )
    out.require(
        ccsg.node_count() > 0 and xml.startswith("<"), f"round {round_index}: empty CCSG view"
    )
    sealed_bytes = sum(
        run["bytes"] for run in store.store_info()["runs"] if run["run_id"] == run_id
    )
    return (
        _Journey(
            run_id, len(records), nodes, queryable - started, built - started,
            reported - started, sealed_bytes,
            hashlib.sha256(document.encode()).hexdigest(),
        ),
        records,
    )


# ----------------------------------------------------------------------
# Phase 4: queries


@dataclass
class _QueryResult:
    times_s: list[float] = field(default_factory=list)
    scan: ScanStats = field(default_factory=ScanStats)


def _matching(records: list, predicate) -> tuple[int, int, Counter]:
    """The oracle: a brute-force pass of ``predicate.matches`` over the
    source records — (records, chains, records per function)."""
    hits = [r for r in records if predicate.matches(r)]
    return (
        len(hits),
        len({r.chain_uuid for r in hits}),
        Counter(f"{r.interface}::{r.operation}" for r in hits),
    )


class _Queries:
    """The query phase of every round. The shapes take turns query by
    query, so within a round too a burst of machine noise falls on all
    shapes alike."""

    def __init__(
        self, store: SegmentStore, seed: int, spec: WorkloadSpec, recorder: SpanRecorder,
        speed: HostSpeed, out: Outcome,
    ):
        self.results = {
            shape: _QueryResult()
            for shape in ("time_window", "operation", "chain_prefix", "cross_run")
        }
        self.store, self.seed, self.count = store, seed, spec.queries_per_round
        self.catalog = RunCatalog(store)
        self.recorder, self.speed, self.out = recorder, speed, out

    def run_round(self, round_index: int, run_ids: list[str], sources: list[list]) -> None:
        """Query the run just sealed (``run_ids[-1]``, made of
        ``sources[-1]``) and, once ``CROSS_RUNS`` runs exist, those runs
        together — with the same time windows: they lie in the newest
        run, so the others should be pruned whole by footer bounds."""
        plan = inputs.query_plan(sources[-1], self.seed + round_index, self.count)
        gc.collect()
        for window, operation, prefix in zip(plan.time_window, plan.operation, plan.chain_prefix):
            self.speed.sample()
            self._in_run(run_ids[-1], sources[-1], "time_window", window)
            self._in_run(run_ids[-1], sources[-1], "operation", operation)
            self._in_run(run_ids[-1], sources[-1], "chain_prefix", prefix)
            if len(run_ids) == CROSS_RUNS:
                self._cross_run(run_ids, sources, window)

    def _in_run(self, run_id: str, source: list, shape: str, predicate) -> None:
        clock = time.perf_counter
        result, scan = self.results[shape], ScanStats()
        with self.recorder.span(f"store.query.{shape}"):
            started = clock()
            answer = run_query(self.store, run_id, predicate, scan)
            result.times_s.append(clock() - started)
        result.scan.frames_decoded += scan.frames_decoded
        result.scan.groups_pruned += scan.groups_pruned
        count, chains, by_function = _matching(source, predicate)
        got = {key: entry["records"] for key, entry in answer["operations"].items()}
        self.out.attempted += 1
        self.out.failed += (answer["records"], answer["chains"], got) != (
            count, chains, dict(by_function)
        )

    def _cross_run(self, run_ids: list[str], sources: list[list], predicate) -> None:
        clock = time.perf_counter
        result = self.results["cross_run"]
        with self.recorder.span("store.catalog.query"):
            started = clock()
            answer = self.catalog.query(predicate, run_ids=run_ids)
            result.times_s.append(clock() - started)
        result.scan.segments_pruned += sum(
            row["scan"]["segments_pruned"] for row in answer.runs
        )
        expected = sum(_matching(source, predicate)[0] for source in sources)
        self.out.attempted += 1
        self.out.failed += answer.records != expected


# ----------------------------------------------------------------------
# Phase 5: stream replay


@dataclass
class _Replay:
    records: int
    detector_s: float  # ingest + finalize
    finalize_s: float
    monitor_s: float
    #: last round only: the reconstructor-alone rate and the stream itself
    reconstruct_rate: float = 0.0
    stream: list | None = None


def _replay(
    records: list, seed: int, spec: WorkloadSpec, journey: _Journey,
    recorder: SpanRecorder, speed: HostSpeed, out: Outcome, verify: bool,
) -> _Replay:
    clock = time.perf_counter
    in_order, stream = inputs.arrival_order(
        records, seed, spec.stream_interleave, STREAM_REORDER
    )
    gc.collect()
    speed.sample()
    with recorder.span("analysis.streaming.detector"):
        started = clock()
        detector = StreamingDetector()
        detector.ingest_many(stream)
        fed = clock()
        dscg = detector.finalize()
        detected = clock()
    with recorder.span("analysis.online.monitor"):
        monitor = OnlineMonitor()
        monitor.ingest_many(stream)
        monitored = clock()
    speed.sample()
    out.attempted += 2 * len(stream)
    out.require(
        dscg.node_count() == journey.nodes and not dscg.abnormal_events(),
        f"{journey.run_id}: streamed DSCG has {dscg.node_count()} nodes and"
        f" {len(dscg.abnormal_events())} abnormal events, batch had {journey.nodes} and none",
    )
    abnormal = [alert for alert in monitor.alerts() if alert.kind == "abnormal"]
    out.require(
        monitor.completed_calls() == journey.nodes and not abnormal
        and monitor.pending_records() == 0,
        f"{journey.run_id}: OnlineMonitor completed {monitor.completed_calls()} of"
        f" {journey.nodes} calls, {len(abnormal)} abnormal, {monitor.pending_records()} pending",
    )
    replay = _Replay(len(stream), detected - started, detected - fed, monitored - detected)
    if verify:
        # StreamingReconstructor.finalize() over the un-reordered stream must
        # serialize to the very JSON the batch analyzer produced.
        with recorder.span("analysis.streaming.reconstructor"):
            started = clock()
            reconstructor = StreamingReconstructor()
            reconstructor.ingest_many(in_order)
            streamed = reconstructor.finalize()
            replay.reconstruct_rate = len(in_order) / (clock() - started)
        digest = hashlib.sha256(dscg_to_json(streamed).encode()).hexdigest()
        out.require(
            digest == journey.dscg_sha256,
            f"{journey.run_id}: streaming DSCG JSON sha256 {digest[:12]} differs from the"
            f" batch reconstruction's {journey.dscg_sha256[:12]}",
        )
        replay.stream = stream
    return replay


# ----------------------------------------------------------------------
# Trace runs: per-layer metrics


def _per_layer(
    spec, deployment, recorder, online, journeys, records, queries, streams, out
) -> None:
    """Derive the per-layer metrics; ``records`` are the last round's."""
    layer = out.per_layer
    clock = time.perf_counter
    store = deployment.store
    last = journeys[-1]

    # -- driver-side diagnostics ---------------------------------------
    monitored = sorted(online.monitored_samples)
    twin_p50_us = stats.percentile(sorted(online.twin_samples), 50) / 1e3
    out.require(
        stats.highest_percentile(len(monitored)) >= 99.0,
        f"{len(monitored)} samples do not support a p99 (needs 10 beyond it)",
    )
    layer["driver.unmonitored_call_p50_us"] = twin_p50_us
    layer["driver.overhead_us_per_call"] = stats.percentile(monitored, 50) / 1e3 - twin_p50_us
    layer["driver.call_p99_us"] = stats.percentile(monitored, 99) / 1e3
    layer["driver.call_samples"] = len(monitored)
    layer["driver.records_per_call"] = online.records_written / online.monitored_roots
    layer["driver.trace_overhead_ratio"] = statistics.median(
        online.traced_medians
    ) / statistics.median(online.untraced_medians)

    # -- the offline journey, stage by stage ---------------------------
    for metric, span in (
        ("collector.drain_s", "collector.collect"),
        ("store.store.scan_spool_s", "store.scan_spool"),
        ("store.store.compact_s", "store.compact"),
        ("analysis.statemachine.reconstruct_s", "analysis.reconstruct"),
        ("analysis.latency.annotate_s", "analysis.latency.annotate"),
        ("analysis.cpu.annotate_s", "analysis.cpu.annotate"),
        ("analysis.ccsg.build_s", "analysis.ccsg.build"),
        ("analysis.serialize.dscg_json_s", "analysis.serialize.dscg_json"),
        ("analysis.xmlview.ccsg_xml_s", "analysis.xmlview.ccsg_xml"),
    ):
        layer[metric] = statistics.median(recorder.durations(span)) / 1e9
    layer["store.segment.decode_spool_records_per_s"] = statistics.median(
        j.records / (d / 1e9) for j, d in zip(journeys, recorder.durations("store.scan_spool"))
    )
    layer["store.store.compact_bytes_rewritten"] = statistics.median(
        j.sealed_bytes for j in journeys
    )
    # The stages are the journey span's only children, so what they leave
    # uncovered is that span's own self time.
    unattributed = recorder.self_time_by_name()["capture_to_report"] / sum(
        recorder.durations("capture_to_report")
    )
    layer["driver.journey_unattributed_share"] = unattributed
    out.require(
        unattributed <= 0.05,
        f"stage self times leave {unattributed:.1%} of capture_to_report unexplained",
    )

    # Stages the journey fuses, taken apart on the last round's records.
    with recorder.span("store.segment.decode_sealed"):
        started = clock()
        groups = list(store.chains_for_run(last.run_id))
        layer["store.segment.decode_sealed_records_per_s"] = last.records / (clock() - started)
    with recorder.span("analysis.statemachine.build"):
        started = clock()
        for chain_uuid, group in groups:
            reconstruct_chain(chain_uuid, group)
        layer["analysis.statemachine.build_records_per_s"] = last.records / (clock() - started)
    del groups
    with recorder.span("analysis.parallel.sharded2"):
        started = clock()
        sharded = reconstruct_sharded(store, last.run_id, workers=2)
        layer["analysis.parallel.sharded2_records_per_s"] = last.records / (clock() - started)
    out.require(sharded.node_count() == last.nodes, "sharded reconstruction lost nodes")
    with recorder.span("analysis.latency.report"):
        annotate_latency(sharded)
        started = clock()
        latency_report(sharded)
        layer["analysis.latency.report_s"] = clock() - started

    scratch = SegmentStore(os.path.join(deployment.path, "spool-only"), auto_compact=0)
    try:
        scratch.create_run(RunMetadata(run_id="spool"))
        with recorder.span("store.segment.encode_spool"):
            started = clock()
            with scratch.bulk_ingest():
                scratch.insert_records("spool", records)
            layer["store.segment.encode_spool_s"] = clock() - started
        layer["store.segment.spool_bytes_per_record"] = (
            scratch.store_info()["runs"][0]["bytes"] / len(records)
        )
    finally:
        scratch.close()

    subset = records[:SQLITE_SUBSET]
    database = MonitoringDatabase(os.path.join(deployment.path, "subset.db"))
    try:
        database.create_run(RunMetadata(run_id="subset"))
        with recorder.span("collector.database.ingest"):
            started = clock()
            with database.bulk_ingest():
                database.insert_records("subset", subset)
            layer["collector.database.ingest_records_per_s"] = len(subset) / (clock() - started)
        with recorder.span("collector.database.scan"):
            started = clock()
            scanned = sum(len(group) for _c, group in database.chains_for_run("subset"))
            layer["collector.database.scan_records_per_s"] = len(subset) / (clock() - started)
        out.require(scanned == len(subset), f"SQLite scan returned {scanned} of {len(subset)}")
    finally:
        database.close()

    # -- queries -------------------------------------------------------
    frames = seconds = 0
    for shape in ("time_window", "operation", "chain_prefix"):
        result = queries[shape]
        layer[f"store.query.frames_decoded.{shape}"] = result.scan.frames_decoded
        frames += result.scan.frames_decoded
        seconds += sum(result.times_s)
    layer["store.query.groups_pruned.chain_prefix"] = queries["chain_prefix"].scan.groups_pruned
    layer["store.query.segments_pruned.time_window"] = queries["cross_run"].scan.segments_pruned
    layer["store.query.decode_ns_per_frame"] = seconds * 1e9 / frames
    catalog = RunCatalog(store)
    with recorder.span("store.catalog.summary"):
        started = clock()
        catalog.summary(last.run_id, refresh=True)
        layer["store.catalog.cold_summary_ms"] = (clock() - started) * 1e3
    layer["store.catalog.warm_query_ms"] = statistics.median(queries["cross_run"].times_s) * 1e3

    # -- streaming -----------------------------------------------------
    replay = streams[-1]
    layer["analysis.streaming.reconstruct_records_per_s"] = replay.reconstruct_rate
    layer["analysis.streaming.detector_us_per_record"] = statistics.median(
        s.detector_s / s.records for s in streams
    ) * 1e6
    layer["analysis.streaming.finalize_s"] = statistics.median(s.finalize_s for s in streams)
    stream = replay.stream
    for metric, consumer in (
        ("analysis.streaming.pending_peak", StreamingReconstructor()),
        ("analysis.online.pending_peak", OnlineMonitor()),
    ):
        peak = 0
        for record in stream:  # one by one: a pending record may wait a single step
            consumer.ingest(record)
            peak = max(peak, consumer.pending_records())
        layer[metric] = peak

    # -- the layers themselves, called directly ------------------------
    layer.update(layers.measure_all(recorder, records))
    # Layer times are batch means, so they are set against the mean time
    # one root call occupies the driver (for async_fanout: the one loop).
    service_us = 1e6 / out.end_to_end["monitored_calls_per_s"]
    layer["driver.attributed_share"] = recipe_us(spec.traffic, layer) / service_us
