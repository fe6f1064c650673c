"""Unit tests for streaming reconstruction, detection and ranking."""

import random
from collections import defaultdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.dscg import Dscg
from repro.analysis.latency import end_to_end_latency
from repro.analysis.quantiles import P2Quantile
from repro.analysis.serialize import dscg_to_json
from repro.analysis.statemachine import reconstruct_chain
from repro.analysis.streaming import (
    CausalRanker,
    DetectionConfig,
    RollingBaseline,
    StreamingDetector,
    StreamingReconstructor,
    WindowCompletion,
    incident_from_dict,
    incidents_from_json,
    incidents_to_json,
    run_seeded_delay_scenario,
)
from repro.analysis.streaming import baselines
from repro.analysis.streaming.baselines import MAD_SCALE
from repro.analysis.streaming.detector import _FunctionState
from repro.core import MonitorMode
from tests.helpers import Call, rows_of, simulate


def records_for(calls):
    return simulate(
        calls, mode=MonitorMode.LATENCY, fresh_chain_per_top_call=True
    ).records


MIXED_WORKLOAD = [
    Call(
        "I::F",
        cpu_ns=100,
        children=(
            Call("I::G", cpu_ns=50, children=(Call("I::H", cpu_ns=10),)),
            Call("I::G", cpu_ns=70),
        ),
    ),
    Call("I::W", cpu_ns=30, oneway=True),
    Call("I::C", cpu_ns=20, collocated=True),
    Call("I::F", cpu_ns=200),
]


class TestStreamingReconstructor:
    def _batch(self, records):
        groups = defaultdict(list)
        for record in records:
            groups[record.chain_uuid].append(record)
        dscg = Dscg()
        for chain_uuid in sorted(groups):
            dscg.add_chain(
                reconstruct_chain(
                    chain_uuid,
                    rows_of(sorted(groups[chain_uuid], key=lambda r: r.event_seq)),
                )
            )
        dscg.link_chains()
        return dscg

    def test_in_order_stream_matches_batch(self):
        records = records_for(MIXED_WORKLOAD)
        streaming = StreamingReconstructor()
        streaming.ingest_many(records)
        assert dscg_to_json(streaming.finalize()) == dscg_to_json(
            self._batch(records)
        )

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_shuffled_stream_matches_batch(self, seed):
        records = records_for(MIXED_WORKLOAD)
        shuffled = list(records)
        random.Random(seed).shuffle(shuffled)
        streaming = StreamingReconstructor()
        streaming.ingest_many(shuffled)
        assert dscg_to_json(streaming.finalize()) == dscg_to_json(
            self._batch(records)
        )

    def test_completion_hook_fires_in_record_order(self):
        completions = []
        streaming = StreamingReconstructor(
            on_complete=lambda node, record, index: completions.append(
                (node.function, index)
            )
        )
        streaming.ingest_many(records_for(MIXED_WORKLOAD))
        dscg = streaming.finalize()
        assert len(completions) == dscg.node_count()
        indices = [index for _, index in completions]
        assert indices == sorted(indices)
        # Children complete before their parents.
        assert completions[0][0] == "I::H"

    def test_live_views_mid_stream(self):
        records = records_for([Call("I::F", cpu_ns=10)])
        streaming = StreamingReconstructor()
        streaming.ingest_many(records[:2])  # stub_start + skel_start
        assert streaming.live_chain_count() == 1
        assert [n.function for n in streaming.open_frames()] == ["I::F"]
        streaming.ingest_many(records[2:])
        assert streaming.live_chain_count() == 0
        assert streaming.completed_nodes() == 1

    def test_pending_bounded_with_drop_accounting(self):
        records = records_for([Call("I::F", cpu_ns=10, children=(Call("I::G"),))])
        streaming = StreamingReconstructor(max_pending=2)
        for record in records[1:]:  # withhold seq 0: everything buffers
            streaming.ingest(record)
        stats = streaming.stats()
        assert stats["pending_records"] == 2
        assert stats["pending_dropped"] == len(records) - 3

    def test_finalize_idempotent_and_seals_ingest(self):
        records = records_for([Call("I::F", cpu_ns=10)])
        streaming = StreamingReconstructor()
        streaming.ingest_many(records)
        first = streaming.finalize()
        assert streaming.finalize() is first
        with pytest.raises(RuntimeError):
            streaming.ingest(records[0])

    def test_finalize_flushes_stalled_pending(self):
        records = records_for([Call("I::F", cpu_ns=10)])
        streaming = StreamingReconstructor()
        streaming.ingest_many(records[1:])  # gap record never arrives
        dscg = streaming.finalize()
        # The survivors went through the machine; the chain is salvaged.
        assert dscg.node_count() >= 1
        assert streaming.pending_records() == 0

    def test_late_duplicate_is_flagged_not_applied(self):
        records = records_for([Call("I::F", cpu_ns=10)])
        flagged = []
        streaming = StreamingReconstructor(on_abnormal=flagged.append)
        streaming.ingest_many(records)
        streaming.ingest(records[0])  # stub_start replayed after the call closed
        dscg = streaming.finalize()
        assert dscg.node_count() == 1  # no phantom frame
        (event,) = dscg.abnormal_events()
        assert flagged == [event]
        assert event.record is records[0]
        assert "late stub_start for I::F" in event.reason

    def test_duplicate_of_a_buffered_record_is_flagged(self):
        records = records_for([Call("I::F", cpu_ns=10)])
        flagged = []
        streaming = StreamingReconstructor(on_abnormal=flagged.append)
        streaming.ingest_many([records[2], records[2]])
        assert streaming.pending_records() == 1
        assert len(flagged) == 1 and flagged[0].record is records[2]
        streaming.ingest_many([records[0], records[1], records[3]])
        dscg = streaming.finalize()
        assert dscg.node_count() == 1
        assert dscg.abnormal_events() == flagged

    def test_abnormal_hook_fires_per_machine_transition(self):
        records = records_for([Call("I::F", cpu_ns=10)])
        flagged = []
        streaming = StreamingReconstructor(on_abnormal=flagged.append)
        streaming.ingest_many(records[1:])  # stub_start lost
        dscg = streaming.finalize()  # flushes the stalled chain
        assert flagged and flagged == dscg.abnormal_events()

    def test_drop_hook_fires_per_overflowed_record(self):
        records = records_for([Call("I::F", cpu_ns=10, children=(Call("I::G"),))])
        dropped = []
        streaming = StreamingReconstructor(max_pending=2, on_drop=dropped.append)
        streaming.ingest_many(records[1:])
        assert dropped == records[3:]
        assert streaming.pending_dropped == len(dropped)

    def test_release_forgets_the_tree_but_not_the_numbering(self):
        # Two top-level calls on one chain: event numbers 0-3 and 4-7.
        records = simulate(
            [Call("I::F", cpu_ns=10), Call("I::G", cpu_ns=10)],
            mode=MonitorMode.LATENCY,
        ).records
        flagged = []
        streaming = StreamingReconstructor(on_abnormal=flagged.append)
        streaming.ingest_many(records[:4] + [records[5]])
        streaming.release(records[0].chain_uuid)
        streaming.release("no-such-chain")
        assert streaming.pending_records() == 1  # seq 5 still waits for 4
        streaming.ingest(records[1])  # late: remembered across the release
        assert len(flagged) == 1
        streaming.ingest_many([records[4]] + records[6:])
        assert streaming.completed_nodes() == 2
        # Only what came after the release is in the final graph.
        assert [n.function for n in streaming.finalize().walk()] == ["I::G"]

    def test_release_with_open_frames_keeps_live_counters_right(self):
        records = records_for([Call("I::F", cpu_ns=10, children=(Call("I::G"),))])
        streaming = StreamingReconstructor()
        streaming.ingest_many(records[:3])
        assert streaming.stats()["open_frames"] == 2
        streaming.release(records[0].chain_uuid)
        stats = streaming.stats()
        assert (stats["open_frames"], stats["live_chains"]) == (0, 0)
        assert streaming.open_frames() == []


class TestRollingBaseline:
    def test_score_is_robust_z_before_observe(self):
        baseline = RollingBaseline(window=8)
        for value in (100, 102, 98, 101, 99, 100, 100, 101):
            baseline.observe(value)
        assert abs(baseline.score(100)) < 1.0
        assert baseline.score(10_000) > 100.0

    def test_flat_window_mad_floor(self):
        baseline = RollingBaseline(window=8)
        for _ in range(8):
            baseline.observe(100)
        assert baseline.mad() == 0.0
        # Floor = max(1% of median, 1.0): a genuine spike still scores.
        assert baseline.score(1_000) > 4.0

    def test_window_eviction(self):
        baseline = RollingBaseline(window=4)
        for value in (1, 2, 3, 4, 5, 6):
            baseline.observe(value)
        assert baseline.count == 4
        assert baseline.median() == 4.5

    def test_median_resists_outlier_poisoning(self):
        baseline = RollingBaseline(window=16)
        for _ in range(12):
            baseline.observe(100)
        for _ in range(4):  # an incident in progress
            baseline.observe(1_000_000)
        assert baseline.median() == 100
        assert baseline.score(1_000_000) > 4.0  # still detected

    def test_tiny_window_rejected(self):
        with pytest.raises(ValueError):
            RollingBaseline(window=3)


def _oracle(window: list[float]) -> tuple[float, float]:
    """Median and MAD the brute-force way: sort the deviations."""

    def median_of(ordered):
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    median = median_of(sorted(window))
    return median, median_of(sorted(abs(x - median) for x in window))


#: Latencies as the detector sees them (ints), heavy ties, and floats.
_LATENCIES = st.one_of(
    st.lists(st.integers(0, 10**9), min_size=1, max_size=160),
    st.lists(st.integers(95, 105), min_size=1, max_size=160),
    st.lists(st.sampled_from([0, 7, 7, 7, 1_000]), min_size=1, max_size=160),
    st.lists(
        st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=160,
    ),
)


class TestRollingBaselineExactness:
    """The selected median, MAD and score equal (``==``) a sort's."""

    @given(window=st.integers(4, 64), values=_LATENCIES, probe=st.integers(-10, 10**9))
    def test_matches_sorting_oracle_after_every_observation(self, window, values, probe):
        baseline = RollingBaseline(window)
        for seen, value in enumerate(values, 1):
            baseline.observe(value)
            current = [float(v) for v in values[max(seen - window, 0):seen]]
            median, mad = _oracle(current)
            assert baseline.count == len(current)
            assert baseline.median() == median
            assert baseline.mad() == mad
            scale = mad if mad > 0.0 else max(abs(median) * 0.01, 1.0)
            for candidate in (probe, value, median):
                assert baseline.score(candidate) == MAD_SCALE * (candidate - median) / scale
            assert baseline.snapshot().mad == mad

    @pytest.mark.parametrize("window", [4, 5, 63, 64])
    @pytest.mark.parametrize("fill", [1, 2, 3, 4, 5, 64, 200])
    def test_constant_window_uses_the_scale_floor(self, window, fill):
        baseline = RollingBaseline(window)
        for _ in range(fill):
            baseline.observe(250)
        assert (baseline.median(), baseline.mad()) == (250.0, 0.0)
        assert baseline.score(1_250) == MAD_SCALE * 1_000 / 2.5

    def test_empty_window_scores_zero(self):
        baseline = RollingBaseline()
        assert (baseline.median(), baseline.mad(), baseline.score(5)) == (0.0, 0.0, 0.0)


class TestP2Quantile:
    def test_exact_for_small_counts(self):
        quantile = P2Quantile(0.5)
        for value in (5, 1, 3):
            quantile.observe(value)
        assert quantile.value() == 3

    def test_empty_is_zero(self):
        assert P2Quantile(0.5).value() == 0.0

    @pytest.mark.parametrize("p,expected", [(0.5, 500), (0.95, 950), (0.99, 990)])
    def test_accuracy_on_uniform_stream(self, p, expected):
        values = list(range(1, 1001))
        random.Random(1).shuffle(values)
        quantile = P2Quantile(p)
        for value in values:
            quantile.observe(value)
        assert abs(quantile.value() - expected) <= 30

    def test_deterministic_given_sequence(self):
        values = list(range(1, 501))
        random.Random(9).shuffle(values)
        first, second = P2Quantile(0.95), P2Quantile(0.95)
        for value in values:
            first.observe(value)
            second.observe(value)
        assert first.value() == second.value()

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ValueError):
            P2Quantile(1.0)


def _completion(index, function, component, chain, latency, self_ns, z):
    return WindowCompletion(
        completion_index=index,
        record_index=index * 4,
        function=function,
        component=component,
        chain_uuid=chain,
        latency_ns=latency,
        self_ns=self_ns,
        z=z,
    )


class TestCausalRanker:
    def test_self_time_culprit_outranks_inheriting_ancestor(self):
        completions = []
        for i in range(10):
            spiking = i >= 5
            latency = 1_000_000 if spiking else 2_000
            z = 50.0 if spiking else 0.0
            chain = f"chain-{i:02d}"
            # The culprit holds nearly all the self time...
            completions.append(
                _completion(3 * i, "I::Back", "BackComp", chain, latency, latency - 500, z)
            )
            # ...its caller inherits the latency but spends nothing itself.
            completions.append(
                _completion(3 * i + 1, "I::Front", "FrontComp", chain, latency + 500, 500, z)
            )
        implicated = {f"chain-{i:02d}" for i in range(5, 10)}
        causes = CausalRanker().rank(completions, "I::Front", implicated)
        assert causes[0].component == "BackComp"
        assert causes[0].score > causes[1].score
        assert causes[0].resource_share > 0.9

    def test_only_implicated_chains_are_candidates(self):
        completions = [
            _completion(0, "I::A", "CompA", "chain-in", 100, 100, 5.0),
            _completion(1, "I::B", "CompB", "chain-out", 100, 100, 5.0),
        ]
        causes = CausalRanker().rank(completions, "I::A", {"chain-in"})
        assert [c.component for c in causes] == ["CompA"]

    def test_empty_window_ranks_nothing(self):
        assert CausalRanker().rank([], "I::A", {"c"}) == []

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            CausalRanker(weights=(0.5, 0.5))
        with pytest.raises(ValueError):
            CausalRanker(weights=(-0.1, 0.6, 0.5))


CFG = DetectionConfig(window=16, min_samples=4, z_threshold=4.0, persistence=2,
                      cooldown=3)


class TestStreamingDetector:
    def _run(self, calls, config=CFG, registry=None):
        detector = StreamingDetector(config, registry=registry)
        detector.ingest_many(records_for(calls))
        detector.finalize()
        return detector

    def test_sustained_spike_opens_and_cooldown_closes(self):
        calls = (
            [Call("I::F", cpu_ns=100) for _ in range(8)]
            + [Call("I::F", cpu_ns=50_000) for _ in range(3)]
            + [Call("I::F", cpu_ns=100) for _ in range(6)]
        )
        detector = self._run(calls)
        assert len(detector.incidents) == 1
        incident = detector.incidents[0]
        assert incident.function == "I::F"
        assert incident.closed_by == "cooldown"
        assert incident.trigger_latency_ns == 50_000
        assert incident.peak_z >= CFG.z_threshold
        assert incident.root_cause is not None
        assert incident.root_cause.component == "Comp"
        assert incident.implicated_chains  # the spiking chains

    def test_single_spike_filtered_by_persistence(self):
        calls = (
            [Call("I::F", cpu_ns=100) for _ in range(8)]
            + [Call("I::F", cpu_ns=50_000)]
            + [Call("I::F", cpu_ns=100) for _ in range(8)]
        )
        assert self._run(calls).incidents == []

    def test_warmup_never_alarms(self):
        config = DetectionConfig(window=16, min_samples=8, z_threshold=4.0,
                                 persistence=1, cooldown=3)
        calls = [Call("I::F", cpu_ns=100 if i % 2 else 90_000) for i in range(6)]
        assert self._run(calls, config).incidents == []

    def test_finalize_closes_open_incident(self):
        calls = [Call("I::F", cpu_ns=100) for _ in range(8)] + [
            Call("I::F", cpu_ns=50_000) for _ in range(4)
        ]
        detector = self._run(calls)
        assert len(detector.incidents) == 1
        assert detector.incidents[0].closed_by == "finalize"
        assert detector.open_incident_count() == 0

    def test_reports_deterministic_across_replays(self):
        calls = (
            [Call("I::F", cpu_ns=100) for _ in range(8)]
            + [Call("I::F", cpu_ns=50_000) for _ in range(3)]
            + [Call("I::F", cpu_ns=100) for _ in range(6)]
        )
        first = incidents_to_json(self._run(calls).incidents, run_id="r")
        second = incidents_to_json(self._run(calls).incidents, run_id="r")
        assert first == second

    def test_report_json_roundtrip(self):
        calls = [Call("I::F", cpu_ns=100) for _ in range(8)] + [
            Call("I::F", cpu_ns=50_000) for _ in range(3)
        ]
        incidents = self._run(calls).incidents
        document = incidents_to_json(incidents, run_id="r")
        restored = incidents_from_json(document)
        assert [r.to_dict() for r in restored] == [r.to_dict() for r in incidents]
        assert restored[0].incident_id == incidents[0].incident_id
        assert incident_from_dict(incidents[0].to_dict()).to_dict() == (
            incidents[0].to_dict()
        )

    def test_metrics_registry_wiring(self):
        from repro.telemetry import render_prometheus
        from repro.telemetry.metrics import MetricsRegistry

        registry = MetricsRegistry()
        calls = [Call("I::F", cpu_ns=100) for _ in range(8)] + [
            Call("I::F", cpu_ns=50_000) for _ in range(3)
        ]
        self._run(calls, registry=registry)
        body = render_prometheus(registry)
        assert "repro_streaming_incidents_total 1" in body
        assert "repro_streaming_records_total" in body
        assert "repro_streaming_anomalous_completions_total" in body


class _ScoreEveryCompletion(StreamingDetector):
    """Reference detector: scores every warm completion in full (no
    short-cut below the median), otherwise the detector's own steps."""

    def _on_complete(self, node, record, record_index):
        self._m_completions.inc()
        latency = end_to_end_latency(node)
        if latency is None:
            return
        children_ns = sum(
            child_latency
            for child_latency in map(end_to_end_latency, node.children)
            if child_latency is not None and child_latency > 0
        )
        self._completion_index += 1
        state = self._functions.setdefault(
            node.function, _FunctionState(self.config.window)
        )
        warm = state.baseline.count >= self.config.min_samples
        z = state.baseline.score(latency) if warm else 0.0
        anomalous = z >= self.config.z_threshold
        completion = WindowCompletion(
            completion_index=self._completion_index,
            record_index=record_index,
            function=node.function,
            component=node.component,
            chain_uuid=node.chain_uuid,
            latency_ns=latency,
            self_ns=max(latency - children_ns, 0),
            z=z if anomalous else 0.0,
        )
        self._history.append(completion)
        state.baseline.observe(latency)
        if anomalous:
            self._anomalous_total += 1
            self._m_anomalous.inc()
        self._advance_state(state, completion, anomalous)


def _interleaved_stream(seed: int) -> list:
    """Many chains' records, interleaved at random over up to eight open
    chains (each chain's own records stay in order)."""
    rng = random.Random(seed)
    calls = []
    for i in range(160):
        spike = 60 <= i < 75
        slow = rng.choice([100, 100, 120, 150]) * (400 if spike else 1)
        calls.append(
            Call(
                "I::F",
                cpu_ns=rng.choice([90, 100, 100, 110]),
                children=(
                    Call("I::G", cpu_ns=slow, component="Back"),
                    Call("I::H", cpu_ns=rng.randint(40, 60)),
                ),
            )
        )
        calls.append(Call("I::W", cpu_ns=rng.choice([30, 30, 31])))
    chains = defaultdict(list)
    for record in records_for(calls):
        chains[record.chain_uuid].append(record)
    queues = [chains[uuid] for uuid in sorted(chains)]
    stream = []
    while queues:
        lane = rng.randrange(min(len(queues), 8))
        stream.append(queues[lane].pop(0))
        if not queues[lane]:
            del queues[lane]
    return stream


class TestBelowMedianShortCut:
    """Skipping the MAD at or below the median changes no output."""

    CONFIGS = [
        DetectionConfig(),
        CFG,
        DetectionConfig(window=16, min_samples=4, z_threshold=0.0, persistence=2),
        DetectionConfig(window=16, min_samples=4, z_threshold=-1.0, persistence=2),
    ]

    @staticmethod
    def _pair(config, records):
        detectors = (StreamingDetector(config), _ScoreEveryCompletion(config))
        for detector in detectors:
            detector.ingest_many(records)
            detector.finalize()
        return detectors

    @staticmethod
    def _assert_same(detector, reference):
        assert [i.to_dict() for i in detector.incidents] == [
            i.to_dict() for i in reference.incidents
        ]
        assert detector.stats() == reference.stats()
        assert list(detector._history) == list(reference._history)

    @pytest.mark.parametrize("config", CONFIGS, ids=["default", "cfg", "zero", "negative"])
    def test_seeded_delay_scenario(self, config):
        scenario = run_seeded_delay_scenario(7)
        records = list(scenario.store.all_records(scenario.run_id))
        scenario.store.close()
        detector, reference = self._pair(config, records)
        self._assert_same(detector, reference)
        if config.z_threshold > 0:
            assert detector.incidents

    @pytest.mark.parametrize("config", CONFIGS, ids=["default", "cfg", "zero", "negative"])
    def test_interleaved_stream(self, config, monkeypatch):
        mads = []
        select = baselines._mad
        monkeypatch.setattr(
            baselines, "_mad", lambda *args: mads.append(1) or select(*args)
        )
        records = _interleaved_stream(3)
        detector = StreamingDetector(config)
        detector.ingest_many(records)
        detector.finalize()
        selected = len(mads)
        reference = _ScoreEveryCompletion(config)
        reference.ingest_many(records)
        reference.finalize()
        self._assert_same(detector, reference)
        assert detector.incidents
        # The short-cut skips MADs under a positive threshold, and only there.
        skipped = (len(mads) - selected) - selected
        assert (skipped > 0) == (config.z_threshold > 0)

    @pytest.mark.parametrize("threshold", [0.0, -1.0])
    def test_non_positive_threshold_still_scores_below_the_median(self, threshold):
        records = _interleaved_stream(5)
        config = DetectionConfig(window=16, min_samples=4, z_threshold=threshold)
        detector, reference = self._pair(config, records)
        self._assert_same(detector, reference)
        # Completions at or below their median (z <= 0) count only under a
        # non-positive threshold: just above zero, fewer are anomalous.
        barely, _ = self._pair(
            DetectionConfig(window=16, min_samples=4, z_threshold=1e-9), records
        )
        assert (
            detector.stats()["anomalous_completions"]
            > barely.stats()["anomalous_completions"]
        )
