"""Smoke and unit tests of the performance ledger itself.

Run explicitly — ``python -m pytest bench/tests`` — they are not part of
the tier-1 suite (``testpaths`` stays ``tests``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from bench import hostspeed, results, spans, stats  # noqa: E402
from bench.spec import load_contract  # noqa: E402


def bench(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=ROOT, capture_output=True, text=True,
        check=check, timeout=300,
    )


# ----------------------------------------------------------------------
# The statistics


def test_block_median_is_a_median_and_refuses_too_few_blocks():
    assert stats.block_median([5.0, 1.0, 100.0, 2.0, 3.0], min_blocks=5) == 3.0
    with pytest.raises(ValueError):
        stats.block_median([1.0, 2.0, 3.0], min_blocks=20)


def test_highest_percentile_keeps_ten_samples_beyond_it():
    assert stats.highest_percentile(20) == 50.0
    assert stats.highest_percentile(99) == 50.0  # p90 would leave 9.9 beyond
    assert stats.highest_percentile(100) == 90.0
    assert stats.highest_percentile(999) == 90.0
    assert stats.highest_percentile(1000) == 99.0
    assert stats.highest_percentile(10_000) == 99.9
    with pytest.raises(ValueError):
        stats.highest_percentile(19)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99) == 99
    assert stats.percentile([7], 99) == 7


def test_abba_pairs_blocks_into_quads():
    blocks = [("A", 12.0), ("B", 10.0), ("B", 10.0), ("A", 14.0),
              ("A", 30.0), ("B", 20.0), ("B", 20.0), ("A", 30.0)]
    assert stats.abba_ratios(blocks) == [1.3, 1.5]
    # A linear drift across a quad falls on both sides equally.
    drift = [("A", 10.0), ("B", 11.0), ("B", 12.0), ("A", 13.0)]
    assert stats.abba_ratios(drift) == [1.0]
    with pytest.raises(ValueError):
        stats.abba_ratios([("A", 1.0), ("B", 1.0), ("A", 1.0), ("B", 1.0)])
    with pytest.raises(ValueError):
        stats.abba_ratios(blocks[:6])


def test_span_self_time_subtracts_the_union_of_children():
    # parent 0..100; children 10..30 and 20..50 overlap (union 40), a third
    # runs past the parent's end (90..120, clipped to 10); a grandchild
    # only shortens its own parent.
    tree = [(0, 100, None), (10, 30, 0), (20, 50, 0), (90, 120, 0), (12, 18, 1)]
    assert spans.self_times(tree) == [50, 14, 30, 30, 6]


def test_recorder_nests_sequential_spans_and_is_free_when_off():
    recorder = spans.SpanRecorder(enabled=True)
    with recorder.span("outer"):
        with recorder.span("inner", op=7):
            pass
    (outer, inner) = recorder.spans
    assert (outer[0], outer[3]) == ("outer", None)
    assert (inner[0], inner[3], inner[4]) == ("inner", 0, 7)
    assert sum(recorder.self_times()) == outer[2] - outer[1]
    off = spans.SpanRecorder(enabled=False)
    with off.span("anything"):
        pass
    assert off.spans == []


def test_host_speed_factor_is_the_median_pass_over_the_reference_pass():
    speed = hostspeed.HostSpeed()
    speed.passes_ns = [hostspeed.REFERENCE_NS * k for k in (1, 9, 2)]  # one pass hit a burst
    assert speed.factor() == 2.0
    speed.sample()
    assert len(speed.passes_ns) == 4 and speed.passes_ns[-1] > 0


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([100, 101, 102], [103, 104, 105], "lower", "within"),
        ([100, 101, 102], [120, 121, 122], "lower", "worse"),
        ([100, 101, 102], [80, 81, 82], "lower", "better"),
        ([100, 101, 102], [80, 81, 82], "higher", "worse"),
        ([100, 130, 160], [101, 131, 161], "lower", "unresolved"),
        ([100, 130, 160], [50, 60, 99], "lower", "better"),  # every run of B beats every run of A
    ],
)
def test_verdict(a, b, better, expected):
    assert results.verdict(a, b, better, bound=0.10) == expected


# ----------------------------------------------------------------------
# The command, at --tiny sizes


@pytest.fixture(scope="module")
def tiny_set(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("bench") / "tiny.json")
    bench("run", "--tiny", "--repeats", "1", "--trace", "--out", path)
    with open(path) as handle:
        return path, json.load(handle)


def test_tiny_set_is_schema_valid_and_correct(tiny_set):
    _path, document = tiny_set
    contract = load_contract()
    results.validate(document, contract)  # names, units, declared == emitted
    assert list(document["workloads"]) == list(contract.workloads)
    assert {"git_sha", "git_dirty", "python", "nproc", "cpu_model"} <= set(document["fingerprint"])
    for name, entry in document["workloads"].items():
        assert entry["failed"] == [0], name
        assert entry["attempted"][0] > 0, name
        for metric, summary in entry["end_to_end"].items():
            assert summary["median"] > 0, (name, metric)
            assert summary["bound"] == contract.end_to_end[metric].bound
        layer = entry["per_layer"]
        expected = {"remote_sync": 8, "collocated_nested": 16, "async_fanout": 4}[name]
        assert layer["driver.records_per_call"]["median"] == expected
        assert 0.2 < layer["driver.host_speed_factor"]["median"] < 5
        assert layer["driver.journey_unattributed_share"]["median"] <= 0.05
        assert layer["driver.attributed_share"]["median"] > 0
        assert os.path.exists(os.path.join(ROOT, "bench", "out", f"trace-{name}.json"))


def test_compare_of_a_set_with_itself_is_all_within(tiny_set):
    path, _document = tiny_set
    done = bench("compare", path, path)
    assert done.returncode == 0
    assert " 0 worse" in done.stdout and " 0 unresolved" in done.stdout


def test_compare_exits_1_on_a_worse_metric(tiny_set, tmp_path):
    path, document = tiny_set
    slower = json.loads(json.dumps(document))
    summary = slower["workloads"]["remote_sync"]["end_to_end"]["monitored_call_p50_us"]
    summary["values"] = [value * 2 for value in summary["values"]]
    summary["median"] *= 2
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(slower))
    done = bench("compare", path, str(worse), check=False)
    assert done.returncode == 1
    assert "worse" in done.stdout


def test_single_workload_line_has_exactly_the_contract_keys():
    done = bench("run", "--workload", "collocated_nested", "--seed", "3", "--tiny", "--trace", "0")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(load_contract().end_to_end)
