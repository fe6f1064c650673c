"""Integration tests for the CLI (`python -m repro`)."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def pps_db(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "pps.db"
    assert main(["demo-pps", str(path), "--mode", "full",
                 "--jobs", "2", "--pages", "2", "--complexity", "1"]) == 0
    return str(path)


class TestCli:
    def test_summary(self, pps_db, capsys):
        assert main(["summary", pps_db]) == 0
        out = capsys.readouterr().out
        assert "DSCG:" in out
        assert "causal chain" in out

    def test_latency_table(self, pps_db, capsys):
        assert main(["latency", pps_db, "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "function" in out
        assert "PPS::" in out

    def test_cpu_table(self, pps_db, capsys):
        assert main(["cpu", pps_db]) == 0
        out = capsys.readouterr().out
        assert "self CPU" in out

    def test_ccsg_to_file(self, pps_db, tmp_path, capsys):
        out_file = tmp_path / "ccsg.xml"
        assert main(["ccsg", pps_db, "--output", str(out_file)]) == 0
        text = out_file.read_text()
        assert text.startswith("<?xml")
        assert "SelfCPUConsumption" in text

    def test_critical_path(self, pps_db, capsys):
        assert main(["critical-path", pps_db, "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "chain" in out
        assert "% of chain" in out

    def test_dscg_json(self, pps_db, tmp_path):
        out_file = tmp_path / "dscg.json"
        assert main(["dscg-json", pps_db, "--output", str(out_file)]) == 0
        document = json.loads(out_file.read_text())
        assert document["format"] == "repro-dscg"

    def test_svg(self, pps_db, tmp_path):
        out_file = tmp_path / "dscg.svg"
        assert main(["svg", pps_db, "--output", str(out_file)]) == 0
        assert out_file.read_text().startswith("<svg")

    def test_harness(self, pps_db, tmp_path):
        out_file = tmp_path / "harness.py"
        assert main(["harness", pps_db, "--output", str(out_file)]) == 0
        script = out_file.read_text()
        compile(script, "<harness>", "exec")
        assert "EXPECTED_TOTAL_CALLS" in script

    def test_unknown_run_rejected(self, pps_db):
        with pytest.raises(SystemExit):
            main(["summary", pps_db, "--run", "no-such-run"])

    def test_empty_database_rejected(self, tmp_path):
        empty = tmp_path / "empty.db"
        from repro.store import MonitoringDatabase

        MonitoringDatabase(str(empty)).close()
        with pytest.raises(SystemExit):
            main(["summary", str(empty)])

    def test_impact_ranking(self, pps_db, capsys):
        assert main(["impact", pps_db]) == 0
        out = capsys.readouterr().out
        assert "top functions by saving" in out
        assert "PPS::" in out

    def test_impact_single_function(self, pps_db, capsys):
        assert main(["impact", pps_db, "--function",
                     "PPS::MarkingEngine::mark", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "what-if: PPS::MarkingEngine::mark self CPU x0.25" in out

    def test_demo_embedded(self, tmp_path, capsys):
        db = tmp_path / "emb.db"
        assert main(["demo-embedded", str(db), "--calls", "300", "--roots", "2"]) == 0
        assert main(["summary", str(db)]) == 0
        out = capsys.readouterr().out
        assert "300" in out  # the driven call count appears in the stats

    def test_export_trace_chrome(self, pps_db, tmp_path):
        out_file = tmp_path / "trace.json"
        assert main(["export-trace", pps_db, "--format", "chrome",
                     "--output", str(out_file)]) == 0
        document = json.loads(out_file.read_text())
        assert document["otherData"]["format"] == "repro-chrome-trace"
        slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert slices
        assert len({e["args"]["trace_id"] for e in slices}) == (
            document["otherData"]["chains"]
        )

    def test_export_trace_otlp_pretty(self, pps_db, tmp_path):
        out_file = tmp_path / "spans.json"
        assert main(["export-trace", pps_db, "--format", "otlp", "--pretty",
                     "--output", str(out_file)]) == 0
        document = json.loads(out_file.read_text())
        assert document["otherData"]["format"] == "repro-otlp-trace"
        assert document["resourceSpans"]
        spans = [
            span
            for resource in document["resourceSpans"]
            for span in resource["scopeSpans"][0]["spans"]
        ]
        assert spans and all(len(span["traceId"]) == 32 for span in spans)

    def test_metrics_emits_prometheus_text(self, capsys):
        from repro import telemetry

        assert main(["metrics", "--jobs", "1", "--pages", "2",
                     "--complexity", "1", "--slo-ms", "0.001"]) == 0
        out = capsys.readouterr().out
        for metric in (
            "repro_orb_dispatch_total",
            "repro_probe_records_total",
            "repro_collector_drains_total",
            "repro_online_completed_calls_total",
        ):
            assert metric in out, metric
        # The command must leave global telemetry switched off again.
        assert not telemetry.is_enabled()


class TestSegmentStoreCli:
    @pytest.fixture(scope="class")
    def segment_store(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-store") / "store"
        assert main(["demo-embedded", str(path), "--store", "segment",
                     "--calls", "300", "--roots", "3"]) == 0
        return str(path)

    def test_analysis_commands_on_segment_store(self, segment_store, capsys):
        # The run-analysis commands autodetect the backend from the path.
        assert main(["summary", segment_store]) == 0
        out = capsys.readouterr().out
        assert "DSCG:" in out
        assert main(["latency", segment_store, "--limit", "3"]) == 0
        assert "function" in capsys.readouterr().out

    def test_analysis_commands_take_no_workers_flag(self, segment_store, capsys):
        # Reconstruction is one serial pass; the pool-width option is gone.
        with pytest.raises(SystemExit) as exit_info:
            main(["summary", segment_store, "--workers", "2"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_store_info_segment(self, segment_store, tmp_path):
        out_file = tmp_path / "info.json"
        assert main(["store-info", segment_store,
                     "--output", str(out_file)]) == 0
        info = json.loads(out_file.read_text())
        assert info["backend"] == "segment"
        assert info["schema_version"] >= 1
        (run,) = info["runs"]
        assert run["records"] > 0
        assert run["segments"]

    def test_store_info_segments_say_what_they_hold(self, segment_store, tmp_path):
        out_file = tmp_path / "info.json"
        assert main(["store-info", segment_store, "--output", str(out_file)]) == 0
        (run,) = json.loads(out_file.read_text())["runs"]
        assert all(s["schema_version"] == 2 and s["sites"] > 0 for s in run["segments"])

    def test_query_predicated(self, segment_store, tmp_path):
        out_file = tmp_path / "q.json"
        assert main(["query", segment_store, "--operation", "m0",
                     "--output", str(out_file)]) == 0
        result = json.loads(out_file.read_text())
        assert result["predicate"]["operations"] == ["m0"]
        assert result["records"] > 0
        assert all(key.endswith("::m0") for key in result["operations"])
        # The pushdown proof: fewer frames decoded than records stored.
        unfiltered = tmp_path / "all.json"
        assert main(["query", segment_store, "--output", str(unfiltered)]) == 0
        full = json.loads(unfiltered.read_text())
        assert result["records"] < full["records"]
        assert result["scan"]["frames_decoded"] <= full["scan"]["frames_decoded"]

    def test_selective_operation_prunes_groups_on_compacted_run(self, tmp_path):
        from repro.store import SegmentStore

        path = str(tmp_path / "store")
        assert main(["demo-embedded", path, "--store", "segment",
                     "--calls", "200", "--roots", "20"]) == 0
        store = SegmentStore(path, auto_compact=0)
        (meta,) = store.runs()
        # The collection committed sealed: nothing is left to compact.
        assert store.compaction_state(meta.run_id)["compacted"]
        assert store.compact(meta.run_id) is False
        store.close()

        info_file = tmp_path / "info.json"
        assert main(["store-info", path, "--output", str(info_file)]) == 0
        (run,) = json.loads(info_file.read_text())["runs"]
        (segment,) = run["segments"]
        assert segment["index"]["group_functions"] is True
        assert segment["index"]["functions"] > 0

        everything = tmp_path / "all.json"
        assert main(["query", path, "--output", str(everything)]) == 0
        functions = json.loads(everything.read_text())["operations"]
        # The rarest function: one the zone map rules out of most chains.
        rarest = min(functions, key=lambda key: (functions[key]["records"], key))
        interface, operation = rarest.rsplit("::", 1)
        out_file = tmp_path / "q.json"
        assert main(["query", path, "--interface", interface,
                     "--operation", operation, "--output", str(out_file)]) == 0
        result = json.loads(out_file.read_text())
        assert list(result["operations"]) == [rarest]
        assert result["records"] == functions[rarest]["records"]
        assert result["scan"]["groups_pruned"] > 0
        assert result["scan"]["frames_decoded"] < run["records"]

    def test_query_cross_run_catalog(self, segment_store, tmp_path):
        out_file = tmp_path / "xq.json"
        assert main(["query", segment_store, "--last", "5",
                     "--output", str(out_file)]) == 0
        result = json.loads(out_file.read_text())
        assert len(result["runs"]) == 1  # the fixture collected one run
        assert result["quantile_source"] == "exact"
        assert result["records"] > 0

    def test_query_sqlite_backend(self, pps_db, tmp_path):
        out_file = tmp_path / "sq.json"
        assert main(["query", pps_db, "--output", str(out_file)]) == 0
        result = json.loads(out_file.read_text())
        assert result["records"] > 0
        assert "scan" not in result  # no pruning stats on SQLite

    def test_store_info_catalog(self, segment_store, tmp_path):
        out_file = tmp_path / "cat.json"
        assert main(["store-info", segment_store, "--catalog",
                     "--output", str(out_file)]) == 0
        info = json.loads(out_file.read_text())
        (row,) = info["catalog"]["runs"]
        assert row["records"] > 0
        assert row["downsampled"] is False

    def test_store_info_sqlite(self, pps_db, tmp_path):
        out_file = tmp_path / "info.json"
        assert main(["store-info", pps_db, "--output", str(out_file)]) == 0
        info = json.loads(out_file.read_text())
        assert info["backend"] == "sqlite"
        (run,) = info["runs"]
        assert run["records"] > 0
        assert run["schema_version"] >= 1
