"""Streaming/batch equivalence, seeded incident determinism, exporters, CLI.

The acceptance gates of the streaming subsystem:

- a fault-free completed stream reconstructs **bit-identically** to the
  batch analyzer, whichever storage backend replays it;
- the seeded delay scenario always ranks the injected component
  (``BackImpl``) first and the same seed yields byte-identical reports;
- incident reports annotate the Chrome/OTLP exporters and drive the
  ``repro incidents`` CLI exit code.
"""

import hashlib
import json

import pytest

from repro.analysis import dscg_to_json, reconstruct
from repro.analysis.streaming import (
    StreamingReconstructor,
    detect_run,
    run_seeded_delay_scenario,
    seeded_incident_report,
)
from repro.store import MonitoringDatabase, SegmentStore

#: sha256 of ``repro incidents --demo-faults 7 --output FILE``'s report.
DEMO_7_SHA256 = "83e20d8f1bc98ce08b13d94d09eb0c8a739ac221f7840370cb6b883d65e468dc"


class TestFaultFreeBitIdentity:
    def test_streaming_matches_batch_on_both_backends(self, tmp_path):
        # calls=12 stays below the earliest fault window (warm-up is 16),
        # so the stream is fault-free without touching the plan.
        scenario = run_seeded_delay_scenario(5, calls=12)
        sqlite = scenario.store
        run_id = scenario.run_id

        segment = SegmentStore(str(tmp_path / "store"), auto_compact=0)
        (meta,) = sqlite.runs()
        segment.create_run(meta)
        with segment.bulk_ingest():
            segment.insert_records(run_id, sqlite.all_records(run_id))

        batch_json = dscg_to_json(reconstruct(sqlite, run_id))
        for backend in (sqlite, segment):
            streaming = StreamingReconstructor()
            streaming.ingest_many(backend.all_records(run_id))
            assert dscg_to_json(streaming.finalize()) == batch_json
            assert streaming.pending_dropped == 0
        sqlite.close()
        segment.close()

    def test_streaming_matches_batch_under_injected_delay(self):
        # Delays shift timestamps but never collide event numbers, so the
        # equivalence contract holds for the faulted stream too.
        scenario = run_seeded_delay_scenario(7)
        assert scenario.faults_injected["by_kind"].get("delay", 0) > 0
        streaming = StreamingReconstructor()
        streaming.ingest_many(scenario.store.all_records(scenario.run_id))
        assert dscg_to_json(streaming.finalize()) == dscg_to_json(
            reconstruct(scenario.store, scenario.run_id)
        )
        scenario.store.close()


class TestSeededIncidentDeterminism:
    @pytest.fixture(scope="class")
    def seeded(self):
        return seeded_incident_report(7)

    def test_injected_component_ranked_first(self, seeded):
        _, incidents = seeded
        assert incidents
        for incident in incidents:
            assert incident.root_cause is not None
            assert incident.root_cause.component == "BackImpl"
            assert incident.root_cause.function == "SD::Back::work"
        # The leaf that absorbed the delay alarms, and so may its
        # ancestors — but the ranking always points at Back.
        assert any(i.function == "SD::Back::work" for i in incidents)

    def test_same_seed_byte_identical(self, seeded):
        document, _ = seeded
        replay, _ = seeded_incident_report(7)
        assert replay == document

    def test_different_seed_differs(self, seeded):
        document, _ = seeded
        other, other_incidents = seeded_incident_report(8)
        assert other != document
        # A different seed still detects its own window.
        assert other_incidents

    def test_document_shape(self, seeded):
        document, incidents = seeded
        parsed = json.loads(document)
        assert parsed["format"] == "repro-incidents"
        assert parsed["incident_count"] == len(incidents)
        assert parsed["scenario"]["fault"]["scope"] == "mid->back"
        assert parsed["stream"]["anomalous_completions"] > 0
        assert parsed["config"]["persistence"] >= 1
        first = parsed["incidents"][0]
        assert first["incident_id"].startswith("inc-")
        assert first["window"]["closed_by"] in ("cooldown", "finalize")
        assert first["causes"][0]["component"] == "BackImpl"


class TestExporterAnnotations:
    @pytest.fixture(scope="class")
    def detected(self):
        scenario = run_seeded_delay_scenario(7)
        detector = detect_run(scenario.store, scenario.run_id)
        assert detector.incidents
        yield scenario, detector
        scenario.store.close()

    def test_chrome_trace_marks_implicated_chains(self, detected):
        from repro.analysis.chrome_trace import chrome_trace_document

        scenario, detector = detected
        incidents = detector.incidents
        document = chrome_trace_document(
            detector.dscg, run_id=scenario.run_id, incidents=incidents
        )
        implicated = set()
        for incident in incidents:
            implicated.update(incident.implicated_chains)
        annotated = [
            event
            for event in document["traceEvents"]
            if "incident_ids" in event.get("args", {})
        ]
        assert annotated
        for event in annotated:
            assert event["args"]["trace_id"] in implicated
        summaries = document["otherData"]["incidents"]
        assert {s["incident_id"] for s in summaries} == {
            i.incident_id for i in incidents
        }
        assert all(s["root_cause_component"] == "BackImpl" for s in summaries)

    def test_otlp_marks_implicated_spans(self, detected):
        from repro.analysis.otlp import otlp_document

        scenario, detector = detected
        document = otlp_document(
            detector.dscg, run_id=scenario.run_id, incidents=detector.incidents
        )
        flagged = [
            attr
            for resource in document["resourceSpans"]
            for scope in resource["scopeSpans"]
            for span in scope["spans"]
            for attr in span["attributes"]
            if attr["key"] == "repro.incident_ids"
        ]
        assert flagged
        ids = {i.incident_id for i in detector.incidents}
        for attr in flagged:
            for incident_id in attr["value"]["stringValue"].split(","):
                assert incident_id in ids
        assert document["otherData"]["incidents"]

    def test_unannotated_export_unchanged(self, detected):
        from repro.analysis.chrome_trace import render_chrome_trace
        from repro.analysis.otlp import render_otlp

        _, detector = detected
        plain_chrome = render_chrome_trace(detector.dscg)
        assert plain_chrome == render_chrome_trace(detector.dscg, incidents=None)
        assert "incident_ids" not in plain_chrome
        assert "repro.incident_ids" not in render_otlp(detector.dscg)


class TestIncidentsCli:
    def test_demo_exit_code_and_determinism(self, tmp_path, capsys):
        from repro.cli import main

        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["incidents", "--demo-faults", "7", "--output", str(first)]) == 1
        assert main(["incidents", "--demo-faults", "7", "--output", str(second)]) == 1
        assert first.read_bytes() == second.read_bytes()
        # The report itself is pinned: a detector change that moves one
        # bit of any verdict, score or baseline shows here.
        assert hashlib.sha256(first.read_bytes()).hexdigest() == DEMO_7_SHA256
        document = json.loads(first.read_text())
        assert document["incident_count"] >= 1

    def test_clean_stream_exits_zero(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "clean.json"
        # 10 calls end before the fault window opens: no incidents.
        code = main(
            ["incidents", "--demo-faults", "7", "--calls", "10",
             "--output", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["incident_count"] == 0

    def test_watch_prints_live_incidents(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["incidents", "--demo-faults", "7", "--watch",
                     "--output", str(tmp_path / "inc.json")])
        assert code == 1
        captured = capsys.readouterr().out
        assert "root cause BackImpl (SD::Back::work)" in captured

    def test_replay_store_and_annotated_export(self, tmp_path):
        from repro.cli import main

        db_path = tmp_path / "run.db"
        scenario = run_seeded_delay_scenario(
            7, store=MonitoringDatabase(str(db_path))
        )
        scenario.store.close()

        reports = tmp_path / "incidents.json"
        assert main(["incidents", str(db_path), "--output", str(reports)]) == 1

        trace = tmp_path / "trace.json"
        assert main(
            ["export-trace", str(db_path), "--incidents", str(reports),
             "--output", str(trace)]
        ) == 0
        document = json.loads(trace.read_text())
        assert document["otherData"]["incidents"]
        assert any(
            "incident_ids" in event.get("args", {})
            for event in document["traceEvents"]
        )

    def test_missing_database_is_an_error(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="provide a database"):
            main(["incidents"])
