"""Integration: the monitoring database persists across analyzer sessions.

The paper's workflow is inherently two-phase — collect at quiescence,
analyze off-line, possibly much later, possibly elsewhere. A run written
to a database *file* must reconstruct identically when reopened cold.
"""

from repro.analysis import CpuAnalysis, build_ccsg, reconstruct, render_ccsg_xml
from repro.apps.pps import PpsSystem, four_process_deployment
from repro.collector import LogCollector
from repro.core import MonitorMode
from repro.store import MonitoringDatabase


class TestFilePersistence:
    def test_cold_reopen_reconstructs_identically(self, tmp_path):
        path = str(tmp_path / "run.db")
        pps = PpsSystem(four_process_deployment(), mode=MonitorMode.CPU,
                        uuid_prefix="d1")
        try:
            pps.run(njobs=2, pages=2, complexity=1)
            pps.quiesce()
            collector = LogCollector(MonitoringDatabase(path))
            run_id = collector.collect(pps.processes.values(), run_id="persisted")
            live_dscg = reconstruct(collector.database, run_id)
            live_xml = render_ccsg_xml(build_ccsg(live_dscg, CpuAnalysis(live_dscg)))
            collector.database.close()
        finally:
            pps.shutdown()

        # A brand-new analyzer session over the file on disk:
        cold = MonitoringDatabase(path)
        assert [m.run_id for m in cold.runs()] == ["persisted"]
        cold_dscg = reconstruct(cold, "persisted")
        assert cold_dscg.stats() == live_dscg.stats()
        cold_xml = render_ccsg_xml(build_ccsg(cold_dscg, CpuAnalysis(cold_dscg)))
        assert cold_xml == live_xml
        cold.close()

    def test_multiple_runs_in_one_file(self, tmp_path):
        path = str(tmp_path / "runs.db")
        collector = LogCollector(MonitoringDatabase(path))
        for index in range(2):
            pps = PpsSystem(four_process_deployment(), mode=MonitorMode.CAUSALITY,
                            uuid_prefix=f"d{index + 2}")
            try:
                pps.run(njobs=1, pages=1 + index, complexity=1)
                pps.quiesce()
                collector.collect(pps.processes.values(), run_id=f"run{index}")
            finally:
                pps.shutdown()
        collector.database.close()

        cold = MonitoringDatabase(path)
        run_ids = [m.run_id for m in cold.runs()]
        assert run_ids == ["run0", "run1"]
        nodes0 = reconstruct(cold, "run0").node_count()
        nodes1 = reconstruct(cold, "run1").node_count()
        assert nodes1 > nodes0  # the second run had more pages
        cold.close()
