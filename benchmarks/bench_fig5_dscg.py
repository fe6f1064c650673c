"""Figure 5 — DSCG of the large-scale embedded system.

The paper: "the largest system run ever conducted so far consisted of
about 195,000 calls, with a total of 801 unique methods in 155 unique
interfaces from 176 unique components. With the current Java
implementation, it took the analyzer 28 minutes to compute the DSCG."

This benchmark drives the synthetic stand-in (same population), collects
the run, reconstructs the DSCG and reports the same statistics plus the
hyperbolic layout. The default scale is 20,000 calls so the suite stays
fast; set REPRO_FIG5_CALLS=195000 for the paper's full scale.

``test_fig5_segment_store_journey`` takes the whole offline journey through
the *segment store* — collect, compact, reconstruct, annotate, CCSG,
JSON/XML, hyperbolic layout — and reports per-stage seconds, peak RSS and
the garbage collections (count per generation, seconds in full passes,
through ``gc.callbacks``) the journey paid for. Informational, not a gate:
how often the collector runs a full pass depends on how much else the
process keeps alive. It runs first so that the peak RSS is its own; for a
figure to quote, run it alone (``-k journey``).
"""

import gc
import hashlib
import os
import resource
import time

from repro.analysis import (
    CpuAnalysis,
    HyperbolicLayout,
    annotate_latency,
    build_ccsg,
    dscg_to_json,
    reconstruct,
    render_ccsg_xml,
)
from repro.apps.embedded import EmbeddedConfig, EmbeddedSystem
from repro.collector import collect_run
from repro.store import SegmentStore

CALLS = int(os.environ.get("REPRO_FIG5_CALLS", "20000"))


class _Collections:
    """Collections per generation and seconds spent in full ones."""

    def __init__(self):
        self.counts = [0, 0, 0]
        self.full_pause_s = 0.0
        self._started = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.counts[info["generation"]] += 1
        if info["generation"] == 2:
            self.full_pause_s += time.perf_counter() - self._started


def test_fig5_segment_store_journey(reporter, tmp_path):
    system = EmbeddedSystem(EmbeddedConfig(), uuid_prefix="f5")
    stages: list[tuple[str, float]] = []

    def stage(name, function, *args):
        started = time.perf_counter()
        result = function(*args)
        stages.append((name, time.perf_counter() - started))
        return result

    try:
        system.run(total_calls=CALLS, roots=16)
        system.quiesce()
        store = SegmentStore(str(tmp_path / "store"), auto_compact=0)
        collections = _Collections()
        gc.collect()
        gc.callbacks.append(collections)
        try:
            _, run_id = stage("collect", collect_run, system.processes, store)
            stage("compact", store.compact, run_id)
            dscg = stage("reconstruct", reconstruct, store, run_id)
            stage("annotate latency", annotate_latency, dscg)
            cpu = CpuAnalysis(dscg)
            stage("annotate cpu", cpu.annotate)
            ccsg = stage("ccsg", build_ccsg, dscg, cpu)
            document = stage("dscg json", dscg_to_json, dscg)
            xml = stage("ccsg xml", render_ccsg_xml, ccsg)
            layout = stage("hyperbolic layout", HyperbolicLayout().layout_dscg, dscg)
        finally:
            gc.callbacks.remove(collections)
        records = store.record_count(run_id)
        store.close()
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        reporter.section("Figure 5: the offline journey through the segment store")
        reporter.line(f"  calls / records  : {CALLS:,} / {records:,}"
                      f" (REPRO_FIG5_CALLS={CALLS})")
        for name, seconds in stages:
            reporter.line(f"  {name:<17}: {seconds:8.3f} s")
        reporter.line(f"  journey          : {sum(s for _, s in stages):8.3f} s")
        reporter.line(f"  peak RSS         : {peak_rss_mib:8.1f} MiB (whole process, drive included)")
        reporter.line(f"  collections      : {collections.counts[0]} young,"
                      f" {collections.counts[1]} middle, {collections.counts[2]} full"
                      f" ({collections.full_pause_s:.3f} s in full passes)")
        reporter.line(f"  outputs          : JSON {len(document):,} chars, XML {len(xml):,} chars,"
                      f" {sum(1 for _ in layout.walk()):,} nodes placed")
        reporter.line(f"  DSCG JSON sha256 : {hashlib.sha256(document.encode()).hexdigest()}")
        reporter.line(f"  CCSG XML sha256  : {hashlib.sha256(xml.encode()).hexdigest()}")

        assert dscg.node_count() == CALLS
        assert dscg.abnormal_events() == []
        assert ccsg.node_count() > 0 and xml.startswith("<")
    finally:
        system.shutdown()


def test_fig5_dscg_construction(benchmark, reporter):
    config = EmbeddedConfig()
    system = EmbeddedSystem(config, uuid_prefix="f5")
    try:
        drive_started = time.perf_counter()
        system.run(total_calls=CALLS, roots=16)
        drive_seconds = time.perf_counter() - drive_started
        database, run_id = system.collect()
        population = database.population_stats(run_id)

        dscg = benchmark.pedantic(reconstruct, args=(database, run_id),
                                  rounds=3, iterations=1)
        analyze_seconds = benchmark.stats["mean"]
        stats = dscg.stats()

        reporter.section("Figure 5: DSCG of the commercial-scale embedded system")
        reporter.line(f"  paper population : 195,000 calls / 801 methods / 155"
                      f" interfaces / 176 components / 32 threads / 4 processes")
        reporter.line(f"  calls driven     : {population['calls']:,}"
                      f" (REPRO_FIG5_CALLS={CALLS})")
        reporter.line(f"  unique methods   : {population['unique_methods']}")
        reporter.line(f"  unique interfaces: {population['unique_interfaces']}")
        reporter.line(f"  unique components: {population['unique_components']}")
        reporter.line(f"  processes        : {population['processes']}"
                      f"   dispatch threads: "
                      f"{config.processes * config.pool_threads_per_process}")
        reporter.line(f"  probe records    : {database.record_count(run_id):,}")
        reporter.line(f"  drive time       : {drive_seconds:.1f} s")
        reporter.line(f"  DSCG build time  : {analyze_seconds:.2f} s"
                      f" (paper: 28 min at 195k calls on 2003 hardware)")
        reporter.line(f"  DSCG nodes       : {stats['nodes']:,}  chains:"
                      f" {stats['chains']}  max depth: {stats['max_depth']}")
        reporter.line(f"  abnormal events  : {stats['abnormal_events']}")

        assert stats["nodes"] == CALLS
        assert stats["abnormal_events"] == 0
        assert population["unique_interfaces"] == 155
        assert population["unique_components"] == 176

        layout_started = time.perf_counter()
        layout = HyperbolicLayout().layout_dscg(dscg)
        layout_seconds = time.perf_counter() - layout_started
        placed = sum(1 for _ in layout.walk())
        reporter.line(f"  hyperbolic layout: {placed:,} nodes in {layout_seconds:.2f} s")
    finally:
        system.shutdown()
