"""Golden bytes for the annotated DSCG JSON and the Figure-6 CCSG XML.

One fixed forest, its readings drawn from a seeded generator: a sync call
whose client and server run on different processor types, a collocated
call, and a oneway fork whose chain runs on the other processor type, so
that one descendent CPU vector carries two entries. The sha256 of each
document pins the bytes; the other tests hold the annotation memo to
"any reader, in any order, gets the same value" and the CCSG to
conservation of invocations.
"""

import hashlib
import random
from collections import defaultdict

from repro.analysis import (
    CpuAnalysis,
    annotate_latency,
    build_ccsg,
    dscg_to_json,
    reconstruct_from_records,
    render_ccsg_xml,
)
from repro.analysis.xmlview import parse_ccsg_xml
from repro.core import CallKind, TracingEvent
from tests.unit.store.test_segment_codec import make_record

DSCG_JSON_SHA256 = "4475b9ab8f603dcc3ae413ba57d98654aa47dde511b54ce18f73d182b3911048"
CCSG_XML_SHA256 = "1bb23919806b217ed93e457019b97b9b37411a82ed509dfcf51492cab26673c5"

#: (process, thread id, processor type) of each execution context.
CLIENT = ("p1", 1, "PA-RISC")
SERVER = ("p2", 2, "x86")
FORKED = ("p1", 3, "PA-RISC")
PEER = ("p2", 4, "x86")


class _Forest:
    """Emits the probe records of scripted calls on seeded clocks."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.wall = 0
        self.cpu: dict[int, int] = defaultdict(int)
        self.seq: dict[str, int] = defaultdict(int)
        self.records = []

    def probe(self, chain, event, operation, where, kind=CallKind.SYNC,
              collocated=False, forked=None):
        process, thread, processor = where
        wall_start, cpu_start = self.wall, self.cpu[thread]
        self.wall += self.rng.randint(1, 9)
        self.cpu[thread] += self.rng.randint(1, 9)
        self.records.append(make_record(
            chain=chain, seq=self.seq[chain], event=event, operation=operation,
            object_id=f"obj-{operation}", process=process, thread_id=thread,
            processor_type=processor, call_kind=kind, collocated=collocated,
            wall_start=wall_start, wall_end=self.wall,
            cpu_start=cpu_start, cpu_end=self.cpu[thread], child_chain_uuid=forked,
        ))
        self.seq[chain] += 1

    def work(self, where):
        ns = self.rng.randint(100_000, 2_000_000)
        self.wall += ns
        self.cpu[where[1]] += ns

    def sync(self, chain, operation, client, server, body=()):
        self.probe(chain, TracingEvent.STUB_START, operation, client)
        self.probe(chain, TracingEvent.SKEL_START, operation, server)
        self.work(server)
        for call in body:
            call()
        self.probe(chain, TracingEvent.SKEL_END, operation, server)
        self.probe(chain, TracingEvent.STUB_END, operation, client)

    def collocated(self, chain, operation, where):
        for event in (TracingEvent.STUB_START, TracingEvent.SKEL_START):
            self.probe(chain, event, operation, where, collocated=True)
        self.work(where)
        for event in (TracingEvent.SKEL_END, TracingEvent.STUB_END):
            self.probe(chain, event, operation, where, collocated=True)

    def oneway(self, chain, operation, client, server, forked, body=()):
        oneway = CallKind.ONEWAY
        self.probe(chain, TracingEvent.STUB_START, operation, client, oneway, forked=forked)
        self.probe(chain, TracingEvent.STUB_END, operation, client, oneway)
        self.probe(forked, TracingEvent.SKEL_START, operation, server, oneway)
        self.work(server)
        for call in body:
            call()
        self.probe(forked, TracingEvent.SKEL_END, operation, server, oneway)


def golden_dscg(seed: int = 31):
    forest = _Forest(seed)
    for chain in ("c1", "c3"):
        forest.sync(chain, "run", CLIENT, SERVER, body=(
            lambda chain=chain: forest.collocated(chain, "local", SERVER),
            lambda chain=chain: forest.oneway(
                chain, "cast", SERVER, FORKED, forked=chain + "-fork", body=(
                    lambda: forest.sync(chain + "-fork", "store", FORKED, PEER),
                ),
            ),
            lambda chain=chain: forest.sync(chain, "fetch", SERVER, CLIENT),
        ))
    return reconstruct_from_records(forest.records)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def annotate(dscg):
    annotate_latency(dscg)
    cpu = CpuAnalysis(dscg)
    cpu.annotate()
    return cpu


class TestGoldenBytes:
    def test_forest_has_every_shape(self):
        dscg = golden_dscg()
        kinds = {(n.call_kind, n.collocated, n.oneway_side) for n in dscg.walk()}
        assert (CallKind.SYNC, False, "") in kinds
        assert (CallKind.SYNC, True, "") in kinds
        assert (CallKind.ONEWAY, False, "stub") in kinds
        assert (CallKind.ONEWAY, False, "skel") in kinds
        (run,) = dscg.chains["c1"].roots
        assert set(CpuAnalysis(dscg).descendant_cpu(run).by_processor) == {"PA-RISC", "x86"}
        assert dscg.abnormal_events() == [] and len(dscg.links) == 2

    def test_dscg_json_bytes(self):
        dscg = golden_dscg()
        annotate(dscg)
        assert sha256(dscg_to_json(dscg)) == DSCG_JSON_SHA256

    def test_ccsg_xml_bytes(self):
        dscg = golden_dscg()
        assert sha256(render_ccsg_xml(build_ccsg(dscg, annotate(dscg)))) == CCSG_XML_SHA256


class TestOneValuePerAnnotation:
    def test_json_before_annotators_equals_json_after(self):
        dscg = golden_dscg()
        before = dscg_to_json(dscg)
        annotate(dscg)
        assert dscg_to_json(dscg) == before
        assert dscg_to_json(golden_dscg()) == before

    def test_ccsg_before_annotators_equals_ccsg_after(self):
        unannotated = golden_dscg()
        xml = render_ccsg_xml(build_ccsg(unannotated))
        dscg = golden_dscg()
        assert render_ccsg_xml(build_ccsg(dscg, annotate(dscg))) == xml


class TestCcsgConservation:
    def test_invocations_are_conserved(self):
        dscg = golden_dscg()
        functions = parse_ccsg_xml(render_ccsg_xml(build_ccsg(dscg))).iter("Function")
        invocations = 0
        for function in functions:
            times = function.get("InvocationTimes")
            (instances,) = function.findall("IncludedFunctionInstances")
            assert instances.get("count") == times
            invocations += int(times)
        assert invocations == sum(tree.node_count() for tree in dscg.root_chains())
