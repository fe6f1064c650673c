"""Unit tests for CPU consumption characterization (Section 3.2)."""

from repro.analysis import CpuAnalysis, reconstruct_from_records, self_cpu
from repro.core import MonitorMode
from repro.platform import PlatformKind
from tests.helpers import Call, simulate


def dscg_for(calls, **kwargs):
    sim = simulate(calls, mode=MonitorMode.CPU, **kwargs)
    return reconstruct_from_records(sim.records)


def only_node(dscg, function):
    (node,) = [n for n in dscg.walk() if n.function == function]
    return node


class TestSelfCpu:
    def test_leaf_self_cpu(self):
        dscg = dscg_for([Call("I::F", cpu_ns=700)])
        assert self_cpu(only_node(dscg, "I::F")) == 700

    def test_child_cpu_excluded_from_parent_self(self):
        dscg = dscg_for(
            [Call("I::F", cpu_ns=100, children=(Call("I::G", cpu_ns=400),))]
        )
        assert self_cpu(only_node(dscg, "I::F")) == 100
        assert self_cpu(only_node(dscg, "I::G")) == 400

    def test_idle_time_not_charged(self):
        dscg = dscg_for([Call("I::F", cpu_ns=100, idle_ns=1_000_000)])
        assert self_cpu(only_node(dscg, "I::F")) == 100

    def test_unreadable_counter_yields_none(self):
        dscg = dscg_for([Call("I::F", cpu_ns=100)], platform=PlatformKind.VXWORKS)
        assert self_cpu(only_node(dscg, "I::F")) is None

    def test_oneway_stub_side_has_no_self_cpu(self):
        dscg = dscg_for([Call("I::cast", oneway=True, cpu_ns=300)])
        stub_node = [n for n in dscg.walk() if n.oneway_side == "stub"][0]
        assert self_cpu(stub_node) is None


class TestDescendantCpu:
    def test_vector_sums_children(self):
        dscg = dscg_for(
            [Call("I::F", cpu_ns=10, children=(
                Call("I::G", cpu_ns=200, children=(Call("I::H", cpu_ns=50),)),
                Call("I::K", cpu_ns=40),
            ))]
        )
        analysis = CpuAnalysis(dscg)
        f = only_node(dscg, "I::F")
        dc = analysis.descendant_cpu(f)
        assert dc.by_processor == {"PA-RISC": 290}
        inclusive = analysis.inclusive_cpu(f)
        assert inclusive.by_processor == {"PA-RISC": 300}

    def test_leaf_descendants_empty(self):
        dscg = dscg_for([Call("I::F", cpu_ns=10)])
        analysis = CpuAnalysis(dscg)
        assert analysis.descendant_cpu(only_node(dscg, "I::F")).by_processor == {}

    def test_oneway_fork_charged_to_forking_node(self):
        dscg = dscg_for(
            [Call("I::F", cpu_ns=10, children=(
                Call("I::cast", oneway=True, cpu_ns=500),
            ))]
        )
        analysis = CpuAnalysis(dscg)
        f = only_node(dscg, "I::F")
        assert analysis.descendant_cpu(f).by_processor == {"PA-RISC": 500}

    def test_conservation_total_self_equals_root_inclusive(self):
        tree = Call(
            "I::root",
            cpu_ns=100,
            children=(
                Call("I::a", cpu_ns=20, children=(Call("I::b", cpu_ns=30),)),
                Call("I::c", cpu_ns=50),
            ),
        )
        dscg = dscg_for([tree])
        analysis = CpuAnalysis(dscg)
        root = only_node(dscg, "I::root")
        assert analysis.inclusive_cpu(root).total_ns() == 200
        assert analysis.total_by_processor().total_ns() == 200


class TestUncoveredAccounting:
    def test_vxworks_children_counted_as_uncovered(self):
        dscg = dscg_for(
            [Call("I::F", cpu_ns=10, children=(Call("I::G", cpu_ns=5),))],
            platform=PlatformKind.VXWORKS,
        )
        analysis = CpuAnalysis(dscg)
        f = only_node(dscg, "I::F")
        dc = analysis.descendant_cpu(f)
        assert dc.uncovered == 1
        assert dc.by_processor == {}


class TestAnnotateAndAggregates:
    def test_annotate(self):
        dscg = dscg_for([Call("I::F", cpu_ns=10)])
        CpuAnalysis(dscg).annotate()
        node = only_node(dscg, "I::F")
        assert node.self_cpu_ns == 10
        assert node.descendant_cpu.total_ns() == 0

    def test_per_function_self_cpu(self):
        dscg = dscg_for([Call("I::F", cpu_ns=10), Call("I::F", cpu_ns=30)])
        per_function = CpuAnalysis(dscg).per_function_self_cpu()
        assert per_function["I::F"].by_processor == {"PA-RISC": 40}
