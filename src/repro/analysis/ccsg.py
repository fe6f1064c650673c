"""CPU Consumption Summarization Graph (CCSG, Section 3.2 / Figure 6).

The CCSG synthesizes the per-invocation self/descendent CPU numbers with
the DSCG: invocation instances of the same function on the same component
object along the same call path aggregate into one node carrying

- ``ObjectID`` — the universal identifier of the object,
- ``InvocationTimes`` — how many times the function was invoked there,
- ``IncludedFunctionInstances`` — how many invocation instances it aggregates,
- ``SelfCPUConsumption`` / ``DescendentCPUConsumption`` — vectors over
  processor types, printed in the paper's ``[second, microsecond]``
  format by :mod:`repro.analysis.xmlview`.

Nodes are "structured following the call hierarchy": children of a CCSG
node are the aggregated children of its instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cpu import CpuAnalysis, CpuVector, self_cpu
from repro.analysis.dscg import CallNode, Dscg

AggKey = tuple[str, str, str]  # (interface, operation, object_id)


@dataclass(slots=True)
class CcsgNode:
    """One aggregated function node of the CCSG."""

    interface: str
    operation: str
    object_id: str
    component: str = ""
    invocation_times: int = 0
    self_cpu: CpuVector = field(default_factory=CpuVector)
    descendant_cpu: CpuVector = field(default_factory=CpuVector)
    children: dict[AggKey, "CcsgNode"] = field(default_factory=dict)

    @property
    def function(self) -> str:
        return f"{self.interface}::{self.operation}"

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()

    def child_list(self) -> list["CcsgNode"]:
        return list(self.children.values())


@dataclass
class Ccsg:
    """The whole graph: a virtual root over per-call-path aggregates."""

    roots: dict[AggKey, CcsgNode] = field(default_factory=dict)

    def walk(self):
        for root in self.roots.values():
            yield from root.walk()

    def node_count(self) -> int:
        return sum(1 for _ in self.walk())

    def total_self_cpu(self) -> CpuVector:
        vector = CpuVector()
        for node in self.walk():
            vector.merge(node.self_cpu)
        return vector

    def find(self, interface: str, operation: str) -> list[CcsgNode]:
        return [
            node
            for node in self.walk()
            if node.interface == interface and node.operation == operation
        ]


def _aggregate_into(
    bucket: dict[AggKey, CcsgNode], call_node: CallNode, cpu: CpuAnalysis
) -> None:
    key = (call_node.interface, call_node.operation, call_node.object_id)
    node = bucket.get(key)
    if node is None:
        node = CcsgNode(
            interface=call_node.interface,
            operation=call_node.operation,
            object_id=call_node.object_id,
            component=call_node.component,
        )
        bucket[key] = node
    node.invocation_times += 1
    node.self_cpu.add(call_node.server_processor_type, self_cpu(call_node))
    node.descendant_cpu.merge(cpu.descendant_cpu(call_node))
    for child in call_node.children:
        _aggregate_into(node.children, child, cpu)


def build_ccsg(dscg: Dscg, cpu: CpuAnalysis | None = None) -> Ccsg:
    """Aggregate a DSCG into its CCSG.

    Only chains that were not forked from another chain start top-level
    aggregates; forked chains are reachable through their forking node's
    descendent vector.
    """
    if cpu is None:
        cpu = CpuAnalysis(dscg)
    ccsg = Ccsg()
    for tree in dscg.root_chains():
        for root in tree.roots:
            _aggregate_into(ccsg.roots, root, cpu)
    return ccsg
