"""XML rendering of the CCSG (Figure 6).

The paper presents the CCSG as an XML document browsed in Internet
Explorer; the annotations on the figure define the schema we emit:
ObjectID, InvocationTimes, IncludedFunctionInstances, and the self /
descendent CPU consumptions "shown in [second, microsecond] format",
structured following the call hierarchy.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.analysis.ccsg import Ccsg, CcsgNode
from repro.analysis.cpu import CpuVector


def split_sec_usec(ns: int) -> tuple[int, int]:
    """Nanoseconds → the paper's [second, microsecond] pair."""
    seconds, remainder_ns = divmod(ns, 1_000_000_000)
    return int(seconds), int(remainder_ns // 1_000)


def _cpu_elements(parent: ET.Element, tag: str, vector: CpuVector) -> None:
    for processor, ns in sorted(vector.by_processor.items()):
        seconds, microseconds = split_sec_usec(ns)
        ET.SubElement(
            parent,
            tag,
            processor=processor,
            seconds=str(seconds),
            microseconds=str(microseconds),
        )
    if not vector.by_processor:
        element = ET.SubElement(parent, tag, seconds="0", microseconds="0")
        if vector.uncovered:
            element.set("uncovered", str(vector.uncovered))


def _node_element(parent: ET.Element, node: CcsgNode) -> None:
    element = ET.SubElement(
        parent,
        "Function",
        interface=node.interface,
        name=node.operation,
        ObjectID=node.object_id,
        InvocationTimes=str(node.invocation_times),
    )
    if node.component:
        element.set("component", node.component)
    _cpu_elements(element, "SelfCPUConsumption", node.self_cpu)
    _cpu_elements(element, "DescendentCPUConsumption", node.descendant_cpu)
    ET.SubElement(element, "IncludedFunctionInstances", count=str(node.invocation_times))
    for child in node.child_list():
        _node_element(element, child)


def render_ccsg_xml(ccsg: Ccsg, description: str = "") -> str:
    """Render the CCSG as an indented XML document string."""
    root = ET.Element("CCSG")
    if description:
        root.set("description", description)
    for node in ccsg.roots.values():
        _node_element(root, node)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=True)


def parse_ccsg_xml(document: str) -> ET.Element:
    """Parse a rendered CCSG back into an element tree (round-trip tests)."""
    return ET.fromstring(document.split("?>", 1)[-1])
