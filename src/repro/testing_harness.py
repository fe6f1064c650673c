"""Replay-harness generation from recorded DSCGs (future work, Section 6).

"...to automate or semi-automate test harness generation for
multithreaded and distributed systems testing."

Given a reconstructed DSCG, this module derives a *replay plan*: the
sequence of root invocations, their call trees and (when semantics
capture was on) their recorded arguments. The plan can be

- rendered as a standalone, human-editable pytest-style script
  (:func:`render_harness_script`), or
- replayed directly against live stubs (:class:`ReplayRunner`), after
  which the replayed run's DSCG can be structurally compared with the
  recording (:func:`compare_structures`) — a regression test for the
  system's interaction topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.dscg import SEMANTICS, CallNode, Dscg


@dataclass
class ReplayCall:
    """One invocation in the replay plan."""

    interface: str
    operation: str
    object_id: str
    args_repr: list[str] = field(default_factory=list)
    children: list["ReplayCall"] = field(default_factory=list)

    @property
    def function(self) -> str:
        return f"{self.interface}::{self.operation}"

    def signature(self):
        return (
            self.function,
            self.object_id,
            tuple(child.signature() for child in self.children),
        )


@dataclass
class ReplayPlan:
    """Root calls plus expectations derived from one recorded run."""

    roots: list[ReplayCall] = field(default_factory=list)
    total_calls: int = 0

    def signatures(self):
        return [root.signature() for root in self.roots]


def _args_of(node: CallNode) -> list[str]:
    semantics = node.stub_start[SEMANTICS] if node.stub_start else None
    if semantics and "args" in semantics:
        return list(semantics["args"])
    return []


def _plan_node(node: CallNode) -> ReplayCall:
    call = ReplayCall(
        interface=node.interface,
        operation=node.operation,
        object_id=node.object_id,
        args_repr=_args_of(node),
    )
    for child in node.children:
        call.children.append(_plan_node(child))
    return call


def derive_plan(dscg: Dscg) -> ReplayPlan:
    """Extract the replay plan from a reconstructed DSCG."""
    plan = ReplayPlan()
    for tree in dscg.root_chains():
        for root in tree.roots:
            plan.roots.append(_plan_node(root))
    plan.total_calls = dscg.node_count()
    return plan


def render_harness_script(plan: ReplayPlan, module_docstring: str = "") -> str:
    """Emit a human-editable replay script skeleton.

    Only *root* invocations are driven (interior calls replay themselves
    through the system under test); the recorded tree is kept as the
    structural expectation.
    """
    lines = [
        '"""Generated replay harness. Fill in any unrecorded arguments.',
        "",
        module_docstring or "Derived from a recorded monitoring run.",
        '"""',
        "",
        "EXPECTED_TOTAL_CALLS = %d" % plan.total_calls,
        "",
        "EXPECTED_STRUCTURE = [",
    ]
    for root in plan.roots:
        lines.append(f"    {root.signature()!r},")
    lines.append("]")
    lines.append("")
    lines.append("")
    lines.append("def drive(resolve_stub):")
    lines.append('    """Replay the recorded root invocations.')
    lines.append("")
    lines.append("    resolve_stub(object_id) must return a live stub for the")
    lines.append('    recorded object id."""')
    for root in plan.roots:
        args = ", ".join(root.args_repr) if root.args_repr else ""
        todo = "" if root.args_repr else "  # TODO: arguments not recorded"
        lines.append(
            f"    resolve_stub({root.object_id!r}).{root.operation}({args}){todo}"
        )
    lines.append("")
    return "\n".join(lines)


class ReplayRunner:
    """Replays a plan's root calls against live stubs."""

    def __init__(self, resolve_stub, eval_args=None):
        """``resolve_stub(object_id)`` returns a stub; ``eval_args`` maps
        recorded arg reprs to live values (defaults to ``eval``-free
        literal parsing via :func:`ast.literal_eval`)."""
        import ast

        self._resolve_stub = resolve_stub
        self._eval_args = eval_args or (lambda text: ast.literal_eval(text))

    def run(self, plan: ReplayPlan) -> int:
        """Drive every root call; returns the number of roots replayed."""
        for root in plan.roots:
            stub = self._resolve_stub(root.object_id)
            args = [self._eval_args(text) for text in root.args_repr]
            getattr(stub, root.operation)(*args)
        return len(plan.roots)


def compare_structures(recorded: Dscg, replayed: Dscg) -> list[str]:
    """Structural diff between two runs' DSCGs (empty list == identical).

    Compares the multiset of root call-tree signatures, ignoring chain
    UUIDs and timing — the regression contract a replay harness checks.
    """
    def signatures(dscg: Dscg):
        plan = derive_plan(dscg)
        return sorted(repr(s) for s in plan.signatures())

    before = signatures(recorded)
    after = signatures(replayed)
    differences: list[str] = []
    for missing in set(before) - set(after):
        differences.append(f"missing in replay: {missing}")
    for extra in set(after) - set(before):
        differences.append(f"new in replay: {extra}")
    if len(before) != len(after) and not differences:
        differences.append(
            f"root count changed: {len(before)} recorded vs {len(after)} replayed"
        )
    return differences
