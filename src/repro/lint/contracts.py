"""Kernel-twin phase contract rules (KER3xx).

The declared contract lives in :mod:`repro.lint.kernelspec`; this
module extracts each twin's *observed* phase sequence from its AST and
checks the two against each other:

* ``KER301`` — phases out of order (a rank computed after its arc
  assignment can't have decided it);
* ``KER302`` — a required phase missing entirely;
* ``KER303`` — a declared twin that no longer resolves (the loop was
  renamed or deleted and the contract declaration went stale).

Extraction is by *marker*, not by naming convention: a phase's marker
is the syntactic shape the twins actually share (``self._admit(...)``
for injection, a ``decide(...)`` call, stable sort or
``radix_order(...)`` call for ranking, ``pending[...] = ...`` /
``resolve_node(...)`` / ``resolve_nodes(...)`` for arc assignment, a
``hops`` increment for movement, a ``delivered_at`` store for
delivery).  The *last* occurrence of each marker is what's ordered —
loops interleave bookkeeping, and the final occurrence is the one that
commits the phase.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding, Severity
from repro.lint.kernelspec import (
    KERNEL_TWINS,
    OPTIONAL_PHASES,
    PHASE_ORDER,
    TwinSpec,
)
from repro.lint.project import FunctionNode, ProjectModel
from repro.lint.rules import ProjectRule, register

__all__ = ["CONTRACT_RULES", "extract_phases"]

#: Rule ids this module registers, in registration order.
CONTRACT_RULES = ("KER301", "KER302", "KER303")

_INJECT_CALLS = frozenset({"_admit", "_admit_batch", "admit_batch"})
_FAULT_CALLS = frozenset({"_apply_faults"})
_RANK_SORTS = frozenset({"sort", "argsort", "lexsort", "radix_order"})
_ARC_CALLS = frozenset({"resolve_node", "resolve_nodes", "build_infos"})
#: Serves movement *and* delivery: the instrumented step delegates
#: both to one helper, which is a legal tie in the ordering check.
_MOVE_DELIVER_CALLS = frozenset({"_move_instrumented"})


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _is_store_into(target: ast.expr, name: str) -> bool:
    """``name[...] = ...`` subscript-store detection."""
    return (
        isinstance(target, ast.Subscript)
        and isinstance(target.value, ast.Name)
        and target.value.id == name
    )


def _is_hops_target(target: ast.expr) -> bool:
    if isinstance(target, ast.Attribute):
        return target.attr == "hops"
    if isinstance(target, ast.Name):
        return target.id == "hops"
    return _is_store_into(target, "hops")


def _is_hops_increment_assign(node: ast.Assign) -> bool:
    """``hops = hops + 1`` (the vectorized twin's whole-column form)."""
    if len(node.targets) != 1:
        return False
    target = node.targets[0]
    if not (isinstance(target, ast.Name) and target.id == "hops"):
        return False
    value = node.value
    return (
        isinstance(value, ast.BinOp)
        and isinstance(value.op, ast.Add)
        and any(
            isinstance(side, ast.Name) and side.id == "hops"
            for side in (value.left, value.right)
        )
    )


def _phases_of_node(node: ast.AST) -> Iterator[str]:
    """Phase markers one AST node carries (usually zero or one)."""
    if isinstance(node, ast.Call):
        name = _call_name(node)
        if name is None:
            return
        if name in _INJECT_CALLS:
            yield "inject"
        elif name in _FAULT_CALLS:
            yield "faults"
        elif name == "decide" or name in _RANK_SORTS:
            yield "rank"
        elif name in _ARC_CALLS:
            yield "arc_assign"
        elif name in _MOVE_DELIVER_CALLS:
            yield "move"
            yield "deliver"
    elif isinstance(node, ast.AugAssign):
        if isinstance(node.op, ast.Add) and _is_hops_target(node.target):
            yield "move"
    elif isinstance(node, ast.Assign):
        if _is_hops_increment_assign(node):
            yield "move"
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "delivered_at"
            ) or _is_store_into(target, "delivered_at"):
                yield "deliver"
                break
        else:
            if any(
                _is_store_into(target, "pending")
                for target in node.targets
            ):
                yield "arc_assign"


def extract_phases(
    node: FunctionNode,
) -> Dict[str, Tuple[int, ast.AST]]:
    """Observed phases of one twin: phase → (last line, marker node)."""
    found: Dict[str, Tuple[int, ast.AST]] = {}
    for sub in ast.walk(node):
        line = getattr(sub, "lineno", None)
        if line is None:
            continue
        for phase in _phases_of_node(sub):
            previous = found.get(phase)
            if previous is None or line >= previous[0]:
                found[phase] = (line, sub)
    return found


def _resolved_twins(
    project: ProjectModel,
) -> Iterator[Tuple[ModuleContext, TwinSpec, FunctionNode]]:
    """Every declared twin that resolves in the linted project."""
    for spec in KERNEL_TWINS:
        for context in project.modules_matching(spec.module_suffix):
            node = project.function(context.module, spec.qualname)
            if node is not None:
                yield context, spec, node


@register
class PhaseOrderRule(ProjectRule):
    """KER301: twin executes contract phases out of order."""

    id = "KER301"
    name = "phase-order"
    description = (
        "a kernel loop twin runs contract phases out of the declared "
        "faults->inject->rank->arc-assign->move->deliver order"
    )
    severity = Severity.ERROR
    domains = None

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        for context, spec, node in _resolved_twins(project):
            found = extract_phases(node)
            previous: Optional[Tuple[str, int, ast.AST]] = None
            for phase in PHASE_ORDER:
                if phase not in found:
                    continue
                line, marker = found[phase]
                if previous is not None and line < previous[1]:
                    yield self.finding(
                        context,
                        previous[2],
                        f"phase '{previous[0]}' (line {previous[1]}) "
                        f"runs after '{phase}' (line {line}) in "
                        f"{spec.qualname}; the contract orders "
                        f"{' -> '.join(PHASE_ORDER)}",
                    )
                    break
                previous = (phase, line, marker)


@register
class PhaseMissingRule(ProjectRule):
    """KER302: twin lacks a required contract phase."""

    id = "KER302"
    name = "phase-missing"
    description = (
        "a kernel loop twin is missing a required phase of the "
        "declared contract"
    )
    severity = Severity.ERROR
    domains = None

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        for context, spec, node in _resolved_twins(project):
            found = extract_phases(node)
            missing = [
                phase
                for phase in PHASE_ORDER
                if phase not in found and phase not in OPTIONAL_PHASES
            ]
            if missing:
                yield self.finding(
                    context,
                    node,
                    f"{spec.qualname} has no "
                    f"{', '.join(missing)} phase marker(s); every "
                    "twin must run the full contract",
                )


@register
class TwinResolutionRule(ProjectRule):
    """KER303: a declared twin no longer resolves to a function."""

    id = "KER303"
    name = "twin-unresolved"
    description = (
        "a kernel twin declared in the phase contract does not "
        "resolve; the declaration in repro.lint.kernelspec is stale "
        "or the loop was renamed without updating it"
    )
    severity = Severity.ERROR
    domains = None

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        for spec in KERNEL_TWINS:
            for context in project.modules_matching(spec.module_suffix):
                if project.function(context.module, spec.qualname):
                    continue
                anchor = self._anchor(project, context, spec)
                yield self.finding(
                    context,
                    anchor,
                    f"declared kernel twin {spec.qualname} not found "
                    f"in {context.module}; update the loop or the "
                    "contract declaration together",
                )

    @staticmethod
    def _anchor(
        project: ProjectModel,
        context: ModuleContext,
        spec: TwinSpec,
    ) -> ast.AST:
        """The owning class when it exists, else the module node."""
        if "." in spec.qualname:
            cls = spec.qualname.rsplit(".", 1)[0]
            table = project.symbols[context.module]
            node = table.classes.get(cls)
            if node is not None:
                return node
        return context.tree
