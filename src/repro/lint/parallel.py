"""Parallel payload purity rules (PAR5xx).

What ``WorkerPool.run_batch`` and an executor's ``submit`` hand to a
worker crosses a process boundary, so it must pickle — which means
module-level functions or ``functools.partial`` over them, never
lambdas or locally-defined callables.  At runtime that failure
surfaces as a pickling error raised from the pool, which names none
of the offending code.  These rules move the failure to lint time:

* ``PAR501`` — a lambda (inline or via a local name) flows into a
  submission call;
* ``PAR502`` — a function defined inside another function flows into a
  submission call (pickle serializes by qualified name; ``<locals>``
  names never resolve in the worker).
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, Set, Tuple

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding, Severity
from repro.lint.rules import Rule, register

__all__ = ["PARALLEL_RULES"]

#: Rule ids this module registers, in registration order.
PARALLEL_RULES = ("PAR501", "PAR502")

#: Calls whose arguments cross the pickling boundary: campaign-pool
#: and executor submission.  Campaign specs are plain data and cannot
#: carry a callable.
_SUBMISSION_CALLS: FrozenSet[str] = frozenset({"run_batch", "submit"})


#: Keyword arguments of submission calls that stay in the parent
#: process: result callbacks fire after the worker's payload comes
#: back, so they never pickle and may close over anything.
_PARENT_SIDE_KEYWORDS: FrozenSet[str] = frozenset({"on_result"})


def _call_name(node: ast.Call) -> str:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return ""


def _payload_args(node: ast.Call) -> Iterator[ast.expr]:
    yield from node.args
    for keyword in node.keywords:
        if keyword.arg in _PARENT_SIDE_KEYWORDS:
            continue
        yield keyword.value


class _LocalCallables:
    """Names bound to unpicklable callables, per enclosing function.

    A single module-wide scan: for every function, the names of defs
    nested inside it (PAR502) and the names assigned a lambda anywhere
    in the module (PAR501 — lambdas are unpicklable regardless of the
    scope holding the name).
    """

    def __init__(self, tree: ast.Module) -> None:
        self.lambda_names: Set[str] = set()
        self.nested_defs: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Lambda
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.lambda_names.add(target.id)
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                for inner in ast.walk(node):
                    if inner is node:
                        continue
                    if isinstance(
                        inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        self.nested_defs.add(inner.name)


def _submission_payloads(
    context: ModuleContext,
) -> Iterator[Tuple[ast.Call, ast.expr]]:
    for node in ast.walk(context.tree):
        if (
            isinstance(node, ast.Call)
            and _call_name(node) in _SUBMISSION_CALLS
        ):
            for arg in _payload_args(node):
                yield node, arg


def _unwrap_partial(arg: ast.expr) -> ast.expr:
    """The callable inside ``functools.partial(f, ...)``, else ``arg``.

    ``partial`` over a module-level function pickles fine; ``partial``
    over a lambda does not, so the check recurses into the first
    positional argument.
    """
    if (
        isinstance(arg, ast.Call)
        and _call_name(arg) == "partial"
        and arg.args
    ):
        return arg.args[0]
    return arg


@register
class LambdaPayloadRule(Rule):
    """PAR501: lambda flowing into a pickled submission."""

    id = "PAR501"
    name = "lambda-payload"
    description = (
        "lambdas cannot pickle; run_batch and submit payloads must be "
        "module-level functions or functools.partial over them"
    )
    severity = Severity.ERROR
    domains = None

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        local = _LocalCallables(context.tree)
        for call, arg in _submission_payloads(context):
            payload = _unwrap_partial(arg)
            if isinstance(payload, ast.Lambda):
                yield self.finding(
                    context,
                    payload,
                    f"lambda passed to {_call_name(call)}(); it fails "
                    "to pickle only once the pool sends it",
                )
            elif (
                isinstance(payload, ast.Name)
                and payload.id in local.lambda_names
            ):
                yield self.finding(
                    context,
                    call,
                    f"'{payload.id}' is lambda-valued and passed to "
                    f"{_call_name(call)}(); replace with a "
                    "module-level function",
                )


@register
class LocalCallablePayloadRule(Rule):
    """PAR502: locally-defined callable flowing into a submission."""

    id = "PAR502"
    name = "local-callable-payload"
    description = (
        "functions defined inside other functions pickle by a "
        "<locals> qualname that never resolves in a pool worker"
    )
    severity = Severity.ERROR
    domains = None

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        local = _LocalCallables(context.tree)
        for call, arg in _submission_payloads(context):
            payload = _unwrap_partial(arg)
            if (
                isinstance(payload, ast.Name)
                and payload.id in local.nested_defs
                and payload.id not in local.lambda_names
            ):
                yield self.finding(
                    context,
                    call,
                    f"locally-defined '{payload.id}' passed to "
                    f"{_call_name(call)}(); move it to module level "
                    "so it pickles by qualified name",
                )
