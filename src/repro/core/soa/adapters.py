"""Policy adapters: the array kernel's view of a routing policy.

The object kernel calls ``policy.assign(view)`` per node per step; the
array kernel cannot, because the whole point is to avoid materializing
``NodeView``/``Packet`` objects on the hot path.  Instead,
:func:`adapter_for` maps each *supported* policy class onto a small
declarative description — priority-code kind, matching pipeline,
tie-break and deflection rules — that the array kernel replays with
integer columns.  The mapping is by exact class (``type(policy) is``),
never ``isinstance``: a subclass with an overridden ``priority_key``
would silently diverge from the declarative description, so it runs
on the object loop (``backend="auto"`` routes it there; an explicit
``backend="soa"`` rejects it).  :func:`select_adapter` applies the
engines' remaining preconditions on top of :func:`adapter_for`.

Adapters also decide *how* the kernel may run:

* a policy that consumes the sanctioned RNG during stepping (random
  tie-break or random deflection) forces the columnar pure-Python
  path, which visits nodes in the object kernel's exact order and
  replays every draw through ``policy._rng`` — the stream stays
  bit-identical;
* RNG-free policies are fully vectorizable: per-node decisions are
  pure functions of the node's rows, so visit order is immaterial and
  one stable radix order of the rows by ``node * codes + code``
  composite keys (by node over the rank order, for random ranks)
  reproduces the per-node priority orders;
* ``RandomRankPolicy`` under dynamic injection draws ranks lazily on
  first sight; the columnar path reproduces the draw order (node visit
  order x id order within a node), while the batch case (all ranks
  pre-drawn in ``prepare``) vectorizes.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Optional, Union

from repro.core.policy import BufferedPolicy, RoutingPolicy
from repro.types import PacketId

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.faults import FaultSchedule, RunWatchdog

__all__ = ["PolicyAdapter", "adapter_for", "select_adapter"]

#: Priority-code kinds understood by the array kernel.
CODE_UNIFORM = "uniform"
CODE_RESTRICTED = "restricted"
CODE_RANK = "rank"


class PolicyAdapter:
    """Declarative description of one policy for the array kernel."""

    __slots__ = (
        "policy",
        "buffered",
        "has_injection",
        "code_kind",
        "prefer_type_a",
        "tie_break",
        "deflection",
        "first_fit",
    )

    def __init__(
        self,
        policy: Union[RoutingPolicy, BufferedPolicy],
        *,
        buffered: bool,
        has_injection: bool,
        code_kind: str = CODE_UNIFORM,
        prefer_type_a: bool = True,
        tie_break: str = "id",
        deflection: str = "ordered",
        first_fit: bool = False,
    ) -> None:
        self.policy = policy
        self.buffered = buffered
        self.has_injection = has_injection
        self.code_kind = code_kind
        self.prefer_type_a = prefer_type_a
        self.tie_break = tie_break
        self.deflection = deflection
        self.first_fit = first_fit

    @property
    def rng(self) -> Optional[random.Random]:
        """The policy's sanctioned per-run RNG (set by ``prepare``)."""
        rng: Optional[random.Random] = getattr(self.policy, "_rng", None)
        return rng

    def rank_of(self, packet_id: PacketId) -> float:
        """The packet's persistent random rank (``CODE_RANK`` only).

        Delegates to the policy's own lazy accessor so draws for
        unseen ids advance the sanctioned stream exactly as the object
        kernel would.
        """
        rank: Any = getattr(self.policy, "_rank")
        return float(rank(packet_id))

    @property
    def consumes_rng(self) -> bool:
        """True when stepping draws from the policy RNG."""
        return self.tie_break == "random" or self.deflection == "random"

    @property
    def vectorizable(self) -> bool:
        """True when per-node decisions are order-independent.

        RNG draws and lazy rank draws are consumed in node-visit
        order, so either forces the columnar path; everything else is
        a pure function of a node's rows and vectorizes.
        """
        if self.consumes_rng:
            return False
        if self.code_kind == CODE_RANK and self.has_injection:
            return False
        return True


def adapter_for(
    policy: Union[RoutingPolicy, BufferedPolicy],
    *,
    buffered: bool,
    has_injection: bool,
) -> PolicyAdapter:
    """Build the adapter for a policy, or raise ValueError.

    Raises:
        ValueError: when the policy class has no declarative
            description (use ``backend="object"`` for it).
    """
    # Function-level import: repro.core must stay importable without
    # repro.algorithms (which itself imports repro.core).
    from repro.algorithms.dimension_order import DimensionOrderPolicy
    from repro.algorithms.plain_greedy import (
        MaximalGreedyPolicy,
        PlainGreedyPolicy,
        RandomizedGreedyPolicy,
    )
    from repro.algorithms.random_rank import RandomRankPolicy
    from repro.algorithms.restricted import RestrictedPriorityPolicy

    if buffered:
        if type(policy) is DimensionOrderPolicy:
            return PolicyAdapter(
                policy, buffered=True, has_injection=has_injection
            )
        raise ValueError(
            f"backend='soa' does not support buffered policy "
            f"{policy.name!r}; use backend='object'"
        )
    if type(policy) is DimensionOrderPolicy:
        raise ValueError(
            "DimensionOrderPolicy is a buffered policy; "
            "backend='soa' only accepts it on buffered engines"
        )
    if type(policy) is RestrictedPriorityPolicy:
        return PolicyAdapter(
            policy,
            buffered=False,
            has_injection=has_injection,
            code_kind=CODE_RESTRICTED,
            prefer_type_a=policy.prefer_type_a,
            tie_break=policy.tie_break,
            deflection=policy.deflection,
        )
    if type(policy) is RandomRankPolicy:
        return PolicyAdapter(
            policy,
            buffered=False,
            has_injection=has_injection,
            code_kind=CODE_RANK,
            tie_break=policy.tie_break,
            deflection=policy.deflection,
        )
    if type(policy) is PlainGreedyPolicy or (
        type(policy) is RandomizedGreedyPolicy
    ):
        return PolicyAdapter(
            policy,
            buffered=False,
            has_injection=has_injection,
            tie_break=policy.tie_break,
            deflection=policy.deflection,
        )
    if type(policy) is MaximalGreedyPolicy:
        return PolicyAdapter(
            policy,
            buffered=False,
            has_injection=has_injection,
            deflection=policy.deflection,
            first_fit=True,
        )
    raise ValueError(
        f"backend='soa' does not support policy {policy.name!r}; "
        f"use backend='object'"
    )


def select_adapter(
    backend: str,
    policy: Union[RoutingPolicy, BufferedPolicy],
    *,
    buffered: bool,
    has_injection: bool,
    record_paths: bool,
    watchdog: Optional["RunWatchdog"],
    faults: Optional["FaultSchedule"],
) -> Optional[PolicyAdapter]:
    """The adapter a lean run hands the array kernel, or ``None`` for
    the object loop; ``backend`` is ``"soa"`` or ``"auto"``.

    ``"soa"`` always means an adapter and raises ValueError on the
    first precondition that fails: path recording, a watchdog, a
    non-empty fault schedule (an empty one is accepted; the caller
    drops it), or a policy :func:`adapter_for` rejects.  ``"auto"``
    returns ``None`` where ``"soa"`` would raise, and also for an
    empty fault schedule, on which the object engines install a
    watchdog.
    """
    auto = backend == "auto"
    problem: Optional[str] = None
    if record_paths:
        problem = "backend='soa' does not support record_paths"
    elif watchdog is not None:
        problem = "backend='soa' does not support watchdogs"
    elif faults is not None and (auto or not faults.is_empty):
        problem = (
            "backend='soa' does not support fault schedules; an empty "
            "FaultSchedule is accepted and ignored"
        )
    if problem is not None:
        if auto:
            return None
        raise ValueError(problem)
    try:
        return adapter_for(
            policy, buffered=buffered, has_injection=has_injection
        )
    except ValueError:
        if auto:
            return None
        raise
