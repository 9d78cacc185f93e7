"""The synchronous hot-potato routing engine.

Implements the model of Section 2 of the paper exactly:

* time advances in discrete steps; step ``t`` moves packets from their
  time-``t`` nodes to time-``t+1`` nodes;
* at the start of each step, packets located at their destination are
  absorbed (they have *reached* the destination and leave the network);
* every remaining packet at a node must be assigned a distinct
  outgoing arc — no buffering, no two packets on one directed link;
* the per-node decision may use only locally visible information (the
  packets' destinations and entry arcs).

The engine validates every assignment the policy produces and raises a
:class:`~repro.exceptions.ProtocolViolationError` subclass on the first
violation, so experiment data can be trusted end to end.

The step loop lives in :class:`~repro.core.kernel.StepKernel` and the
run driver in :class:`~repro.core.chassis.BatchEngineBase`, both
shared with the other engines.  This class is the batch hot-potato
configuration of them (insertion-order node visits, total
assignments, entry-direction tracking) plus what only it offers:
strict default validators, step records, path recording, the
``fast_path`` switch and global-state inspection.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.chassis import BatchEngineBase
from repro.core.events import RunObserver
from repro.core.kernel import PhaseSink, default_step_limit, lean_equivalent
from repro.core.metrics import RunResult, StepRecord
from repro.core.policy import RoutingPolicy
from repro.core.problem import RoutingProblem
from repro.core.rng import RngLike, describe_seed
from repro.core.validation import StepValidator, validators_for
from repro.faults import FaultSchedule, RunWatchdog
from repro.mesh.directions import Direction
from repro.types import Node, PacketId

__all__ = [
    "HotPotatoEngine",
    "StateEntry",
    "default_step_limit",
    "describe_seed",
    "route",
]

#: One in-flight packet's routing-relevant state in a global snapshot.
StateEntry = Tuple[PacketId, Node, Optional[Direction], bool, bool]


class HotPotatoEngine(BatchEngineBase):
    """Runs one routing problem under one policy.

    Args:
        problem: the batch to route (carries its mesh).
        policy: the per-node routing rule.
        seed: RNG seed (or Random instance) handed to the policy.
        validators: protocol checks run at every node; defaults to the
            stack implied by the policy's declarations.
        observers: run observers (potential trackers, tracers, ...).
        max_steps: step budget; defaults to :func:`default_step_limit`.
        record_steps: keep every :class:`StepRecord` in the result
            (needed by the potential analyses; costs memory).
        record_paths: store each packet's node path on the packet.
        raise_on_timeout: raise :class:`LivelockSuspectedError` instead
            of returning an incomplete result when the budget runs out.
        fast_path: ``None`` (default) lets :meth:`run` pick the lean
            no-recording kernel loop automatically when it is
            equivalent (no step records, no step-consuming observers,
            capacity-only validators); ``False`` forces the fully
            instrumented loop; ``True`` additionally raises
            ``ValueError`` when the run is not fast-path eligible
            (useful in tests and benchmarks).
        profiler: optional :class:`~repro.obs.profiler.PhaseProfiler`
            (any :class:`~repro.core.kernel.PhaseSink`); when set,
            :meth:`run` hands it to the lean loop (object or array
            kernel), which accumulates per-phase wall time into it.
            Profiling requires fast-path eligibility — the phases being
            timed are the lean loop's.
        faults: optional :class:`~repro.faults.FaultSchedule` applied
            deterministically during the run (down links, failed nodes,
            packet drops); the engine routes around failures through
            the masked topology view.  ``None`` (and an empty
            schedule) leaves runs bit-identical to a fault-free
            engine.  Incompatible with ``profiler``.
        watchdog: optional :class:`~repro.faults.RunWatchdog`; checked
            every step, its verdict ends the run with a structured
            :class:`~repro.faults.RunAborted` on the result.  A
            default watchdog is installed automatically whenever
            ``faults`` is given.
        backend: ``"auto"`` (default) decides when :meth:`run`
            starts: the structure-of-arrays kernel
            (:mod:`repro.core.soa`) when the run takes the lean loop,
            the policy has an adapter, and there are no faults (not
            even an empty schedule), no watchdog and no
            ``record_paths``; the object kernel otherwise (see
            :func:`repro.core.soa.select_adapter`).  ``"object"``
            always routes with the object kernel.  ``"soa"`` always
            uses the array kernel — bit-identical results, flat
            columns instead of per-packet objects on the hot path —
            and raises where ``"auto"`` would fall back: it requires
            a fast-path-eligible run and a policy with an adapter, and
            rejects ``record_paths``, watchdogs and non-empty fault
            schedules (an empty :class:`FaultSchedule` is accepted
            and ignored).  :attr:`backend_used` names the kernel the
            last run took.
        checkpoint_every: periodic checkpoint interval in steps.  When
            set, :meth:`run` pauses at every multiple of this step
            count and hands a snapshot (see :mod:`repro.snapshot`) to
            ``on_checkpoint``.  ``None`` (default) disables
            checkpointing entirely — the run loops are untouched and
            pay nothing.  Requires ``on_checkpoint``; incompatible
            with ``record_steps`` (snapshots do not carry step
            records).
        on_checkpoint: callback receiving each checkpoint's snapshot
            payload (a JSON-safe dict); typically
            :func:`repro.snapshot.save_snapshot` bound to a path, or a
            campaign store's ``checkpoint`` writer.

    Every engine owns a :class:`~repro.obs.telemetry.RunTelemetry`
    (``self.telemetry``, also on the returned
    :class:`RunResult`) whose counters all kernel loops keep
    bit-identically.
    """

    kind = "hot-potato"
    node_order = "insertion"
    set_entry_direction = True

    def __init__(
        self,
        problem: RoutingProblem,
        policy: RoutingPolicy,
        *,
        seed: RngLike = 0,
        validators: Optional[Sequence[StepValidator]] = None,
        observers: Iterable[RunObserver] = (),
        max_steps: Optional[int] = None,
        record_steps: bool = False,
        record_paths: bool = False,
        raise_on_timeout: bool = False,
        fast_path: Optional[bool] = None,
        profiler: Optional[PhaseSink] = None,
        faults: Optional[FaultSchedule] = None,
        watchdog: Optional[RunWatchdog] = None,
        backend: str = "auto",
        checkpoint_every: Optional[int] = None,
        on_checkpoint: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        super().__init__(
            problem,
            policy,
            seed=seed,
            validators=(
                validators_for(policy) if validators is None else validators
            ),
            observers=observers,
            max_steps=max_steps,
            raise_on_timeout=raise_on_timeout,
            profiler=profiler,
            faults=faults,
            watchdog=watchdog,
            backend=backend,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
            record_paths=record_paths,
        )
        if checkpoint_every is not None and record_steps:
            raise ValueError(
                "checkpointing is incompatible with record_steps; "
                "snapshots do not carry step records"
            )
        self.record_steps = record_steps
        self.fast_path = fast_path
        self._records = [] if record_steps else None

    @property
    def record_paths(self) -> bool:
        return self._kernel.record_paths

    @record_paths.setter
    def record_paths(self, value: bool) -> None:
        self._kernel.record_paths = value

    def step(self) -> StepRecord:
        """Execute one synchronous step and return its record."""
        record = super().step()
        if self._records is not None:
            self._records.append(record)
        return record

    @property
    def current_positions(self) -> Dict[PacketId, Node]:
        """Locations of all in-flight packets (for state inspection)."""
        self._start()
        return {p.id: p.location for p in self.in_flight}

    def global_state(self) -> Tuple[StateEntry, ...]:
        """A hashable snapshot of the routing-relevant global state.

        Two steps from identical global states under a deterministic
        policy evolve identically, so a repeated state proves a
        livelock.  The snapshot includes each in-flight packet's
        location, entry direction and previous-step flags (everything a
        policy may condition on except its private RNG).
        """
        self._start()
        return tuple(
            sorted(
                (
                    p.id,
                    p.location,
                    p.entry_direction,
                    p.advanced_last_step,
                    p.restricted_last_step,
                )
                for p in self.in_flight
            )
        )

    def _lean(self) -> bool:
        """Decide whether :meth:`run` may use the lean kernel loop.

        The lean loop produces bit-identical :class:`RunResult`\\ s but
        skips :class:`StepRecord`/per-packet info construction, so it
        is only equivalent when nobody consumes those objects: no step
        recording, no observers with ``needs_steps`` (run-boundary
        observers are fine), and no validators beyond the capacity
        check (see :func:`repro.core.kernel.lean_equivalent`).
        ``fast_path`` overrides the decision as documented above.
        """
        eligible = lean_equivalent(
            self.validators, self.observers, self.record_steps
        )
        if self.fast_path is False:
            return False
        if self.fast_path is True and not eligible:
            raise ValueError(
                "fast_path=True requested, but the run records steps, "
                "has step-consuming observers, or uses validators beyond "
                "the capacity check; these require the instrumented loop"
            )
        return eligible


def route(
    problem: RoutingProblem,
    policy: RoutingPolicy,
    **kwargs: Any,
) -> RunResult:
    """Convenience one-shot: build an engine and run it."""
    return HotPotatoEngine(problem, policy, **kwargs).run()
