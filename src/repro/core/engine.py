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

The step loop itself lives in :class:`~repro.core.kernel.StepKernel`
(shared with the buffered and dynamic engines); this class is the
batch hot-potato *configuration* of it — insertion-order node visits,
total assignments, entry-direction tracking — plus the run-level
machinery: validators, observers, step records, result construction.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.events import RunObserver
from repro.core.kernel import (
    PhaseSink,
    StepKernel,
    build_run_result,
    default_step_limit,
    lean_equivalent,
    metrics_emitter,
)
from repro.core.metrics import RunResult, StepMetrics, StepRecord
from repro.core.packet import Packet
from repro.core.policy import RoutingPolicy
from repro.core.problem import RoutingProblem
from repro.core.rng import RngLike, describe_seed, make_rng
from repro.core.validation import StepValidator, validators_for
from repro.exceptions import LivelockSuspectedError
from repro.faults import (
    ActiveFaults,
    FaultSchedule,
    RunWatchdog,
    step_limit_abort,
)
from repro.mesh.directions import Direction
from repro.obs.telemetry import RunTelemetry
from repro.types import Node, PacketId

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.soa.adapters import PolicyAdapter

__all__ = [
    "HotPotatoEngine",
    "StateEntry",
    "default_step_limit",
    "describe_seed",
    "route",
]

#: One in-flight packet's routing-relevant state in a global snapshot.
StateEntry = Tuple[PacketId, Node, Optional[Direction], bool, bool]


class HotPotatoEngine:
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
        if backend not in ("auto", "object", "soa"):
            raise ValueError(
                "backend must be 'auto', 'object' or 'soa', "
                f"got {backend!r}"
            )
        self.backend = backend
        #: The array kernel's adapter, or None for the object loop;
        #: fixed here for "soa", chosen by each run() under "auto".
        self._soa_adapter: Optional["PolicyAdapter"] = None
        #: Kernel the last run() used: "object" or "soa".
        self.backend_used: Optional[str] = None
        if backend == "soa":
            from repro.core.soa import select_adapter

            self._soa_adapter = select_adapter(
                backend,
                policy,
                buffered=False,
                has_injection=False,
                record_paths=record_paths,
                watchdog=watchdog,
                faults=faults,
            )
            # An empty schedule is bit-identical to no faults, so drop
            # it (and the watchdog it would auto-install) — this is the
            # FaultSchedule.empty() equivalence the differential suite
            # pins.
            faults = None
        self.problem = problem
        self.mesh = problem.mesh
        self.policy = policy
        self.rng = make_rng(seed)
        self._seed = describe_seed(seed)
        self.validators: List[StepValidator] = (
            list(validators)
            if validators is not None
            else validators_for(policy)
        )
        self.observers: List[RunObserver] = list(observers)
        self.max_steps = (
            max_steps if max_steps is not None else default_step_limit(problem)
        )
        self.record_steps = record_steps
        self.raise_on_timeout = raise_on_timeout
        self.fast_path = fast_path
        self.profiler = profiler
        self.telemetry = RunTelemetry()
        self.faults = faults
        if watchdog is None and faults is not None:
            watchdog = RunWatchdog()
        self.watchdog = watchdog
        if profiler is not None and (
            faults is not None or watchdog is not None
        ):
            raise ValueError(
                "profiling is incompatible with faults/watchdogs; "
                "drop the profiler or the fault schedule"
            )
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            if on_checkpoint is None:
                raise ValueError(
                    "checkpoint_every needs an on_checkpoint sink to "
                    "receive the snapshots"
                )
            if record_steps:
                raise ValueError(
                    "checkpointing is incompatible with record_steps; "
                    "snapshots do not carry step records"
                )
        self.checkpoint_every = checkpoint_every
        self.on_checkpoint = on_checkpoint

        self.packets: List[Packet] = problem.make_packets()
        self._records: List[StepRecord] = []
        self._metrics: List[StepMetrics] = []
        self._summary_sinks: List[Any] = []
        self._emit = metrics_emitter(self._metrics, self._summary_sinks)
        self._started = False
        self._resumed = False
        self._kernel = StepKernel(
            self.mesh,
            policy,
            buffered=False,
            node_order="insertion",
            set_entry_direction=True,
            record_paths=record_paths,
            emit=self._emit,
            telemetry=self.telemetry,
            faults=(
                ActiveFaults(self.mesh, faults)
                if faults is not None
                else None
            ),
            watchdog=watchdog,
        )

    # ------------------------------------------------------------------
    # Kernel state, exposed under the engine's historical names
    # ------------------------------------------------------------------

    @property
    def time(self) -> int:
        return self._kernel.time

    @time.setter
    def time(self, value: int) -> None:
        self._kernel.time = value

    @property
    def in_flight(self) -> List[Packet]:
        return self._kernel.in_flight

    @in_flight.setter
    def in_flight(self, value: List[Packet]) -> None:
        self._kernel.in_flight = value

    @property
    def record_paths(self) -> bool:
        return self._kernel.record_paths

    @record_paths.setter
    def record_paths(self, value: bool) -> None:
        self._kernel.record_paths = value

    # ------------------------------------------------------------------
    # Public driving interface
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Route until all packets are delivered, the budget runs out,
        or a watchdog issues a verdict."""
        self._start()
        watchdog = self._kernel.watchdog
        if watchdog is not None and not self._resumed:
            # A resumed run keeps its restored watchdog counters; a
            # reset here would re-baseline them and mask a pre-crash
            # stall, diverging from the uninterrupted run.
            watchdog.reset(self._kernel)
        every = self.checkpoint_every
        lean = self._fast_path_eligible()
        if not lean and self.backend == "soa":
            raise ValueError(
                "backend='soa' runs the lean loop only; this run "
                "records steps, has step-consuming observers, or "
                "uses validators beyond the capacity check"
            )
        if self.backend == "auto":
            # Decided here, not in __init__: observers and
            # record_paths may change between construction and run().
            self._soa_adapter = None
            if lean:
                from repro.core.soa import select_adapter

                self._soa_adapter = select_adapter(
                    "auto",
                    self.policy,
                    buffered=False,
                    has_injection=False,
                    record_paths=self.record_paths,
                    watchdog=watchdog,
                    faults=self.faults,
                )
        self.backend_used = "object" if self._soa_adapter is None else "soa"
        if lean:
            if every is None:
                self._run_fast(self.max_steps)
            else:
                # Segmented lean run: pause at every absolute multiple
                # of the interval, checkpoint, continue.  Segment
                # boundaries are absolute step numbers, so a resumed
                # run checkpoints at the same steps as the original.
                while (
                    self.in_flight
                    and self.time < self.max_steps
                    and self._kernel.abort is None
                ):
                    boundary = ((self.time // every) + 1) * every
                    self._run_fast(min(self.max_steps, boundary))
                    self._maybe_checkpoint()
        else:
            if self.profiler is not None:
                raise ValueError(
                    "profiling times the lean kernel loop, but this run "
                    "is not fast-path eligible (it records steps, has "
                    "step-consuming observers, or uses validators beyond "
                    "the capacity check)"
                )
            while self.in_flight and self.time < self.max_steps:
                if watchdog is not None:
                    verdict = watchdog.check(self._kernel)
                    if verdict is not None:
                        self._kernel.abort = verdict
                        break
                self.step()
                if every is not None and self.time % every == 0:
                    self._maybe_checkpoint()
        if (
            self.in_flight
            and self.raise_on_timeout
            and self._kernel.abort is None
        ):
            raise LivelockSuspectedError(
                f"{len(self.in_flight)} packets still in flight after "
                f"{self.time} steps (policy {self.policy.name!r} on "
                f"{self.problem.describe()})"
            )
        if (
            self._kernel.abort is None
            and self.in_flight
            and self.time >= self.max_steps
        ):
            # Unified incomplete-run vocabulary: a plain step-budget
            # timeout carries the same structured record as the
            # watchdog verdicts.
            self._kernel.abort = step_limit_abort(
                self._kernel, self.max_steps
            )
        result = self._build_result()
        for observer in self.observers:
            observer.on_run_end(result)
        return result

    def step(self) -> StepRecord:
        """Execute one synchronous step and return its record."""
        self._start()
        record, summary = self._kernel.step_instrumented(self.validators)
        self._emit(summary)
        metrics = self._metrics[-1]
        if self.record_steps:
            self._records.append(record)
        for observer in self.observers:
            observer.on_step(record, metrics)
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

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Capture this engine's complete state as a JSON-safe dict
        (see :mod:`repro.snapshot`); valid at any step boundary."""
        from repro.snapshot.engine import engine_snapshot

        return engine_snapshot(self)

    def resume_from(self, payload: Dict[str, Any]) -> None:
        """Restore a snapshot onto this freshly constructed engine.

        The engine must be built from the same inputs (problem,
        policy, seed, faults, observers) and not yet run; the next
        :meth:`run` then continues bit-identically from the
        checkpointed step.
        """
        from repro.snapshot.engine import resume_engine

        resume_engine(self, payload)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _run_fast(self, until: int) -> None:
        """One lean-loop segment up to absolute step ``until``."""
        adapter = self._soa_adapter
        if adapter is not None:
            from repro.core.soa import SoaKernel

            SoaKernel(self._kernel, adapter).run(
                until, profiler=self.profiler
            )
        else:
            self._kernel.run_lean(until, self.profiler)

    def _maybe_checkpoint(self) -> None:
        """Hand a snapshot to the sink, but only when the run will
        continue — a run that just finished, aborted, or exhausted its
        budget is fully described by its result."""
        if (
            self.on_checkpoint is None
            or not self.in_flight
            or self._kernel.abort is not None
            or self.time >= self.max_steps
        ):
            return
        self.on_checkpoint(self.snapshot())

    def _start(self) -> None:
        if self._started:
            return
        self._started = True
        self.policy.prepare(self.mesh, self.problem, self.rng)
        in_flight = list(self.packets)
        if self.record_paths:
            for packet in in_flight:
                packet.path.append(packet.location)
        # Absorb requests whose source equals their destination (time 0).
        delivered = 0
        remaining: List[Packet] = []
        for packet in in_flight:
            if packet.location == packet.destination:
                packet.delivered_at = 0
                delivered += 1
            else:
                remaining.append(packet)
        self._kernel.seed_packets(
            remaining, self.problem.distances, delivered_total=delivered
        )
        # In place: the kernel's emit closure holds this list.
        self._summary_sinks[:] = [
            o.on_summary
            for o in self.observers
            if getattr(o, "needs_summaries", False)
        ]
        for observer in self.observers:
            observer.on_run_start(self)

    def _fast_path_eligible(self) -> bool:
        """Decide whether :meth:`run` may use the lean kernel loop.

        The lean loop produces bit-identical :class:`RunResult`\\ s but
        skips :class:`StepRecord`/per-packet info construction, so it
        is only equivalent when nobody consumes those objects: no step
        recording, no observers with ``needs_steps`` (run-boundary
        observers are fine), and no validators beyond the capacity
        check (see :func:`repro.core.kernel.lean_equivalent`).
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

    def _build_result(self) -> RunResult:
        return build_run_result(
            self.problem,
            self.policy.name,
            self.packets,
            self._kernel,
            self._metrics,
            self._records if self.record_steps else None,
            self._seed,
            abort=self._kernel.abort,
        )


def route(
    problem: RoutingProblem,
    policy: RoutingPolicy,
    **kwargs: Any,
) -> RunResult:
    """Convenience one-shot: build an engine and run it."""
    return HotPotatoEngine(problem, policy, **kwargs).run()
