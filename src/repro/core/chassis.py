"""The one engine driver; every engine is a configuration of it.

The step lives in :class:`~repro.core.kernel.StepKernel`.  What drives
it is written once, in :class:`EngineBase`: argument checks, kernel
construction, the per-run choice between the lean loop (object or
array kernel) and the instrumented one, the watchdog, segmented
checkpoints, snapshot/resume and the observer lifecycle.  An engine
declares four class attributes (``kind``, ``buffered``, ``node_order``,
``set_entry_direction``) and supplies two hooks, :meth:`~EngineBase._emitter`
and :meth:`~EngineBase._prepare`.  :class:`BatchEngineBase` adds what
the batch engines share: the problem, its packets, the step budget
and ``run() -> RunResult``.

**The continuation rule.**  A run steps on while all three hold:

* ``kernel.abort is None``;
* the clock is below the run's horizon;
* packets are in flight, or the kernel has an injection source (a
  dynamic run continues on an empty network).

The lean loop, the instrumented loop and the checkpoint test all read
this one rule (:meth:`EngineBase._continues`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
)

from repro.core.events import RunObserver
from repro.core.kernel import (
    AnyPolicy,
    InjectionSource,
    OnDeliver,
    PhaseSink,
    StepKernel,
    StepSummary,
    build_run_result,
    default_step_limit,
    lean_equivalent,
    metrics_emitter,
    step_metrics_from_summary,
)
from repro.core.metrics import RunResult, StepMetrics, StepRecord
from repro.core.packet import Packet
from repro.core.problem import RoutingProblem
from repro.core.rng import RngLike, describe_seed, make_rng
from repro.core.validation import StepValidator
from repro.exceptions import LivelockSuspectedError
from repro.faults import (
    ActiveFaults,
    FaultSchedule,
    RunWatchdog,
    step_limit_abort,
)
from repro.mesh.topology import Mesh
from repro.obs.telemetry import RunTelemetry

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.soa.adapters import PolicyAdapter

__all__ = ["BatchEngineBase", "EngineBase"]

Emit = Callable[[StepSummary], None]

#: Why a run cannot take the lean loop; ends both errors that say so.
_NEEDS_INSTRUMENTED = (
    "this run needs the instrumented loop (it records steps, has "
    "step-consuming observers, or uses validators beyond the capacity "
    "check)"
)


class EngineBase(ABC):
    """The run driver shared by every engine (see the module docs).

    A subclass sets the class attributes, stores what its hooks read,
    then calls this constructor, which checks the shared arguments and
    builds the kernel.  The arguments are the engines' options (see
    :class:`~repro.core.engine.HotPotatoEngine`) plus a dynamic
    engine's kernel wiring: ``injection``, its packet source, and
    ``on_deliver``, called with each step's absorbed packets as
    columns.
    """

    #: The engine's name in the CLI's vocabulary, in snapshot payloads
    #: (``kind``) and in run manifests (``engine``).
    kind: ClassVar[str] = ""
    #: Store-and-forward semantics: partial assignments, packets wait.
    buffered: ClassVar[bool] = False
    #: Node visit order, ``"insertion"`` or ``"sorted"``; part of the
    #: seeded contract (see :mod:`repro.core.kernel`).
    node_order: ClassVar[str] = "sorted"
    #: Whether moves record the entry arc on the packet.
    set_entry_direction: ClassVar[bool] = False
    #: Checks the instrumented step runs at every node.
    validators: Sequence[StepValidator] = ()

    def __init__(
        self,
        mesh: Mesh,
        policy: AnyPolicy,
        *,
        seed: RngLike,
        observers: Iterable[RunObserver],
        profiler: Optional[PhaseSink],
        faults: Optional[FaultSchedule],
        watchdog: Optional[RunWatchdog],
        backend: str,
        checkpoint_every: Optional[int],
        on_checkpoint: Optional[Callable[[Dict[str, Any]], None]],
        record_paths: bool = False,
        injection: Optional[InjectionSource] = None,
        on_deliver: Optional[OnDeliver] = None,
    ) -> None:
        if backend not in ("auto", "object", "soa"):
            raise ValueError(
                "backend must be 'auto', 'object' or 'soa', "
                f"got {backend!r}"
            )
        self.backend = backend
        #: The array kernel's adapter, or None for the object loop;
        #: fixed here for "soa", chosen by each run under "auto".
        self._soa_adapter: Optional["PolicyAdapter"] = None
        #: Kernel the last run used: "object" or "soa".
        self.backend_used: Optional[str] = None
        if backend == "soa":
            from repro.core.soa import select_adapter

            self._soa_adapter = select_adapter(
                backend,
                policy,
                buffered=self.buffered,
                has_injection=injection is not None,
                record_paths=record_paths,
                watchdog=watchdog,
                faults=faults,
            )
            # An empty schedule is bit-identical to no faults, so drop
            # it (and the watchdog it would auto-install) — this is the
            # FaultSchedule.empty() equivalence the differential suite
            # pins.
            faults = None
        self.mesh = mesh
        self.policy = policy
        self.rng = make_rng(seed)
        self._seed = describe_seed(seed)
        self.observers: List[RunObserver] = list(observers)
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
        self.checkpoint_every = checkpoint_every
        self.on_checkpoint = on_checkpoint
        self._summary_sinks: List[Emit] = []
        self._emit = self._emitter(self._summary_sinks)
        self._started = False
        self._resumed = False
        self._kernel = StepKernel(
            mesh,
            policy,
            buffered=self.buffered,
            node_order=self.node_order,
            injection=injection,
            set_entry_direction=self.set_entry_direction,
            record_paths=record_paths,
            emit=self._emit,
            on_deliver=on_deliver,
            telemetry=self.telemetry,
            faults=(
                ActiveFaults(mesh, faults) if faults is not None else None
            ),
            watchdog=watchdog,
        )

    # ------------------------------------------------------------------
    # Configuration hooks
    # ------------------------------------------------------------------

    @abstractmethod
    def _emitter(self, sinks: List[Emit]) -> Emit:
        """The kernel's per-step ``emit``: fold the step into the
        engine's bookkeeping, then call every sink in ``sinks`` (filled
        in place when the run starts).  A closure over that state,
        never a bound method, so engine and kernel form no reference
        cycle and a dropped engine is freed by reference counting."""

    @abstractmethod
    def _prepare(self) -> None:
        """Prepare the policy (and source) from :attr:`rng` and install
        the run's initial state; called once, when the run starts."""

    def _lean(self) -> bool:
        """Whether this run may take the lean loop: nobody consumes
        per-step records (see
        :func:`~repro.core.kernel.lean_equivalent`)."""
        return lean_equivalent(self.validators, self.observers, False)

    # ------------------------------------------------------------------
    # Kernel state under the engines' historical names
    # ------------------------------------------------------------------

    @property
    def time(self) -> int:
        return self._kernel.time

    @property
    def in_flight(self) -> List[Packet]:
        return self._kernel.in_flight

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def step(self) -> StepRecord:
        """Execute one instrumented step and return its record."""
        self._start()
        record, summary = self._kernel.step_instrumented(self.validators)
        self._emit(summary)
        metrics = step_metrics_from_summary(summary)
        for observer in self.observers:
            observer.on_step(record, metrics)
        return record

    def _drive(self, until: int) -> None:
        """Step towards absolute step ``until`` while the continuation
        rule holds, on the loop this run allows, checkpointing at every
        multiple of :attr:`checkpoint_every`."""
        self._start()
        kernel = self._kernel
        watchdog = kernel.watchdog
        if watchdog is not None and not self._resumed:
            # A resumed run keeps its restored watchdog counters; a
            # reset here would re-baseline them and mask a pre-crash
            # stall, diverging from the uninterrupted run.
            watchdog.reset(kernel)
        lean = self._lean()
        if not lean and self.backend == "soa":
            raise ValueError(
                "backend='soa' runs the lean loop only; "
                + _NEEDS_INSTRUMENTED
            )
        if self.backend == "auto":
            # Decided per run, not in __init__: observers and
            # record_paths may change between construction and run.
            self._soa_adapter = None
            if lean:
                from repro.core.soa import select_adapter

                self._soa_adapter = select_adapter(
                    "auto",
                    self.policy,
                    buffered=self.buffered,
                    has_injection=kernel.injection is not None,
                    record_paths=kernel.record_paths,
                    watchdog=watchdog,
                    faults=self.faults,
                )
        self.backend_used = "object" if self._soa_adapter is None else "soa"
        every = self.checkpoint_every
        if lean:
            # Segment boundaries are absolute step numbers, so a
            # resumed run checkpoints at the same steps as the original.
            while self._continues(until):
                if every is None:
                    self._run_fast(until)
                else:
                    boundary = (kernel.time // every + 1) * every
                    self._run_fast(min(until, boundary))
                    self._maybe_checkpoint(until)
            return
        if self.profiler is not None:
            raise ValueError(
                "profiling times the lean loop only; " + _NEEDS_INSTRUMENTED
            )
        while self._continues(until):
            if watchdog is not None:
                verdict = watchdog.check(kernel)
                if verdict is not None:
                    kernel.abort = verdict
                    break
            self.step()
            if every is not None and kernel.time % every == 0:
                self._maybe_checkpoint(until)

    def _continues(self, until: int) -> bool:
        """The continuation rule (see the module docs)."""
        kernel = self._kernel
        return (
            kernel.abort is None
            and kernel.time < until
            and (bool(kernel.in_flight) or kernel.injection is not None)
        )

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

    def _maybe_checkpoint(self, until: int) -> None:
        """Hand a snapshot to the sink, but only when the run will
        continue: a finished, aborted or exhausted run is fully
        described by its outcome."""
        if self.on_checkpoint is not None and self._continues(until):
            self.on_checkpoint(self.snapshot())

    def _start(self) -> None:
        if self._started:
            return
        self._started = True
        self._prepare()
        # In place: the kernel's emit closure holds this list.
        self._summary_sinks[:] = [
            o.on_summary
            for o in self.observers
            if getattr(o, "needs_summaries", False)
        ]
        for observer in self.observers:
            observer.on_run_start(self)

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

        The engine must be built from the same inputs (problem or mesh
        and traffic, policy, seed, faults, observers) and not yet run;
        the next run then continues bit-identically from the
        checkpointed step.
        """
        from repro.snapshot.engine import resume_engine

        resume_engine(self, payload)


class BatchEngineBase(EngineBase):
    """A batch engine: routes one problem's packets until all are
    delivered, the step budget runs out, or a watchdog stops the run.

    Arguments beyond :class:`EngineBase`'s: ``problem`` (carries the
    mesh), the ``validators`` the instrumented step runs, the step
    budget ``max_steps`` (default
    :func:`~repro.core.kernel.default_step_limit`) and
    ``raise_on_timeout``.
    """

    def __init__(
        self,
        problem: RoutingProblem,
        policy: AnyPolicy,
        *,
        validators: Sequence[StepValidator],
        max_steps: Optional[int],
        raise_on_timeout: bool,
        **options: Any,
    ) -> None:
        self.problem = problem
        self.validators = list(validators)
        self.max_steps = (
            max_steps if max_steps is not None else default_step_limit(problem)
        )
        self.raise_on_timeout = raise_on_timeout
        self.packets: List[Packet] = problem.make_packets()
        self._metrics: List[StepMetrics] = []
        #: Every step's record, when the engine keeps them.
        self._records: Optional[List[StepRecord]] = None
        super().__init__(problem.mesh, policy, **options)

    def run(self) -> RunResult:
        """Route until all packets are delivered, the budget runs out,
        or a watchdog issues a verdict."""
        self._drive(self.max_steps)
        kernel = self._kernel
        if kernel.in_flight and kernel.abort is None:
            # The continuation rule leaves only the budget.
            if self.raise_on_timeout:
                raise LivelockSuspectedError(
                    f"{len(kernel.in_flight)} packets still in flight "
                    f"after {kernel.time} steps (policy "
                    f"{self.policy.name!r} on {self.problem.describe()})"
                )
            # Unified incomplete-run vocabulary: a plain step-budget
            # timeout carries the same structured record as the
            # watchdog verdicts.
            kernel.abort = step_limit_abort(kernel, self.max_steps)
        result = build_run_result(
            self.problem,
            self.policy.name,
            self.packets,
            kernel,
            self._metrics,
            self._records,
            self._seed,
            abort=kernel.abort,
        )
        for observer in self.observers:
            observer.on_run_end(result)
        return result

    def _emitter(self, sinks: List[Emit]) -> Emit:
        return metrics_emitter(self._metrics, sinks)

    def _prepare(self) -> None:
        self.policy.prepare(self.mesh, self.problem, self.rng)
        record_paths = self._kernel.record_paths
        # Absorb requests whose source equals their destination (time 0).
        delivered = 0
        remaining: List[Packet] = []
        for packet in self.packets:
            if record_paths:
                packet.path.append(packet.location)
            if packet.location == packet.destination:
                packet.delivered_at = 0
                delivered += 1
            else:
                remaining.append(packet)
        self._kernel.seed_packets(
            remaining, self.problem.distances, delivered_total=delivered
        )
