"""Shared chassis for the continuous-traffic engines.

:class:`DynamicEngineBase` owns everything the two dynamic engines
have in common — RNG/stat bookkeeping, lazy start (policy then source
preparation, in that order: both draw from the same stream, so the
order is part of the seeded contract), observer dispatch, and the
lean-vs-instrumented run decision.  Subclasses are pure configuration:
they pick the injection source and the kernel's ``buffered`` flag.

Observers get the full lifecycle: ``on_run_start`` before the first
step, ``on_step`` per step (instrumented loop only — observers that
declare ``needs_steps = False`` keep the lean loop and skip these),
and ``on_run_end`` when :meth:`DynamicEngineBase.run` returns, carrying
the finalized :class:`~repro.dynamic.stats.DynamicStats` in place of
the batch engines' :class:`~repro.core.metrics.RunResult`.
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
)

from repro.core.events import RunObserver
from repro.core.kernel import (
    AnyPolicy,
    InjectionSource,
    PhaseSink,
    StepKernel,
    StepSummary,
    step_metrics_from_summary,
)
from repro.core.packet import Packet
from repro.core.problem import RoutingProblem
from repro.core.rng import RngLike, describe_seed, make_rng
from repro.faults import ActiveFaults, FaultSchedule, RunWatchdog
from repro.obs.telemetry import RunTelemetry
from repro.dynamic.injection import TrafficModel
from repro.dynamic.stats import DynamicStats
from repro.mesh.topology import Mesh
from repro.types import PacketId

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.soa.adapters import PolicyAdapter


def _step_recorder(
    stats: DynamicStats, sinks: List[Callable[[StepSummary], None]]
) -> Callable[[StepSummary], None]:
    """The dynamic engines' per-step ``emit``: fold the step into the
    running aggregates of ``stats``, then call every summary sink.
    Like the delivery recorder below it closes over the engine's
    state, not the engine, so engine and kernel form no reference
    cycle; ``stats`` and ``sinks`` are updated in place."""
    record_step = stats.record_step

    def emit(summary: StepSummary) -> None:
        record_step(
            summary.step, summary.generated, summary.routed, summary.backlog
        )
        for sink in sinks:
            sink(summary)

    return emit


def _delivery_recorder(
    stats: DynamicStats, source: InjectionSource, mesh: Mesh
) -> Callable[[Packet], None]:
    """The dynamic engines' ``on_deliver``: fold each absorbed packet
    into the latency statistics (its ``delivered_at`` is the kernel's
    clock) and forget its generation time."""
    record_delivery = stats.record_delivery
    distance = mesh.distance

    def on_deliver(packet: Packet) -> None:
        assert packet.delivered_at is not None
        record_delivery(
            source.generated_at.pop(packet.id),
            packet.delivered_at,
            packet.hops,
            packet.deflections,
            distance(packet.source, packet.destination),
        )

    return on_deliver


class DynamicEngineBase:
    """Common driver for engines fed by an injection source.

    Subclasses set :attr:`buffered` and implement :meth:`_make_source`.
    Backlog is the source's ``backlog_size()``, identically zero for a
    source that admits everything (the buffered engine's).
    """

    #: Kernel mode: ``False`` routes hot-potato, ``True`` buffers.
    buffered = False

    def __init__(
        self,
        mesh: Mesh,
        policy: AnyPolicy,
        traffic: TrafficModel,
        *,
        seed: RngLike = 0,
        warmup: int = 0,
        observers: Iterable[RunObserver] = (),
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
        #: See HotPotatoEngine: the array kernel's adapter (or None)
        #: and the kernel the last run() used.
        self._soa_adapter: Optional["PolicyAdapter"] = None
        self.backend_used: Optional[str] = None
        if backend == "soa":
            from repro.core.soa import select_adapter

            self._soa_adapter = select_adapter(
                backend,
                policy,
                buffered=self.buffered,
                has_injection=True,
                record_paths=False,
                watchdog=watchdog,
                faults=faults,
            )
            faults = None  # empty, so bit-identical to no faults
        self.mesh = mesh
        self.policy = policy
        self.traffic = traffic
        self.rng = make_rng(seed)
        self._seed = describe_seed(seed)
        self.warmup = warmup
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
        self._source = self._make_source(traffic)
        self._stats = DynamicStats(warmup=warmup)
        self._summary_sinks: List[Any] = []
        self._emit = _step_recorder(self._stats, self._summary_sinks)
        self._started = False
        self._resumed = False
        self._kernel = StepKernel(
            mesh,
            policy,
            buffered=self.buffered,
            node_order="sorted",
            injection=self._source,
            set_entry_direction=False,
            emit=self._emit,
            on_deliver=_delivery_recorder(self._stats, self._source, mesh),
            telemetry=self.telemetry,
            faults=(
                ActiveFaults(mesh, faults) if faults is not None else None
            ),
            watchdog=watchdog,
        )

    # ------------------------------------------------------------------
    # Configuration hooks
    # ------------------------------------------------------------------

    def _make_source(self, traffic: TrafficModel) -> InjectionSource:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Kernel/source state under the engines' historical names
    # ------------------------------------------------------------------

    @property
    def time(self) -> int:
        return self._kernel.time

    @property
    def in_flight(self) -> List[Packet]:
        return self._kernel.in_flight

    @property
    def _next_id(self) -> PacketId:
        return self._source.next_id

    @property
    def _generated_at(self) -> Dict[PacketId, int]:
        return self._source.generated_at

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(self, steps: int) -> DynamicStats:
        """Simulate ``steps`` steps and return the collected statistics.

        Fires ``on_run_end`` with the finalized stats on return, so
        run-boundary observers (manifest loggers) work on the dynamic
        engines exactly as on the batch ones.

        A watchdog verdict ends the run before the requested horizon;
        the structured :class:`~repro.faults.RunAborted` lands on
        ``stats.abort`` (``None`` when the horizon was reached).
        """
        self._start()
        watchdog = self._kernel.watchdog
        if watchdog is not None and not self._resumed:
            # A resumed run keeps its restored watchdog counters (see
            # HotPotatoEngine.run).
            watchdog.reset(self._kernel)
        until = self.time + steps
        every = self.checkpoint_every
        lean = not any(
            getattr(o, "needs_steps", True) for o in self.observers
        )
        if not lean and self.backend == "soa":
            raise ValueError(
                "backend='soa' runs the lean loop only; detach "
                "step-consuming observers first"
            )
        if self.backend == "auto":
            # Decided per run (see HotPotatoEngine.run).
            self._soa_adapter = None
            if lean:
                from repro.core.soa import select_adapter

                self._soa_adapter = select_adapter(
                    "auto",
                    self.policy,
                    buffered=self.buffered,
                    has_injection=True,
                    record_paths=False,
                    watchdog=watchdog,
                    faults=self.faults,
                )
        self.backend_used = "object" if self._soa_adapter is None else "soa"
        if not lean:
            if self.profiler is not None:
                raise ValueError(
                    "profiling times the lean kernel loop; detach "
                    "step-consuming observers first"
                )
            while self.time < until:
                if watchdog is not None:
                    verdict = watchdog.check(self._kernel)
                    if verdict is not None:
                        self._kernel.abort = verdict
                        break
                self.step()
                if every is not None and self.time % every == 0:
                    self._maybe_checkpoint(until)
        elif every is None:
            self._run_fast(until)
        else:
            # Segmented lean run at absolute step boundaries; the
            # injecting kernels run the full horizon, so segments
            # always make progress and the loop terminates.
            while self.time < until and self._kernel.abort is None:
                boundary = ((self.time // every) + 1) * every
                self._run_fast(min(until, boundary))
                self._maybe_checkpoint(until)
        self._stats.finalize(
            self.time,
            len(self.in_flight),
            self._source.backlog_size(),
            abort=self._kernel.abort,
        )
        for observer in self.observers:
            observer.on_run_end(self._stats)
        return self._stats

    def step(self) -> None:
        """One synchronous step: generate, inject, route, absorb."""
        self._start()
        record, summary = self._kernel.step_instrumented()
        self._emit(summary)
        metrics = step_metrics_from_summary(summary)
        for observer in self.observers:
            observer.on_step(record, metrics)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Capture this engine's complete state — live packets,
        injection-source backlog, both RNG streams, statistics — as a
        JSON-safe dict (see :mod:`repro.snapshot`)."""
        from repro.snapshot.engine import engine_snapshot

        return engine_snapshot(self)

    def resume_from(self, payload: Dict[str, Any]) -> None:
        """Restore a snapshot onto this freshly constructed engine
        (same mesh/policy/traffic/seed, not yet run); the next
        :meth:`run` continues bit-identically."""
        from repro.snapshot.engine import resume_engine

        resume_engine(self, payload)

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
        """Checkpoint only when the run will continue past this
        boundary (dynamic runs keep going on an empty network, so the
        horizon and abort verdict are the only stop conditions)."""
        if (
            self.on_checkpoint is None
            or self._kernel.abort is not None
            or self.time >= until
        ):
            return
        self.on_checkpoint(self.snapshot())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _start(self) -> None:
        if self._started:
            return
        self._started = True
        empty = RoutingProblem(mesh=self.mesh, requests=(), name="dynamic")
        self.policy.prepare(self.mesh, empty, self.rng)
        self._source.prepare(self.mesh, self.rng)
        # In place: the kernel's emit closure holds this list.
        self._summary_sinks[:] = [
            o.on_summary
            for o in self.observers
            if getattr(o, "needs_summaries", False)
        ]
        for observer in self.observers:
            observer.on_run_start(self)
