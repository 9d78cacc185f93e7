"""The continuous-traffic configuration of the shared run driver.

:class:`DynamicEngineBase` is :class:`~repro.core.chassis.EngineBase`
fed by an injection source: its hooks fold every step and every
delivery into a :class:`~repro.dynamic.stats.DynamicStats` and, when
the run starts, prepare the policy then the source (in that order:
both draw from the same stream, so the order is part of the seeded
contract).  Subclasses pick the injection source and the kernel's
``buffered`` flag.

Observers get the full lifecycle: ``on_run_start`` before the first
step, ``on_step`` per step (instrumented loop only — observers that
declare ``needs_steps = False`` keep the lean loop and skip these),
and ``on_run_end`` when :meth:`DynamicEngineBase.run` returns, carrying
the finalized :class:`~repro.dynamic.stats.DynamicStats` in place of
the batch engines' :class:`~repro.core.metrics.RunResult`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.core.chassis import Emit, EngineBase
from repro.core.events import RunObserver
from repro.core.kernel import (
    AnyPolicy,
    InjectionSource,
    OnDeliver,
    PhaseSink,
    StepSummary,
)
from repro.core.problem import RoutingProblem
from repro.core.rng import RngLike
from repro.faults import FaultSchedule, RunWatchdog
from repro.dynamic.injection import TrafficModel
from repro.dynamic.stats import DynamicStats
from repro.mesh.topology import Mesh
from repro.types import PacketId


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
    stats: DynamicStats, source: InjectionSource
) -> OnDeliver:
    """The dynamic engines' ``on_deliver``: fold one step's absorbed
    packets into the latency statistics, in ascending id order, and
    forget their generation times."""
    record_deliveries = stats.record_deliveries

    def on_deliver(
        ids: List[PacketId],
        delivered_at: int,
        hops: List[int],
        deflections: List[int],
        shortest: List[int],
    ) -> None:
        # Read per call: a snapshot restore replaces the table.
        pop = source.generated_at.pop
        record_deliveries(
            [pop(packet_id) for packet_id in ids],
            delivered_at,
            hops,
            deflections,
            shortest,
        )

    return on_deliver


class DynamicEngineBase(EngineBase):
    """Common configuration of the engines fed by an injection source.

    Subclasses set :attr:`kind` and :attr:`buffered` and implement
    :meth:`_make_source`.  Backlog is the source's ``backlog_size()``,
    identically zero for a source that admits everything (the buffered
    engine's).
    """

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
        self.traffic = traffic
        self.warmup = warmup
        self._source = self._make_source(traffic)
        self._stats = DynamicStats(warmup=warmup)
        super().__init__(
            mesh,
            policy,
            seed=seed,
            observers=observers,
            profiler=profiler,
            faults=faults,
            watchdog=watchdog,
            backend=backend,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
            injection=self._source,
            on_deliver=_delivery_recorder(self._stats, self._source),
        )

    # ------------------------------------------------------------------
    # Configuration hooks
    # ------------------------------------------------------------------

    def _make_source(self, traffic: TrafficModel) -> InjectionSource:
        raise NotImplementedError

    def _emitter(self, sinks: List[Emit]) -> Emit:
        return _step_recorder(self._stats, sinks)

    def _prepare(self) -> None:
        empty = RoutingProblem(mesh=self.mesh, requests=(), name="dynamic")
        self.policy.prepare(self.mesh, empty, self.rng)
        self._source.prepare(self.mesh, self.rng)

    # ------------------------------------------------------------------
    # Source state under the engines' historical names
    # ------------------------------------------------------------------

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
        # Start before reading the clock the horizon counts from.
        self._start()
        self._drive(self.time + steps)
        self._stats.finalize(
            self.time,
            len(self.in_flight),
            self._source.backlog_size(),
            abort=self._kernel.abort,
        )
        for observer in self.observers:
            observer.on_run_end(self._stats)
        return self._stats
