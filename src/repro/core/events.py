"""Observer hooks for simulation runs.

Observers let analyses (potential trackers, trace recorders, live
renderers) watch a run without the engine knowing about them.  All
methods have empty defaults, so an observer overrides only what it
needs.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.kernel import StepSummary
from repro.core.metrics import StepMetrics, StepRecord


class RunObserver:
    """Base class for objects notified as a run progresses.

    ``engine`` is deliberately untyped: any engine built on
    :class:`~repro.core.kernel.StepKernel` (batch hot-potato, buffered,
    or the dynamic engines) can host observers, and they share duck
    compatibility (``mesh``, ``time``, ``in_flight``) rather than a
    base class.  All four engines fire the full lifecycle; what
    ``on_run_end`` receives depends on the engine — a
    :class:`RunResult` from the batch engines, a
    :class:`~repro.dynamic.stats.DynamicStats` from the dynamic ones.
    """

    #: Whether this observer consumes per-step records.  Attaching a
    #: default (``True``) observer forces the engine onto the
    #: instrumented step loop so ``on_step`` has records to deliver.
    #: Observers that only act at run boundaries (telemetry loggers,
    #: manifest writers) set this to ``False`` and keep the engine on
    #: its lean kernel loop; their ``on_step`` then never fires.
    needs_steps: bool = True

    #: Whether this observer consumes per-step summaries.  Unlike
    #: ``needs_steps``, this hook is *lean-loop safe*: every kernel
    #: path (lean, guarded, profiled, soa, instrumented) already emits
    #: one :class:`~repro.core.kernel.StepSummary` per step, so
    #: summary observers never disqualify the fast path and work on
    #: every backend.  The series recorders and metric recorders in
    #: :mod:`repro.obs` set this (with ``needs_steps = False``).
    needs_summaries: bool = False

    def on_run_start(self, engine: Any) -> None:
        """Called once, after packets are placed but before step 0."""

    def on_step(self, record: StepRecord, metrics: StepMetrics) -> None:
        """Called after every step, with the record of what moved.

        Only fires on the instrumented loop, i.e. when at least one
        attached observer has ``needs_steps = True``."""

    def on_summary(self, summary: StepSummary) -> None:
        """Called after every step with its cheap scalar summary.

        Fires on *all* kernel paths (the lean loops included) — but
        only when ``needs_summaries`` is True, so engines skip the
        dispatch entirely for ordinary observers.

        Read only the summary here.  Under the array kernel (the
        default ``backend="auto"`` picks it for most lean runs) the
        live state sits in flat columns: ``engine.in_flight`` and the
        packet objects are written back only when a run or a
        checkpoint segment ends, so mid-run they are stale."""

    def on_run_end(self, result: Any) -> None:
        """Called once when the run returns.

        Batch engines pass their :class:`RunResult` (after the last
        packet is delivered or the step limit is reached); dynamic
        engines pass the finalized
        :class:`~repro.dynamic.stats.DynamicStats` when ``run(steps)``
        returns its horizon."""


class CallbackObserver(RunObserver):
    """Adapter wrapping plain callables as an observer.

    Useful in tests and notebooks::

        engine.observers.append(CallbackObserver(on_step=print))

    ``needs_steps``/``needs_summaries`` follow the callbacks: without
    an ``on_step`` callback the adapter is a run-boundary observer and
    does not force the instrumented loop; an ``on_summary`` callback
    subscribes to the lean-loop-safe per-step summaries.
    """

    def __init__(
        self,
        on_run_start: Optional[Callable[[Any], None]] = None,
        on_step: Optional[Callable[[StepRecord, StepMetrics], None]] = None,
        on_run_end: Optional[Callable[[Any], None]] = None,
        on_summary: Optional[Callable[[StepSummary], None]] = None,
    ) -> None:
        self._on_run_start = on_run_start
        self._on_step = on_step
        self._on_run_end = on_run_end
        self._on_summary = on_summary
        self.needs_steps = on_step is not None
        self.needs_summaries = on_summary is not None

    def on_run_start(self, engine: Any) -> None:
        if self._on_run_start is not None:
            self._on_run_start(engine)

    def on_step(self, record: StepRecord, metrics: StepMetrics) -> None:
        if self._on_step is not None:
            self._on_step(record, metrics)

    def on_summary(self, summary: StepSummary) -> None:
        if self._on_summary is not None:
            self._on_summary(summary)

    def on_run_end(self, result: Any) -> None:
        if self._on_run_end is not None:
            self._on_run_end(result)
