"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own code, around calls into the
simulator's public functions; nothing inside ``src/`` is instrumented.
Three kinds of record share one list:

* context-manager spans (``with tracer.span("engine.run"):``) around a
  call the benchmark makes itself;
* wrapper spans (``tracer.wrap`` / ``tracer.patch``) around a public
  function or method the simulator calls internally, installed for the
  traced run only;
* phase spans fed by the engines' own ``profiler=`` sink.  The kernel
  reports each step's per-phase durations, not their timestamps, so the
  phases of one step are laid end to end, ending when the step reported.

Each span is ``[name, start_ns, end_ns, parent_index, case_id]``.  A
span's *self time* is its duration minus the durations of its direct
children; per-layer metrics are sums of self times, so no nanosecond is
counted in two layers.  Counts (packet-steps, snapshot bytes, store
events, ...) are kept beside the spans, where the work happens.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

PHASES = ("inject", "rank", "arc_assign", "move", "deliver")

_clock = time.perf_counter_ns


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.counts: Dict[str, int] = {}
        #: case id -> slice label ("main", "faulted", "buffered", ...).
        self.case_kind: Dict[str, str] = {}
        self.case: Optional[str] = None
        self._open: List[int] = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        record = [
            name,
            _clock(),
            0,
            self._open[-1] if self._open else -1,
            self.case,
        ]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = _clock()
            self._open.pop()

    def add(self, name: str, start: int, end: int) -> None:
        """A closed span, child of the innermost open one."""
        self.spans.append(
            [name, start, end, self._open[-1] if self._open else -1, self.case]
        )

    @contextmanager
    def case_scope(self, case_id: str, kind: str) -> Iterator[None]:
        previous, self.case = self.case, case_id
        self.case_kind[case_id] = kind
        try:
            yield
        finally:
            self.case = previous

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), int(value))

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patch(
        self, owner: Any, attribute: str, name: str
    ) -> Iterator[None]:
        """Replace ``owner.attribute`` with a traced wrapper, restoring
        the original on exit."""
        original = getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(original, name))
        try:
            yield
        finally:
            setattr(owner, attribute, original)

    def phase_sink(self, layer: str) -> "PhaseSpans":
        return PhaseSpans(self, layer)

    def observe(self, observer: Any) -> Any:
        return TimedObserver(observer, self)

    # -- reading ---------------------------------------------------------

    def self_ns(self) -> List[int]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_seconds(self) -> Dict[Tuple[str, Optional[str]], float]:
        """Self time summed per (span name, kind of the span's case)."""
        totals: Dict[Tuple[str, Optional[str]], int] = {}
        for record, own in zip(self.spans, self.self_ns()):
            key = (record[0], self.case_kind.get(record[4]))
            totals[key] = totals.get(key, 0) + own
        return {key: ns / 1e9 for key, ns in totals.items()}

    def total_seconds(self, name: str) -> float:
        """Summed full duration (children included) of the named spans."""
        return sum(
            end - start for n, start, end, _, _ in self.spans if n == name
        ) / 1e9

    def number(self, name: str) -> int:
        return sum(1 for record in self.spans if record[0] == name)

    def write(self, path: str, info: Dict[str, Any]) -> None:
        """One JSON line of run info, then one line per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "info", **info}) + "\n")
            for index, (name, start, end, parent, case) in enumerate(
                self.spans
            ):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "case": case,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


class PhaseSpans:
    """A kernel ``PhaseSink`` that turns per-step phase durations into
    spans named ``<layer>.<phase>``."""

    def __init__(self, tracer: Tracer, layer: str) -> None:
        self.tracer = tracer
        self.layer = layer

    def clock(self) -> int:
        return _clock()

    def record_step(
        self, inject: int, rank: int, arc_assign: int, move: int, deliver: int
    ) -> None:
        end = _clock()
        durations = (inject, rank, arc_assign, move, deliver)
        for phase, duration in zip(reversed(PHASES), reversed(durations)):
            if duration:
                self.tracer.add(f"{self.layer}.{phase}", end - duration, end)
                end -= duration


class TimedObserver:
    """Forwards every observer hook to ``inner``, timing ``on_summary``.

    ``needs_steps``, ``needs_summaries`` and the checkpoint protocol are
    passed through unchanged, so the engine takes the same loop and its
    snapshots stay byte-identical to an untraced run.
    """

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.needs_steps = getattr(inner, "needs_steps", True)
        self.needs_summaries = getattr(inner, "needs_summaries", False)

    def on_summary(self, summary: Any) -> None:
        start = _clock()
        self.inner.on_summary(summary)
        self.tracer.add("obs.on_summary", start, _clock())

    def snapshot_state(self) -> Any:
        return self.inner.snapshot_state()

    def restore_state(self, payload: Any) -> None:
        self.inner.restore_state(payload)

    def on_run_start(self, engine: Any) -> None:
        self.inner.on_run_start(engine)

    def on_step(self, record: Any, metrics: Any) -> None:
        self.inner.on_step(record, metrics)

    def on_run_end(self, result: Any) -> None:
        self.inner.on_run_end(result)


class NullTracer:
    """The untraced run's tracer: records nothing and wraps nothing, so
    engines take their plain loops and observers stay unwrapped."""

    enabled = False

    def span(self, name: str) -> ContextManager[None]:
        return nullcontext()

    def case_scope(self, case_id: str, kind: str) -> ContextManager[None]:
        return nullcontext()

    def count(self, name: str, amount: int) -> None:
        pass

    def peak(self, name: str, value: int) -> None:
        pass

    def phase_sink(self, layer: str) -> None:
        return None

    def observe(self, observer: Any) -> Any:
        return observer


def _share(part: float, phases: Iterable[float]) -> float:
    total = sum(phases)
    return part / total if total else 0.0


def layer_metrics(tracer: Tracer, cases_per_s: float) -> Dict[str, Any]:
    """Every per-layer metric of a traced run, as ``(value, unit)``.

    A layer the workload bypasses reads 0.
    """
    table = tracer.self_seconds()
    counts = tracer.counts

    def seconds(
        names: Iterable[str], kinds: Optional[Iterable[str]] = None
    ) -> float:
        """Summed self time of the named spans, optionally only inside
        cases of the given kinds."""
        wanted = set(names)
        return sum(
            value
            for (name, kind), value in table.items()
            if name in wanted and (kinds is None or kind in kinds)
        )

    kernel = {p: seconds([f"kernel.{p}"]) for p in PHASES}
    vector = {p: seconds([f"soa.vectorized.{p}"]) for p in PHASES}
    column = {p: seconds([f"soa.columnar.{p}"]) for p in PHASES}
    dynamic = {p: seconds([f"kernel.{p}"], kinds=["dynamic"]) for p in PHASES}
    packet_steps = counts.get("packet_steps", 0)
    return {
        "mesh.tables_build_s": (seconds(["mesh.build"]), "s"),
        "workloads.generate_s": (seconds(["workloads.generate"]), "s"),
        "kernel.inject_s": (kernel["inject"], "s"),
        "kernel.rank_s": (kernel["rank"], "s"),
        "kernel.arc_assign_s": (kernel["arc_assign"], "s"),
        "kernel.move_s": (kernel["move"], "s"),
        "kernel.deliver_s": (kernel["deliver"], "s"),
        "kernel.rank_share": (
            _share(kernel["rank"], kernel.values()),
            "ratio",
        ),
        "kernel.arc_assign_share": (
            _share(kernel["arc_assign"], kernel.values()),
            "ratio",
        ),
        "kernel.packet_steps": (packet_steps, "count"),
        "kernel.advance_ratio": (
            counts.get("advances", 0) / packet_steps if packet_steps else 0.0,
            "ratio",
        ),
        "kernel.buffered_run_s": (
            seconds(["campaign.execute"], kinds=["buffered"]),
            "s",
        ),
        "soa.vectorized.inject_s": (vector["inject"], "s"),
        "soa.vectorized.rank_s": (vector["rank"], "s"),
        "soa.vectorized.deliver_s": (vector["deliver"], "s"),
        "soa.vectorized.rank_share": (
            _share(vector["rank"], vector.values()),
            "ratio",
        ),
        "soa.pack_writeback_s": (seconds(["soa.run"]), "s"),
        "soa.columnar.rank_s": (column["rank"], "s"),
        "soa.columnar.arc_assign_s": (column["arc_assign"], "s"),
        "soa.columnar.move_s": (column["move"], "s"),
        "soa.columnar.rank_share": (
            _share(column["rank"], column.values()),
            "ratio",
        ),
        "dynamic.inject_s": (dynamic["inject"], "s"),
        "dynamic.inject_share": (
            _share(dynamic["inject"], dynamic.values()),
            "ratio",
        ),
        "dynamic.injected": (counts.get("dynamic.injected", 0), "count"),
        "dynamic.max_backlog": (
            counts.get("dynamic.max_backlog", 0),
            "count",
        ),
        "obs.on_summary_s": (seconds(["obs.on_summary"]), "s"),
        "obs.on_summary_calls": (tracer.number("obs.on_summary"), "count"),
        "obs.export_s": (seconds(["obs.export"]), "s"),
        "snapshot.capture_s": (
            seconds(["snapshot.capture", "snapshot.encode"]),
            "s",
        ),
        "snapshot.count": (tracer.number("snapshot.capture"), "count"),
        "snapshot.bytes": (counts.get("snapshot.bytes", 0), "bytes"),
        "campaign.resolve_s": (seconds(["campaign.resolve"]), "s"),
        "campaign.execute_s": (seconds(["campaign.execute"]), "s"),
        "campaign.serialize_s": (seconds(["campaign.serialize"]), "s"),
        "campaign.store_append_s": (seconds(["campaign.store_append"]), "s"),
        "campaign.replay_s": (seconds(["campaign.replay"]), "s"),
        "campaign.store_events": (
            counts.get("campaign.store_events", 0),
            "count",
        ),
        "campaign.store_bytes": (
            counts.get("campaign.store_bytes", 0),
            "bytes",
        ),
        "campaign.retries": (counts.get("campaign.retries", 0), "count"),
        "campaign.pool_efficiency": (
            _pool_efficiency(tracer),
            "ratio",
        ),
        "faults.guarded_run_s": (
            seconds(["campaign.execute"], kinds=["faulted"]),
            "s",
        ),
        "faults.dropped": (counts.get("faults.dropped", 0), "count"),
        "traced.cases_per_s": (cases_per_s, "cases/s"),
    }


def _pool_efficiency(tracer: Tracer) -> float:
    """Serial in-process case time over ``workers x`` pooled wall time."""
    pooled = tracer.total_seconds("campaign.run")
    workers = tracer.counts.get("campaign.workers", 0)
    if not pooled or not workers:
        return 0.0
    return tracer.total_seconds("campaign.execute") / (workers * pooled)
