"""Row-level records of a dynamic run, captured outside its statistics.

:class:`~repro.dynamic.stats.DynamicStats` keeps running aggregates
only.  Tests that pin a run step by step and delivery by delivery
attach :class:`RunRows` to a fresh engine instead:

* a summary observer (``needs_summaries=True``, ``needs_steps=False``,
  so both backends keep the lean loop) records one
  ``(step, generated, injected, in_flight, advancing, delivered,
  backlog)`` row per step;
* a spy around the kernel's per-step ``on_deliver`` records
  ``(generated_at, delivered_at, hops, deflections, shortest)`` for
  every delivered packet, before the engine's recorder pops its
  generation time, and checks the step's columns are aligned and in
  ascending id order.  ``shortest`` is the loop's own column: the
  object loop's ``mesh.distance``, the array kernel's table gather, so
  the backend differentials compare the two.

:func:`assert_stats_fold_rows` then holds the engine's statistics to
the rows: the aggregates must equal an independent fold of them, and
every summary must equal the list-based formula it replaced.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Tuple

from repro.core.events import RunObserver
from repro.dynamic import DynamicStats

#: (step, generated, injected, in_flight, advancing, delivered, backlog)
StepRow = Tuple[int, int, int, int, int, int, int]
#: (generated_at, delivered_at, hops, deflections, shortest)
DeliveryRow = Tuple[int, int, int, int, int]


class _StepRows(RunObserver):
    needs_steps = False
    needs_summaries = True

    def __init__(self, rows: List[StepRow]) -> None:
        self.rows = rows

    def on_summary(self, summary: Any) -> None:
        self.rows.append(
            (
                summary.step,
                summary.generated,
                summary.injected,
                summary.routed,
                summary.advancing,
                summary.delivered,
                summary.backlog,
            )
        )


class RunRows:
    """Both recorders, attached to one engine before its first run."""

    def __init__(self, engine: Any) -> None:
        self.warmup: int = engine.warmup
        self.steps: List[StepRow] = []
        self.deliveries: List[DeliveryRow] = []
        engine.observers.append(_StepRows(self.steps))
        kernel = engine._kernel
        recorder = kernel.on_deliver
        source = engine._source
        deliveries = self.deliveries

        def spy(
            ids: List[int],
            delivered_at: int,
            hops: List[int],
            deflections: List[int],
            shortest: List[int],
        ) -> None:
            assert ids, "a step that delivers nothing makes no call"
            assert len(hops) == len(deflections) == len(shortest) == len(ids)
            assert ids == sorted(set(ids)), "ascending, distinct ids"
            generated_at = source.generated_at
            for packet_id, hop_count, deflection_count, distance in zip(
                ids, hops, deflections, shortest
            ):
                deliveries.append(
                    (
                        generated_at[packet_id],
                        delivered_at,
                        hop_count,
                        deflection_count,
                        distance,
                    )
                )
            recorder(ids, delivered_at, hops, deflections, shortest)

        kernel.on_deliver = spy

    @property
    def counted(self) -> List[DeliveryRow]:
        """Deliveries of packets generated at or after the warm-up."""
        return [row for row in self.deliveries if row[0] >= self.warmup]

    @property
    def post_warmup_steps(self) -> List[StepRow]:
        return [row for row in self.steps if row[0] >= self.warmup]


def fold(rows: RunRows) -> Dict[str, Any]:
    """The aggregates :class:`DynamicStats` keeps, folded from rows."""
    counted = rows.counted
    post = rows.post_warmup_steps
    stretch_sum = 0.0
    stretch_count = 0
    for _, _, hops, _, shortest in counted:
        if shortest > 0:
            # A running sum in delivery order, as the engine keeps it
            # (sum() of floats is compensated from Python 3.12 on).
            stretch_sum += hops / shortest
            stretch_count += 1
    return {
        "delivered_count": len(counted),
        "latency_counts": dict(Counter(d[1] - d[0] for d in counted)),
        "latency_sum": sum(d[1] - d[0] for d in counted),
        "hop_sum": sum(d[2] for d in counted),
        "deflection_sum": sum(d[3] for d in counted),
        "stretch_sum": stretch_sum,
        "stretch_count": stretch_count,
        "in_flight_sum": sum(s[3] for s in post),
        "in_flight_samples": len(post),
        "max_backlog": max((s[6] for s in post), default=0),
        "recent_generated": [s[1] for s in rows.steps[-20:]],
    }


def _percentile(latencies: List[int], q: float) -> float:
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    index = min(
        len(ordered) - 1, max(0, round(q / 100 * (len(ordered) - 1)))
    )
    return float(ordered[index])


def assert_stats_fold_rows(stats: DynamicStats, rows: RunRows) -> None:
    """The engine's aggregates are the fold of the rows, and every
    summary equals its list-based formula over the rows."""
    expected = fold(rows)
    for name, value in expected.items():
        actual = getattr(stats, name)
        if name == "recent_generated":
            actual = list(actual)
        assert actual == value, name

    counted = rows.counted
    latencies = [d[1] - d[0] for d in counted]
    assert stats.delivered_count == len(counted)
    assert stats.mean_latency == (
        sum(latencies) / len(latencies) if latencies else 0.0
    )
    for q in (0, 1, 25, 50, 90, 99, 100):
        assert stats.latency_percentile(q) == _percentile(latencies, q), q
    count = expected["stretch_count"]
    assert stats.mean_stretch == (
        expected["stretch_sum"] / count if count else 1.0
    )
    hops = sum(d[2] for d in counted)
    assert stats.deflection_rate == (
        sum(d[3] for d in counted) / hops if hops else 0.0
    )
    assert stats.throughput == len(counted) / max(
        1, stats.horizon - stats.warmup
    )
    in_flight = [s[3] for s in rows.post_warmup_steps]
    assert stats.mean_in_flight == (
        sum(in_flight) / len(in_flight) if in_flight else 0.0
    )
    recent = [s[1] for s in rows.steps[-20:]]
    per_step = sum(recent) / len(recent) if recent else 0.0
    assert stats.is_stable() == (
        stats.final_backlog <= max(5.0, 5 * per_step)
    )


def run_rows(
    engine: Any, steps: int
) -> Tuple[List[StepRow], List[DeliveryRow], DynamicStats]:
    """Run a fresh ``engine`` for ``steps`` with :class:`RunRows`
    attached; its statistics must fold the rows.  Returns the step
    rows, every delivery row (warm-up included) and the statistics."""
    rows = RunRows(engine)
    stats = engine.run(steps)
    assert_stats_fold_rows(stats, rows)
    return rows.steps, rows.deliveries, stats
