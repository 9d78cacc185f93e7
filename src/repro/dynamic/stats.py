"""Steady-state statistics for dynamic runs.

Keeps exact sufficient statistics instead of per-step and per-delivery
rows, so a run's memory and checkpoints do not grow with its horizon.
A warm-up cutoff applies: deliveries of packets *generated* before the
warm-up step are routed but excluded from the statistics, and so are
the steps before it, the standard discipline for measuring stationary
behavior.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.report import RunAborted

#: Steps of generation :meth:`DynamicStats.is_stable` averages over.
RECENT_STEPS = 20


def _recent_window() -> Deque[int]:
    return deque(maxlen=RECENT_STEPS)


@dataclass
class DynamicStats:
    """Everything measured during a dynamic run, as running aggregates.

    Every summary is a function of these fields, each updated in place
    per step (:meth:`record_step`) and per step's deliveries
    (:meth:`record_deliveries`):

    * ``delivered_count`` and ``latency_counts`` (latency -> count),
      from which :meth:`latency_percentile` is exact;
    * ``latency_sum``, ``hop_sum`` and ``deflection_sum``;
    * ``stretch_sum`` over ``stretch_count`` deliveries with a nonzero
      shortest distance, a plain running float sum in delivery order;
    * ``in_flight_sum`` over ``in_flight_samples`` post-warm-up steps,
      and ``max_backlog``, the post-warm-up peak source backlog;
    * ``recent_generated``, the last :data:`RECENT_STEPS` steps'
      generated counts, for :meth:`is_stable`.

    What can still grow is ``latency_counts``: one entry per distinct
    latency.
    """

    warmup: int = 0
    delivered_count: int = 0
    latency_counts: Dict[int, int] = field(default_factory=dict)
    latency_sum: int = 0
    hop_sum: int = 0
    deflection_sum: int = 0
    stretch_sum: float = 0.0
    stretch_count: int = 0
    in_flight_sum: int = 0
    in_flight_samples: int = 0
    max_backlog: int = 0
    recent_generated: Deque[int] = field(default_factory=_recent_window)
    horizon: int = 0
    final_in_flight: int = 0
    final_backlog: int = 0
    #: Structured early-termination record when a watchdog ended the
    #: run before its requested horizon; None for runs that finished.
    abort: Optional["RunAborted"] = None

    # ------------------------------------------------------------------
    # Collection (called by the engine)
    # ------------------------------------------------------------------

    def record_step(
        self, step: int, generated: int, in_flight: int, backlog: int
    ) -> None:
        """Fold one step's counters in (``in_flight`` is the routed
        population, ``backlog`` the source backlog after injection)."""
        self.recent_generated.append(generated)
        if step < self.warmup:
            return
        self.in_flight_sum += in_flight
        self.in_flight_samples += 1
        if backlog > self.max_backlog:
            self.max_backlog = backlog

    def record_deliveries(
        self,
        generated_at: Sequence[int],
        delivered_at: int,
        hops: Sequence[int],
        deflections: Sequence[int],
        shortest: Sequence[int],
    ) -> None:
        """Fold one step's delivered packets in, as columns in delivery
        order (packets generated before the warm-up step are
        skipped)."""
        warmup = self.warmup
        counts = self.latency_counts
        for generated, hop_count, deflection_count, distance in zip(
            generated_at, hops, deflections, shortest
        ):
            if generated < warmup:
                continue
            latency = delivered_at - generated
            self.delivered_count += 1
            counts[latency] = counts.get(latency, 0) + 1
            self.latency_sum += latency
            self.hop_sum += hop_count
            self.deflection_sum += deflection_count
            if distance > 0:
                self.stretch_sum += hop_count / distance
                self.stretch_count += 1

    def finalize(
        self,
        horizon: int,
        in_flight: int,
        backlog: int,
        abort: Optional["RunAborted"] = None,
    ) -> None:
        self.horizon = horizon
        self.final_in_flight = in_flight
        self.final_backlog = backlog
        self.abort = abort

    # ------------------------------------------------------------------
    # Steady-state summaries
    # ------------------------------------------------------------------

    @property
    def mean_latency(self) -> float:
        """Mean generation-to-delivery latency over counted deliveries."""
        if not self.delivered_count:
            return 0.0
        return self.latency_sum / self.delivered_count

    def latency_percentile(self, q: float) -> float:
        """Latency percentile ``q`` in [0, 100] over counted deliveries:
        the latency at index ``round(q / 100 * (count - 1))`` of the
        sorted latencies, read off the histogram."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        count = self.delivered_count
        if not count:
            return 0.0
        index = min(count - 1, max(0, round(q / 100 * (count - 1))))
        seen = 0
        for latency in sorted(self.latency_counts):
            seen += self.latency_counts[latency]
            if seen > index:
                return float(latency)
        raise AssertionError("latency histogram disagrees with its count")

    @property
    def mean_stretch(self) -> float:
        """Mean hops / shortest-distance over counted deliveries."""
        if not self.stretch_count:
            return 1.0
        return self.stretch_sum / self.stretch_count

    @property
    def deflection_rate(self) -> float:
        """Fraction of hops that were deflections, over deliveries."""
        if self.hop_sum == 0:
            return 0.0
        return self.deflection_sum / self.hop_sum

    @property
    def throughput(self) -> float:
        """Counted deliveries per post-warm-up step."""
        effective = max(1, self.horizon - self.warmup)
        return self.delivered_count / effective

    @property
    def mean_in_flight(self) -> float:
        """Average network population after warm-up."""
        if not self.in_flight_samples:
            return 0.0
        return self.in_flight_sum / self.in_flight_samples

    def is_stable(self) -> bool:
        """Heuristic saturation check: the backlog at the end of the
        run is no larger than a few steps' worth of generation."""
        recent = self.recent_generated
        per_step = sum(recent) / len(recent) if recent else 0.0
        return self.final_backlog <= max(5.0, 5 * per_step)

    def summary(self) -> str:
        return (
            f"deliveries={self.delivered_count} "
            f"latency(mean/p50/p99)={self.mean_latency:.1f}/"
            f"{self.latency_percentile(50):.0f}/"
            f"{self.latency_percentile(99):.0f} "
            f"stretch={self.mean_stretch:.2f} "
            f"deflect={self.deflection_rate:.3f} "
            f"throughput={self.throughput:.2f}/step "
            f"backlog(max/final)={self.max_backlog}/{self.final_backlog}"
        )
