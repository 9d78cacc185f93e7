"""Opt-in per-phase wall-clock profiler for the step kernel.

:class:`PhaseProfiler` satisfies the kernel's
:class:`~repro.core.kernel.PhaseSink` protocol: it supplies the clock
(:func:`repro.obs.clock.perf_ns` — the kernel itself owns no clock,
keeping DET106 happy) and accumulates nanoseconds per pipeline phase
(*inject → rank → arc-assign → move → deliver*) as
:meth:`~repro.core.kernel.StepKernel.run_lean` (or the array kernel)
reports each step.  Timing is additive bookkeeping only: handing the
loop a sink changes no routing decision, so results stay
bit-identical.

Phase meanings (object loop):

* ``inject`` — injection-source admission (zero work for batch runs),
  after the fault phase when the kernel has one.
* ``rank`` — grouping packets by node plus the per-node view and
  policy decision (``assign``/``forward``), the part the paper's
  priority schemes make interesting.
* ``arc_assign`` — the rest of the node loop: load statistics,
  validating the policy's output, setting the hot-potato step flags
  and staging moves.
* ``move`` — applying moves and distance bookkeeping, plus the
  destination test that splits arrivals from packets still in flight.
* ``deliver`` — stamping the arrivals and the delivery callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping

from repro.obs.clock import perf_ns

__all__ = ["PHASES", "PhaseProfiler"]

#: Pipeline phases in execution order; keys everywhere phases appear.
PHASES = ("inject", "rank", "arc_assign", "move", "deliver")


@dataclass(slots=True)
class PhaseProfiler:
    """Accumulated nanoseconds per kernel pipeline phase."""

    steps: int = 0
    inject_ns: int = 0
    rank_ns: int = 0
    arc_assign_ns: int = 0
    move_ns: int = 0
    deliver_ns: int = 0

    def clock(self) -> int:
        """The timestamp source the profiled kernel loop reads."""
        return perf_ns()

    def record_step(
        self,
        inject: int,
        rank: int,
        arc_assign: int,
        move: int,
        deliver: int,
    ) -> None:
        """Add one step's per-phase durations (nanoseconds)."""
        self.steps += 1
        self.inject_ns += inject
        self.rank_ns += rank
        self.arc_assign_ns += arc_assign
        self.move_ns += move
        self.deliver_ns += deliver

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def totals(self) -> Dict[str, int]:
        """Nanoseconds per phase, keyed by :data:`PHASES` names."""
        return {
            "inject": self.inject_ns,
            "rank": self.rank_ns,
            "arc_assign": self.arc_assign_ns,
            "move": self.move_ns,
            "deliver": self.deliver_ns,
        }

    @property
    def total_ns(self) -> int:
        """Nanoseconds across all phases."""
        return (
            self.inject_ns
            + self.rank_ns
            + self.arc_assign_ns
            + self.move_ns
            + self.deliver_ns
        )

    def shares(self) -> Dict[str, float]:
        """Fraction of total time per phase (all zero on an empty run)."""
        total = self.total_ns
        if total == 0:
            return {phase: 0.0 for phase in PHASES}
        return {
            phase: duration / total
            for phase, duration in self.totals().items()
        }

    def merge(self, other: "PhaseProfiler") -> None:
        """Fold another profile into this one (everything adds)."""
        self.steps += other.steps
        self.inject_ns += other.inject_ns
        self.rank_ns += other.rank_ns
        self.arc_assign_ns += other.arc_assign_ns
        self.move_ns += other.move_ns
        self.deliver_ns += other.deliver_ns

    def to_dict(self) -> Dict[str, int]:
        """Manifest payload: step count plus per-phase nanoseconds."""
        return {
            "steps": self.steps,
            "inject_ns": self.inject_ns,
            "rank_ns": self.rank_ns,
            "arc_assign_ns": self.arc_assign_ns,
            "move_ns": self.move_ns,
            "deliver_ns": self.deliver_ns,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PhaseProfiler":
        """Inverse of :meth:`to_dict`; rejects unknown or non-int keys."""
        known = {
            "steps",
            "inject_ns",
            "rank_ns",
            "arc_assign_ns",
            "move_ns",
            "deliver_ns",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown profiler fields: {sorted(unknown)}")
        values: Dict[str, int] = {}
        for name, value in data.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(
                    f"profiler field {name!r} must be an int, got {value!r}"
                )
            values[name] = value
        return cls(**values)

    def format_table(self) -> str:
        """A fixed-width phase-time table (the ``repro profile`` view)."""
        total = self.total_ns
        lines = [
            f"{'phase':<12} {'time (ms)':>12} {'share':>8}",
            "-" * 34,
        ]
        for phase, duration in self.totals().items():
            share = duration / total if total else 0.0
            lines.append(
                f"{phase:<12} {duration / 1e6:>12.3f} {share:>7.1%}"
            )
        lines.append("-" * 34)
        per_step = total / self.steps if self.steps else 0.0
        lines.append(
            f"{'total':<12} {total / 1e6:>12.3f} {'':>8}  "
            f"({self.steps} steps, {per_step / 1e3:.1f} us/step)"
        )
        return "\n".join(lines)
