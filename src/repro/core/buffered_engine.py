"""Store-and-forward engine for the structured baselines.

The paper contrasts hot-potato routing with traditional
store-and-forward routing, where "a packet is stored at a processor
until it can be transmitted to its preferred direction" (Section 1).
This engine implements that model: nodes have unbounded buffers, each
step a node may send at most one packet per outgoing arc, and packets
that cannot be sent simply wait.

It is the buffered configuration of the shared run driver,
:class:`~repro.core.chassis.BatchEngineBase`, and so of
:class:`~repro.core.kernel.StepKernel`: sorted node order, partial
assignments via :meth:`~repro.core.policy.BufferedPolicy.forward`, no
entry-direction tracking.  No validators run by default because
buffer occupancy legitimately exceeds node degree.  Step metrics
carry real per-step loads and bad-node counts (historically this
engine reported the cumulative buffer maximum and zeros there);
``RunResult.max_load_seen`` is unchanged by that, and
``RunResult.seed`` uses the shared
:func:`~repro.core.rng.describe_seed` convention.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Sequence

from repro.core.chassis import BatchEngineBase
from repro.core.events import RunObserver
from repro.core.kernel import PhaseSink
from repro.core.policy import BufferedPolicy
from repro.core.problem import RoutingProblem
from repro.core.rng import RngLike
from repro.core.validation import StepValidator
from repro.faults import FaultSchedule, RunWatchdog


class BufferedEngine(BatchEngineBase):
    """Synchronous store-and-forward simulator.

    The interface mirrors :class:`~repro.core.engine.HotPotatoEngine`
    (same driver, same arguments apart from ``record_steps``,
    ``record_paths`` and ``fast_path``) so experiment code can treat
    both uniformly, but the semantics differ: a
    :class:`~repro.core.policy.BufferedPolicy` returns a *partial*
    assignment and unassigned packets remain buffered.
    """

    kind = "buffered"
    buffered = True

    def __init__(
        self,
        problem: RoutingProblem,
        policy: BufferedPolicy,
        *,
        seed: RngLike = 0,
        validators: Sequence[StepValidator] = (),
        observers: Iterable[RunObserver] = (),
        max_steps: Optional[int] = None,
        raise_on_timeout: bool = False,
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
            validators=validators,
            observers=observers,
            max_steps=max_steps,
            raise_on_timeout=raise_on_timeout,
            profiler=profiler,
            faults=faults,
            watchdog=watchdog,
            backend=backend,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
        )

    @property
    def max_buffer_seen(self) -> int:
        """Largest per-node buffer occupancy observed (the cost the
        hot-potato discipline avoids): the telemetry's peak node load."""
        return self.telemetry.max_node_load
