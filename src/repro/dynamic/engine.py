"""The dynamic (continuous-injection) hot-potato engine.

Extends the batch model of Section 2 to the operating mode of the
paper's motivating systems: every step, nodes *generate* new packets
(per a :class:`~repro.dynamic.injection.TrafficModel`), inject them
when they have spare capacity, and route everything hot-potato style
under an ordinary :class:`~repro.core.policy.RoutingPolicy`.

Injection discipline: a node may inject only as many packets as it has
free outgoing arcs after accounting for the packets already present
(otherwise the hot-potato rule — everyone leaves next step — would be
violated).  Generated packets that cannot be injected wait in a
source queue; their latency clock starts at *generation*, so source
queueing is part of measured latency, as in the deflection-network
literature.

The step loop is the shared :class:`~repro.core.kernel.StepKernel`,
driven by the shared :class:`~repro.core.chassis.EngineBase` and
configured with a
:class:`~repro.dynamic.sources.CapacityLimitedInjection` source,
sorted node order, and no entry-direction tracking (the historical
behavior of this engine; ``deflection="reverse"`` policies therefore
see no entry arc here, exactly as before).  Runs without step-consuming
observers use the kernel's lean loop; attach observers to get per-step
:class:`~repro.core.metrics.StepRecord`/:class:`StepMetrics` callbacks.
``on_run_end`` fires when :meth:`run` returns, carrying the finalized
:class:`~repro.dynamic.stats.DynamicStats` (there is no ``RunResult``
here).
"""

from __future__ import annotations

from typing import Deque, Dict, Tuple

from repro.dynamic.base import DynamicEngineBase
from repro.dynamic.injection import TrafficModel
from repro.dynamic.sources import CapacityLimitedInjection
from repro.types import Node


class DynamicEngine(DynamicEngineBase):
    """Hot-potato routing under continuous traffic.

    Args:
        mesh: the network.
        policy: any hot-potato routing policy (same interface as the
            batch engine; :meth:`RoutingPolicy.prepare` receives an
            empty batch problem).
        traffic: the demand process.
        seed: RNG seed shared by traffic and policy.
        warmup: steps excluded from steady-state statistics (packets
            *generated* before ``warmup`` are routed but not counted).
        observers: run observers.  Only observers that consume steps
            (``needs_steps``, the :class:`~repro.core.events.RunObserver`
            default) force the instrumented loop; run-boundary and
            summary observers keep the lean one.

    Call :meth:`run` with a horizon; the returned
    :class:`~repro.dynamic.stats.DynamicStats` carries latency,
    throughput, deflection-rate and backlog summaries (attach a
    :class:`~repro.obs.series.SeriesRecorder` for per-step series).
    """

    kind = "dynamic"

    def _make_source(
        self, traffic: TrafficModel
    ) -> CapacityLimitedInjection:
        return CapacityLimitedInjection(traffic)

    @property
    def backlog(self) -> Dict[Node, Deque[Tuple[int, Node]]]:
        """Pending (generated, not yet injected) demand per node."""
        return self._source.backlog
