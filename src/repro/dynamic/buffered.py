"""Store-and-forward under continuous traffic.

The direct counterpart of Maxemchuk's study the paper cites —
"Comparison of deflection and store and forward techniques" [Ma] —
needs both disciplines running under the same traffic.
:class:`BufferedDynamicEngine` is the buffered side: packets are
injected unconditionally into node queues (an
:class:`~repro.dynamic.sources.ImmediateInjection` source), each step
every node sends at most one packet per outgoing arc under a
:class:`~repro.core.policy.BufferedPolicy` (dimension-order by
default), and waiting happens *inside* the fabric — the queue
occupancy the hot-potato discipline exists to eliminate.

The step loop is the shared :class:`~repro.core.kernel.StepKernel`
(buffered semantics, sorted node order), driven by the shared
:class:`~repro.core.chassis.EngineBase`.  Statistics are the shared
:class:`~repro.dynamic.stats.DynamicStats`, so the two engines'
latency/throughput curves compare directly (benchmark E21).
"""

from __future__ import annotations

from repro.dynamic.base import DynamicEngineBase
from repro.dynamic.injection import TrafficModel
from repro.dynamic.sources import ImmediateInjection


class BufferedDynamicEngine(DynamicEngineBase):
    """Continuous-traffic store-and-forward simulator.

    Mirrors :class:`~repro.dynamic.engine.DynamicEngine`'s interface;
    differences are the routing discipline (queues instead of
    deflections) and the injection rule (always immediate — buffers
    absorb everything, so the *fabric* holds the congestion, and the
    source backlog is identically zero).
    """

    kind = "buffered-dynamic"
    buffered = True

    def _make_source(self, traffic: TrafficModel) -> ImmediateInjection:
        return ImmediateInjection(traffic)

    @property
    def max_queue_seen(self) -> int:
        """Largest single-node buffer occupancy observed: the
        telemetry's peak node load."""
        return self.telemetry.max_node_load
