"""Step records, per-step metrics, and run results.

The engine produces one :class:`StepRecord` per synchronous step.  The
record is the ground truth every analysis consumes: the potential
function updates, the Property 8 checker, the surface-arc counter and
all the validators read packet movements from it rather than keeping
private state, so they can also be replayed from a stored trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.packet import RestrictedType
from repro.mesh.directions import Direction
from repro.types import Node, PacketId, Step

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.report import RunAborted
    from repro.obs.telemetry import RunTelemetry


@dataclass(frozen=True)
class PacketStepInfo:
    """What one packet did during one step."""

    packet_id: PacketId
    node: Node
    destination: Node
    entry_direction: Optional[Direction]
    assigned_direction: Direction
    next_node: Node
    distance_before: int
    distance_after: int
    num_good: int
    restricted: bool
    restricted_type: RestrictedType

    @property
    def advanced(self) -> bool:
        """True when the step took the packet closer to its destination."""
        return self.distance_after < self.distance_before

    @property
    def deflected(self) -> bool:
        """True when the step took the packet away from its destination.

        On the mesh every hop changes the distance by exactly one, so a
        packet either advances or is deflected.
        """
        return not self.advanced


@dataclass(frozen=True)
class StepRecord:
    """Complete account of one synchronous step.

    Attributes:
        step: the step index ``t`` (the move happens from time ``t`` to
            time ``t + 1``).
        infos: movement info for every packet in flight during the step.
        delivered_after: packets whose move this step ended at their
            destination; they are absorbed at time ``t + 1``.
    """

    step: Step
    infos: Mapping[PacketId, PacketStepInfo]
    delivered_after: Tuple[PacketId, ...] = ()

    def node_groups(self) -> Dict[Node, List[PacketStepInfo]]:
        """Group the per-packet infos by the node they were routed at."""
        groups: Dict[Node, List[PacketStepInfo]] = {}
        for info in self.infos.values():
            groups.setdefault(info.node, []).append(info)
        for infos in groups.values():
            infos.sort(key=lambda i: i.packet_id)
        return groups

    @property
    def num_advancing(self) -> int:
        return sum(1 for info in self.infos.values() if info.advanced)

    @property
    def num_deflected(self) -> int:
        return sum(1 for info in self.infos.values() if info.deflected)


@dataclass(frozen=True)
class StepMetrics:
    """Aggregate statistics of one step, cheap enough to always collect."""

    step: Step
    in_flight: int
    advancing: int
    deflected: int
    delivered_total: int
    total_distance: int
    max_node_load: int
    bad_nodes: int
    packets_in_bad_nodes: int
    packets_in_good_nodes: int

    @property
    def b(self) -> int:
        """The paper's ``B(t)``: packets in bad nodes (Definition 9)."""
        return self.packets_in_bad_nodes

    @property
    def g(self) -> int:
        """The paper's ``G(t)``: packets in good nodes (Definition 9)."""
        return self.packets_in_good_nodes


@dataclass
class PacketOutcome:
    """Per-packet summary at the end of a run."""

    packet_id: PacketId
    source: Node
    destination: Node
    shortest_distance: int
    delivered_at: Optional[Step]
    hops: int
    advances: int
    deflections: int
    #: Step at which a fault event removed the packet, or None.
    dropped_at: Optional[Step] = None

    @property
    def delivered(self) -> bool:
        return self.delivered_at is not None

    @property
    def dropped(self) -> bool:
        return self.dropped_at is not None

    @property
    def stretch(self) -> Optional[float]:
        """Hops divided by shortest distance (1.0 means a shortest path).

        None for undelivered packets or zero-distance requests.
        """
        if self.delivered_at is None or self.shortest_distance == 0:
            return None
        return self.hops / self.shortest_distance


@dataclass
class RunResult:
    """Outcome of one simulation run.

    ``total_steps`` is the paper's running time: the number of steps
    that elapse until the last packet reaches its destination.  When
    ``completed`` is False the run hit its step limit with packets
    still in flight and ``total_steps`` is the limit.

    ``seed`` is the integer engine seed when one was given, or a
    reproducible ``"rng-state:..."`` digest when the caller handed the
    engine a ``random.Random`` instance (see
    :func:`repro.core.engine.describe_seed`).

    ``telemetry`` carries the run's lean-path counters
    (:class:`~repro.obs.telemetry.RunTelemetry`); identical whichever
    kernel loop ran, and ``None`` only for results deserialized from
    payloads that predate it.

    ``abort`` is the structured termination record
    (:class:`~repro.faults.report.RunAborted`) when a watchdog or step
    budget ended the run early; ``None`` for runs that drained
    normally.  ``completed`` is False whenever ``abort`` is set.
    """

    problem_name: str
    policy_name: str
    mesh_kind: str
    dimension: int
    side: int
    k: int
    completed: bool
    total_steps: int
    delivered: int
    step_metrics: List[StepMetrics] = field(default_factory=list)
    outcomes: List[PacketOutcome] = field(default_factory=list)
    records: Optional[List[StepRecord]] = None
    seed: Optional[Union[int, str]] = None
    telemetry: Optional["RunTelemetry"] = None
    abort: Optional["RunAborted"] = None

    @property
    def max_load_seen(self) -> int:
        """Largest per-node packet count observed during the run."""
        if not self.step_metrics:
            return 0
        return max(m.max_node_load for m in self.step_metrics)

    @property
    def total_deflections(self) -> int:
        """Deflections summed over packets.  A summary-level result
        (no outcomes) reads its telemetry's count, the same figure."""
        if not self.outcomes and self.telemetry is not None:
            return self.telemetry.deflections
        return sum(o.deflections for o in self.outcomes)

    @property
    def total_advances(self) -> int:
        return sum(o.advances for o in self.outcomes)

    @property
    def average_delivery_time(self) -> float:
        """Mean ``delivered_at`` over delivered packets (0 when none)."""
        times = [o.delivered_at for o in self.outcomes if o.delivered_at is not None]
        if not times:
            return 0.0
        return sum(times) / len(times)

    @property
    def average_stretch(self) -> float:
        """Mean path stretch over delivered positive-distance packets."""
        stretches = [o.stretch for o in self.outcomes if o.stretch is not None]
        if not stretches:
            return 1.0
        return sum(stretches) / len(stretches)

    @property
    def total_dropped(self) -> int:
        """Packets removed by fault events during the run."""
        return sum(1 for o in self.outcomes if o.dropped_at is not None)

    @property
    def undelivered_ids(self) -> List[PacketId]:
        """Ids of packets neither delivered nor dropped, ascending."""
        return sorted(
            o.packet_id
            for o in self.outcomes
            if o.delivered_at is None and o.dropped_at is None
        )

    def summary(self) -> str:
        """One-line result summary for tables and logs."""
        if self.completed:
            status = "ok"
        elif self.abort is None or self.abort.reason == "step-limit":
            status = "TIMEOUT"
        else:
            status = self.abort.reason.upper()
        return (
            f"{self.policy_name} on {self.problem_name}: "
            f"T={self.total_steps} ({status}), k={self.k}, "
            f"delivered={self.delivered}, "
            f"deflections={self.total_deflections}, "
            f"stretch={self.average_stretch:.2f}"
        )
