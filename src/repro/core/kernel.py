"""The shared synchronous step kernel.

Every engine in the library executes the same per-step pipeline —
*inject → rank → arc-assign → move → deliver* — and the paper's
potential arguments (Theorem 17 in particular) are agnostic to which
engine runs it.  :class:`StepKernel` owns the one canonical
implementation of that pipeline; the four public engines
(:class:`~repro.core.engine.HotPotatoEngine`,
:class:`~repro.core.buffered_engine.BufferedEngine`,
:class:`~repro.dynamic.engine.DynamicEngine`,
:class:`~repro.dynamic.buffered.BufferedDynamicEngine`) are thin
configurations of it, driven by the one run driver in
:mod:`repro.core.chassis`.

The kernel has two code paths with identical observable semantics:

* :meth:`StepKernel.run_lean` — the zero-observer main loop (formerly
  ``HotPotatoEngine._run_fast``): no :class:`StepRecord`/
  :class:`PacketStepInfo` construction, packet distances tracked
  incrementally, neighbor lookups served from the mesh's precomputed
  per-node arc tables.  The same loop runs the fault phase and the
  watchdog when they are configured, and times its phases when handed
  a :class:`PhaseSink`.
* :meth:`StepKernel.step_instrumented` — one step that builds the full
  :class:`StepRecord`, runs validators per node, and returns a
  :class:`StepSummary`, for anything that layers on top (trace capture,
  potential accounting, protocol validation).  It is the per-step
  reference the differential tests compare the lean loop against.

Everything that used to be a baked-in difference between engines is a
constructor knob:

* ``buffered`` — store-and-forward semantics: the policy's
  :meth:`~repro.core.policy.BufferedPolicy.forward` may return a
  *partial* assignment and unassigned packets wait in place.
* ``node_order`` — ``"insertion"`` visits occupied nodes in first-seen
  packet order (the batch hot-potato engine's historical order),
  ``"sorted"`` visits them in sorted node order (the buffered and
  dynamic engines' historical order).  The order is part of the
  deterministic contract: policies with private RNG streams consume
  them per node visit, so changing it changes runs.
* ``injection`` — an :class:`InjectionSource` that feeds new packets in
  at the top of every step (the dynamic engines); ``None`` for batch.
* ``set_entry_direction`` — whether moves record the entry arc on the
  packet.  The batch hot-potato engine always did; the dynamic engines
  historically never did, and policies with ``deflection="reverse"``
  read the field, so this stays configurable to preserve results.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections import defaultdict
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

from repro.core.metrics import (
    PacketOutcome,
    PacketStepInfo,
    RunResult,
    StepMetrics,
    StepRecord,
)
from repro.core.node_view import NodeView
from repro.core.packet import Packet
from repro.core.policy import Assignment, BufferedPolicy, RoutingPolicy
from repro.core.problem import RoutingProblem
from repro.core.validation import CapacityValidator, StepValidator
from repro.exceptions import ArcAssignmentError
from repro.mesh.directions import Direction
from repro.mesh.topology import Mesh
from repro.types import Node, PacketId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.report import RunAborted
    from repro.faults.state import ActiveFaults
    from repro.faults.watchdog import RunWatchdog
    from repro.obs.telemetry import RunTelemetry

AnyPolicy = Union[RoutingPolicy, BufferedPolicy]

#: Per-packet pending move: (next node, direction, advanced).
_PendingMove = Tuple[Node, Direction, bool]


def default_step_limit(problem: RoutingProblem) -> int:
    """A generous default step budget, shared by all batch engines.

    Greedy algorithms on meshes are known to finish within
    ``2(k - 1) + d_max`` steps ([BTS], discussed in Section 6.1); the
    default allows eight times that plus slack so that a timeout
    genuinely signals something wrong (or an intentional livelock).
    """
    return max(256, 8 * (2 * problem.k + problem.d_max) + 64)


@dataclass(frozen=True)
class StepSummary:
    """Everything one kernel step produced, engine-agnostically.

    The batch engines convert summaries to
    :class:`~repro.core.metrics.StepMetrics`; the dynamic engines fold
    them into :class:`~repro.dynamic.stats.DynamicStats`.  ``moved``
    equals ``routed`` under hot-potato semantics and may be smaller
    under buffered semantics (unassigned packets wait).
    """

    step: int
    generated: int
    injected: int
    routed: int
    moved: int
    advancing: int
    delivered: int
    delivered_total: int
    total_distance: int
    max_node_load: int
    bad_nodes: int
    packets_in_bad_nodes: int
    backlog: int
    #: Packets removed by fault events this step (0 without faults).
    dropped: int = 0


def step_metrics_from_summary(summary: StepSummary) -> StepMetrics:
    """The batch engines' :class:`StepMetrics` view of a step."""
    return StepMetrics(
        step=summary.step,
        in_flight=summary.routed,
        advancing=summary.advancing,
        deflected=summary.moved - summary.advancing,
        delivered_total=summary.delivered_total,
        total_distance=summary.total_distance,
        max_node_load=summary.max_node_load,
        bad_nodes=summary.bad_nodes,
        packets_in_bad_nodes=summary.packets_in_bad_nodes,
        packets_in_good_nodes=summary.routed - summary.packets_in_bad_nodes,
    )


def metrics_emitter(
    metrics: List[StepMetrics],
    sinks: List[Callable[[StepSummary], None]],
) -> Callable[[StepSummary], None]:
    """The batch engines' per-step ``emit``: append the step's
    :class:`StepMetrics` to ``metrics``, then feed every summary sink.

    A closure over the engine's lists rather than a bound method, so
    the kernel holds no reference back to its engine and a dropped
    engine is freed by reference counting alone.  The engine must
    update both lists in place.
    """
    append = metrics.append

    def emit(summary: StepSummary) -> None:
        append(step_metrics_from_summary(summary))
        for sink in sinks:
            sink(summary)

    return emit


#: What :meth:`InjectionSource.admit_batch` returns for one step:
#: ``(generated, ids, sources, destinations)``, the admitted packets as
#: rows in ascending id order, nodes as indices in ``mesh.nodes()``
#: order.
AdmittedRows = Tuple[int, List[PacketId], List[int], List[int]]

#: The kernel's delivery callback: one step's deliveries as columns in
#: ascending id order, ``(ids, delivered_at, hops, deflections,
#: shortest)``; ``delivered_at`` is the kernel's clock, ``shortest``
#: each packet's source-to-destination distance.
OnDeliver = Callable[
    [List[PacketId], int, List[int], List[int], List[int]], None
]


class InjectionSource(ABC):
    """Feeds new packets into a kernel run (the dynamic engines).

    Implementations own the demand process and the packet-id counter.
    They admit packets as rows (:meth:`admit_batch`), which the array
    kernel appends to its columns as they are; the object loops call
    :meth:`admit`, which builds a ``Packet`` per row.  Nodes are
    numbered in ``mesh.nodes()`` order, the order of the mesh's arc
    tables.  Concrete sources live in :mod:`repro.dynamic.sources` —
    the core layer defines the interface so it never imports the
    dynamic layer.
    """

    #: Generation step of every injected packet still in the network.
    #: Delivery pops a packet's entry (the latency clock starts at
    #: generation); the fault phase forgets the entries of the packets
    #: it drops.
    generated_at: Dict[PacketId, int]
    #: The mesh's nodes in ``mesh.nodes()`` order and each one's
    #: index, set by :meth:`prepare`.
    _nodes: List[Node]
    _index: Dict[Node, int]

    def prepare(self, mesh: Mesh, rng: random.Random) -> None:
        """Called once before the first step."""

    @abstractmethod
    def admit_batch(self, time: int, loads: Sequence[int]) -> AdmittedRows:
        """Generate demand for ``time`` and admit what fits.

        ``loads[i]`` is the number of packets at node index ``i``
        before injection.  Returns the step's generated count and the
        admitted packets as rows (see :data:`AdmittedRows`); each
        admitted packet starts at its source with no step history.
        """

    def admit(self, time: int, in_flight: List[Packet]) -> Tuple[int, int]:
        """The object loops' inject phase: :meth:`admit_batch` against
        the loads of ``in_flight``, one ``Packet`` per admitted row
        appended to it (the kernel seeds their distance bookkeeping
        from the list tail).  Returns ``(generated, injected)``."""
        nodes = self._nodes
        index = self._index
        loads = [0] * len(nodes)
        for packet in in_flight:
            loads[index[packet.location]] += 1
        generated, ids, sources, destinations = self.admit_batch(time, loads)
        in_flight.extend(
            Packet(id=packet_id, source=nodes[at], destination=nodes[to])
            for packet_id, at, to in zip(ids, sources, destinations)
        )
        return generated, len(ids)

    def backlog_size(self) -> int:
        """Packets generated but not yet injected (0 when unbuffered)."""
        return 0


def deliver_columns(
    on_deliver: OnDeliver,
    packets: List[Packet],
    now: int,
    distance: Callable[[Node, Node], int],
) -> None:
    """The object loops' delivery call: one step's absorbed ``packets``
    (in ``in_flight`` order, so ascending id) as columns."""
    on_deliver(
        [packet.id for packet in packets],
        now,
        [packet.hops for packet in packets],
        [packet.deflections for packet in packets],
        [distance(packet.source, packet.destination) for packet in packets],
    )


def lean_equivalent(
    validators: Sequence[StepValidator],
    observers: Sequence[object],
    record_steps: bool,
) -> bool:
    """True when :meth:`StepKernel.run_lean` is observably identical to
    repeated instrumented steps: nobody consumes the per-step records
    (no recording, no step-consuming observers) and no validator beyond
    the capacity check runs.  Observers that declare
    ``needs_steps = False`` (run-boundary consumers like
    :class:`~repro.obs.manifest.JsonlRunLogger`) do not disqualify the
    lean loop — they only see ``on_run_start``/``on_run_end``, which
    the engines fire on both paths.  The capacity check itself can
    never fire on a validated problem — arrivals are bounded by
    in-degree — and an inconsistent assignment is re-raised through the
    strict checker, so the lean loop surfaces the exact
    instrumented-loop errors."""
    return (
        not record_steps
        and all(not getattr(o, "needs_steps", True) for o in observers)
        and all(type(v) is CapacityValidator for v in validators)
    )


class PhaseSink(Protocol):
    """Where :meth:`StepKernel.run_lean` (and the array kernel's loops)
    read their clock and write per-step phase durations.  A loop given
    no sink reads no clock.

    The kernel deliberately owns no clock: wall time in engine code is
    a determinism hazard (lint rule DET106), so the concrete sink —
    :class:`repro.obs.profiler.PhaseProfiler` — supplies the timestamp
    source from the sanctioned :mod:`repro.obs.clock` module and the
    kernel only does arithmetic on the integers it returns.
    """

    def clock(self) -> int:
        """A monotonic nanosecond timestamp."""
        ...

    def record_step(
        self,
        inject: int,
        rank: int,
        arc_assign: int,
        move: int,
        deliver: int,
    ) -> None:
        """Accumulate one step's per-phase durations (nanoseconds).
        A faulted run's fault phase counts as ``inject``."""
        ...


class StepKernel:
    """One synchronous routing loop, configured per engine.

    The kernel owns the mutable simulation state — ``time``,
    ``in_flight``, the cumulative delivery count and the incremental
    per-packet distance table — while the engine that wraps it owns
    run-level concerns: policy preparation, result construction,
    observers, timeout policy, statistics.

    Args:
        mesh: the network.
        policy: a :class:`~repro.core.policy.RoutingPolicy` (with
            ``buffered=False``) or :class:`BufferedPolicy` (``True``).
        buffered: store-and-forward semantics (partial assignments,
            waiting allowed, no per-packet step flags).
        node_order: ``"insertion"`` or ``"sorted"`` (see module docs).
        injection: optional per-step packet source (dynamic engines).
        set_entry_direction: record each move's arc on the packet.
        record_paths: append each move to ``packet.path``.
        emit: per-step :class:`StepSummary` sink used by the lean loop
            (the instrumented step *returns* its summary instead).
        on_deliver: called once per step that absorbs packets, with
            the step's deliveries as columns (see :data:`OnDeliver`;
            the dynamic engines record latency statistics here).
            Engines pass closures over their own state for both
            callbacks, never their bound methods, so engine and kernel
            form no reference cycle.
        telemetry: optional :class:`~repro.obs.telemetry.RunTelemetry`
            that every loop feeds each step's :class:`StepSummary`
            (:meth:`~repro.obs.telemetry.RunTelemetry.note_summary`),
            so the counters are bit-identical on all paths.
        faults: optional :class:`~repro.faults.state.ActiveFaults`.
            When set, every step starts with the fault phase (mask
            advance + packet drops) and routing consults the masked
            mesh view.  ``None`` skips the fault phase — the no-fault
            runs stay bit-identical to before.
        watchdog: optional :class:`~repro.faults.watchdog.RunWatchdog`
            checked at the top of every step by the run loops; a
            verdict lands in :attr:`abort` and the loop exits.
    """

    def __init__(
        self,
        mesh: Mesh,
        policy: AnyPolicy,
        *,
        buffered: bool = False,
        node_order: str = "insertion",
        injection: Optional[InjectionSource] = None,
        set_entry_direction: bool = True,
        record_paths: bool = False,
        emit: Optional[Callable[[StepSummary], None]] = None,
        on_deliver: Optional[OnDeliver] = None,
        telemetry: Optional["RunTelemetry"] = None,
        faults: Optional["ActiveFaults"] = None,
        watchdog: Optional["RunWatchdog"] = None,
    ) -> None:
        if node_order not in ("insertion", "sorted"):
            raise ValueError(
                f"node_order must be 'insertion' or 'sorted', "
                f"got {node_order!r}"
            )
        if buffered and not hasattr(policy, "forward"):
            raise TypeError(
                f"buffered kernel needs a BufferedPolicy with .forward(); "
                f"got {type(policy).__name__}"
            )
        if not buffered and not hasattr(policy, "assign"):
            raise TypeError(
                f"hot-potato kernel needs a RoutingPolicy with .assign(); "
                f"got {type(policy).__name__}"
            )
        self.mesh = mesh
        self.policy = policy
        self.buffered = buffered
        self.sorted_order = node_order == "sorted"
        self.injection = injection
        self.set_entry_direction = set_entry_direction
        self.record_paths = record_paths
        self.emit = emit
        self.on_deliver = on_deliver
        self.telemetry = telemetry
        self.faults = faults
        self.watchdog = watchdog
        #: Set by a watchdog verdict; run loops exit when it appears.
        self.abort: Optional["RunAborted"] = None

        self.time = 0
        self.in_flight: List[Packet] = []
        self.delivered_total = 0
        self._dist: Dict[PacketId, int] = {}

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def seed_packets(
        self,
        packets: Iterable[Packet],
        distances: Sequence[int],
        delivered_total: int = 0,
    ) -> None:
        """Install the initial in-flight population (batch engines).

        ``distances`` gives each packet's distance by packet id: the
        problem's :attr:`~repro.core.problem.RoutingProblem.distances`,
        the packets still being at their sources.  ``delivered_total``
        carries zero-distance requests the engine absorbed at time 0,
        so cumulative delivery counts include them.
        """
        self.in_flight = list(packets)
        self.delivered_total = delivered_total
        self._dist = {p.id: distances[p.id] for p in self.in_flight}

    def _decide(self) -> Callable[[NodeView], Assignment]:
        """The per-node decision function for this discipline."""
        if self.buffered:
            assert isinstance(self.policy, BufferedPolicy)
            return self.policy.forward
        assert isinstance(self.policy, RoutingPolicy)
        return self.policy.assign

    def _admit(self) -> Tuple[int, int, int]:
        """Run the injection phase; returns (generated, injected, backlog)."""
        source = self.injection
        if source is None:
            return 0, 0, 0
        before = len(self.in_flight)
        generated, injected = source.admit(self.time, self.in_flight)
        if injected:
            distance = self.mesh.distance
            dist = self._dist
            for packet in self.in_flight[before:]:
                dist[packet.id] = distance(packet.location, packet.destination)
        return generated, injected, source.backlog_size()

    def _apply_faults(self) -> int:
        """The fault phase: advance the mask, remove this step's victims.

        Runs at the very top of a step, before injection, on both the
        lean loop and the instrumented step.  Victim selection
        (packets at failed nodes, plus scheduled drop events, lowest
        ids first) is delegated to
        :meth:`~repro.faults.state.ActiveFaults.select_drops`; this
        method applies the removal to the kernel's state and to the
        injection source's generation table.  Returns the number of
        packets dropped.
        """
        faults = self.faults
        if faults is None:
            return 0
        faults.advance(self.time)
        victims = faults.select_drops(self.time, self.in_flight)
        if not victims:
            return 0
        victim_ids = {p.id for p in victims}
        self.in_flight = [
            p for p in self.in_flight if p.id not in victim_ids
        ]
        dist = self._dist
        now = self.time
        source = self.injection
        for packet in victims:
            packet.dropped_at = now
            del dist[packet.id]
            faults.dropped_ids.append(packet.id)
            if source is not None:
                # Never delivered, so nothing else forgets it.
                del source.generated_at[packet.id]
        return len(victims)

    # ------------------------------------------------------------------
    # The lean loop (formerly HotPotatoEngine._run_fast)
    # ------------------------------------------------------------------

    def run_lean(
        self, until: int, profiler: Optional[PhaseSink] = None
    ) -> None:
        """Run steps until ``time == until`` with zero instrumentation.

        Semantically identical to repeated :meth:`step_instrumented`
        calls (same packet outcomes, same :class:`StepSummary` values,
        same policy RNG stream) but with the per-step allocation churn
        stripped out: no :class:`PacketStepInfo`/:class:`StepRecord`
        objects, packet distances tracked incrementally where the mesh
        guarantees the ±1-per-hop invariant (``Mesh.unit_deflections``;
        a good hop is always exactly -1, but e.g. an odd-side torus
        deflection can leave the wrapped distance unchanged, so those
        meshes recompute after deflections), and neighbor lookups
        served from the mesh's precomputed per-node arc tables.
        Delivery is decided by destination comparison — never by the
        distance counter.

        Batch kernels (no injection) stop early once ``in_flight``
        drains; injecting kernels run the full horizon.

        With faults or a watchdog configured, every step also runs the
        guarded phases:

        * a watchdog check at the top of the step (a verdict lands in
          :attr:`abort` and the loop exits);
        * the fault phase (:meth:`_apply_faults`) before injection;
        * graceful degradation while something is down
          (:meth:`_hold_excess`, :meth:`_hold_down_forwards`); a
          pristine mask keeps the strict pigeonhole error.

        Routing then consults the masked mesh view, so policies never
        see a down arc.  With an empty schedule the masked tables *are*
        the base tables — the chaos-differential suite pins that
        bit-identity.

        With a ``profiler`` the loop reads its clock around each
        pipeline phase and reports the step's durations; routing is
        unchanged (the profiled differential pins profiled == plain ==
        instrumented).  Without any of the three, a step pays one
        ``is not None`` test each for the watchdog and the faults, a
        few for the clock, and two per visited node.
        """
        faults = self.faults
        watchdog = self.watchdog
        mesh = self.mesh
        mesh_v = faults.view if faults is not None else mesh
        dimension = mesh.dimension
        node_arcs = mesh_v.node_arcs
        unit_deflections = mesh.unit_deflections
        distance = mesh.distance
        decide = self._decide()
        buffered = self.buffered
        sorted_order = self.sorted_order
        set_entry = self.set_entry_direction
        record_paths = self.record_paths
        emit = self.emit
        on_deliver = self.on_deliver
        stop_when_empty = self.injection is None
        dist = self._dist
        tel = self.telemetry
        clock = profiler.clock if profiler is not None else None

        while self.time < until:
            if stop_when_empty and not self.in_flight:
                break
            if watchdog is not None:
                verdict = watchdog.check(self)
                if verdict is not None:
                    self.abort = verdict
                    break
            t_start = clock() if clock is not None else 0
            dropped_now = self._apply_faults()
            degrade = faults is not None and faults.anything_down
            generated, injected, backlog = self._admit()
            t_injected = clock() if clock is not None else 0
            step_index = self.time
            groups: Dict[Node, List[Packet]] = defaultdict(list)
            for packet in self.in_flight:
                groups[packet.location].append(packet)
            routed = len(self.in_flight)

            # Phase 1 — per-node decisions.  The visit order (insertion
            # vs. sorted, see the class docs) must stay in lockstep with
            # step_instrumented so both paths consume any policy RNG
            # identically.
            pending: Dict[PacketId, _PendingMove] = {}
            advancing = 0
            total_distance = 0
            max_load = 0
            bad_nodes = 0
            packets_in_bad = 0
            node_items: Iterable[Tuple[Node, List[Packet]]] = (
                [(node, groups[node]) for node in sorted(groups)]
                if sorted_order
                else groups.items()
            )
            t_grouped = clock() if clock is not None else 0
            decide_ns = 0
            # No pre-assign capacity raise here: under hot-potato rules
            # a load above the node's degree makes a consistent
            # assignment impossible (pigeonhole), so the bad-assignment
            # fallback below raises the same ArcAssignmentError the
            # instrumented loop would — after the policy ran, with the
            # same RNG consumption.
            for node, packets in node_items:
                load = len(packets)
                arcs = node_arcs(node)
                if load > max_load:
                    max_load = load
                if load > dimension:
                    bad_nodes += 1
                    packets_in_bad += load
                if clock is not None:
                    t_node = clock()
                view = NodeView(mesh_v, node, step_index, packets)
                if degrade and not buffered and load > arcs.degree:
                    # Waiting packets still count toward the total
                    # distance; the assignment must cover the rest.
                    for packet in view.packets[arcs.degree:]:
                        total_distance += dist[packet.id]
                    view = self._hold_excess(view, arcs.degree)
                    load = arcs.degree
                    if not load:
                        continue
                assignment = decide(view)
                if clock is not None:
                    decide_ns += clock() - t_node
                by_direction = arcs.by_direction
                good_map = view.good
                seen = set()
                if buffered:
                    if degrade:
                        assignment = self._hold_down_forwards(
                            node, assignment
                        )
                    for packet_id, direction in assignment.items():
                        next_node = by_direction.get(direction)
                        if (
                            packet_id not in good_map
                            or direction in seen
                            or next_node is None
                        ):
                            # Rebuild through the strict checker so the
                            # error matches the instrumented path.
                            self.build_infos(view, assignment)
                            raise ArcAssignmentError(
                                f"step {step_index}: inconsistent buffered "
                                f"assignment at {node} (kernel check)"
                            )
                        seen.add(direction)
                        advanced = direction in good_map[packet_id]
                        pending[packet_id] = (next_node, direction, advanced)
                        if advanced:
                            advancing += 1
                    for packet in view.packets:
                        total_distance += dist[packet.id]
                else:
                    for packet in view.packets:
                        direction = assignment.get(packet.id)
                        next_node = (
                            by_direction.get(direction)
                            if direction is not None
                            else None
                        )
                        if (
                            direction is None
                            or direction in seen
                            or next_node is None
                            or len(assignment) != load
                        ):
                            # Bad policy output: rebuild through the
                            # strict checker so the error matches the
                            # instrumented path.
                            self.build_infos(view, assignment)
                            raise ArcAssignmentError(
                                f"step {step_index}: inconsistent assignment "
                                f"at {node} (kernel fast-path check)"
                            )
                        seen.add(direction)
                        good = good_map[packet.id]
                        advanced = direction in good
                        pending[packet.id] = (next_node, direction, advanced)
                        # The step flags are only read by the next
                        # step's views, so they can be set here.
                        packet.restricted_last_step = len(good) == 1
                        packet.advanced_last_step = advanced
                        if advanced:
                            advancing += 1
                        total_distance += dist[packet.id]
            t_assigned = clock() if clock is not None else 0

            # Phase 2 — move, in in_flight order, so delivery order and
            # the next step's grouping are identical to the
            # instrumented path.  Packets absent from ``pending`` wait
            # in place.
            self.time += 1
            now = self.time
            remaining: List[Packet] = []
            arrived: List[Packet] = []
            pending_get = pending.get
            for packet in self.in_flight:
                entry = pending_get(packet.id)
                if entry is None:
                    at = packet.location
                else:
                    at, direction, advanced = entry
                    packet.location = at
                    if set_entry:
                        packet.entry_direction = direction
                    packet.hops += 1
                    if advanced:
                        # A good hop reduces the distance by exactly
                        # one (Definition 5), on every mesh kind.
                        packet.advances += 1
                        dist[packet.id] -= 1
                    else:
                        packet.deflections += 1
                        if unit_deflections:
                            dist[packet.id] += 1
                        else:
                            # E.g. odd-side torus: a bad hop out of a
                            # maximal per-axis offset leaves the wrapped
                            # distance unchanged, so recompute exactly.
                            dist[packet.id] = distance(
                                at, packet.destination
                            )
                    if record_paths:
                        packet.path.append(at)
                if at == packet.destination:
                    arrived.append(packet)
                else:
                    remaining.append(packet)
            t_moved = clock() if clock is not None else 0

            # Deliver the arrivals, still in in_flight order.
            for packet in arrived:
                packet.delivered_at = now
                del dist[packet.id]
            if arrived and on_deliver is not None:
                deliver_columns(on_deliver, arrived, now, distance)
            self.in_flight = remaining
            delivered_count = len(arrived)
            self.delivered_total += delivered_count
            if profiler is not None:
                profiler.record_step(
                    t_injected - t_start,
                    t_grouped - t_injected + decide_ns,
                    t_assigned - t_grouped - decide_ns,
                    t_moved - t_assigned,
                    profiler.clock() - t_moved,
                )

            summary = StepSummary(
                step=step_index,
                generated=generated,
                injected=injected,
                routed=routed,
                moved=len(pending),
                advancing=advancing,
                delivered=delivered_count,
                delivered_total=self.delivered_total,
                total_distance=total_distance,
                max_node_load=max_load,
                bad_nodes=bad_nodes,
                packets_in_bad_nodes=packets_in_bad,
                backlog=backlog,
                dropped=dropped_now,
            )
            if tel is not None:
                tel.note_summary(summary)
            if emit is not None:
                emit(summary)

    # ------------------------------------------------------------------
    # Graceful degradation (faulted runs, both loops)
    # ------------------------------------------------------------------

    @staticmethod
    def _hold_excess(view: NodeView, live: int) -> NodeView:
        """Hot-potato degradation at a node with only ``live`` out arcs.

        When masking leaves fewer live arcs than packets, a consistent
        hot-potato assignment is impossible, so the excess packets —
        highest ids first — wait in place this step (not advanced,
        restricted as their good set says).  Returns the view the
        policy decides for: the ``live`` lowest-id packets.  Only
        called while something is down.
        """
        good = view.good
        for packet in view.packets[live:]:
            packet.advanced_last_step = False
            packet.restricted_last_step = len(good[packet.id]) == 1
        return NodeView(
            view.mesh, view.node, view.step, list(view.packets[:live])
        )

    def _hold_down_forwards(
        self, node: Node, assignment: Assignment
    ) -> Assignment:
        """Store-and-forward degradation: a forward onto an arc that
        exists but is currently down waits (the packet stays buffered),
        exactly as if the policy had not forwarded it.  Arcs that leave
        the mesh outright stay in the assignment, so the strict checks
        still reject them.  Only called while something is down.
        """
        assert self.faults is not None
        live = self.faults.view.node_arcs(node).by_direction
        base = self.mesh.node_arcs(node).by_direction
        return {
            pid: d
            for pid, d in assignment.items()
            if live.get(d) is not None or base.get(d) is None
        }

    # ------------------------------------------------------------------
    # The instrumented step (formerly _route/_apply_assignment/_move)
    # ------------------------------------------------------------------

    def step_instrumented(
        self, validators: Sequence[StepValidator] = ()
    ) -> Tuple[StepRecord, StepSummary]:
        """Execute one step, building the full record and validating."""
        dropped_now = self._apply_faults()
        generated, injected, backlog = self._admit()
        step_index = self.time
        faults = self.faults
        mesh_v = faults.view if faults is not None else self.mesh
        degrade = faults is not None and faults.anything_down
        buffered = self.buffered
        dimension = self.mesh.dimension
        decide = self._decide()
        dist = self._dist

        groups: Dict[Node, List[Packet]] = defaultdict(list)
        for packet in self.in_flight:
            groups[packet.location].append(packet)
        routed = len(self.in_flight)

        infos: Dict[PacketId, PacketStepInfo] = {}
        total_distance = 0
        max_load = 0
        bad_nodes = 0
        packets_in_bad = 0
        # Visit nodes in the configured order.  With "insertion",
        # in_flight is kept in ascending packet-id order by the move
        # phase, so the first packet seen at each node — and hence the
        # node visit order — is a pure function of the previous step's
        # outcome: deterministic and reproducible without re-sorting
        # every node tuple each step (which profiling showed as
        # measurable overhead on large meshes).
        node_items: Iterable[Tuple[Node, List[Packet]]] = (
            [(node, groups[node]) for node in sorted(groups)]
            if self.sorted_order
            else groups.items()
        )
        for node, node_packets in node_items:
            load = len(node_packets)
            if load > max_load:
                max_load = load
            if load > dimension:
                bad_nodes += 1
                packets_in_bad += load
            view = NodeView(mesh_v, node, step_index, node_packets)
            for packet in view.packets:
                total_distance += dist[packet.id]
            if degrade and not buffered:
                live = mesh_v.node_arcs(node).degree
                if load > live:
                    view = self._hold_excess(view, live)
                    if not view.packets:
                        continue
            assignment = decide(view)
            if degrade and buffered:
                assignment = self._hold_down_forwards(node, assignment)
            node_infos = self.build_infos(view, assignment)
            for validator in validators:
                validator.validate_node(view, node_infos)
            for info in node_infos:
                infos[info.packet_id] = info

        delivered = self._move_instrumented(infos)
        record = StepRecord(
            step=step_index, infos=infos, delivered_after=delivered
        )
        summary = StepSummary(
            step=step_index,
            generated=generated,
            injected=injected,
            routed=routed,
            moved=len(infos),
            advancing=record.num_advancing,
            delivered=len(delivered),
            delivered_total=self.delivered_total,
            total_distance=total_distance,
            max_node_load=max_load,
            bad_nodes=bad_nodes,
            packets_in_bad_nodes=packets_in_bad,
            backlog=backlog,
            dropped=dropped_now,
        )
        if self.telemetry is not None:
            self.telemetry.note_summary(summary)
        return record, summary

    def build_infos(
        self, view: NodeView, assignment: Assignment
    ) -> List[PacketStepInfo]:
        """Validate one node's policy output and build its step infos.

        Under hot-potato semantics the assignment must cover every
        packet in the view; under buffered semantics it may be partial
        (omitted packets wait), but must not name packets that are not
        present.  Either way directions must be distinct arcs out of
        the node.  Raises :class:`ArcAssignmentError` on any violation.
        """
        policy_name = self.policy.name
        packet_ids = {p.id for p in view.packets}
        if self.buffered:
            extra = set(assignment) - packet_ids
            if extra:
                raise ArcAssignmentError(
                    f"step {view.step}: policy {policy_name!r} forwarded "
                    f"unknown packets {sorted(extra)} at {view.node}"
                )
        elif set(assignment) != packet_ids:
            missing = packet_ids - set(assignment)
            extra = set(assignment) - packet_ids
            raise ArcAssignmentError(
                f"step {view.step}: policy {policy_name!r} returned a "
                f"bad assignment at {view.node}: missing={sorted(missing)} "
                f"extra={sorted(extra)}"
            )
        seen_directions = set()
        infos: List[PacketStepInfo] = []
        for packet in view.packets:
            if self.buffered and packet.id not in assignment:
                continue  # stays buffered this step
            direction = assignment[packet.id]
            if direction in seen_directions:
                raise ArcAssignmentError(
                    f"step {view.step}: direction {direction} assigned to "
                    f"two packets at {view.node}"
                )
            seen_directions.add(direction)
            # Resolved through the view's mesh: on faulted runs that is
            # the masked FaultView, so an assignment onto a down arc
            # fails here exactly like one that leaves the mesh.
            # Distances are served by the underlying geometry either way.
            next_node = view.mesh.neighbor(view.node, direction)
            if next_node is None:
                raise ArcAssignmentError(
                    f"step {view.step}: packet {packet.id} assigned "
                    f"direction {direction} which leaves the mesh "
                    f"at {view.node}"
                )
            distance_before = view.mesh.distance(view.node, packet.destination)
            distance_after = view.mesh.distance(next_node, packet.destination)
            infos.append(
                PacketStepInfo(
                    packet_id=packet.id,
                    node=view.node,
                    destination=packet.destination,
                    entry_direction=packet.entry_direction,
                    assigned_direction=direction,
                    next_node=next_node,
                    distance_before=distance_before,
                    distance_after=distance_after,
                    num_good=view.num_good(packet),
                    restricted=view.is_restricted(packet),
                    restricted_type=view.restricted_type(packet),
                )
            )
        return infos

    def _move_instrumented(
        self, infos: Dict[PacketId, PacketStepInfo]
    ) -> Tuple[PacketId, ...]:
        """Apply a step's moves; absorb arrivals; advance the clock."""
        self.time += 1
        now = self.time
        buffered = self.buffered
        # Waiting is possible under buffered semantics and under fault
        # degradation; only the plain hot-potato step insists on a
        # total assignment.
        partial = buffered or self.faults is not None
        set_entry = self.set_entry_direction
        dist = self._dist
        delivered: List[Packet] = []
        remaining: List[Packet] = []
        for packet in self.in_flight:
            info = infos.get(packet.id) if partial else infos[packet.id]
            if info is not None:
                if not buffered:
                    packet.restricted_last_step = info.restricted
                    packet.advanced_last_step = info.advanced
                packet.location = info.next_node
                if set_entry:
                    packet.entry_direction = info.assigned_direction
                packet.hops += 1
                if info.advanced:
                    packet.advances += 1
                else:
                    packet.deflections += 1
                dist[packet.id] = info.distance_after
                if self.record_paths:
                    packet.path.append(info.next_node)
            if packet.location == packet.destination:
                packet.delivered_at = now
                delivered.append(packet)
                del dist[packet.id]
            else:
                remaining.append(packet)
        self.in_flight = remaining
        self.delivered_total += len(delivered)
        on_deliver = self.on_deliver
        if delivered and on_deliver is not None:
            deliver_columns(on_deliver, delivered, now, self.mesh.distance)
        return tuple(packet.id for packet in delivered)


def build_run_result(
    problem: RoutingProblem,
    policy_name: str,
    packets: Sequence[Packet],
    kernel: StepKernel,
    step_metrics: List[StepMetrics],
    records: Optional[List[StepRecord]],
    seed: Optional[Union[int, str]],
    abort: Optional["RunAborted"] = None,
) -> RunResult:
    """Assemble the :class:`RunResult` both batch engines return.

    A run counts as ``completed`` only when nothing is left in flight
    *and* no abort verdict was issued: a run whose last packets were
    dropped by faults still completed (every packet's fate is known),
    while a step-limit/no-progress/partition abort is structurally
    incomplete even though the engine returned normally.  Each
    outcome's shortest distance is the problem's cached
    :attr:`~repro.core.problem.RoutingProblem.distances` entry (packet
    ids index the problem's requests).
    """
    mesh = problem.mesh
    distances = problem.distances
    delivered_times = [
        p.delivered_at for p in packets if p.delivered_at is not None
    ]
    total_steps = max(delivered_times) if delivered_times else 0
    completed = not kernel.in_flight and abort is None
    if not completed:
        total_steps = kernel.time
    outcomes = [
        PacketOutcome(
            packet_id=p.id,
            source=p.source,
            destination=p.destination,
            shortest_distance=distances[p.id],
            delivered_at=p.delivered_at,
            hops=p.hops,
            advances=p.advances,
            deflections=p.deflections,
            dropped_at=p.dropped_at,
        )
        for p in packets
    ]
    return RunResult(
        problem_name=problem.name or "problem",
        policy_name=policy_name,
        mesh_kind=mesh.kind,
        dimension=mesh.dimension,
        side=mesh.side,
        k=problem.k,
        completed=completed,
        total_steps=total_steps,
        delivered=len(delivered_times),
        step_metrics=step_metrics,
        outcomes=outcomes,
        records=records,
        seed=seed,
        telemetry=kernel.telemetry,
        abort=abort,
    )
