"""Runtime fault state: masked topology views and drop selection.

:class:`ActiveFaults` compiles a :class:`~repro.faults.schedule.FaultSchedule`
against a concrete mesh and answers, per step, the two questions the
kernel asks:

* *What does the topology look like right now?* — served through
  masked :class:`~repro.mesh.topology.NodeArcs` tables and good-
  direction tuples that simply omit down links and failed nodes.  The
  :class:`FaultView` mesh wrapper exposes those masked answers (kept
  by a :class:`FaultMask`) behind the ordinary
  :class:`~repro.mesh.topology.Mesh` query interface, so
  :class:`~repro.core.node_view.NodeView` and every policy route around
  failures without knowing faults exist.
* *Which packets are lost this step?* — :meth:`ActiveFaults.select_drops`
  returns the deterministic victim list (packets at failed nodes plus
  scheduled drop events, lowest ids first).

The mask only changes at schedule boundaries (window starts/ends,
failure times), so the masked arc tables are cached per regime (at most
one per node) and a run over a quiet stretch pays one dict lookup per
node, like the pristine mesh; good directions are the mesh's, filtered
by the node's live arcs on each query.  Distances are deliberately
*not* masked: good directions stay defined by the underlying geometry,
so "advance" keeps its Definition 5 meaning and the potential-function
accounting stays comparable with and without faults.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.faults.schedule import (
    FaultSchedule,
    LinkFault,
    NodeFault,
    PacketDrop,
)
from repro.mesh.directions import Direction
from repro.mesh.topology import Mesh, NodeArcs
from repro.types import Node, PacketId

__all__ = ["ActiveFaults", "FaultMask", "FaultView"]


class FaultMask:
    """The current regime's masked topology and its arc tables.

    Holds the down node and arc sets plus the masked per-node arc
    tables built from them (at most one per node);
    :class:`ActiveFaults` installs new sets at regime changes.
    It holds no reference back to its :class:`ActiveFaults`, so the
    :class:`FaultView` that reads it closes no reference cycle and a
    finished faulted run is freed by reference counting alone.
    """

    __slots__ = ("mesh", "down_nodes", "down_arcs", "arc_cache")

    def __init__(self, mesh: Mesh) -> None:
        self.mesh = mesh
        self.down_nodes: Set[Node] = set()
        self.down_arcs: Set[Tuple[Node, Node]] = set()
        self.arc_cache: Dict[Node, NodeArcs] = {}

    def update(
        self, down_nodes: Set[Node], down_arcs: Set[Tuple[Node, Node]]
    ) -> bool:
        """Install a regime's down sets and drop the cached tables;
        returns False, keeping the tables, when the sets are unchanged."""
        if down_nodes == self.down_nodes and down_arcs == self.down_arcs:
            return False
        self.down_nodes = down_nodes
        self.down_arcs = down_arcs
        self.arc_cache.clear()
        return True

    @property
    def anything_down(self) -> bool:
        return bool(self.down_nodes or self.down_arcs)

    def arc_is_live(self, tail: Node, head: Node) -> bool:
        return (
            tail not in self.down_nodes
            and head not in self.down_nodes
            and (tail, head) not in self.down_arcs
        )

    def node_arcs(self, node: Node) -> NodeArcs:
        """The node's arc table with down links and nodes removed.

        A failed node has an empty table (degree 0); its neighbors'
        tables omit the direction pointing at it.
        """
        arcs = self.arc_cache.get(node)
        if arcs is None:
            base = self.mesh.node_arcs(node)
            if not self.anything_down:
                arcs = base
            else:
                neighbors = tuple(
                    other
                    if other is not None and self.arc_is_live(node, other)
                    else None
                    for other in base.neighbors
                )
                out = tuple(
                    direction
                    for direction, other in zip(
                        self.mesh.directions, neighbors
                    )
                    if other is not None
                )
                by_direction = {
                    direction: other
                    for direction, other in zip(
                        self.mesh.directions, neighbors
                    )
                    if other is not None
                }
                arcs = NodeArcs(out, neighbors, by_direction)
            self.arc_cache[node] = arcs
        return arcs

    def good_directions_tuple(
        self, node: Node, destination: Node
    ) -> Tuple[Direction, ...]:
        """Good directions (Definition 5) restricted to live arcs."""
        base = self.mesh.good_directions_tuple(node, destination)
        if not self.anything_down:
            return base
        live = self.node_arcs(node).by_direction
        return tuple(d for d in base if d in live)


class FaultView:
    """A mesh facade serving fault-masked adjacency.

    Overrides every adjacency/direction query to consult the active
    fault mask; everything else (``dimension``, ``distance``,
    ``contains``, ``unit_deflections``, ...) delegates to the real
    mesh via ``__getattr__``.  Policies receive this as
    ``NodeView.mesh`` during faulted runs.
    """

    __slots__ = ("_mask", "_mesh")

    def __init__(self, mask: FaultMask) -> None:
        self._mask = mask
        self._mesh = mask.mesh

    # Masked adjacency -------------------------------------------------

    def node_arcs(self, node: Node) -> NodeArcs:
        return self._mask.node_arcs(node)

    def neighbor(self, node: Node, direction: Direction) -> Optional[Node]:
        return self._mask.node_arcs(node).by_direction.get(direction)

    def neighbors(self, node: Node) -> List[Node]:
        return [
            other
            for other in self._mask.node_arcs(node).neighbors
            if other is not None
        ]

    def out_directions(self, node: Node) -> List[Direction]:
        return list(self._mask.node_arcs(node).out_directions)

    def out_arcs(self, node: Node) -> List[Tuple[Node, Node]]:
        arcs = self._mask.node_arcs(node)
        return [(node, arcs.by_direction[d]) for d in arcs.out_directions]

    def in_arcs(self, node: Node) -> List[Tuple[Node, Node]]:
        return [(head, tail) for (tail, head) in self.out_arcs(node)]

    def degree(self, node: Node) -> int:
        return self._mask.node_arcs(node).degree

    # Masked packet-centric queries ------------------------------------

    def good_directions_tuple(
        self, node: Node, destination: Node
    ) -> Tuple[Direction, ...]:
        return self._mask.good_directions_tuple(node, destination)

    def good_directions(
        self, node: Node, destination: Node
    ) -> List[Direction]:
        return list(self._mask.good_directions_tuple(node, destination))

    def bad_directions(
        self, node: Node, destination: Node
    ) -> List[Direction]:
        good = set(self._mask.good_directions_tuple(node, destination))
        return [d for d in self._mesh.directions if d not in good]

    def good_arcs(
        self, node: Node, destination: Node
    ) -> List[Tuple[Node, Node]]:
        by_direction = self._mask.node_arcs(node).by_direction
        return [
            (node, by_direction[direction])
            for direction in self.good_directions(node, destination)
        ]

    def num_good_directions(self, node: Node, destination: Node) -> int:
        return len(self._mask.good_directions_tuple(node, destination))

    def is_restricted(self, node: Node, destination: Node) -> bool:
        return (
            len(self._mask.good_directions_tuple(node, destination)) == 1
        )

    # Everything else is the real mesh ---------------------------------

    def __getattr__(self, name: str) -> Any:
        return getattr(self._mesh, name)

    def __repr__(self) -> str:
        return f"FaultView({self._mesh!r})"


class ActiveFaults:
    """One run's live fault state, bound to a mesh.

    The kernel calls :meth:`advance` at the top of every step, then
    routes through :attr:`view` / :meth:`node_arcs`.  All bookkeeping
    is integer/tuple based and never consumes randomness, so faulted
    runs stay pure functions of (problem, policy, seed, schedule).
    """

    def __init__(self, mesh: Mesh, schedule: FaultSchedule) -> None:
        schedule.check(mesh)
        self.mesh = mesh
        self.schedule = schedule
        self._mask = FaultMask(mesh)
        self.view = FaultView(self._mask)
        #: Ids of packets dropped so far, in drop order.
        self.dropped_ids: List[PacketId] = []

        self._link_events: List[LinkFault] = schedule.link_faults()
        self._node_events: List[NodeFault] = schedule.node_faults()
        #: step -> drop events at that step, in schedule order.
        self._drops_by_step: Dict[int, List[PacketDrop]] = {}
        for drop in schedule.packet_drops():
            self._drops_by_step.setdefault(drop.step, []).append(drop)

        #: Steps at which the link/node mask may change.
        boundaries: Set[int] = set()
        for link in self._link_events:
            boundaries.add(link.start)
            if link.end is not None:
                boundaries.add(link.end)
        for node_event in self._node_events:
            boundaries.add(node_event.start)
        self._boundaries = sorted(boundaries)

        self._step: Optional[int] = None
        self._components: Optional[Dict[Node, int]] = None

    # ------------------------------------------------------------------
    # Per-step mask maintenance
    # ------------------------------------------------------------------

    def advance(self, step: int) -> None:
        """Bring the mask up to date for ``step``.

        Rebuilds the down sets only when a schedule boundary was
        crossed since the last call; otherwise a constant-time no-op.
        """
        previous = self._step
        if previous is not None and previous <= step:
            crossed = any(
                previous < b <= step for b in self._boundaries
            )
            if not crossed:
                self._step = step
                return
        self._rebuild(step)
        self._step = step

    def _rebuild(self, step: int) -> None:
        down_nodes = {
            e.node for e in self._node_events if e.active_at(step)
        }
        down_arcs: Set[Tuple[Node, Node]] = set()
        for link in self._link_events:
            if link.active_at(step):
                down_arcs.add((link.a, link.b))
                down_arcs.add((link.b, link.a))
        if self._mask.update(down_nodes, down_arcs):
            self._components = None

    @property
    def anything_down(self) -> bool:
        """True when the current mask hides at least one arc or node."""
        return self._mask.anything_down

    def is_node_down(self, node: Node) -> bool:
        return node in self._mask.down_nodes

    def arc_is_live(self, tail: Node, head: Node) -> bool:
        return self._mask.arc_is_live(tail, head)

    # ------------------------------------------------------------------
    # Masked topology queries (the mask the FaultView reads)
    # ------------------------------------------------------------------

    def node_arcs(self, node: Node) -> NodeArcs:
        """The node's arc table under the current mask (see
        :meth:`FaultMask.node_arcs`)."""
        return self._mask.node_arcs(node)

    def good_directions_tuple(
        self, node: Node, destination: Node
    ) -> Tuple[Direction, ...]:
        """Good directions (Definition 5) restricted to live arcs."""
        return self._mask.good_directions_tuple(node, destination)

    # ------------------------------------------------------------------
    # Packet drops
    # ------------------------------------------------------------------

    def select_drops(self, step: int, in_flight: List[Any]) -> List[Any]:
        """The packets lost at the top of ``step``, in drop order.

        Victims are (a) every packet located at a failed node and
        (b) up to ``count`` packets per :class:`PacketDrop` event at
        the event's node.  ``in_flight`` is scanned in order — the
        kernel keeps it ascending by packet id — so drop selection is
        deterministic and "lowest ids first" by construction.  Does
        not mutate anything; the kernel applies the removal.
        """
        drops = self._drops_by_step.get(step)
        down_nodes = self._mask.down_nodes
        if not drops and not down_nodes:
            return []
        budget: Dict[Node, int] = {}
        if drops:
            for event in drops:
                budget[event.node] = budget.get(event.node, 0) + event.count
        victims: List[Any] = []
        for packet in in_flight:
            location = packet.location
            if location in down_nodes:
                victims.append(packet)
                continue
            remaining = budget.get(location)
            if remaining:
                budget[location] = remaining - 1
                victims.append(packet)
        return victims

    # ------------------------------------------------------------------
    # Reachability (watchdog support)
    # ------------------------------------------------------------------

    def components(self) -> Dict[Node, int]:
        """Connected components of the live topology.

        Maps every live node to a component label; failed nodes are
        absent.  Computed once per mask regime via BFS over
        ``mesh.nodes()`` in lexicographic order (deterministic).
        """
        if self._components is None:
            labels: Dict[Node, int] = {}
            label = 0
            for start in self.mesh.nodes():
                if start in labels or start in self._mask.down_nodes:
                    continue
                queue = [start]
                labels[start] = label
                head = 0
                while head < len(queue):
                    node = queue[head]
                    head += 1
                    for other in self.node_arcs(node).neighbors:
                        if other is not None and other not in labels:
                            labels[other] = label
                            queue.append(other)
                label += 1
            self._components = labels
        return self._components

    def is_stranded(self, location: Node, destination: Node) -> bool:
        """True when ``destination`` is unreachable from ``location``
        through live links (either endpoint down also strands)."""
        components = self.components()
        here = components.get(location)
        there = components.get(destination)
        return here is None or there is None or here != there

    def stranded_ids(self, in_flight: List[Any]) -> List[PacketId]:
        """Ids of in-flight packets that provably cannot be delivered
        under the *current* mask (ascending id order)."""
        return sorted(
            packet.id
            for packet in in_flight
            if self.is_stranded(packet.location, packet.destination)
        )

    def timeline(self) -> Tuple[Dict[str, Any], ...]:
        """The schedule's serialized events (for abort records)."""
        return self.schedule.timeline()
