"""The local picture a node sees during one synchronous step.

Per Section 2 of the paper, each step every node (1) takes in the
packets sent to it, (2) makes a local computation that may depend on
the packets' destinations and entry arcs, and (3) assigns a distinct
outgoing arc to every packet.  A :class:`NodeView` is the input to
step (2): the node, the step number, the packets present, and each
packet's good directions.

Policies receive one view per occupied node and must return a
direction for every packet in it.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Mapping, Tuple

from repro.core.packet import Packet, RestrictedType
from repro.mesh.directions import Direction
from repro.mesh.topology import Mesh
from repro.types import Node, PacketId, Step

_by_id = attrgetter("id")


class NodeView:
    """Everything a routing policy may use at one node in one step.

    The view pre-computes each packet's good directions (Definition 5)
    and restricted-type classification (Section 4.1) because almost
    every policy needs them; computing them once here also guarantees
    the validators and the policy agree on the classification.
    """

    __slots__ = (
        "mesh",
        "node",
        "step",
        "packets",
        "good",
        "_types",
    )

    def __init__(
        self, mesh: Mesh, node: Node, step: Step, packets: List[Packet]
    ) -> None:
        self.mesh = mesh
        self.node = node
        self.step = step
        #: Packets present, in ascending id order (deterministic).
        self.packets: Tuple[Packet, ...] = (
            tuple(sorted(packets, key=_by_id))
            if len(packets) > 1
            else tuple(packets)
        )
        good_of = mesh.good_directions_tuple
        good: Dict[PacketId, Tuple[Direction, ...]] = {}
        types: Dict[PacketId, RestrictedType] = {}
        for packet in self.packets:
            directions = good_of(node, packet.destination)
            good[packet.id] = directions
            types[packet.id] = packet.classify(len(directions) == 1)
        #: Each packet's good directions (Definition 5) by packet id, in
        #: :attr:`packets` order: the adjacency of the node's matching
        #: problem, read by the policy and the step loop alike.
        self.good: Mapping[PacketId, Tuple[Direction, ...]] = good
        self._types = types

    @property
    def out_directions(self) -> Tuple[Direction, ...]:
        """Directions in which an arc leaves this node, in canonical
        order (shared with the mesh's per-node arc table; treat as
        immutable).

        Read from the view's mesh on demand: most node decisions match
        every packet and never ask for the leftover arcs.
        """
        return self.mesh.node_arcs(self.node).out_directions

    # ------------------------------------------------------------------
    # Per-packet queries
    # ------------------------------------------------------------------

    def good_directions(self, packet: Packet) -> Tuple[Direction, ...]:
        """The packet's good directions out of this node (Definition 5)."""
        return self.good[packet.id]

    def num_good(self, packet: Packet) -> int:
        """Number of good directions of the packet."""
        return len(self.good[packet.id])

    def is_restricted(self, packet: Packet) -> bool:
        """True when the packet has exactly one good direction (Section 4.1)."""
        return len(self.good[packet.id]) == 1

    def restricted_type(self, packet: Packet) -> RestrictedType:
        """Type A / type B / unrestricted classification (Figure 5)."""
        return self._types[packet.id]

    def is_type_a(self, packet: Packet) -> bool:
        """True for restricted packets that advanced while restricted last step."""
        return self._types[packet.id] is RestrictedType.TYPE_A

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    @property
    def load(self) -> int:
        """Number of packets at the node this step (the paper's ℓ)."""
        return len(self.packets)

    def is_bad_node(self) -> bool:
        """Definition 9: a node with more than ``d`` packets is *bad*."""
        return self.load > self.mesh.dimension

    def advancing_capacity(self) -> int:
        """Upper bound on simultaneously advancing packets here
        (number of distinct good directions over all packets)."""
        distinct = set()
        for directions in self.good.values():
            distinct.update(directions)
        return len(distinct)

    def __repr__(self) -> str:
        return (
            f"NodeView(node={self.node}, step={self.step}, "
            f"load={self.load})"
        )
