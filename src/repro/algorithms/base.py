"""Shared machinery for greedy hot-potato policies.

All greedy algorithms in this library follow one per-node template:

1. take the bipartite *good graph* from the view (``NodeView.good``):
   packets on one side, the node's outgoing directions on the other,
   with an edge when the direction is good for the packet
   (Definition 5);
2. compute a **maximum matching**, offering augmenting paths to packets
   in a subclass-defined **priority order** (see
   :mod:`repro.core.matching` for why this realizes both greediness and
   restricted-packet priority);
3. deflect the unmatched packets along leftover directions according to
   a pluggable :class:`DeflectionRule`.

Subclasses customize only the priority order (step 2) and, optionally,
the deflection rule (step 3); everything else — including the greedy
guarantee of Definition 6 — comes from the template.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Dict, List, Sequence, Tuple

from repro.core.matching import kuhn_matching
from repro.core.node_view import NodeView
from repro.core.packet import Packet
from repro.core.policy import Assignment, RoutingPolicy
from repro.core.problem import RoutingProblem
from repro.core.rng import make_rng, spawn
from repro.mesh.directions import Direction
from repro.mesh.topology import Mesh
from repro.types import PacketId

#: Valid deflection-rule names, see :func:`deflect`.
DEFLECTION_RULES = ("ordered", "reverse", "random")

#: Valid tie-break names for equal-priority packets.
TIE_BREAKS = ("id", "random")


def deflect(
    rule: str,
    view: NodeView,
    unmatched: Sequence[Packet],
    free_directions: List[Direction],
    rng: random.Random,
) -> Dict[PacketId, Direction]:
    """Assign leftover directions to deflected packets.

    Rules (every deflection costs exactly one distance unit on the
    mesh, so the rule only shapes *future* conflicts, not the immediate
    potential drop):

    * ``"ordered"`` — hand out free directions in the mesh's canonical
      direction order (deterministic).
    * ``"reverse"`` — each packet prefers bouncing back along the arc
      it entered through; remaining conflicts fall back to order.
    * ``"random"`` — a uniformly random pairing (uses ``rng``; fewer
      than two free directions leave nothing to permute and draw
      nothing).
    """
    if rule not in DEFLECTION_RULES:
        raise ValueError(
            f"unknown deflection rule {rule!r}; expected one of "
            f"{DEFLECTION_RULES}"
        )
    free = list(free_directions)
    result: Dict[PacketId, Direction] = {}
    if rule == "random":
        if len(free) > 1:
            rng.shuffle(free)
    elif rule == "reverse":
        remaining: List[Packet] = []
        for packet in unmatched:
            if packet.entry_direction is not None:
                back = packet.entry_direction.opposite
                if back in free:
                    result[packet.id] = back
                    free.remove(back)
                    continue
            remaining.append(packet)
        unmatched = remaining
    for packet, direction in zip(unmatched, free):
        result[packet.id] = direction
    return result


def deflect_unmatched(
    rule: str,
    view: NodeView,
    ordered: Sequence[Packet],
    matching: Dict[PacketId, Direction],
    rng: random.Random,
) -> Assignment:
    """Complete a node's matching with the deflection step, in place.

    ``ordered`` lists the view's packets in matching order.  The step
    runs only when a packet is unmatched or the rule draws: the
    ``"random"`` rule shuffles two or more free directions even when
    every packet advanced, and runs that replay the policy's RNG stream
    count on that draw.
    """
    if len(matching) < len(ordered) or rule == "random":
        used = set(matching.values())
        free = [d for d in view.out_directions if d not in used]
        unmatched = [p for p in ordered if p.id not in matching]
        matching.update(deflect(rule, view, unmatched, free, rng))
    return matching


class GreedyMatchingPolicy(RoutingPolicy):
    """Base class implementing the matching template described above.

    Args:
        tie_break: ``"id"`` (deterministic) or ``"random"`` — order of
            packets *within* one priority class.
        deflection: one of :data:`DEFLECTION_RULES`.

    Subclasses override :meth:`priority_key`; smaller keys are matched
    first.  Because the template computes a maximum matching at every
    node, every subclass automatically satisfies Definition 6 (greedy)
    and the Section 5 max-advance requirement, and declares both.
    """

    name = "greedy-matching"
    declares_greedy = True
    declares_max_advance = True

    def __init__(
        self, tie_break: str = "id", deflection: str = "ordered"
    ) -> None:
        if tie_break not in TIE_BREAKS:
            raise ValueError(
                f"unknown tie break {tie_break!r}; expected one of {TIE_BREAKS}"
            )
        if deflection not in DEFLECTION_RULES:
            raise ValueError(
                f"unknown deflection rule {deflection!r}; expected one of "
                f"{DEFLECTION_RULES}"
            )
        self.tie_break = tie_break
        self.deflection = deflection
        self._rng = make_rng(0)

    def prepare(
        self, mesh: Mesh, problem: RoutingProblem, rng: random.Random
    ) -> None:
        self._rng = spawn(rng, self.name)

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------

    def priority_key(self, view: NodeView, packet: Packet) -> Tuple:
        """Return the packet's priority (smaller = matched earlier).

        The base class gives every packet equal priority, i.e. a plain
        greedy algorithm whose conflicts are settled by the tie-break.
        """
        return ()

    # ------------------------------------------------------------------
    # Template
    # ------------------------------------------------------------------

    def _ordered_packets(self, view: NodeView) -> List[Packet]:
        # The key runs for every packet, a lone one included: a key may
        # draw from the policy's RNG (random-rank's lazy ranks).  A
        # shuffle of fewer than two packets draws nothing, so it is
        # skipped.
        packets = list(view.packets)
        if self.tie_break == "random" and len(packets) > 1:
            self._rng.shuffle(packets)
        packets.sort(key=partial(self.priority_key, view))
        return packets

    def assign(self, view: NodeView) -> Assignment:
        ordered = self._ordered_packets(view)
        matching = kuhn_matching(view.good, [packet.id for packet in ordered])
        return deflect_unmatched(
            self.deflection, view, ordered, matching, self._rng
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(tie_break={self.tie_break!r}, "
            f"deflection={self.deflection!r})"
        )
