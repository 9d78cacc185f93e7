"""Plain greedy hot-potato routing.

The weakest member of the paper's algorithm universe: packets advance
whenever a maximum matching lets them, conflicts are settled by an
arbitrary (id-order or random) rule, with no restricted-packet
priority.  The paper notes that greediness alone does not guarantee
termination (Section 1.2) — this policy is the natural subject of the
livelock experiments, and in practice (random tie-breaks) it performs
excellently, matching the simulation folklore the paper cites.
"""

from __future__ import annotations

import random

from repro.algorithms.base import (
    DEFLECTION_RULES,
    GreedyMatchingPolicy,
    deflect_unmatched,
)
from repro.core.matching import first_fit_matching
from repro.core.node_view import NodeView
from repro.core.policy import Assignment, RoutingPolicy
from repro.core.problem import RoutingProblem
from repro.core.rng import make_rng, spawn
from repro.mesh.topology import Mesh


class PlainGreedyPolicy(GreedyMatchingPolicy):
    """Greedy routing with no priority structure at all.

    Every packet has equal priority; who advances out of a conflict is
    decided by the tie-break (packet id by default, or uniformly at
    random), and deflections follow the configured rule.  Satisfies
    Definition 6 but not Definition 18.
    """

    name = "plain-greedy"


class RandomizedGreedyPolicy(GreedyMatchingPolicy):
    """Plain greedy with random conflict resolution and deflections.

    The configuration closest to the "simple greedy algorithms
    perform very well in simulations" folklore ([BH], [Ma], [AS]):
    all symmetry is broken by coin flips, which in particular defeats
    the deterministic livelock schedules of
    :mod:`repro.algorithms.adversarial` with probability 1.
    """

    name = "randomized-greedy"

    def __init__(self) -> None:
        super().__init__(tie_break="random", deflection="random")


class MaximalGreedyPolicy(RoutingPolicy):
    """First-fit greedy: a *maximal* (not maximum) matching per node.

    Definition 6 only requires that a deflected packet's good arcs all
    be in use — any maximal matching qualifies — while the Section 5
    d-dimensional analysis additionally demands the *maximum* number of
    advancing packets.  This policy deliberately settles for first-fit
    maximality (each packet, in id order, takes its first free good
    direction), making it the ablation contrast for the max-advance
    requirement: it is greedy, it terminates, but it advances fewer
    packets per step than the matching-based policies whenever
    first-fit paints itself into a corner.
    """

    name = "maximal-greedy"
    declares_greedy = True
    declares_max_advance = False

    def __init__(self, deflection: str = "ordered") -> None:
        if deflection not in DEFLECTION_RULES:
            raise ValueError(
                f"unknown deflection rule {deflection!r}; expected one of "
                f"{DEFLECTION_RULES}"
            )
        self.deflection = deflection
        self._rng = make_rng(0)

    def prepare(
        self, mesh: Mesh, problem: RoutingProblem, rng: random.Random
    ) -> None:
        self._rng = spawn(rng, self.name)

    def assign(self, view: NodeView) -> Assignment:
        packets = view.packets
        matching = first_fit_matching(
            view.good, [packet.id for packet in packets]
        )
        return deflect_unmatched(
            self.deflection, view, packets, matching, self._rng
        )
