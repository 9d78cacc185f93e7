"""Traffic models for dynamic (continuous-injection) routing.

The paper analyzes *batch* routing, but its motivating systems —
multihop lightwave networks [AS], [ZA], the Manhattan Street network
[Ma], deflection hypercubes [GH], [Sz] — run with continuous traffic:
every node generates packets over time.  A :class:`TrafficModel`
decides, each step, how many new packets every node generates and
where they are destined; the dynamic engine injects them as capacity
permits.

:meth:`TrafficModel.arrivals` answers for the whole mesh at once: one
call per step returns that step's ``(source, destination)`` pairs,
sources in ``mesh.nodes()`` order, drawn in one loop over the nodes.
The draw order is the seeded contract (each model's docstring gives
it): packet ids, and with them every RNG-sensitive routing decision
downstream, follow from it, so do not reorder the draws.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.rng import make_rng
from repro.mesh.topology import Mesh
from repro.types import Node


class TrafficModel(abc.ABC):
    """Generates routing demand over time."""

    @abc.abstractmethod
    def prepare(self, mesh: Mesh, rng: random.Random) -> None:
        """Called once before the run starts (and again by every run
        that reuses the model, possibly on another mesh)."""

    @abc.abstractmethod
    def arrivals(self, step: int) -> List[Tuple[Node, Node]]:
        """The whole mesh's demand at ``step``.

        Returns ``(source, destination)`` pairs with sources in
        ``mesh.nodes()`` order.  The source may delay the actual
        injection when a node is full; generation time (for latency
        accounting) is ``step`` regardless.  A pair whose destination
        is its source is zero-distance demand, which the source
        discards.
        """


class BernoulliTraffic(TrafficModel):
    """Independent Bernoulli arrivals with uniform random destinations.

    Each node generates a packet with probability ``rate`` per step
    (so ``rate`` is also the per-node offered load in packets/step).
    Destinations are uniform over all other nodes, the standard
    uniform-traffic assumption of the deflection-network literature.
    Per node, in mesh order: one ``random()`` draw, then ``choice``
    until the destination differs from the node.
    """

    def __init__(self, rate: float) -> None:
        if not 0 <= rate <= 1:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self.rate = rate
        self._nodes: List[Node] = []
        self._rng = make_rng(0)

    def prepare(self, mesh: Mesh, rng: random.Random) -> None:
        self._nodes = list(mesh.nodes())
        self._rng = rng

    def arrivals(self, step: int) -> List[Tuple[Node, Node]]:
        rate = self.rate
        draw = self._rng.random
        choice = self._rng.choice
        nodes = self._nodes
        demand: List[Tuple[Node, Node]] = []
        for node in nodes:
            if draw() < rate:
                destination = choice(nodes)
                while destination == node:
                    destination = choice(nodes)
                demand.append((node, destination))
        return demand


class HotSpotTraffic(TrafficModel):
    """Bernoulli arrivals with a fraction of traffic aimed at one node.

    With probability ``hot_fraction`` a generated packet goes to the
    ``hot_spot`` (default: the center of the mesh the model is
    prepared on); otherwise uniform.  Models the server/memory-bank
    hot spots of multiprocessor interconnects.  Per generating node the
    ``hot_fraction`` draw comes before the test that the node is not
    the hot spot itself.
    """

    def __init__(
        self,
        rate: float,
        hot_fraction: float = 0.2,
        hot_spot: Optional[Node] = None,
    ) -> None:
        if not 0 <= rate <= 1:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if not 0 <= hot_fraction <= 1:
            raise ValueError(
                f"hot_fraction must be in [0, 1], got {hot_fraction}"
            )
        self.rate = rate
        self.hot_fraction = hot_fraction
        #: The hot spot the caller named, or None for each mesh's center.
        self._named_hot_spot = hot_spot
        #: The hot spot of the mesh last prepared on.
        self.hot_spot = hot_spot
        self._nodes: List[Node] = []
        self._rng = make_rng(0)

    def prepare(self, mesh: Mesh, rng: random.Random) -> None:
        named = self._named_hot_spot
        if named is not None and not mesh.contains(named):
            raise ValueError(f"hot spot {named} not a mesh node")
        self.hot_spot = mesh.center() if named is None else named
        self._nodes = list(mesh.nodes())
        self._rng = rng

    def arrivals(self, step: int) -> List[Tuple[Node, Node]]:
        rate = self.rate
        hot_fraction = self.hot_fraction
        hot_spot = self.hot_spot
        assert hot_spot is not None, "prepare() must run before arrivals()"
        draw = self._rng.random
        choice = self._rng.choice
        nodes = self._nodes
        demand: List[Tuple[Node, Node]] = []
        for node in nodes:
            if draw() >= rate:
                continue
            if draw() < hot_fraction and node != hot_spot:
                demand.append((node, hot_spot))
                continue
            destination = choice(nodes)
            while destination == node:
                destination = choice(nodes)
            demand.append((node, destination))
        return demand


class ScriptedTraffic(TrafficModel):
    """Deterministic demand script, for tests.

    ``script`` lists ``(node, step, destination)`` entries; a node's
    entries for one step keep their script order.
    """

    def __init__(
        self, script: Sequence[Tuple[Node, int, Node]]
    ) -> None:
        self._script = list(script)
        self._by_step: Dict[int, List[Tuple[Node, Node]]] = {}

    def prepare(self, mesh: Mesh, rng: random.Random) -> None:
        for node, _, destination in self._script:
            if not mesh.contains(node):
                raise ValueError(f"scripted source {node} not in mesh")
            if not mesh.contains(destination):
                raise ValueError(
                    f"scripted destination {destination} not in mesh"
                )
        order = {node: index for index, node in enumerate(mesh.nodes())}
        by_step: Dict[int, List[Tuple[Node, Node]]] = {}
        for node, step, destination in self._script:
            by_step.setdefault(step, []).append((node, destination))
        for demand in by_step.values():
            # Stable: a node's entries keep their script order.
            demand.sort(key=lambda pair: order[pair[0]])
        self._by_step = by_step

    def arrivals(self, step: int) -> List[Tuple[Node, Node]]:
        return list(self._by_step.get(step, []))
