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
The injection sources read the same demand as node indices
(:meth:`TrafficModel.arrival_rows`).  The shipped models draw the
indices themselves (:class:`IndexedTraffic`): each one's single draw
loop numbers nodes in ``mesh.nodes()`` order and picks a uniform node
with :func:`~repro.core.rng.index_draw`, which makes exactly the calls
``choice`` over the node list made, and their ``arrivals`` is those
rows mapped to nodes.  The draw order is the seeded contract (each
model's docstring gives it): packet ids, and with them every
RNG-sensitive routing decision downstream, follow from it, so do not
reorder the draws.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.rng import index_draw, make_rng
from repro.mesh.topology import Mesh
from repro.types import Node

#: One step's demand as node indices: ``(sources, destinations)``,
#: sources in ascending (``mesh.nodes()``) order.
ArrivalRows = Tuple[List[int], List[int]]


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

    def arrival_rows(
        self, step: int, index: Mapping[Node, int]
    ) -> ArrivalRows:
        """:meth:`arrivals` as node indices, ``index`` mapping each
        node to its position in ``mesh.nodes()``: what the injection
        sources read.  This default maps :meth:`arrivals` through
        ``index``, so a model that implements only :meth:`arrivals`
        feeds them as it is."""
        pairs = self.arrivals(step)
        return (
            [index[source] for source, _ in pairs],
            [index[destination] for _, destination in pairs],
        )


class IndexedTraffic(TrafficModel):
    """A model that draws node indices, numbered in ``mesh.nodes()``
    order: it implements :meth:`arrival_rows` (ignoring ``index``) and
    keeps the prepared mesh's node list in ``_nodes``, and its
    :meth:`arrivals` is those rows mapped to nodes."""

    _nodes: List[Node]

    def arrivals(self, step: int) -> List[Tuple[Node, Node]]:
        nodes = self._nodes
        sources, destinations = self.arrival_rows(step, {})
        return [
            (nodes[source], nodes[destination])
            for source, destination in zip(sources, destinations)
        ]

    @abc.abstractmethod
    def arrival_rows(
        self, step: int, index: Mapping[Node, int]
    ) -> ArrivalRows:
        """The step's demand, drawn as node indices."""


class BernoulliTraffic(IndexedTraffic):
    """Independent Bernoulli arrivals with uniform random destinations.

    Each node generates a packet with probability ``rate`` per step
    (so ``rate`` is also the per-node offered load in packets/step).
    Destinations are uniform over all other nodes, the standard
    uniform-traffic assumption of the deflection-network literature.
    Per node, in mesh order: one ``random()`` draw, then ``choice``
    over the nodes (by index) until the destination differs from the
    node.
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

    def arrival_rows(
        self, step: int, index: Mapping[Node, int]
    ) -> ArrivalRows:
        rate = self.rate
        draw = self._rng.random
        pick = index_draw(self._rng)
        count = len(self._nodes)
        sources: List[int] = []
        destinations: List[int] = []
        for node in range(count):
            if draw() < rate:
                destination = pick(count)
                while destination == node:
                    destination = pick(count)
                sources.append(node)
                destinations.append(destination)
        return sources, destinations


class HotSpotTraffic(IndexedTraffic):
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
        #: The hot spot of the mesh last prepared on, and its index.
        self.hot_spot = hot_spot
        self._hot_index = -1
        self._nodes: List[Node] = []
        self._rng = make_rng(0)

    def prepare(self, mesh: Mesh, rng: random.Random) -> None:
        named = self._named_hot_spot
        if named is not None and not mesh.contains(named):
            raise ValueError(f"hot spot {named} not a mesh node")
        hot_spot = mesh.center() if named is None else named
        self.hot_spot = hot_spot
        self._nodes = list(mesh.nodes())
        self._hot_index = self._nodes.index(hot_spot)
        self._rng = rng

    def arrival_rows(
        self, step: int, index: Mapping[Node, int]
    ) -> ArrivalRows:
        rate = self.rate
        hot_fraction = self.hot_fraction
        hot = self._hot_index
        assert hot >= 0, "prepare() must run before arrivals()"
        draw = self._rng.random
        pick = index_draw(self._rng)
        count = len(self._nodes)
        sources: List[int] = []
        destinations: List[int] = []
        for node in range(count):
            if draw() >= rate:
                continue
            sources.append(node)
            if draw() < hot_fraction and node != hot:
                destinations.append(hot)
                continue
            destination = pick(count)
            while destination == node:
                destination = pick(count)
            destinations.append(destination)
        return sources, destinations


class ScriptedTraffic(IndexedTraffic):
    """Deterministic demand script, for tests.

    ``script`` lists ``(node, step, destination)`` entries; a node's
    entries for one step keep their script order.
    """

    def __init__(
        self, script: Sequence[Tuple[Node, int, Node]]
    ) -> None:
        self._script = list(script)
        self._nodes: List[Node] = []
        self._by_step: Dict[int, List[Tuple[int, int]]] = {}

    def prepare(self, mesh: Mesh, rng: random.Random) -> None:
        for node, _, destination in self._script:
            if not mesh.contains(node):
                raise ValueError(f"scripted source {node} not in mesh")
            if not mesh.contains(destination):
                raise ValueError(
                    f"scripted destination {destination} not in mesh"
                )
        self._nodes = list(mesh.nodes())
        order = {node: index for index, node in enumerate(self._nodes)}
        by_step: Dict[int, List[Tuple[int, int]]] = {}
        for node, step, destination in self._script:
            by_step.setdefault(step, []).append(
                (order[node], order[destination])
            )
        for demand in by_step.values():
            # Stable: a node's entries keep their script order.
            demand.sort(key=lambda pair: pair[0])
        self._by_step = by_step

    def arrival_rows(
        self, step: int, index: Mapping[Node, int]
    ) -> ArrivalRows:
        demand = self._by_step.get(step, [])
        return (
            [source for source, _ in demand],
            [destination for _, destination in demand],
        )
