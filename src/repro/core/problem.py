"""Routing problems: the many-to-many batch model of Section 2.

A :class:`RoutingProblem` is a mesh together with a batch of
(source, destination) requests that all start at time 0.  The model
requires every endpoint to be a mesh node and **no node to originate
more packets than its out-degree** — otherwise the first step could
not move all packets out, breaking the hot-potato discipline.

Neither "every node sends" nor "every node receives" is required, and
a node may be the destination of many packets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, List, Sequence, Tuple

from repro.core.packet import Packet
from repro.exceptions import InvalidProblemError
from repro.mesh.topology import Mesh
from repro.types import Node


@dataclass(frozen=True)
class Request:
    """A single routing request: move one packet from source to destination."""

    source: Node
    destination: Node


@dataclass(frozen=True)
class RoutingProblem:
    """A validated many-to-many batch routing problem.

    Attributes:
        mesh: the network to route on.
        requests: the packet batch; index in this tuple is the packet id.
        name: optional human-readable label used in reports.
    """

    mesh: Mesh
    requests: Tuple[Request, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        origins: Counter = Counter()
        for index, request in enumerate(self.requests):
            if not self.mesh.contains(request.source):
                raise InvalidProblemError(
                    f"request {index}: source {request.source} is not a mesh node"
                )
            if not self.mesh.contains(request.destination):
                raise InvalidProblemError(
                    f"request {index}: destination {request.destination} "
                    f"is not a mesh node"
                )
            origins[request.source] += 1
        for node, count in origins.items():
            capacity = self.mesh.degree(node)
            if count > capacity:
                raise InvalidProblemError(
                    f"node {node} originates {count} packets but has "
                    f"out-degree {capacity}"
                )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_pairs(
        cls,
        mesh: Mesh,
        pairs: Iterable[Sequence[Node]],
        name: str = "",
    ) -> "RoutingProblem":
        """Build a problem from an iterable of ``(source, destination)``."""
        requests = tuple(Request(tuple(s), tuple(d)) for s, d in pairs)
        return cls(mesh=mesh, requests=requests, name=name)

    def make_packets(self) -> List[Packet]:
        """Instantiate fresh :class:`Packet` objects for a run."""
        return [
            Packet(id=index, source=req.source, destination=req.destination)
            for index, req in enumerate(self.requests)
        ]

    # ------------------------------------------------------------------
    # Properties the paper's bounds are stated in terms of
    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        """Number of packets in the batch (the paper's ``k``)."""
        return len(self.requests)

    @cached_property
    def distances(self) -> Tuple[int, ...]:
        """Source-to-destination distance of every request, indexed by
        packet id.

        Computed once per problem (the problem is immutable) and read
        by :attr:`d_max`, :attr:`total_distance`, the batch engines'
        initial distance table and their per-packet outcomes, so a run
        measures each packet's distance once.
        """
        distance = self.mesh.distance
        return tuple(
            [distance(r.source, r.destination) for r in self.requests]
        )

    @property
    def d_max(self) -> int:
        """Maximum source-to-destination distance over the batch."""
        return max(self.distances, default=0)

    @property
    def total_distance(self) -> int:
        """Sum of source-to-destination distances (a trivial work lower bound)."""
        return sum(self.distances)

    def is_permutation(self) -> bool:
        """True when every node is the source and the destination of at
        most one packet (the permutation-routing special case)."""
        sources = Counter(r.source for r in self.requests)
        destinations = Counter(r.destination for r in self.requests)
        return all(c <= 1 for c in sources.values()) and all(
            c <= 1 for c in destinations.values()
        )

    def is_single_target(self) -> bool:
        """True when all packets share one destination."""
        return len({r.destination for r in self.requests}) <= 1

    def subproblem(self, indices: Sequence[int], name: str = "") -> "RoutingProblem":
        """Restrict the batch to the given request indices."""
        requests = tuple(self.requests[i] for i in indices)
        return RoutingProblem(mesh=self.mesh, requests=requests, name=name)

    def __len__(self) -> int:
        return len(self.requests)

    def describe(self) -> str:
        """One-line summary used by the experiment harness."""
        label = self.name or "problem"
        return (
            f"{label}: k={self.k} on {self.mesh.kind} "
            f"n={self.mesh.side} d={self.mesh.dimension} "
            f"(d_max={self.d_max})"
        )
