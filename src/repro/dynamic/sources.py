"""Injection sources: how demand enters a kernel run.

The kernel's *inject* phase is an
:class:`~repro.core.kernel.InjectionSource`; the two disciplines the
paper's comparison needs are here:

* :class:`CapacityLimitedInjection` — the hot-potato rule.  A node may
  inject only as many packets as it has free outgoing arcs after the
  packets already present (otherwise "everyone leaves next step" would
  be violated); the rest wait in a per-node source queue whose latency
  clock started at *generation*.
* :class:`ImmediateInjection` — the store-and-forward rule.  Buffers
  absorb everything, so generated packets enter the fabric at once and
  waiting happens inside the network.

Both own the demand process, the packet-id counter and the
generation-time table, so engines can delegate those wholesale.  They
admit packets as *rows*: :meth:`~repro.core.kernel.InjectionSource.admit_batch`
takes the per-node loads and returns the admitted packets' ids,
source node indices and destination node indices, numbered in
``mesh.nodes()`` order (a node list and index cached at
:meth:`prepare`).  The traffic model answers in the same numbering
(:meth:`~repro.dynamic.injection.TrafficModel.arrival_rows`), so the
sources handle integers only: the capacity-limited queues are keyed
by node index and hold destination indices.  The array kernel appends
the admitted rows to its columns and builds no ``Packet`` for them;
the object loops get ``Packet`` objects from
:meth:`~repro.core.kernel.InjectionSource.admit`.

Determinism contract: generation visits ``mesh.nodes()`` in mesh
order (one ``arrival_rows`` call per step), and capacity-limited
injection drains its queues in *insertion* order (a node's queue
enters on the node's first generation and keeps that position), which
fixes packet ids and hence every downstream RNG-sensitive decision.
Do not "clean up" either order.
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from typing import Any, Deque, Dict, List, Sequence, Tuple

from repro.core.kernel import AdmittedRows, InjectionSource
from repro.dynamic.injection import TrafficModel
from repro.mesh.topology import Mesh
from repro.types import Node, PacketId


class CapacityLimitedInjection(InjectionSource):
    """Inject up to each node's free out-degree; queue the rest."""

    def __init__(self, traffic: TrafficModel) -> None:
        self.traffic = traffic
        #: Pending (generated, not yet injected) packets per node
        #: index, in drain order (each node's first generation): queue
        #: of (generation step, destination index).  A node whose
        #: queue empties keeps its entry and its place.
        self.queues: Dict[int, Deque[Tuple[int, int]]] = {}
        self.next_id: PacketId = 0
        self.generated_at: Dict[PacketId, int] = {}
        self._nodes: List[Node] = []
        self._index: Dict[Node, int] = {}
        #: Out-degree per node index.
        self._degrees: List[int] = []
        #: Running total of the queues' lengths.
        self._pending = 0

    def prepare(self, mesh: Mesh, rng: random.Random) -> None:
        self._nodes = list(mesh.nodes())
        self._index = {node: index for index, node in enumerate(self._nodes)}
        self._degrees = [mesh.degree(node) for node in self._nodes]
        self.traffic.prepare(mesh, rng)

    def admit_batch(self, time: int, loads: Sequence[int]) -> AdmittedRows:
        """Generate this step's demand into the queues, then drain each
        node's queue into its free arcs, ``degree - load``, in drain
        order."""
        degrees = self._degrees
        assert degrees, "prepare() must run before admit_batch()"
        queues = self.queues
        generated = 0
        for at, to in zip(*self.traffic.arrival_rows(time, self._index)):
            if to == at:
                continue  # zero-distance demand is a no-op
            queue = queues.get(at)
            if queue is None:
                queue = queues[at] = deque()
            queue.append((time, to))
            generated += 1
        generated_at = self.generated_at
        first = packet_id = self.next_id
        sources: List[int] = []
        destinations: List[int] = []
        # Walking every queue costs less than keeping the waiting
        # nodes apart in drain order.
        for at, queue in queues.items():
            if queue:
                free = degrees[at] - loads[at]
                while queue and free > 0:
                    born, destination = queue.popleft()
                    generated_at[packet_id] = born
                    sources.append(at)
                    destinations.append(destination)
                    packet_id += 1
                    free -= 1
        self.next_id = packet_id
        self._pending += generated - (packet_id - first)
        return generated, list(range(first, packet_id)), sources, destinations

    def backlog_size(self) -> int:
        return self._pending

    def backlog(self) -> Dict[Node, Deque[Tuple[int, Node]]]:
        """The queues keyed by node, holding (generation step,
        destination node) pairs, in drain order: a copy."""
        nodes = self._nodes
        backlog: Dict[Node, Deque[Tuple[int, Node]]] = defaultdict(deque)
        for at, queue in self.queues.items():
            backlog[nodes[at]] = deque(
                (born, nodes[destination]) for born, destination in queue
            )
        return backlog

    def snapshot_state(self) -> Dict[str, Any]:
        """JSON-safe source state (see :mod:`repro.snapshot`).

        The backlog is serialized as an ordered list of
        ``[node, [[generated, destination], ...]]`` pairs: the queues'
        *insertion* order is the drain-order determinism contract, so
        it must survive the round trip — including nodes whose queue
        is currently empty, which keep their position.
        """
        nodes = self._nodes
        return {
            "type": "capacity-limited",
            "next_id": self.next_id,
            "generated_at": {
                str(packet_id): step
                for packet_id, step in self.generated_at.items()
            },
            "backlog": [
                [
                    list(nodes[at]),
                    [
                        [step, list(nodes[destination])]
                        for step, destination in queue
                    ],
                ]
                for at, queue in self.queues.items()
            ],
        }

    def restore_state(self, payload: Dict[str, Any]) -> None:
        if payload.get("type") != "capacity-limited":
            raise ValueError(
                f"source snapshot type {payload.get('type')!r} does not "
                f"match CapacityLimitedInjection"
            )
        index = self._index
        self.next_id = int(payload["next_id"])
        self.generated_at = {
            int(packet_id): int(step)
            for packet_id, step in payload["generated_at"].items()
        }
        self.queues = {
            index[tuple(int(c) for c in node_data)]: deque(
                (int(step), index[tuple(int(c) for c in destination)])
                for step, destination in queue_data
            )
            for node_data, queue_data in payload["backlog"]
        }
        self._pending = sum(len(queue) for queue in self.queues.values())


class ImmediateInjection(InjectionSource):
    """Inject every generated packet at once (buffered fabric)."""

    def __init__(self, traffic: TrafficModel) -> None:
        self.traffic = traffic
        self.next_id: PacketId = 0
        self.generated_at: Dict[PacketId, int] = {}
        self._nodes: List[Node] = []
        self._index: Dict[Node, int] = {}

    def prepare(self, mesh: Mesh, rng: random.Random) -> None:
        self._nodes = list(mesh.nodes())
        self._index = {node: index for index, node in enumerate(self._nodes)}
        self.traffic.prepare(mesh, rng)

    def admit_batch(self, time: int, loads: Sequence[int]) -> AdmittedRows:
        """Admit all of this step's demand; ``loads`` is ignored
        (buffers absorb everything)."""
        index = self._index
        assert index, "prepare() must run before admit_batch()"
        generated_at = self.generated_at
        first = packet_id = self.next_id
        sources: List[int] = []
        destinations: List[int] = []
        for at, to in zip(*self.traffic.arrival_rows(time, index)):
            if to == at:
                continue
            generated_at[packet_id] = time
            sources.append(at)
            destinations.append(to)
            packet_id += 1
        self.next_id = packet_id
        injected = packet_id - first
        return injected, list(range(first, packet_id)), sources, destinations

    def snapshot_state(self) -> Dict[str, Any]:
        """JSON-safe source state (no backlog: buffers absorb all)."""
        return {
            "type": "immediate",
            "next_id": self.next_id,
            "generated_at": {
                str(packet_id): step
                for packet_id, step in self.generated_at.items()
            },
        }

    def restore_state(self, payload: Dict[str, Any]) -> None:
        if payload.get("type") != "immediate":
            raise ValueError(
                f"source snapshot type {payload.get('type')!r} does not "
                f"match ImmediateInjection"
            )
        self.next_id = int(payload["next_id"])
        self.generated_at = {
            int(packet_id): int(step)
            for packet_id, step in payload["generated_at"].items()
        }
