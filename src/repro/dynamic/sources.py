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
generation-time table, so engines can delegate those wholesale.

Determinism contract: generation visits ``mesh.nodes()`` in mesh
order (a list cached at :meth:`prepare`), and capacity-limited
injection drains ``backlog.items()`` in *insertion* order (nodes enter
the dict on their first generation and keep that position), which
fixes packet ids and hence every downstream RNG-sensitive decision.
Do not "clean up" either iteration order.
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core.kernel import InjectionSource
from repro.core.packet import Packet
from repro.dynamic.injection import TrafficModel
from repro.mesh.topology import Mesh
from repro.types import Node, PacketId


class CapacityLimitedInjection(InjectionSource):
    """Inject up to each node's free out-degree; queue the rest."""

    def __init__(self, traffic: TrafficModel) -> None:
        self.traffic = traffic
        #: Pending (generated, not yet injected) packets per node:
        #: queue of (generation step, destination).
        self.backlog: Dict[Node, Deque[Tuple[int, Node]]] = defaultdict(deque)
        self.next_id: PacketId = 0
        self.generated_at: Dict[PacketId, int] = {}
        self._mesh: Optional[Mesh] = None
        self._nodes: List[Node] = []
        #: Running total of ``backlog``'s queue lengths.
        self._pending = 0

    def prepare(self, mesh: Mesh, rng: random.Random) -> None:
        self._mesh = mesh
        self._nodes = list(mesh.nodes())
        self.traffic.prepare(mesh, rng)

    def admit(self, time: int, in_flight: List[Packet]) -> Tuple[int, int]:
        loads: Dict[Node, int] = defaultdict(int)
        for packet in in_flight:
            loads[packet.location] += 1
        generated, injected = self.admit_batch(time, loads)
        in_flight.extend(injected)
        return generated, len(injected)

    def admit_batch(
        self, time: int, loads: Dict[Node, int]
    ) -> Tuple[int, List[Packet]]:
        """The inject phase against precomputed node loads.

        Same generation and drain order as :meth:`admit` — the array
        kernel calls this directly with loads derived from its
        position column, so the traffic stream and packet ids stay
        bit-identical to the object kernel.  ``loads`` is updated with
        the injected packets (callers that reuse it see post-injection
        occupancy, like the object path's local count did).
        """
        mesh = self._mesh
        assert mesh is not None, "prepare() must run before admit()"
        backlog = self.backlog
        arrivals = self.traffic.arrivals
        generated = 0
        for node in self._nodes:
            for destination in arrivals(node, time):
                if destination == node:
                    continue  # zero-distance demand is a no-op
                backlog[node].append((time, destination))
                generated += 1
        injected: List[Packet] = []
        degree = mesh.degree
        for node, queue in backlog.items():
            if not queue:
                continue
            free = degree(node) - loads.get(node, 0)
            count = 0
            while queue and free > 0:
                generated_at, destination = queue.popleft()
                packet = Packet(
                    id=self.next_id, source=node, destination=destination
                )
                self.generated_at[packet.id] = generated_at
                self.next_id += 1
                injected.append(packet)
                count += 1
                free -= 1
            if count:
                loads[node] = loads.get(node, 0) + count
        self._pending += generated - len(injected)
        return generated, injected

    def backlog_size(self) -> int:
        return self._pending

    def snapshot_state(self) -> Dict[str, Any]:
        """JSON-safe source state (see :mod:`repro.snapshot`).

        The backlog is serialized as an ordered list of
        ``[node, [[generated, destination], ...]]`` pairs: dict
        *insertion* order is the drain-order determinism contract, so
        it must survive the round trip — including nodes whose queue
        is currently empty, which keep their position.
        """
        return {
            "type": "capacity-limited",
            "next_id": self.next_id,
            "generated_at": {
                str(packet_id): step
                for packet_id, step in self.generated_at.items()
            },
            "backlog": [
                [
                    list(node),
                    [[step, list(destination)] for step, destination in queue],
                ]
                for node, queue in self.backlog.items()
            ],
        }

    def restore_state(self, payload: Dict[str, Any]) -> None:
        if payload.get("type") != "capacity-limited":
            raise ValueError(
                f"source snapshot type {payload.get('type')!r} does not "
                f"match CapacityLimitedInjection"
            )
        self.next_id = int(payload["next_id"])
        self.generated_at = {
            int(packet_id): int(step)
            for packet_id, step in payload["generated_at"].items()
        }
        self.backlog = defaultdict(deque)
        for node_data, queue_data in payload["backlog"]:
            node = tuple(int(c) for c in node_data)
            self.backlog[node] = deque(
                (int(step), tuple(int(c) for c in destination))
                for step, destination in queue_data
            )
        self._pending = sum(len(queue) for queue in self.backlog.values())


class ImmediateInjection(InjectionSource):
    """Inject every generated packet at once (buffered fabric)."""

    def __init__(self, traffic: TrafficModel) -> None:
        self.traffic = traffic
        self.next_id: PacketId = 0
        self.generated_at: Dict[PacketId, int] = {}
        self._nodes: Optional[List[Node]] = None

    def prepare(self, mesh: Mesh, rng: random.Random) -> None:
        self._nodes = list(mesh.nodes())
        self.traffic.prepare(mesh, rng)

    def admit(self, time: int, in_flight: List[Packet]) -> Tuple[int, int]:
        generated, injected = self.admit_batch(time, {})
        in_flight.extend(injected)
        return generated, len(injected)

    def admit_batch(
        self, time: int, loads: Dict[Node, int]
    ) -> Tuple[int, List[Packet]]:
        """Batch twin of :meth:`admit`; ``loads`` is ignored (buffers
        absorb everything)."""
        nodes = self._nodes
        assert nodes is not None, "prepare() must run before admit()"
        arrivals = self.traffic.arrivals
        injected: List[Packet] = []
        for node in nodes:
            for destination in arrivals(node, time):
                if destination == node:
                    continue
                packet = Packet(
                    id=self.next_id, source=node, destination=destination
                )
                self.generated_at[packet.id] = time
                self.next_id += 1
                injected.append(packet)
        return len(injected), injected

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
