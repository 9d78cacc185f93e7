"""ArcAssignmentError paths: malformed policy output must raise the
same structured error on every kernel path (lean, instrumented, and
the lean loop with its fault phase on)."""

import pytest

from repro.core.buffered_engine import BufferedEngine
from repro.core.engine import HotPotatoEngine
from repro.core.events import RunObserver
from repro.core.policy import BufferedPolicy, RoutingPolicy
from repro.core.problem import RoutingProblem
from repro.exceptions import ArcAssignmentError
from repro.faults import FaultSchedule
from repro.mesh.topology import Mesh


def one_packet_problem():
    return RoutingProblem.from_pairs(
        Mesh(2, 3), [((1, 1), (3, 3))], name="one"
    )


class EmptyAssignmentPolicy(RoutingPolicy):
    """Violates "nobody stays": returns no direction for anyone."""

    name = "empty-assignment"

    def assign(self, view):
        return {}


class OffMeshPolicy(RoutingPolicy):
    """Assigns a direction whose arc leaves the mesh at the node."""

    name = "off-mesh"

    def assign(self, view):
        arcs = view.mesh.node_arcs(view.node)
        live = set(arcs.by_direction)
        dead = [d for d in view.mesh.directions if d not in live]
        direction = dead[0] if dead else arcs.out_directions[0]
        return {packet.id: direction for packet in view.packets}


class HoldThenCollidePolicy(BufferedPolicy):
    """Forwards packet 0 greedily while holding packet 1; once the two
    share a node both get the same arc — a capacity violation."""

    name = "hold-then-collide"

    def forward(self, view):
        if len(view.packets) >= 2:
            direction = view.good_directions(view.packets[0])[0]
            return {p.id: direction for p in view.packets}
        packet = view.packets[0]
        if packet.id == 1:
            return {}  # hold until the other packet arrives
        return {packet.id: view.good_directions(packet)[0]}


class UnknownPacketPolicy(BufferedPolicy):
    """Names a packet id that is not buffered at the node."""

    name = "unknown-packet"

    def forward(self, view):
        direction = view.mesh.node_arcs(view.node).out_directions[0]
        return {9999: direction}


class TestHotPotatoBadPolicies:
    def test_empty_assignment_raises_on_lean_path(self):
        engine = HotPotatoEngine(
            one_packet_problem(),
            EmptyAssignmentPolicy(),
            seed=0,
            backend="object",
        )
        with pytest.raises(ArcAssignmentError):
            engine.run()

    def test_empty_assignment_raises_on_instrumented_path(self):
        engine = HotPotatoEngine(
            one_packet_problem(),
            EmptyAssignmentPolicy(),
            seed=0,
            observers=[RunObserver()],
        )
        with pytest.raises(ArcAssignmentError):
            engine.run()

    def test_empty_assignment_raises_on_guarded_path(self):
        """The lean loop keeps the strict checks with faults on."""
        engine = HotPotatoEngine(
            one_packet_problem(),
            EmptyAssignmentPolicy(),
            seed=0,
            faults=FaultSchedule.empty(),
        )
        with pytest.raises(ArcAssignmentError):
            engine.run()

    def test_off_mesh_direction_raises_everywhere(self):
        for kwargs in (
            {},
            {"observers": [RunObserver()]},
            {"faults": FaultSchedule.empty()},
        ):
            engine = HotPotatoEngine(
                one_packet_problem(), OffMeshPolicy(), seed=0, **kwargs
            )
            with pytest.raises(ArcAssignmentError):
                engine.run()


class TestBufferedBadPolicies:
    def collision_problem(self):
        # Both head along +x; the policy merges them onto one node.
        return RoutingProblem.from_pairs(
            Mesh(2, 3),
            [((1, 1), (3, 1)), ((2, 1), (3, 1))],
            name="collide",
        )

    def test_duplicate_direction_raises_on_lean_path(self):
        engine = BufferedEngine(
            self.collision_problem(),
            HoldThenCollidePolicy(),
            seed=0,
            backend="object",
        )
        with pytest.raises(ArcAssignmentError):
            engine.run()

    def test_duplicate_direction_raises_on_instrumented_path(self):
        engine = BufferedEngine(
            self.collision_problem(),
            HoldThenCollidePolicy(),
            seed=0,
            observers=[RunObserver()],
        )
        with pytest.raises(ArcAssignmentError):
            engine.run()

    def test_unknown_packet_raises_on_every_path(self):
        for kwargs in (
            {},
            {"observers": [RunObserver()]},
            {"faults": FaultSchedule.empty()},
        ):
            engine = BufferedEngine(
                one_packet_problem(),
                UnknownPacketPolicy(),
                seed=0,
                **kwargs,
            )
            with pytest.raises(ArcAssignmentError):
                engine.run()
