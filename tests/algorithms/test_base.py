"""Unit tests for the greedy matching template and deflection rules."""

import random

import pytest

from repro.algorithms.base import (
    DEFLECTION_RULES,
    GreedyMatchingPolicy,
    deflect,
)
from repro.core.engine import route
from repro.core.node_view import NodeView
from repro.core.packet import Packet
from repro.mesh.directions import Direction
from repro.mesh.topology import Mesh
from repro.workloads import random_many_to_many


class TestConstruction:
    def test_rejects_unknown_tie_break(self):
        with pytest.raises(ValueError):
            GreedyMatchingPolicy(tie_break="alphabetical")

    def test_rejects_unknown_deflection(self):
        with pytest.raises(ValueError):
            GreedyMatchingPolicy(deflection="bounce")

    def test_repr(self):
        policy = GreedyMatchingPolicy(tie_break="random", deflection="reverse")
        assert "random" in repr(policy)
        assert "reverse" in repr(policy)

    def test_declarations(self):
        policy = GreedyMatchingPolicy()
        assert policy.declares_greedy
        assert policy.declares_max_advance


class TestAssign:
    def _view(self, entries, node=None):
        mesh = Mesh(2, 6)
        node = node or entries[0][0]
        packets = [
            Packet(id=i, source=s, destination=d)
            for i, (s, d) in enumerate(entries)
        ]
        return NodeView(mesh, node, 0, packets), packets

    def test_lone_packet_advances(self):
        view, packets = self._view([((2, 2), (2, 5))])
        policy = GreedyMatchingPolicy()
        policy.prepare(view.mesh, None, random.Random(0))
        assignment = policy.assign(view)
        assert assignment[0] == Direction(1, 1)

    def test_maximum_matching_advances_both(self):
        # One flexible + one restricted wanting the same arc: the
        # flexible one is rerouted so both advance.
        view, _ = self._view([((3, 3), (5, 5)), ((3, 3), (3, 6))])
        policy = GreedyMatchingPolicy()
        policy.prepare(view.mesh, None, random.Random(0))
        assignment = policy.assign(view)
        assert assignment[1] == Direction(1, 1)  # restricted keeps east
        assert assignment[0] == Direction(0, 1)  # flexible rerouted south

    def test_full_node_all_assigned_distinct(self):
        entries = [
            ((3, 3), (1, 1)),
            ((3, 3), (6, 6)),
            ((3, 3), (3, 6)),
            ((3, 3), (6, 3)),
        ]
        view, _ = self._view(entries)
        policy = GreedyMatchingPolicy()
        policy.prepare(view.mesh, None, random.Random(0))
        assignment = policy.assign(view)
        assert len(assignment) == 4
        assert len(set(assignment.values())) == 4


class TestDeflectRules:
    def _setup(self):
        mesh = Mesh(2, 6)
        packet = Packet(id=0, source=(3, 3), destination=(3, 6))
        packet.entry_direction = Direction(0, 1)  # entered moving south
        view = NodeView(mesh, (3, 3), 1, [packet])
        free = [Direction(0, 1), Direction(0, -1), Direction(1, -1)]
        return view, packet, free

    def test_ordered_takes_first_free(self):
        view, packet, free = self._setup()
        result = deflect("ordered", view, [packet], free, random.Random(0))
        assert result[0] == free[0]

    def test_reverse_prefers_back_arc(self):
        view, packet, free = self._setup()
        result = deflect("reverse", view, [packet], free, random.Random(0))
        assert result[0] == Direction(0, -1)  # back where it came from

    def test_reverse_falls_back_when_back_taken(self):
        view, packet, free = self._setup()
        free = [Direction(0, 1), Direction(1, -1)]  # no north
        result = deflect("reverse", view, [packet], free, random.Random(0))
        assert result[0] in free

    def test_random_is_seed_dependent_but_valid(self):
        view, packet, free = self._setup()
        outcomes = {
            deflect("random", view, [packet], free, random.Random(s))[0]
            for s in range(20)
        }
        assert outcomes <= set(free)
        assert len(outcomes) > 1  # actually random

    def test_unknown_rule_rejected(self):
        view, packet, free = self._setup()
        with pytest.raises(ValueError):
            deflect("zigzag", view, [packet], free, random.Random(0))

    def test_all_rules_route_a_real_batch(self, mesh8):
        for rule in DEFLECTION_RULES:
            problem = random_many_to_many(mesh8, k=60, seed=60)
            policy = GreedyMatchingPolicy(deflection=rule)
            result = route(problem, policy, seed=60)
            assert result.completed, f"deflection rule {rule} failed"

    def test_both_tie_breaks_route_a_real_batch(self, mesh8):
        for tie in ("id", "random"):
            problem = random_many_to_many(mesh8, k=60, seed=61)
            policy = GreedyMatchingPolicy(tie_break=tie)
            result = route(problem, policy, seed=61)
            assert result.completed


class TestZeroDrawShuffles:
    """A shuffle of fewer than two items draws nothing, so the template
    (and the array kernel's replay of it) skips it.

    The first test pins the CPython behaviour the skip rests on:
    ``random.shuffle`` loops over ``range(len(x) - 1, 0, -1)``, which is
    empty for 0 or 1 items.  If a Python release ever drew there, every
    RNG-consuming golden would move and this test says why.
    """

    @pytest.mark.parametrize("size", [0, 1])
    def test_cpython_shuffle_of_fewer_than_two_draws_nothing(self, size):
        rng = random.Random(7)
        state = rng.getstate()
        items = list(range(size))
        rng.shuffle(items)
        assert items == list(range(size))
        assert rng.getstate() == state

    def test_cpython_shuffle_of_two_draws(self):
        rng = random.Random(7)
        state = rng.getstate()
        rng.shuffle([0, 1])
        assert rng.getstate() != state
