"""Property tests pinning the soa backend's scalar conflict reference.

:mod:`repro.core.soa.conflict` replays the object policies' per-node
pipeline on integer state: rows for packets, direction indices for
directions and bitmasks for good-direction sets.  The columnar loop
runs it at every node, and the vectorized loop's decision table is
filled by it alone (``test_soa_decisions.py``), so each helper is
checked here against the object code it mirrors, on random nodes:

* ``kuhn_match`` against ``priority_maximum_matching``;
* ``first_fit_match`` against ``greedy_maximal_matching``;
* ``resolve_node`` against either matching followed by ``deflect``.

Nothing here needs numpy, so the suite also runs without it.
"""

import gc
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import DEFLECTION_RULES, deflect
from repro.core.matching import (
    greedy_maximal_matching,
    priority_maximum_matching,
)
from repro.core.packet import Packet
from repro.core.soa.conflict import first_fit_match, kuhn_match, resolve_node
from repro.mesh.directions import all_directions

_SETTINGS = settings(max_examples=300, deadline=None)


@st.composite
def _nodes(draw):
    """One node: ``(dimension, out_mask, good, entry, order)``.

    Every row has at most one good direction per axis, each with an
    outgoing arc, and the node holds at most one row per outgoing arc
    (the mesh's injection and in-degree bounds).  ``entry`` is a
    direction index or -1 for a packet that has not moved yet.
    """
    dimension = draw(st.integers(min_value=1, max_value=3))
    num_directions = 2 * dimension
    out_mask = draw(
        st.integers(min_value=1, max_value=(1 << num_directions) - 1)
    )
    rows = draw(
        st.integers(min_value=0, max_value=bin(out_mask).count("1"))
    )
    good = []
    for _ in range(rows):
        mask = 0
        for axis in range(dimension):
            options = [
                direction
                for direction in (2 * axis, 2 * axis + 1)
                if out_mask >> direction & 1
            ]
            direction = draw(st.sampled_from([None, *options]))
            if direction is not None:
                mask |= 1 << direction
        good.append(mask)
    entry = draw(
        st.lists(
            st.integers(min_value=-1, max_value=num_directions - 1),
            min_size=rows,
            max_size=rows,
        )
    )
    order = draw(st.permutations(range(rows)))
    return dimension, out_mask, good, entry, order


def _adjacency(good):
    """Row -> good direction indices, in canonical (ascending) order."""
    return {
        row: [k for k in range(mask.bit_length()) if mask >> k & 1]
        for row, mask in enumerate(good)
    }


def _object_pipeline(
    dimension, out_mask, good, entry, order, *, first_fit, rule, rng
):
    """The object policies' per-node assign, on the same node.

    ``GreedyMatchingPolicy.assign`` matches and deflects in priority
    order; ``MaximalGreedyPolicy.assign`` does both in id order.
    """
    directions = all_directions(dimension)
    source = sorted(order) if first_fit else list(order)
    adjacency = {
        row: [directions[k] for k in ks]
        for row, ks in _adjacency(good).items()
    }
    if first_fit:
        matching = greedy_maximal_matching(adjacency, source)
    else:
        matching = priority_maximum_matching(adjacency, source)
    used = set(matching.values())
    free = [
        direction
        for k, direction in enumerate(directions)
        if out_mask >> k & 1 and direction not in used
    ]
    packets = {}
    for row in source:
        packet = Packet(
            id=row, source=(1,) * dimension, destination=(1,) * dimension
        )
        if entry[row] >= 0:
            packet.entry_direction = directions[entry[row]]
        packets[row] = packet
    unmatched = [packets[row] for row in source if row not in matching]
    assignment = dict(matching)
    # deflect never reads the node view; the node here is synthetic.
    assignment.update(deflect(rule, None, unmatched, free, rng))
    return {row: directions.index(d) for row, d in assignment.items()}


class TestMatchings:
    @_SETTINGS
    @given(node=_nodes())
    def test_kuhn_match_equals_priority_maximum_matching(self, node):
        _, out_mask, good, _, order = node
        expected = priority_maximum_matching(_adjacency(good), order)
        assert kuhn_match(order, good, out_mask) == expected

    @_SETTINGS
    @given(node=_nodes())
    def test_first_fit_match_equals_greedy_maximal_matching(self, node):
        _, _, good, _, order = node
        expected = greedy_maximal_matching(_adjacency(good), order)
        assert first_fit_match(order, good) == expected

    def test_contended_call_leaves_no_reference_cycle(self):
        # Row 1 can only take direction 0, which row 0 holds, so the
        # augmentation recurses and moves row 0 onto direction 1.  The
        # search must free everything by reference counting: with the
        # collector off, a full collection afterwards finds nothing.
        gc.collect()
        gc.disable()
        try:
            match = kuhn_match([0, 1, 2], [0b0011, 0b0001, 0b0110], 0b1111)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert match == {0: 1, 1: 0, 2: 2}
        assert unreachable == 0


class TestResolveNode:
    @_SETTINGS
    @given(
        node=_nodes(),
        first_fit=st.booleans(),
        rule=st.sampled_from(DEFLECTION_RULES),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_equals_matching_then_deflect(
        self, node, first_fit, rule, seed
    ):
        dimension, out_mask, good, entry, order = node
        object_rng = random.Random(seed)
        expected = _object_pipeline(
            dimension,
            out_mask,
            good,
            entry,
            order,
            first_fit=first_fit,
            rule=rule,
            rng=object_rng,
        )
        rng = random.Random(seed)
        got = resolve_node(
            order, sorted(order), good, entry, out_mask, first_fit, rule, rng
        )
        assert got == expected
        # ``random`` shuffles through the caller's RNG exactly as the
        # object rule does, so both streams end in the same state.
        assert rng.getstate() == object_rng.getstate()
