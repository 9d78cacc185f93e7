"""Unit and property tests for the matching machinery.

The analysis-critical facts: the priority matching is maximum, it
never unmatches an earlier-priority vertex, single-option vertices
keep their assignment, and maximality is exactly the node-level greedy
condition.
"""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import (
    _augment,
    assign_leftovers,
    greedy_maximal_matching,
    is_maximal_matching,
    kuhn_matching,
    maximum_matching_size,
    priority_maximum_matching,
)


def random_adjacency(draw):
    num_left = draw(st.integers(0, 6))
    num_right = draw(st.integers(1, 6))
    return {
        f"p{i}": draw(
            st.lists(
                st.sampled_from([f"d{j}" for j in range(num_right)]),
                unique=True,
                max_size=num_right,
            )
        )
        for i in range(num_left)
    }


adjacency_strategy = st.composite(random_adjacency)()


class TestPriorityMaximumMatching:
    def test_simple_conflict(self):
        adjacency = {"a": ["x"], "b": ["x"]}
        matching = priority_maximum_matching(adjacency, ["a", "b"])
        assert matching == {"a": "x"}

    def test_priority_decides_winner(self):
        adjacency = {"a": ["x"], "b": ["x"]}
        matching = priority_maximum_matching(adjacency, ["b", "a"])
        assert matching == {"b": "x"}

    def test_augmenting_path_reroutes_flexible_vertex(self):
        # b (flexible) grabbed x; a (restricted to x) still gets matched
        # because b can be rerouted to y.
        adjacency = {"b": ["x", "y"], "a": ["x"]}
        matching = priority_maximum_matching(adjacency, ["b", "a"])
        assert matching == {"b": "y", "a": "x"}

    def test_contended_call_leaves_no_reference_cycle(self):
        # "b" reroutes "a" off x (a recursive augmentation).  The
        # search must free everything by reference counting: with the
        # collector off, a full collection afterwards finds nothing.
        adjacency = {"a": ["x", "y"], "b": ["x"], "c": ["y", "z"]}
        gc.collect()
        gc.disable()
        try:
            matching = priority_maximum_matching(adjacency, ["a", "b", "c"])
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert matching == {"a": "y", "b": "x", "c": "z"}
        assert unreachable == 0

    def test_is_maximum(self):
        adjacency = {
            "a": ["x", "y"],
            "b": ["y"],
            "c": ["x"],
        }
        matching = priority_maximum_matching(adjacency, ["a", "b", "c"])
        assert len(matching) == 2  # x and y both used

    def test_restricted_arc_is_dead_end(self):
        # Both a1 and a2 are restricted to x.  Whoever wins, a later
        # flexible packet can never steal x through an augmenting path.
        adjacency = {"a1": ["x"], "a2": ["x"], "flex": ["x", "y"]}
        matching = priority_maximum_matching(
            adjacency, ["a1", "a2", "flex"]
        )
        assert matching["a1"] == "x"
        assert matching["flex"] == "y"
        assert "a2" not in matching

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            priority_maximum_matching({"a": ["x"]}, ["a", "b"])

    def test_empty(self):
        assert priority_maximum_matching({}, []) == {}

    @given(adjacency_strategy, st.integers(0, 999))
    @settings(max_examples=100, deadline=None)
    def test_always_maximum_regardless_of_order(self, adjacency, seed):
        order = list(adjacency)
        random.Random(seed).shuffle(order)
        matching = priority_maximum_matching(adjacency, order)
        # Compare against brute-force maximum.
        assert len(matching) == _brute_force_maximum(adjacency)

    @given(adjacency_strategy, st.integers(0, 999))
    @settings(max_examples=100, deadline=None)
    def test_matching_is_valid(self, adjacency, seed):
        order = list(adjacency)
        random.Random(seed).shuffle(order)
        matching = priority_maximum_matching(adjacency, order)
        values = list(matching.values())
        assert len(values) == len(set(values))  # injective
        for left, right in matching.items():
            assert right in adjacency[left]

    @given(adjacency_strategy)
    @settings(max_examples=100, deadline=None)
    def test_priority_prefix_is_served(self, adjacency):
        """The first-priority vertex is matched whenever it has any
        option — the property behind the fixed-priority (Hajek-style)
        algorithm's never-deflected leader."""
        order = sorted(adjacency)
        matching = priority_maximum_matching(adjacency, order)
        if order and adjacency[order[0]]:
            assert order[0] in matching


@st.composite
def node_problem(draw):
    """A node-local matching problem in dimension ``d``: up to ``2d``
    packets and ``2d`` directions, with a priority order."""
    dimension = draw(st.integers(1, 4))
    rights = [f"d{j}" for j in range(draw(st.integers(1, 2 * dimension)))]
    adjacency = {
        f"p{i}": draw(
            st.lists(st.sampled_from(rights), unique=True, max_size=len(rights))
        )
        for i in range(draw(st.integers(0, 2 * dimension)))
    }
    return adjacency, draw(st.permutations(list(adjacency)))


class TestKuhnCore:
    @given(node_problem())
    @settings(max_examples=300, deadline=None)
    def test_equals_one_search_per_vertex(self, problem):
        """The core's free-first-option shortcut takes exactly the arc a
        full augmenting-path search would: same pairs, same order."""
        adjacency, order = problem
        match_of_right, expected = {}, {}
        for left in order:
            _augment(left, adjacency, match_of_right, expected, set())
        matching = kuhn_matching(adjacency, order)
        assert list(matching.items()) == list(expected.items())
        assert priority_maximum_matching(adjacency, order) == matching


def _brute_force_maximum(adjacency):
    lefts = list(adjacency)

    def recurse(index, used):
        if index == len(lefts):
            return 0
        best = recurse(index + 1, used)
        for right in adjacency[lefts[index]]:
            if right not in used:
                used.add(right)
                best = max(best, 1 + recurse(index + 1, used))
                used.discard(right)
        return best

    return recurse(0, set())


class TestGreedyMaximalMatching:
    def test_first_fit(self):
        adjacency = {"a": ["x", "y"], "b": ["x"]}
        matching = greedy_maximal_matching(adjacency, ["a", "b"])
        assert matching == {"a": "x"}  # maximal but not maximum

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            greedy_maximal_matching({"a": ["x"]}, [])

    @given(adjacency_strategy)
    @settings(max_examples=100, deadline=None)
    def test_result_is_maximal(self, adjacency):
        matching = greedy_maximal_matching(adjacency, sorted(adjacency))
        assert is_maximal_matching(adjacency, matching)


class TestIsMaximal:
    def test_detects_non_maximal(self):
        adjacency = {"a": ["x"], "b": ["y"]}
        assert not is_maximal_matching(adjacency, {"a": "x"})
        assert is_maximal_matching(adjacency, {"a": "x", "b": "y"})

    def test_empty_matching_on_empty_options(self):
        assert is_maximal_matching({"a": []}, {})


class TestHelpers:
    def test_maximum_matching_size(self):
        assert maximum_matching_size({"a": ["x"], "b": ["x"]}) == 1

    def test_assign_leftovers(self):
        pairs = assign_leftovers(["p", "q"], ["d1", "d2", "d3"])
        assert pairs == [("p", "d1"), ("q", "d2")]

    def test_assign_leftovers_shortfall(self):
        with pytest.raises(ValueError):
            assign_leftovers(["p", "q"], ["d1"])
