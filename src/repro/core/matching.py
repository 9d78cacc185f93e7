"""Bipartite matching of packets to good directions.

The greedy algorithms in this library reduce each node's per-step
decision to a matching problem: packets on one side, the node's
outgoing directions on the other, with an edge when the direction is
*good* for the packet (Definition 5).  Facts the analysis relies on:

* any **maximal** matching yields a greedy step (Definition 6): a
  packet left unmatched has every good direction matched, i.e. used by
  a packet advancing through it;
* a **maximum** matching additionally maximizes the number of advancing
  packets at the node, the extra requirement of the Section 5
  d-dimensional algorithm class;
* computing the maximum matching with Kuhn's augmenting-path algorithm,
  feeding packets in *priority order*, matches a priority-maximal set
  of packets (the matched set is the lexicographically best basis of
  the transversal matroid).  Feeding restricted packets first therefore
  implements "prefers restricted packets" (Definition 18): a restricted
  packet has a single good direction, so once matched it can never be
  rerouted by an augmenting path, and an arc held by a restricted
  packet is a dead end for later augmenting paths.

Node-local problems are tiny (at most ``2d`` packets and ``2d``
directions), so the simple O(V·E) Kuhn algorithm is the right tool.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Sequence, Set, Tuple, TypeVar

Left = TypeVar("Left", bound=Hashable)
Right = TypeVar("Right", bound=Hashable)


def priority_maximum_matching(
    adjacency: Mapping[Left, Sequence[Right]],
    order: Sequence[Left],
) -> Dict[Left, Right]:
    """Maximum bipartite matching honoring a priority order.

    Args:
        adjacency: for each left vertex, the right vertices it may
            match (a packet's good directions).
        order: all left vertices, highest priority first.  Vertices are
            offered augmenting paths in this order; once matched, a
            vertex stays matched (its assigned right vertex may still
            be swapped for another of *its own* options by later
            augmenting paths).

    Returns:
        A maximum matching as a left-to-right mapping.

    Raises:
        ValueError: if ``order`` does not cover ``adjacency`` exactly.
    """
    if set(order) != set(adjacency):
        raise ValueError("order must list exactly the adjacency keys")
    return kuhn_matching(adjacency, order)


def kuhn_matching(
    adjacency: Mapping[Left, Sequence[Right]],
    order: Sequence[Left],
) -> Dict[Left, Right]:
    """The Kuhn core of :func:`priority_maximum_matching`, unchecked.

    For callers that built ``order`` from ``adjacency`` themselves (the
    policy template), so the inputs are not checked again.  A vertex
    whose first option is free takes it without opening a search: that
    is the arc the search would take first, so the result equals one
    :func:`_augment` call per vertex in ``order``.
    """
    match_of_right: Dict[Right, Left] = {}
    match_of_left: Dict[Left, Right] = {}
    for left in order:
        options = adjacency[left]
        if options and options[0] not in match_of_right:
            match_of_right[options[0]] = left
            match_of_left[left] = options[0]
        else:
            _augment(left, adjacency, match_of_right, match_of_left, set())
    return match_of_left


def _augment(
    left: Left,
    adjacency: Mapping[Left, Sequence[Right]],
    match_of_right: Dict[Right, Left],
    match_of_left: Dict[Left, Right],
    visited: Set[Right],
) -> bool:
    """One Kuhn augmenting-path search from ``left``, in place.

    Tries ``left``'s options in adjacency order, recursing into the
    holder of each taken one.  A module-level function with its state
    passed in, so a search leaves no closure cycle behind.
    """
    for right in adjacency[left]:
        if right in visited:
            continue
        visited.add(right)
        holder = match_of_right.get(right)
        if holder is None or _augment(
            holder, adjacency, match_of_right, match_of_left, visited
        ):
            match_of_right[right] = left
            match_of_left[left] = right
            return True
    return False


def greedy_maximal_matching(
    adjacency: Mapping[Left, Sequence[Right]],
    order: Sequence[Left],
) -> Dict[Left, Right]:
    """Maximal (not necessarily maximum) matching by one greedy pass.

    Each left vertex in ``order`` takes its first still-free option.
    Provided for experiments contrasting maximal-only greedy steps with
    the maximum-matching steps required by the Section 5 algorithms.
    """
    if set(order) != set(adjacency):
        raise ValueError("order must list exactly the adjacency keys")
    return first_fit_matching(adjacency, order)


def first_fit_matching(
    adjacency: Mapping[Left, Sequence[Right]],
    order: Sequence[Left],
) -> Dict[Left, Right]:
    """The core of :func:`greedy_maximal_matching`, unchecked (the
    caller built ``order`` from ``adjacency``)."""
    taken: Set[Right] = set()
    result: Dict[Left, Right] = {}
    for left in order:
        for right in adjacency[left]:
            if right not in taken:
                taken.add(right)
                result[left] = right
                break
    return result


def is_maximal_matching(
    adjacency: Mapping[Left, Sequence[Right]],
    matching: Mapping[Left, Right],
) -> bool:
    """Check that no unmatched left vertex has an unmatched option.

    This is exactly the greediness condition (Definition 6) at the
    node level: a deflected packet may exist only if all its good
    directions are in use.
    """
    used = set(matching.values())
    for left, options in adjacency.items():
        if left in matching:
            continue
        if any(right not in used for right in options):
            return False
    return True


def maximum_matching_size(
    adjacency: Mapping[Left, Sequence[Right]],
) -> int:
    """Size of a maximum matching (used by the max-advance validator)."""
    order = list(adjacency)
    return len(priority_maximum_matching(adjacency, order))


def assign_leftovers(
    unmatched: Sequence[Left],
    free_rights: Sequence[Right],
) -> List[Tuple[Left, Right]]:
    """Pair deflected packets with unused directions, in the given orders.

    The caller guarantees ``len(free_rights) >= len(unmatched)`` (a
    mesh node has at least as many out-arcs as packets); a shortfall is
    a protocol violation and raises ValueError.
    """
    if len(free_rights) < len(unmatched):
        raise ValueError(
            f"{len(unmatched)} packets to deflect but only "
            f"{len(free_rights)} free directions"
        )
    return list(zip(unmatched, free_rights))
