"""Integer-encoded per-node conflict resolution for the array kernel.

These helpers replay the object kernel's per-node decision pipeline —
``priority_maximum_matching`` / ``greedy_maximal_matching`` followed by
:func:`repro.algorithms.deflect` — on flat integer state: packets are
row indices, directions are canonical direction indices, and a packet's
good-direction set is a bitmask.  Every ordering contract of the object
pipeline is preserved bit-for-bit:

* adjacency is scanned in ascending bit order, matching the canonical
  direction order that ``NodeView.good_directions`` yields;
* the Kuhn augmentation tracks visited directions per left vertex as a
  *bitmask* (membership tests only — determinism-lint DET102 stays
  clean by construction: there is no set to iterate);
* free directions are enumerated in canonical order before the
  deflection rule permutes or consumes them, and ``random`` deflection
  shuffles through the caller-supplied policy RNG so the sanctioned
  stream advances exactly as in the object kernel.

This is the columnar loop's per-node decision, and the only source of
the numpy step's answers: its decision table
(:class:`~repro.core.soa.kernel.DecisionTable`) calls
:func:`resolve_node` once per node key it has not met before, and for
every node too full for a key, and serves the stored answer for every
later node with that key.  The matching routines are written
allocation-light: direction state lives in small lists indexed by
direction (at most ``2 * dimension`` slots) and int bitmasks, and the
ubiquitous uncontended case — a row whose lowest good direction is
still free — short-circuits past the augmentation machinery entirely.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["bits_of", "kuhn_match", "first_fit_match", "resolve_node"]


def bits_of(mask: int) -> List[int]:
    """Set bit indices of ``mask`` in ascending (canonical) order."""
    out: List[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def kuhn_match(
    order: Sequence[int], good: Sequence[int], out_mask: int
) -> Dict[int, int]:
    """Maximum matching with priority order, on bitmask adjacency.

    ``order`` lists row indices highest-priority first; ``good[row]``
    is the row's good-direction bitmask (a subset of ``out_mask``).
    Mirrors
    :func:`repro.algorithms.matching.priority_maximum_matching`:
    earlier rows keep their matches, later rows may only augment.

    The augmentation explores directions in ascending bit order, so a
    row whose lowest good direction is untaken receives exactly that
    direction — that case is assigned directly, and only genuinely
    contended rows run the recursive augmentation.
    """
    match_of_dir: List[int] = [-1] * out_mask.bit_length()
    match: Dict[int, int] = {}
    taken = 0
    for row in order:
        good_mask = good[row]
        low = good_mask & -good_mask
        if not taken & low:
            # Lowest good direction still free (or no good direction
            # at all): identical to what the augmentation would do.
            if good_mask:
                direction = low.bit_length() - 1
                match_of_dir[direction] = row
                match[row] = direction
                taken |= low
            continue
        taken |= _augment(row, good, match_of_dir, match, 0)[0]
    return match


def _augment(
    row: int,
    good: Sequence[int],
    match_of_dir: List[int],
    match: Dict[int, int],
    visited: int,
) -> Tuple[int, int]:
    """One Kuhn augmenting-path search from ``row``, in place.

    Explores ``row``'s good directions in ascending bit order, skipping
    the ``visited`` bitmask, and recurses into the holder of each taken
    direction.  Returns ``(freed, visited)``: ``freed`` is the bit of
    the previously free direction the path ends on (0 when no path
    exists), ``visited`` the grown mask.  A module-level function with
    its state passed in, so a search leaves no closure cycle behind.
    """
    mask = good[row]
    while mask:
        low = mask & -mask
        mask ^= low
        if visited & low:
            continue
        visited |= low
        direction = low.bit_length() - 1
        holder = match_of_dir[direction]
        if holder < 0:
            freed = low
        else:
            freed, visited = _augment(
                holder, good, match_of_dir, match, visited
            )
            if not freed:
                continue
        match_of_dir[direction] = row
        match[row] = direction
        return freed, visited
    return 0, visited


def first_fit_match(
    order: Sequence[int], good: Sequence[int]
) -> Dict[int, int]:
    """First-fit maximal matching on bitmask adjacency.

    Mirrors :func:`repro.algorithms.matching.greedy_maximal_matching`:
    each row in ``order`` takes its first (canonical-order) good
    direction not already taken.
    """
    taken = 0
    match: Dict[int, int] = {}
    for row in order:
        mask = good[row]
        while mask:
            low = mask & -mask
            mask ^= low
            if not taken & low:
                taken |= low
                match[row] = low.bit_length() - 1
                break
    return match


def resolve_node(
    ordered: Sequence[int],
    id_ordered: Sequence[int],
    good: Sequence[int],
    entry: Sequence[int],
    out_mask: int,
    first_fit: bool,
    deflection: str,
    rng: Optional[random.Random],
) -> Dict[int, int]:
    """One node's full assignment: matching plus deflection.

    Args:
        ordered: the node's rows in priority order (post tie-break and
            priority sort) — the matching order for the Kuhn pipeline.
        id_ordered: the same rows in packet-id order — the matching
            order for the first-fit pipeline (``MaximalGreedyPolicy``
            matches in id order regardless of deflection ordering).
        good: row -> good-direction bitmask (global, indexed by row).
        entry: row -> entry-direction index, ``-1`` for none (used by
            the ``reverse`` rule; the canonical encoding makes the
            opposite direction ``entry ^ 1``).
        out_mask: bitmask of directions with an outgoing arc.
        first_fit: select the first-fit pipeline instead of Kuhn.
        deflection: ``"ordered"`` | ``"random"`` | ``"reverse"``.
        rng: the policy's sanctioned RNG; required for ``random``.

    Returns row -> direction index.  The caller is responsible for the
    completeness check (every row assigned) exactly like the object
    kernel's staging loop.
    """
    if first_fit:
        assignment = first_fit_match(id_ordered, good)
        source = id_ordered
    else:
        assignment = kuhn_match(ordered, good, out_mask)
        source = ordered
    if len(assignment) == len(source) and deflection != "random":
        # Fully matched and no RNG to advance ("random" shuffles a
        # free list of two or more even when nobody needs deflecting,
        # so it cannot take this shortcut).
        return assignment
    unmatched = [row for row in source if row not in assignment]
    used = 0
    for direction in assignment.values():
        used |= 1 << direction
    free = bits_of(out_mask & ~used)
    if deflection == "random":
        if rng is None:
            raise ValueError("random deflection requires the policy RNG")
        # A shuffle of fewer than two items draws nothing.
        if len(free) > 1:
            rng.shuffle(free)
    elif deflection == "reverse":
        remaining: List[int] = []
        for row in unmatched:
            arrived = entry[row]
            if arrived >= 0:
                back = arrived ^ 1
                if back in free:
                    assignment[row] = back
                    free.remove(back)
                    continue
            remaining.append(row)
        unmatched = remaining
    for row, direction in zip(unmatched, free):
        assignment[row] = direction
    return assignment
