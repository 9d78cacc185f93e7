"""The d-dimensional torus: a mesh with wraparound links.

The paper's results are stated for the mesh, but several of the related
algorithms it discusses (Feige–Raghavan, Bar-Noy et al., Kaklamanis et
al.) are defined on the torus, so the baseline suite supports it.  The
torus is node-symmetric: every node has degree exactly ``2d``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.mesh.directions import Direction
from repro.mesh.topology import Mesh
from repro.types import Node


class Torus(Mesh):
    """A d-dimensional ``n^d`` torus.

    Identical to :class:`Mesh` except that coordinate ``n`` is adjacent
    to coordinate ``1`` along every axis, and distances are computed
    with wraparound.  With ``side == 2`` the wrap link would duplicate
    the direct link, so ``side >= 3`` is required.
    """

    kind = "torus"

    def __init__(self, dimension: int, side: int) -> None:
        if side < 3:
            raise ValueError(
                f"torus side must be >= 3 to avoid duplicate links, got {side}"
            )
        super().__init__(dimension, side)

    @property
    def diameter(self) -> int:
        """Graph diameter, ``d * floor(n / 2)`` for the torus."""
        return self.dimension * (self.side // 2)

    def neighbor(self, node: Node, direction: Direction) -> Optional[Node]:
        """Return the neighbor in ``direction``, wrapping around the box."""
        moved = list(node)
        moved[direction.axis] += direction.sign
        if moved[direction.axis] > self.side:
            moved[direction.axis] = 1
        elif moved[direction.axis] < 1:
            moved[direction.axis] = self.side
        return tuple(moved)

    @property
    def num_arcs(self) -> int:
        """Total number of directed arcs, ``2d n**d`` (every node has
        degree ``2d``)."""
        return 2 * self.dimension * self.num_nodes

    @property
    def unit_deflections(self) -> bool:
        """Even-side tori keep the ±1-per-hop distance invariant; with
        odd ``n`` a bad hop out of a maximal per-axis offset
        ``(n - 1) / 2`` wraps to an equally long way around, leaving
        the distance *unchanged*, so incremental tracking is inexact.
        """
        return self.side % 2 == 0

    def distance(self, a: Node, b: Node) -> int:
        """Shortest-path distance with per-axis wraparound."""
        if len(a) != len(b):
            raise ValueError("dimension mismatch in torus distance")
        total = 0
        for x, y in zip(a, b):
            straight = abs(x - y)
            total += min(straight, self.side - straight)
        return total

    def out_directions(self, node: Node) -> List[Direction]:
        """Every direction has an arc on the torus."""
        return list(self.directions)

    def degree(self, node: Node) -> int:
        """Every torus node has full degree ``2d``."""
        return 2 * self.dimension

    def good_directions_tuple(
        self, node: Node, destination: Node
    ) -> Tuple[Direction, ...]:
        """Wraparound-aware good directions (Definition 5).

        Per axis the packet may travel straight or around the wrap.
        With ``off = (b - a) mod n`` the ``+`` way costs ``off`` hops
        and the ``-`` way ``n - off``; the shorter way is good, and at
        the exact midpoint (even ``n``, ``off = n/2``) *both* are.
        """
        directions = self.directions
        n = self.side
        good = []
        axis2 = 0
        for a, b in zip(node, destination):
            if a != b:
                twice = 2 * ((b - a) % n)
                if twice <= n:
                    good.append(directions[axis2])
                if twice >= n:
                    good.append(directions[axis2 + 1])
            axis2 += 2
        return tuple(good)
