"""The d-dimensional mesh network (Definition 1 of the paper).

A :class:`Mesh` is the ``n^d``-node graph whose nodes are all
d-dimensional vectors over ``{1, ..., n}``, with an arc between two
nodes exactly when their L1 distance is one.  Links are bidirectional,
modeled as a pair of antiparallel arcs, and at most one packet can
traverse a directed arc per synchronous step.

The class also implements the packet-centric vocabulary of
Definition 5: *good* and *bad* arcs/directions of a packet relative to
its destination, and the *restricted* predicate (exactly one good
direction) from Section 4.1.
"""

from __future__ import annotations

import itertools
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.mesh.coordinates import l1_distance, validate_node
from repro.mesh.directions import Direction, all_directions
from repro.types import Arc, Node

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.mesh.tables import ArcTables


class NodeArcs:
    """Precomputed adjacency of one node: the per-node arc table.

    Instances are built once per (mesh, node) and cached on the mesh,
    so the engine's hot loop resolves neighbors, out-directions and
    degrees with plain attribute reads instead of recomputing
    bounds checks every step.

    Attributes:
        out_directions: directions with an arc out of the node, in the
            mesh's canonical direction order.
        neighbors: neighbor per direction index (``None`` off-mesh),
            aligned with :attr:`Mesh.directions`.
        by_direction: direction -> neighbor for existing arcs only.
        degree: number of (bidirectional) links at the node.
    """

    __slots__ = ("out_directions", "neighbors", "by_direction", "degree")

    def __init__(
        self,
        out_directions: Tuple[Direction, ...],
        neighbors: Tuple[Optional[Node], ...],
        by_direction: Dict[Direction, Node],
    ) -> None:
        self.out_directions = out_directions
        self.neighbors = neighbors
        self.by_direction = by_direction
        self.degree = len(out_directions)


class Mesh:
    """A synchronous d-dimensional ``n^d`` mesh network.

    Args:
        dimension: the dimension ``d >= 1``.
        side: the side length ``n >= 2``; the mesh has ``n**d`` nodes.

    The mesh is immutable; all methods are pure queries.  Instances
    compare equal when they describe the same topology.
    """

    #: Human-readable topology family name, overridden by subclasses.
    kind: str = "mesh"

    def __init__(self, dimension: int, side: int) -> None:
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        if side < 2:
            raise ValueError(f"side must be >= 2, got {side}")
        self._dimension = dimension
        self._side = side
        self._directions: Tuple[Direction, ...] = tuple(
            all_directions(dimension)
        )
        # node -> NodeArcs, filled lazily by node_arcs(); shared across
        # every run on this mesh instance and bounded by the node count.
        # The mesh keeps no per-(node, destination) state: good
        # directions are a few coordinate comparisons per query.
        self._arc_cache: Dict[Node, NodeArcs] = {}

    def __getstate__(self) -> Dict[str, object]:
        # The arc tables are pure derived data; drop them so meshes
        # pickle small (process-pool case specs).
        state = self.__dict__.copy()
        state["_arc_cache"] = {}
        return state

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------

    @property
    def dimension(self) -> int:
        """The dimension ``d`` of the mesh."""
        return self._dimension

    @property
    def side(self) -> int:
        """The side length ``n`` of the mesh."""
        return self._side

    @property
    def num_nodes(self) -> int:
        """Total number of nodes, ``n**d``."""
        return self._side**self._dimension

    @property
    def num_arcs(self) -> int:
        """Total number of directed arcs, ``2d (n - 1) n**(d - 1)``:
        along each of the ``d`` axes, ``n**(d - 1)`` lines of ``n - 1``
        links, each link two arcs.  Equals the sum of node degrees."""
        d, n = self._dimension, self._side
        return 2 * d * (n - 1) * n ** (d - 1)

    @property
    def diameter(self) -> int:
        """Graph diameter, ``d * (n - 1)`` for the mesh."""
        return self._dimension * (self._side - 1)

    @property
    def max_degree(self) -> int:
        """Degree of an interior node, ``2d``."""
        return 2 * self._dimension

    @property
    def directions(self) -> Tuple[Direction, ...]:
        """The ``2d`` arc directions, in deterministic order."""
        return self._directions

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mesh):
            return NotImplemented
        return (
            type(self) is type(other)
            and self._dimension == other._dimension
            and self._side == other._side
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._dimension, self._side))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dimension={self._dimension}, side={self._side})"

    # ------------------------------------------------------------------
    # Nodes and adjacency
    # ------------------------------------------------------------------

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes in lexicographic order."""
        return itertools.product(
            range(1, self._side + 1), repeat=self._dimension
        )

    def contains(self, node: Node) -> bool:
        """Return True when ``node`` is a node of this mesh.

        The bounds test is C-level ``min``/``max`` over the
        coordinates: problem validation calls this twice per request
        and the arc-table builds once per probed neighbor.
        """
        return (
            len(node) == self._dimension
            and min(node) >= 1
            and max(node) <= self._side
        )

    def validate_node(self, point: Sequence[int]) -> Node:
        """Normalize a coordinate sequence to a node, or raise ValueError."""
        return validate_node(point, self._dimension, self._side)

    def neighbor(self, node: Node, direction: Direction) -> Optional[Node]:
        """Return the neighbor of ``node`` in ``direction``, or None.

        None is returned when the arc would leave the mesh (the node
        lies on the corresponding face of the box).
        """
        moved = direction.apply(node)
        return moved if self.contains(moved) else None

    def node_arcs(self, node: Node) -> NodeArcs:
        """The node's precomputed arc table (see :class:`NodeArcs`).

        Built on first use via the (possibly subclass-overridden)
        :meth:`neighbor` and cached for the lifetime of the mesh, so
        repeated adjacency queries — the engine makes them for every
        occupied node every step — cost a single dict lookup.
        """
        arcs = self._arc_cache.get(node)
        if arcs is None:
            neighbors = tuple(
                self.neighbor(node, direction)
                for direction in self._directions
            )
            out = tuple(
                direction
                for direction, other in zip(self._directions, neighbors)
                if other is not None
            )
            by_direction = {
                direction: other
                for direction, other in zip(self._directions, neighbors)
                if other is not None
            }
            arcs = NodeArcs(out, neighbors, by_direction)
            self._arc_cache[node] = arcs
        return arcs

    def build_arc_tables(self) -> None:
        """Eagerly build the arc table of every node.

        :meth:`node_arcs` fills the cache lazily, which is right for
        sparse workloads; long sweeps that will touch the whole mesh
        anyway can call this once to move the cost out of the first
        simulation steps.
        """
        for node in self.nodes():
            self.node_arcs(node)

    def arc_tables(self) -> "ArcTables":
        """Flat integer arc/goodness/distance tables for array kernels.

        The returned :class:`~repro.mesh.tables.ArcTables` is shared
        process-wide between meshes of the same shape (the tables are
        pure derived data); see :mod:`repro.mesh.tables` for the
        layout contract.
        """
        from repro.mesh.tables import arc_tables_for

        return arc_tables_for(self)

    def neighbors(self, node: Node) -> List[Node]:
        """All nodes adjacent to ``node``."""
        return [
            other
            for other in self.node_arcs(node).neighbors
            if other is not None
        ]

    def out_directions(self, node: Node) -> List[Direction]:
        """Directions in which an arc actually leaves ``node``."""
        return list(self.node_arcs(node).out_directions)

    def out_arcs(self, node: Node) -> List[Arc]:
        """All arcs leaving ``node``."""
        arcs = self.node_arcs(node)
        return [(node, arcs.by_direction[d]) for d in arcs.out_directions]

    def in_arcs(self, node: Node) -> List[Arc]:
        """All arcs entering ``node``.

        Because every link is bidirectional these are the reverses of
        :meth:`out_arcs`, hence in-degree equals out-degree everywhere.
        """
        return [(head, tail) for (tail, head) in self.out_arcs(node)]

    def degree(self, node: Node) -> int:
        """Number of (bidirectional) links at ``node``.

        Between ``d`` (corner) and ``2d`` (interior) for the mesh.  A
        coordinate equal to ``1`` has no ``-`` arc and one equal to
        ``n`` no ``+`` arc, so the closed form ``2d - #1s - #ns`` is
        the arc-table degree without building the table; it holds for
        mesh nodes (``contains(node)``) only.  The hypercube (``n =
        2``, every coordinate 1 or 2) gets ``d`` from the same formula.
        """
        return (
            2 * self._dimension - node.count(1) - node.count(self._side)
        )

    def arcs(self) -> Iterator[Arc]:
        """Iterate over every directed arc of the mesh."""
        for node in self.nodes():
            yield from self.out_arcs(node)

    def is_arc(self, arc: Arc) -> bool:
        """Return True when ``arc`` is a directed arc of this mesh."""
        tail, head = arc
        if not (self.contains(tail) and self.contains(head)):
            return False
        return any(
            self.neighbor(tail, direction) == head
            for direction in self._directions
        )

    # ------------------------------------------------------------------
    # Distances and packet-centric queries (Definition 5)
    # ------------------------------------------------------------------

    def distance(self, a: Node, b: Node) -> int:
        """Length of a shortest path between two nodes (L1 distance)."""
        return l1_distance(a, b)

    @property
    def unit_deflections(self) -> bool:
        """True when every non-good hop increases every packet's
        distance to its destination by exactly one.

        On the box mesh (and the hypercube) a hop against or past the
        destination along an axis always costs one, so the engine's
        fast path may track distances incrementally.  Meshes that break
        the invariant — the odd-side torus, where a bad hop out of a
        maximal per-axis offset wraps to an equally short way around —
        override this to ``False`` and the fast path recomputes the
        distance after each deflection.
        """
        return True

    def good_directions_tuple(
        self, node: Node, destination: Node
    ) -> Tuple[Direction, ...]:
        """Good directions (Definition 5) as an immutable tuple, in the
        canonical axis-major, ``+`` before ``-`` order.

        This is the accessor the engine's hot path and
        :class:`~repro.core.node_view.NodeView` use; it is computed on
        every query and callers must not rely on identity, only on
        contents.  On the box mesh, moving toward a valid destination
        coordinate can never leave the box, so the good directions are
        exactly the axes where the coordinates differ — no neighbor or
        distance queries needed.  Subclasses with different adjacency
        (the torus) override this.
        """
        directions = self._directions
        good = []
        axis2 = 0
        for a, b in zip(node, destination):
            if b > a:
                good.append(directions[axis2])
            elif b < a:
                good.append(directions[axis2 + 1])
            axis2 += 2
        return tuple(good)

    def good_directions(self, node: Node, destination: Node) -> List[Direction]:
        """Directions whose arc takes a packet at ``node`` closer to
        ``destination`` (Definition 5).

        A direction with no arc out of ``node`` (off the mesh edge) is
        never good.  Callers receive a fresh list each time.
        """
        return list(self.good_directions_tuple(node, destination))

    def bad_directions(self, node: Node, destination: Node) -> List[Direction]:
        """Directions that are not good for a packet at ``node`` destined
        for ``destination`` — either they contain a bad arc or no arc at
        all (Definition 5)."""
        good = set(self.good_directions(node, destination))
        return [d for d in self._directions if d not in good]

    def good_arcs(self, node: Node, destination: Node) -> List[Arc]:
        """Arcs out of ``node`` that enter a node closer to ``destination``."""
        arcs: List[Arc] = []
        for direction in self.good_directions(node, destination):
            successor = self.neighbor(node, direction)
            # A good direction always has an arc (Definition 5).
            assert successor is not None
            arcs.append((node, successor))
        return arcs

    def num_good_directions(self, node: Node, destination: Node) -> int:
        """Number of good directions of a packet at ``node``."""
        return len(self.good_directions_tuple(node, destination))

    def is_restricted(self, node: Node, destination: Node) -> bool:
        """True when a packet at ``node`` has exactly one good direction.

        This is the *restricted packet* predicate of Section 4.1
        (stated there for the 2-D mesh; the same definition is used by
        the d-dimensional generalization's finest priority class).
        """
        return len(self.good_directions_tuple(node, destination)) == 1

    def is_good_arc(self, arc: Arc, destination: Node) -> bool:
        """True when traversing ``arc`` strictly decreases the distance
        to ``destination``."""
        tail, head = arc
        return self.distance(head, destination) < self.distance(tail, destination)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def corner(self, which: int = 0) -> Node:
        """Return one of the ``2**d`` corner nodes.

        ``which`` is interpreted as a bitmask: bit ``i`` set means
        coordinate ``i`` is ``n``, otherwise ``1``.
        """
        if not 0 <= which < 2**self._dimension:
            raise ValueError(
                f"corner index {which} out of range for dimension {self._dimension}"
            )
        return tuple(
            self._side if which >> axis & 1 else 1
            for axis in range(self._dimension)
        )

    def center(self) -> Node:
        """A node as close to the geometric center as possible."""
        mid = (self._side + 1) // 2
        return (mid,) * self._dimension
