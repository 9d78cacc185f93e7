"""Unit tests for the d-dimensional mesh (Definitions 1 and 5)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.directions import Direction
from repro.mesh.hypercube import Hypercube
from repro.mesh.topology import Mesh
from repro.mesh.torus import Torus

#: Every small shape of every family: the closed forms must match the
#: arc tables node for node on each.
_SHAPES = (
    [Mesh(d, n) for d in (1, 2, 3) for n in range(2, 7)]
    + [Torus(d, n) for d in (1, 2, 3) for n in range(3, 7)]
    + [Hypercube(d) for d in range(1, 7)]
)


class TestShape:
    def test_num_nodes(self):
        assert Mesh(2, 4).num_nodes == 16
        assert Mesh(3, 3).num_nodes == 27

    def test_diameter(self):
        # d(n-1) per Section 2.1.
        assert Mesh(2, 8).diameter == 14
        assert Mesh(3, 4).diameter == 9

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Mesh(0, 4)
        with pytest.raises(ValueError):
            Mesh(2, 1)

    def test_equality_and_hash(self):
        assert Mesh(2, 4) == Mesh(2, 4)
        assert Mesh(2, 4) != Mesh(2, 5)
        assert hash(Mesh(2, 4)) == hash(Mesh(2, 4))

    def test_repr(self):
        assert "dimension=2" in repr(Mesh(2, 4))

    def test_nodes_enumeration(self):
        nodes = list(Mesh(2, 3).nodes())
        assert len(nodes) == 9
        assert nodes[0] == (1, 1)
        assert nodes[-1] == (3, 3)
        assert len(set(nodes)) == 9


class TestAdjacency:
    def test_interior_degree_2d(self):
        mesh = Mesh(2, 4)
        assert mesh.degree((2, 2)) == 4

    def test_corner_degree_equals_dimension(self):
        # Section 2.1: degree between d (corners) and 2d (interior).
        for dimension in (1, 2, 3):
            mesh = Mesh(dimension, 4)
            assert mesh.degree((1,) * dimension) == dimension
            assert mesh.degree((2,) * dimension) == 2 * dimension

    def test_neighbor_off_mesh_is_none(self):
        mesh = Mesh(2, 4)
        assert mesh.neighbor((1, 1), Direction(0, -1)) is None
        assert mesh.neighbor((4, 4), Direction(1, 1)) is None

    def test_neighbor_inside(self):
        mesh = Mesh(2, 4)
        assert mesh.neighbor((2, 2), Direction(0, 1)) == (3, 2)

    def test_neighbors_list(self):
        mesh = Mesh(2, 3)
        assert sorted(mesh.neighbors((1, 1))) == [(1, 2), (2, 1)]

    def test_out_arcs_match_out_directions(self):
        mesh = Mesh(2, 4)
        for node in mesh.nodes():
            arcs = mesh.out_arcs(node)
            assert len(arcs) == len(mesh.out_directions(node))
            for tail, head in arcs:
                assert tail == node
                assert mesh.contains(head)

    def test_in_arcs_are_reversed_out_arcs(self):
        mesh = Mesh(2, 3)
        for node in mesh.nodes():
            ins = set(mesh.in_arcs(node))
            outs = {(head, tail) for tail, head in mesh.out_arcs(node)}
            assert ins == outs

    def test_total_arc_count(self):
        # 2 * d * n^(d-1) * (n-1) directed arcs.
        mesh = Mesh(2, 4)
        assert sum(1 for _ in mesh.arcs()) == 2 * 2 * 4 * 3

    def test_is_arc(self):
        mesh = Mesh(2, 3)
        assert mesh.is_arc(((1, 1), (1, 2)))
        assert not mesh.is_arc(((1, 1), (2, 2)))
        assert not mesh.is_arc(((1, 1), (0, 1)))

    def test_contains(self):
        mesh = Mesh(2, 3)
        assert mesh.contains((3, 3))
        assert not mesh.contains((3, 4))
        assert not mesh.contains((1, 2, 3))


class TestClosedForms:
    """``degree`` and ``contains`` answer without building arc tables;
    the tables, built through ``neighbor``, are the reference."""

    @pytest.mark.parametrize("mesh", _SHAPES, ids=repr)
    def test_degree_is_the_arc_table_degree(self, mesh):
        for node in mesh.nodes():
            expected = len(mesh.node_arcs(node).out_directions)
            assert mesh.degree(node) == expected, node

    @pytest.mark.parametrize("mesh", _SHAPES, ids=repr)
    def test_contains_is_the_box_test(self, mesh):
        d, n = mesh.dimension, mesh.side
        for length in (d - 1, d, d + 1):
            if length == 0:
                continue
            for point in itertools.product(range(-1, n + 3), repeat=length):
                expected = length == d and all(1 <= x <= n for x in point)
                assert mesh.contains(point) == expected, point


class TestGoodDirections:
    def test_paper_five_dimensional_example(self):
        # Section 2.2: in the 5-dim mesh, packet at (1,3,2,6,1) destined
        # to (4,3,8,2,1) has exactly three good directions.
        mesh = Mesh(5, 8)
        good = set(mesh.good_directions((1, 3, 2, 6, 1), (4, 3, 8, 2, 1)))
        assert good == {Direction(0, 1), Direction(2, 1), Direction(3, -1)}
        bad = set(mesh.bad_directions((1, 3, 2, 6, 1), (4, 3, 8, 2, 1)))
        assert len(bad) == 10 - 3
        assert good.isdisjoint(bad)

    def test_good_arcs_decrease_distance(self):
        mesh = Mesh(2, 6)
        node, destination = (3, 3), (6, 1)
        for arc in mesh.good_arcs(node, destination):
            assert mesh.is_good_arc(arc, destination)
            assert mesh.distance(arc[1], destination) == (
                mesh.distance(node, destination) - 1
            )

    def test_no_good_directions_at_destination(self):
        mesh = Mesh(2, 4)
        assert mesh.good_directions((2, 2), (2, 2)) == []

    def test_every_off_destination_packet_has_a_good_direction(self):
        mesh = Mesh(2, 4)
        for node in mesh.nodes():
            for destination in mesh.nodes():
                if node != destination:
                    assert mesh.num_good_directions(node, destination) >= 1

    def test_restricted_predicate(self):
        mesh = Mesh(2, 5)
        # Same row, east of destination: one good direction.
        assert mesh.is_restricted((2, 4), (2, 1))
        # Diagonal offset: two good directions.
        assert not mesh.is_restricted((2, 2), (4, 4))
        # At destination: zero good directions, not restricted.
        assert not mesh.is_restricted((2, 2), (2, 2))

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_good_count_equals_nonzero_axes(self, dimension, data):
        mesh = Mesh(dimension, 5)
        coords = st.integers(1, 5)
        node = tuple(data.draw(coords) for _ in range(dimension))
        dest = tuple(data.draw(coords) for _ in range(dimension))
        # On the mesh (no boundary effect for moves toward an interior
        # destination) the good directions are exactly the nonzero axes.
        expected = sum(1 for a, b in zip(node, dest) if a != b)
        assert mesh.num_good_directions(node, dest) == expected


class TestConvenience:
    def test_corners(self):
        mesh = Mesh(2, 4)
        corners = {mesh.corner(i) for i in range(4)}
        assert corners == {(1, 1), (4, 1), (1, 4), (4, 4)}

    def test_corner_out_of_range(self):
        with pytest.raises(ValueError):
            Mesh(2, 4).corner(4)

    def test_center(self):
        assert Mesh(2, 5).center() == (3, 3)
        assert Mesh(2, 4).center() == (2, 2)

    def test_validate_node(self):
        mesh = Mesh(2, 4)
        assert mesh.validate_node([1, 4]) == (1, 4)
        with pytest.raises(ValueError):
            mesh.validate_node([0, 1])


class TestDistanceIsGraphDistance:
    def test_bfs_agreement_on_small_mesh(self):
        """L1 distance equals true shortest-path distance (BFS)."""
        mesh = Mesh(2, 4)
        nodes = list(mesh.nodes())
        source = (1, 1)
        frontier = {source}
        level = 0
        seen = {source: 0}
        while frontier:
            level += 1
            next_frontier = set()
            for node in frontier:
                for other in mesh.neighbors(node):
                    if other not in seen:
                        seen[other] = level
                        next_frontier.add(other)
            frontier = next_frontier
        for node in nodes:
            assert mesh.distance(source, node) == seen[node]
