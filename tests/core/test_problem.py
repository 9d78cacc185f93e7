"""Unit tests for RoutingProblem (the Section 2 many-to-many model)."""

import pytest

from repro.core.problem import Request, RoutingProblem
from repro.exceptions import InvalidProblemError
from repro.mesh.hypercube import Hypercube
from repro.mesh.topology import Mesh
from repro.mesh.torus import Torus
from repro.workloads import random_many_to_many


class TestValidation:
    def test_valid_problem(self, mesh4):
        problem = RoutingProblem.from_pairs(
            mesh4, [((1, 1), (4, 4)), ((2, 2), (1, 3))]
        )
        assert problem.k == 2

    def test_source_outside_mesh(self, mesh4):
        with pytest.raises(InvalidProblemError):
            RoutingProblem.from_pairs(mesh4, [((0, 1), (2, 2))])

    def test_destination_outside_mesh(self, mesh4):
        with pytest.raises(InvalidProblemError):
            RoutingProblem.from_pairs(mesh4, [((1, 1), (5, 2))])

    def test_origin_capacity_enforced(self, mesh4):
        # Corner (1,1) has out-degree 2; three origins there violate
        # the Section 2 rule.
        pairs = [((1, 1), (4, 4))] * 3
        with pytest.raises(InvalidProblemError):
            RoutingProblem.from_pairs(mesh4, pairs)

    def test_origin_capacity_at_limit_ok(self, mesh4):
        pairs = [((1, 1), (4, 4))] * 2
        problem = RoutingProblem.from_pairs(mesh4, pairs)
        assert problem.k == 2

    def test_interior_capacity_is_2d(self, mesh4):
        pairs = [((2, 2), (4, 4))] * 4
        assert RoutingProblem.from_pairs(mesh4, pairs).k == 4
        with pytest.raises(InvalidProblemError):
            RoutingProblem.from_pairs(mesh4, pairs + [((2, 2), (1, 1))])

    def test_many_packets_one_destination_allowed(self, mesh4):
        pairs = [((1, 1), (3, 3)), ((2, 2), (3, 3)), ((4, 4), (3, 3))]
        problem = RoutingProblem.from_pairs(mesh4, pairs)
        assert problem.is_single_target()


class TestProperties:
    def test_d_max(self, mesh4):
        problem = RoutingProblem.from_pairs(
            mesh4, [((1, 1), (4, 4)), ((1, 1), (1, 2))]
        )
        assert problem.d_max == 6

    def test_d_max_empty(self, mesh4):
        assert RoutingProblem.from_pairs(mesh4, []).d_max == 0

    def test_total_distance(self, mesh4):
        problem = RoutingProblem.from_pairs(
            mesh4, [((1, 1), (4, 4)), ((2, 2), (2, 3))]
        )
        assert problem.total_distance == 7

    def test_is_permutation(self, mesh4):
        good = RoutingProblem.from_pairs(
            mesh4, [((1, 1), (2, 2)), ((2, 2), (1, 1))]
        )
        assert good.is_permutation()
        repeated_dest = RoutingProblem.from_pairs(
            mesh4, [((1, 1), (2, 2)), ((3, 3), (2, 2))]
        )
        assert not repeated_dest.is_permutation()

    def test_len(self, mesh4):
        assert len(RoutingProblem.from_pairs(mesh4, [((1, 1), (2, 2))])) == 1

    def test_describe_mentions_key_facts(self, mesh4):
        problem = RoutingProblem.from_pairs(
            mesh4, [((1, 1), (4, 4))], name="demo"
        )
        text = problem.describe()
        assert "demo" in text
        assert "k=1" in text

    def test_subproblem(self, mesh4):
        problem = RoutingProblem.from_pairs(
            mesh4,
            [((1, 1), (2, 2)), ((3, 3), (4, 4)), ((2, 1), (1, 2))],
        )
        sub = problem.subproblem([0, 2], name="half")
        assert sub.k == 2
        assert sub.requests[0] == Request((1, 1), (2, 2))
        assert sub.requests[1] == Request((2, 1), (1, 2))

    def test_make_packets_ids_are_indices(self, mesh4):
        problem = RoutingProblem.from_pairs(
            mesh4, [((1, 1), (2, 2)), ((3, 3), (4, 4))]
        )
        packets = problem.make_packets()
        assert [p.id for p in packets] == [0, 1]
        assert packets[1].source == (3, 3)

    def test_make_packets_fresh_each_call(self, mesh4):
        problem = RoutingProblem.from_pairs(mesh4, [((1, 1), (2, 2))])
        first = problem.make_packets()
        first[0].location = (9, 9)
        second = problem.make_packets()
        assert second[0].location == (1, 1)

    def test_frozen(self, mesh4):
        problem = RoutingProblem.from_pairs(mesh4, [((1, 1), (2, 2))])
        with pytest.raises(AttributeError):
            problem.requests = ()


class TestDistances:
    """``distances`` is one cached pass of ``mesh.distance``, indexed by
    packet id, on every mesh family (wraparound included)."""

    @pytest.mark.parametrize(
        "mesh",
        [Mesh(2, 6), Torus(2, 5), Torus(2, 6), Hypercube(4)],
        ids=repr,
    )
    def test_one_entry_per_request(self, mesh):
        problem = random_many_to_many(mesh, k=40, seed=3)
        assert problem.distances == tuple(
            mesh.distance(r.source, r.destination) for r in problem.requests
        )
        assert problem.d_max == max(problem.distances)
        assert problem.total_distance == sum(problem.distances)

    def test_entries_follow_packet_ids(self, mesh4):
        problem = RoutingProblem.from_pairs(
            mesh4, [((1, 1), (4, 4)), ((2, 2), (2, 3)), ((3, 3), (3, 3))]
        )
        assert problem.distances == (6, 1, 0)
        for packet in problem.make_packets():
            assert problem.distances[packet.id] == mesh4.distance(
                packet.source, packet.destination
            )

    def test_computed_once(self, mesh4):
        problem = RoutingProblem.from_pairs(mesh4, [((1, 1), (2, 2))])
        assert problem.distances is problem.distances

    def test_not_part_of_equality(self, mesh4):
        pairs = [((1, 1), (2, 2))]
        warm = RoutingProblem.from_pairs(mesh4, pairs)
        warm.distances
        assert warm == RoutingProblem.from_pairs(mesh4, pairs)
        assert hash(warm) == hash(RoutingProblem.from_pairs(mesh4, pairs))
