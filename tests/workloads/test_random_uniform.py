"""Tests for random many-to-many workload generators."""

from collections import Counter

import pytest

from repro.exceptions import ConfigurationError
from repro.mesh.hypercube import Hypercube
from repro.mesh.topology import Mesh
from repro.mesh.torus import Torus
from repro.workloads.random_uniform import (
    max_packets,
    random_many_to_many,
    saturated_load,
)


class TestMaxPackets:
    def test_small_mesh(self):
        # 3x3 mesh: 4 corners * 2 + 4 edges * 3 + 1 interior * 4 = 24.
        assert max_packets(Mesh(2, 3)) == 24

    def test_matches_arc_count(self, mesh8):
        assert max_packets(mesh8) == sum(1 for _ in mesh8.arcs())

    @pytest.mark.parametrize(
        "mesh",
        [
            Mesh(1, 5),
            Mesh(2, 3),
            Mesh(3, 4),
            Torus(1, 5),
            Torus(2, 6),
            Torus(3, 3),
            Hypercube(4),
        ],
        ids=lambda mesh: f"{mesh.kind}-d{mesh.dimension}-n{mesh.side}",
    )
    def test_closed_form_arc_count(self, mesh):
        # num_arcs is arithmetic; the arc walk and the degree sum are
        # the definitions it must agree with on every family.
        arcs = sum(1 for _ in mesh.arcs())
        assert mesh.num_arcs == arcs
        assert sum(mesh.degree(node) for node in mesh.nodes()) == arcs
        assert max_packets(mesh) == arcs


class TestRandomManyToMany:
    def test_k_packets(self, mesh8):
        problem = random_many_to_many(mesh8, k=30, seed=0)
        assert problem.k == 30

    def test_respects_capacity(self, mesh8):
        problem = random_many_to_many(mesh8, k=200, seed=1)
        origins = Counter(r.source for r in problem.requests)
        for node, count in origins.items():
            assert count <= mesh8.degree(node)

    def test_excludes_trivial_by_default(self, mesh8):
        problem = random_many_to_many(mesh8, k=100, seed=2)
        assert all(r.source != r.destination for r in problem.requests)

    def test_trivial_allowed_when_asked(self, mesh8):
        problem = random_many_to_many(
            mesh8, k=150, seed=3, exclude_trivial=False
        )
        # With 150 draws over 64 destinations a self-loop is near-certain.
        assert problem.k == 150

    def test_reproducible(self, mesh8):
        a = random_many_to_many(mesh8, k=25, seed=9)
        b = random_many_to_many(mesh8, k=25, seed=9)
        assert a.requests == b.requests

    def test_different_seeds_differ(self, mesh8):
        a = random_many_to_many(mesh8, k=25, seed=9)
        b = random_many_to_many(mesh8, k=25, seed=10)
        assert a.requests != b.requests

    def test_over_capacity_rejected(self):
        mesh = Mesh(2, 3)
        with pytest.raises(ConfigurationError):
            random_many_to_many(mesh, k=25, seed=0)

    def test_full_capacity_possible(self):
        mesh = Mesh(2, 3)
        problem = random_many_to_many(mesh, k=24, seed=4)
        assert problem.k == 24

    def test_name(self, mesh8):
        assert random_many_to_many(mesh8, k=5, seed=0).name == "random-k5"
        assert (
            random_many_to_many(mesh8, k=5, seed=0, name="custom").name
            == "custom"
        )


class TestSaturatedLoad:
    def test_one_per_node(self, mesh8):
        problem = saturated_load(mesh8, per_node=1, seed=5)
        assert problem.k == 64
        origins = Counter(r.source for r in problem.requests)
        assert all(count == 1 for count in origins.values())

    def test_four_per_node_caps_at_degree(self, mesh8):
        problem = saturated_load(mesh8, per_node=4, seed=6)
        origins = Counter(r.source for r in problem.requests)
        assert origins[(1, 1)] == 2  # corner degree
        assert origins[(4, 4)] == 4  # interior degree
        # 4 corners*2 + 24 edge*3 + 36 interior*4 = 224.
        assert problem.k == 224

    def test_rejects_nonpositive(self, mesh8):
        with pytest.raises(ValueError):
            saturated_load(mesh8, per_node=0)

    def test_no_trivial_requests(self, mesh8):
        problem = saturated_load(mesh8, per_node=2, seed=7)
        assert all(r.source != r.destination for r in problem.requests)
