"""Tests for the dynamic traffic models."""

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import PlainGreedyPolicy
from repro.dynamic import DynamicEngine
from repro.dynamic.injection import (
    BernoulliTraffic,
    HotSpotTraffic,
    ScriptedTraffic,
)
from repro.mesh.topology import Mesh


def _by_node(demand):
    """One step's ``(source, destination)`` pairs grouped by source."""
    grouped = {}
    for node, destination in demand:
        grouped.setdefault(node, []).append(destination)
    return grouped


class TestBernoulli:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            BernoulliTraffic(-0.1)
        with pytest.raises(ValueError):
            BernoulliTraffic(1.1)

    def test_zero_rate_generates_nothing(self, mesh8):
        traffic = BernoulliTraffic(0.0)
        traffic.prepare(mesh8, random.Random(0))
        assert traffic.arrivals(0) == []

    def test_rate_one_generates_everywhere(self, mesh8):
        traffic = BernoulliTraffic(1.0)
        traffic.prepare(mesh8, random.Random(0))
        demand = traffic.arrivals(0)
        # One packet per node, sources in mesh order.
        assert [node for node, _ in demand] == list(mesh8.nodes())
        for node, destination in demand:
            assert destination != node

    def test_empirical_rate(self, mesh8):
        traffic = BernoulliTraffic(0.3)
        traffic.prepare(mesh8, random.Random(1))
        total = sum(len(traffic.arrivals(step)) for step in range(100))
        expected = 0.3 * 100 * mesh8.num_nodes
        assert 0.8 * expected <= total <= 1.2 * expected

    def test_destinations_in_mesh(self, mesh8):
        traffic = BernoulliTraffic(1.0)
        traffic.prepare(mesh8, random.Random(2))
        for node, destination in traffic.arrivals(0):
            assert mesh8.contains(node)
            assert mesh8.contains(destination)


class TestHotSpot:
    def test_validation(self):
        with pytest.raises(ValueError):
            HotSpotTraffic(rate=2.0)
        with pytest.raises(ValueError):
            HotSpotTraffic(rate=0.5, hot_fraction=-1)

    def test_bad_hot_spot_rejected(self, mesh8):
        traffic = HotSpotTraffic(rate=0.5, hot_spot=(99, 99))
        with pytest.raises(ValueError):
            traffic.prepare(mesh8, random.Random(0))

    def test_default_hot_spot_is_center(self, mesh8):
        traffic = HotSpotTraffic(rate=1.0, hot_fraction=1.0)
        traffic.prepare(mesh8, random.Random(0))
        assert traffic.hot_spot == mesh8.center()
        demand = _by_node(traffic.arrivals(0))
        for node in mesh8.nodes():
            if node == traffic.hot_spot:
                continue
            assert demand[node] == [mesh8.center()]

    def test_hot_fraction_skews_destinations(self, mesh8):
        traffic = HotSpotTraffic(rate=1.0, hot_fraction=0.5)
        traffic.prepare(mesh8, random.Random(3))
        hits = 0
        total = 0
        for step in range(50):
            for _, destination in traffic.arrivals(step):
                total += 1
                if destination == traffic.hot_spot:
                    hits += 1
        assert hits / total > 0.3  # well above the uniform 1/64

    def test_reused_model_aims_at_each_mesh_center(self):
        # A defaulted hot spot is resolved by every prepare(), so one
        # model reused across meshes draws exactly what fresh ones do.
        reused = HotSpotTraffic(rate=0.5, hot_fraction=0.5)
        for side in (16, 32, 4):
            mesh = Mesh(2, side)
            fresh = HotSpotTraffic(rate=0.5, hot_fraction=0.5)
            reused.prepare(mesh, random.Random(side))
            fresh.prepare(mesh, random.Random(side))
            assert reused.hot_spot == fresh.hot_spot == mesh.center()
            assert [reused.arrivals(step) for step in range(30)] == [
                fresh.arrivals(step) for step in range(30)
            ]

    def test_named_hot_spot_is_kept_across_meshes(self):
        traffic = HotSpotTraffic(rate=0.5, hot_spot=(2, 2))
        for side in (16, 4):
            traffic.prepare(Mesh(2, side), random.Random(0))
            assert traffic.hot_spot == (2, 2)
        with pytest.raises(ValueError):
            HotSpotTraffic(rate=0.5, hot_spot=(9, 9)).prepare(
                Mesh(2, 4), random.Random(0)
            )


class TestScripted:
    def test_exact_replay(self, mesh8):
        traffic = ScriptedTraffic(
            [((1, 1), 0, (3, 3)), ((1, 1), 0, (2, 2)), ((4, 4), 2, (1, 1))]
        )
        traffic.prepare(mesh8, random.Random(0))
        assert traffic.arrivals(0) == [((1, 1), (3, 3)), ((1, 1), (2, 2))]
        assert traffic.arrivals(1) == []
        assert traffic.arrivals(2) == [((4, 4), (1, 1))]

    def test_sources_come_in_mesh_order(self, mesh8):
        # Script order within a node, mesh order across nodes.
        traffic = ScriptedTraffic(
            [((5, 5), 1, (1, 1)), ((2, 3), 1, (8, 8)), ((5, 5), 1, (2, 2))]
        )
        traffic.prepare(mesh8, random.Random(0))
        assert traffic.arrivals(1) == [
            ((2, 3), (8, 8)),
            ((5, 5), (1, 1)),
            ((5, 5), (2, 2)),
        ]

    def test_validates_endpoints(self, mesh8):
        bad = ScriptedTraffic([((0, 0), 0, (1, 1))])
        with pytest.raises(ValueError):
            bad.prepare(mesh8, random.Random(0))
        bad = ScriptedTraffic([((1, 1), 0, (9, 9))])
        with pytest.raises(ValueError):
            bad.prepare(mesh8, random.Random(0))


def _queued(engine):
    return sum(len(queue) for queue in engine.backlog.values())


class TestCapacityLimitedBacklog:
    """The source keeps a running backlog count instead of summing its
    queues every step; the count must be the sum at every boundary."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        side=st.integers(min_value=3, max_value=6),
        rate=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**16),
        backend=st.sampled_from(["object", "soa"]),
        steps=st.integers(min_value=1, max_value=40),
    )
    def test_count_is_the_queue_total(self, side, rate, seed, backend, steps):
        def engine():
            return DynamicEngine(
                Mesh(2, side),
                PlainGreedyPolicy(),
                BernoulliTraffic(rate),
                seed=seed,
                backend=backend,
            )

        original = engine()
        for _ in range(steps):
            original.run(1)
            assert original._source.backlog_size() == _queued(original)
        resumed = engine()
        resumed.resume_from(json.loads(json.dumps(original.snapshot())))
        assert resumed._source.backlog_size() == _queued(original)
        for _ in range(5):
            resumed.run(1)
            assert resumed._source.backlog_size() == _queued(resumed)
