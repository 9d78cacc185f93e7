"""Tests for the continuous-traffic store-and-forward engine."""

import pytest

from repro.algorithms import DimensionOrderPolicy, RestrictedPriorityPolicy
from repro.dynamic import (
    BernoulliTraffic,
    BufferedDynamicEngine,
    DynamicEngine,
    ScriptedTraffic,
)
from repro.exceptions import ArcAssignmentError
from repro.mesh.topology import Mesh
from tests.dynamic.rows import run_rows


class TestBasics:
    def test_single_packet_xy_path(self, mesh8):
        traffic = ScriptedTraffic([((1, 1), 0, (3, 4))])
        engine = BufferedDynamicEngine(
            mesh8, DimensionOrderPolicy(), traffic, seed=0
        )
        _, deliveries, stats = run_rows(engine, 20)
        assert stats.delivered_count == 1
        [(_, _, hops, deflections, shortest)] = deliveries
        assert hops == shortest == 5
        assert deflections == 0

    def test_no_deflections_ever(self, mesh8):
        engine = BufferedDynamicEngine(
            mesh8, DimensionOrderPolicy(), BernoulliTraffic(0.3), seed=1
        )
        stats = engine.run(300)
        assert stats.deflection_rate == 0.0
        assert stats.mean_stretch == 1.0

    def test_queues_build_under_load(self, mesh8):
        engine = BufferedDynamicEngine(
            mesh8, DimensionOrderPolicy(), BernoulliTraffic(0.5), seed=2
        )
        engine.run(300)
        assert engine.max_queue_seen > 2 * mesh8.dimension

    def test_max_queue_survives_a_resume(self):
        # Seed 2 peaks (6 packets at one node) before the step-30
        # checkpoint and never again: the resumed run must still
        # report that peak, which the restored telemetry carries.
        def engine():
            return BufferedDynamicEngine(
                Mesh(2, 6),
                DimensionOrderPolicy(),
                BernoulliTraffic(0.3),
                seed=2,
                backend="object",
            )

        reference = engine()
        reference.run(40)
        snapshots = []
        checkpointed = engine()
        checkpointed.checkpoint_every = 30
        checkpointed.on_checkpoint = snapshots.append
        checkpointed.run(40)
        resumed = engine()
        resumed.resume_from(snapshots[0])
        resumed.run(40 - snapshots[0]["step"])
        assert reference.max_queue_seen == 6
        assert resumed.max_queue_seen == reference.max_queue_seen

    def test_low_load_latency_is_distance(self, mesh8):
        engine = BufferedDynamicEngine(
            mesh8,
            DimensionOrderPolicy(),
            BernoulliTraffic(0.05),
            seed=3,
            warmup=100,
        )
        stats = engine.run(600)
        assert stats.delivered_count > 30
        assert stats.mean_latency < 10

    def test_bad_policy_rejected(self, mesh8):
        class Broken(DimensionOrderPolicy):
            name = "broken"

            def forward(self, view):
                return {999: view.out_directions[0]}

        traffic = ScriptedTraffic([((1, 1), 0, (3, 3))])
        engine = BufferedDynamicEngine(mesh8, Broken(), traffic, seed=0)
        with pytest.raises(ArcAssignmentError):
            engine.run(2)


class TestMaComparison:
    """The qualitative [Ma] comparison on shared traffic."""

    def test_equal_performance_below_saturation(self):
        mesh = Mesh(2, 10)
        rate = 0.1
        hot = DynamicEngine(
            mesh,
            RestrictedPriorityPolicy(),
            BernoulliTraffic(rate),
            seed=4,
            warmup=100,
        ).run(500)
        buffered = BufferedDynamicEngine(
            mesh,
            DimensionOrderPolicy(),
            BernoulliTraffic(rate),
            seed=4,
            warmup=100,
        ).run(500)
        assert hot.mean_latency == pytest.approx(
            buffered.mean_latency, rel=0.15
        )
        assert hot.throughput == pytest.approx(
            buffered.throughput, rel=0.1
        )

    def test_buffering_buys_throughput_past_saturation(self):
        mesh = Mesh(2, 10)
        rate = 0.45
        hot = DynamicEngine(
            mesh,
            RestrictedPriorityPolicy(),
            BernoulliTraffic(rate),
            seed=5,
            warmup=100,
        ).run(500)
        buffered_engine = BufferedDynamicEngine(
            mesh,
            DimensionOrderPolicy(),
            BernoulliTraffic(rate),
            seed=5,
            warmup=100,
        )
        buffered = buffered_engine.run(500)
        assert buffered.throughput > hot.throughput
        # ...and pays for it with deep in-fabric queues, which the
        # hot-potato fabric structurally cannot have.
        assert buffered_engine.max_queue_seen > 2 * mesh.dimension
