"""Tests for the continuous-injection engine and its statistics."""

import pytest

from repro.algorithms import (
    DimensionOrderPolicy,
    PlainGreedyPolicy,
    RandomizedGreedyPolicy,
    RestrictedPriorityPolicy,
)
from repro.core.packet import Packet
from repro.core.soa import SoaKernel, _compat
from repro.dynamic import (
    BernoulliTraffic,
    BufferedDynamicEngine,
    DynamicEngine,
    DynamicStats,
    ScriptedTraffic,
    TrafficModel,
)
from repro.mesh.topology import Mesh
from tests.dynamic.rows import run_rows


class TestBasicOperation:
    def test_single_scripted_packet_latency(self, mesh8):
        traffic = ScriptedTraffic([((1, 1), 0, (1, 4))])
        engine = DynamicEngine(
            mesh8, PlainGreedyPolicy(), traffic, seed=0
        )
        _, deliveries, stats = run_rows(engine, 10)
        assert stats.delivered_count == 1
        [(generated_at, delivered_at, hops, _, shortest)] = deliveries
        # Generated at the start of step 0, injected immediately, so it
        # moves during steps 0..2 and arrives at time 3: latency == dist.
        assert delivered_at - generated_at == 3
        assert hops == 3
        assert shortest == 3
        assert stats.latency_counts == {3: 1}

    def test_no_traffic_is_a_noop(self, mesh8):
        engine = DynamicEngine(
            mesh8, PlainGreedyPolicy(), BernoulliTraffic(0.0), seed=0
        )
        stats = engine.run(50)
        assert stats.delivered_count == 0
        assert stats.mean_in_flight == 0.0
        assert stats.throughput == 0.0

    def test_low_load_latency_close_to_distance(self, mesh8):
        engine = DynamicEngine(
            mesh8,
            RestrictedPriorityPolicy(),
            BernoulliTraffic(0.05),
            seed=1,
            warmup=100,
        )
        stats = engine.run(600)
        assert stats.delivered_count > 50
        assert stats.mean_stretch < 1.2
        assert stats.deflection_rate < 0.1
        assert stats.is_stable()

    def test_capacity_never_exceeded(self, mesh8):
        """The injection discipline keeps node load within degree at
        all times, preserving the hot-potato invariant."""
        engine = DynamicEngine(
            mesh8,
            PlainGreedyPolicy(),
            BernoulliTraffic(0.8),
            seed=2,
        )
        engine._start()
        for _ in range(100):
            engine.step()
            loads = {}
            for packet in engine.in_flight:
                loads[packet.location] = loads.get(packet.location, 0) + 1
            for node, load in loads.items():
                assert load <= mesh8.degree(node)

    def test_overload_builds_backlog(self, mesh8):
        engine = DynamicEngine(
            mesh8,
            PlainGreedyPolicy(),
            BernoulliTraffic(0.9),
            seed=3,
        )
        stats = engine.run(300)
        assert stats.final_backlog > 100
        assert not stats.is_stable()

    def test_moderate_load_is_stable(self, mesh8):
        engine = DynamicEngine(
            mesh8,
            RestrictedPriorityPolicy(),
            BernoulliTraffic(0.15),
            seed=4,
            warmup=100,
        )
        stats = engine.run(800)
        assert stats.is_stable()
        # Throughput matches offered load in steady state (within noise).
        offered = 0.15 * mesh8.num_nodes
        assert stats.throughput == pytest.approx(offered, rel=0.25)


class TestObserverLifecycle:
    def test_on_run_end_fires_with_finalized_stats(self, mesh8):
        from repro.core.events import RunObserver

        class EndCatcher(RunObserver):
            needs_steps = False

            def __init__(self):
                self.results = []

            def on_run_end(self, result):
                self.results.append(result)

        catcher = EndCatcher()
        stats = DynamicEngine(
            mesh8,
            RestrictedPriorityPolicy(),
            BernoulliTraffic(0.1),
            seed=9,
            observers=[catcher],
        ).run(60)
        assert catcher.results == [stats]
        assert isinstance(catcher.results[0], DynamicStats)
        assert catcher.results[0].horizon == 60

    def test_on_run_end_fires_on_the_instrumented_loop_too(self, mesh8):
        from repro.core.events import RunObserver

        class Full(RunObserver):
            def __init__(self):
                self.steps = 0
                self.ends = 0

            def on_step(self, record, metrics):
                self.steps += 1

            def on_run_end(self, result):
                self.ends += 1

        full = Full()
        DynamicEngine(
            mesh8,
            RestrictedPriorityPolicy(),
            BernoulliTraffic(0.1),
            seed=9,
            observers=[full],
        ).run(30)
        assert full.steps == 30
        assert full.ends == 1

    def test_buffered_dynamic_fires_on_run_end(self, mesh8):
        from repro.algorithms import DimensionOrderPolicy
        from repro.core.events import CallbackObserver
        from repro.dynamic import BufferedDynamicEngine

        seen = []
        stats = BufferedDynamicEngine(
            mesh8,
            DimensionOrderPolicy(),
            BernoulliTraffic(0.1),
            seed=9,
            observers=[CallbackObserver(on_run_end=seen.append)],
        ).run(60)
        assert seen == [stats]


class TestWarmup:
    def test_warmup_excludes_early_packets(self, mesh8):
        traffic = ScriptedTraffic(
            [((1, 1), 0, (4, 4)), ((1, 1), 50, (4, 4))]
        )
        engine = DynamicEngine(
            mesh8, PlainGreedyPolicy(), traffic, seed=0, warmup=10
        )
        _, deliveries, stats = run_rows(engine, 80)
        assert stats.delivered_count == 1
        assert [row[0] for row in deliveries] == [0, 50]


class TestStats:
    def test_percentile_validation(self):
        stats = DynamicStats()
        with pytest.raises(ValueError):
            stats.latency_percentile(120)

    def test_empty_stats_defaults(self):
        stats = DynamicStats()
        assert stats.mean_latency == 0.0
        assert stats.latency_percentile(99) == 0.0
        assert stats.mean_stretch == 1.0
        assert stats.deflection_rate == 0.0
        assert stats.max_backlog == 0

    def test_percentiles_ordered(self, mesh8):
        engine = DynamicEngine(
            mesh8,
            RandomizedGreedyPolicy(),
            BernoulliTraffic(0.2),
            seed=5,
            warmup=50,
        )
        stats = engine.run(400)
        p50 = stats.latency_percentile(50)
        p90 = stats.latency_percentile(90)
        p99 = stats.latency_percentile(99)
        assert p50 <= p90 <= p99
        assert "latency" in stats.summary()

    def test_deterministic_given_seed(self, mesh8):
        def run():
            engine = DynamicEngine(
                mesh8,
                RandomizedGreedyPolicy(),
                BernoulliTraffic(0.2),
                seed=6,
                warmup=20,
            )
            return engine.run(200)

        first, second = run(), run()
        assert first.delivered_count == second.delivered_count
        assert first.mean_latency == second.mean_latency


class TestRowsUntilWriteback:
    """On the array kernel an admitted packet is a row of integer
    columns from generation to delivery: a ``Packet`` is built only for
    the survivors a segment end writes back (each checkpoint, each
    change of loop and the run's end), never per injected or delivered
    packet."""

    @pytest.mark.parametrize("loop", ["numpy", "columnar"])
    def test_packets_built_only_at_writebacks(self, loop, monkeypatch):
        if loop == "numpy" and _compat.np is None:
            pytest.skip("numpy not installed")
        if loop == "columnar":
            monkeypatch.setattr(_compat, "np", None)
        built = []
        post_init = Packet.__post_init__

        def counting(packet):
            built.append(packet.id)
            post_init(packet)

        monkeypatch.setattr(Packet, "__post_init__", counting)
        written_back = []
        writeback = SoaKernel._writeback

        def recorded(self, columns):
            written_back.append(len(columns))
            writeback(self, columns)

        monkeypatch.setattr(SoaKernel, "_writeback", recorded)
        checkpoints = []
        engine = DynamicEngine(
            Mesh(2, 16),
            RestrictedPriorityPolicy(),
            BernoulliTraffic(0.2),
            seed=1,
            warmup=20,
            checkpoint_every=100,
            on_checkpoint=lambda _: checkpoints.append(
                len(engine.in_flight)
            ),
        )
        _, deliveries, stats = run_rows(engine, 300)
        assert engine.backend_used == "soa"
        assert len(checkpoints) == 2
        assert checkpoints == written_back[-3:-1]
        assert written_back[-1] == len(engine.in_flight)
        assert len(built) == len(set(built))
        assert len(built) <= sum(written_back)
        # One Packet per injected packet would be ~15k.
        assert engine.telemetry.injected > 5 * sum(written_back)
        assert len(deliveries) == engine.telemetry.delivered
        assert stats.delivered_count > 0


class _PairsOnly(TrafficModel):
    """A model that implements ``arrivals`` alone: node pairs, not the
    node indices the shipped models draw."""

    def __init__(self, rate):
        self.inner = BernoulliTraffic(rate)

    def prepare(self, mesh, rng):
        self.inner.prepare(mesh, rng)

    def arrivals(self, step):
        return self.inner.arrivals(step)


class TestPairsOnlyTraffic:
    """The sources read a model's demand as node indices; a model that
    answers only in node pairs is mapped through the node index and
    runs exactly as the model it wraps."""

    @pytest.mark.parametrize("backend", ["object", "auto"])
    @pytest.mark.parametrize(
        "engine_class,policy_class",
        [
            (DynamicEngine, RestrictedPriorityPolicy),
            (BufferedDynamicEngine, DimensionOrderPolicy),
        ],
        ids=["dynamic", "buffered-dynamic"],
    )
    def test_runs_as_the_model_it_wraps(
        self, engine_class, policy_class, backend
    ):
        def observed(traffic):
            checkpoints = []
            engine = engine_class(
                Mesh(2, 8),
                policy_class(),
                traffic,
                seed=4,
                backend=backend,
                checkpoint_every=25,
                on_checkpoint=checkpoints.append,
            )
            return run_rows(engine, 150), engine.telemetry, checkpoints

        assert observed(_PairsOnly(0.3)) == observed(BernoulliTraffic(0.3))
