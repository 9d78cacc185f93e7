"""Property-based tests for the dynamic engines."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    DimensionOrderPolicy,
    PlainGreedyPolicy,
    RestrictedPriorityPolicy,
)
from repro.dynamic import (
    BernoulliTraffic,
    BufferedDynamicEngine,
    DynamicEngine,
)
from repro.mesh.topology import Mesh
from tests.dynamic.rows import run_rows

SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

params = st.tuples(
    st.sampled_from([4, 6, 8]),              # side
    st.floats(0.01, 0.6),                    # rate
    st.integers(0, 10_000),                  # seed
)


class TestHotPotatoDynamicProperties:
    @given(params)
    @SLOW
    def test_conservation(self, p):
        """Every generated packet is injected, queued, in flight, or
        delivered — nothing leaks."""
        side, rate, seed = p
        engine = DynamicEngine(
            Mesh(2, side),
            PlainGreedyPolicy(),
            BernoulliTraffic(rate),
            seed=seed,
        )
        steps, _, stats = run_rows(engine, 120)
        generated = sum(row[1] for row in steps)
        injected = engine._next_id  # ids are issued at injection
        backlog = sum(len(q) for q in engine.backlog.values())
        assert generated == injected + backlog
        # Injected packets are exactly the in-flight plus delivered
        # ones; _generated_at keeps entries only for undelivered.
        assert len(engine._generated_at) == len(engine.in_flight)
        delivered = injected - len(engine.in_flight)
        assert delivered >= stats.delivered_count  # warm-up excluded

    @given(params)
    @SLOW
    def test_latency_at_least_distance(self, p):
        side, rate, seed = p
        engine = DynamicEngine(
            Mesh(2, side),
            RestrictedPriorityPolicy(),
            BernoulliTraffic(rate),
            seed=seed,
        )
        _, deliveries, _ = run_rows(engine, 150)
        for generated_at, delivered_at, hops, _, shortest in deliveries:
            assert delivered_at - generated_at >= shortest
            assert hops >= shortest
            assert (hops - shortest) % 2 == 0

    @given(params)
    @SLOW
    def test_per_step_counters_consistent(self, p):
        side, rate, seed = p
        engine = DynamicEngine(
            Mesh(2, side),
            PlainGreedyPolicy(),
            BernoulliTraffic(rate),
            seed=seed,
        )
        steps, _, _ = run_rows(engine, 100)
        for row in steps:
            _, generated, injected, in_flight, advancing, delivered, backlog = row
            assert injected <= generated + backlog + 10**9
            assert 0 <= advancing <= in_flight
            assert delivered <= in_flight


class TestBufferedDynamicProperties:
    @given(params)
    @SLOW
    def test_hops_equal_distance(self, p):
        """Dimension-order never detours: hops == shortest for every
        delivery, at any load."""
        side, rate, seed = p
        engine = BufferedDynamicEngine(
            Mesh(2, side),
            DimensionOrderPolicy(),
            BernoulliTraffic(rate),
            seed=seed,
        )
        _, deliveries, _ = run_rows(engine, 120)
        for generated_at, delivered_at, hops, _, shortest in deliveries:
            assert hops == shortest
            assert delivered_at - generated_at >= shortest
