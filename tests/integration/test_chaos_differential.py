"""Chaos differential: under arbitrary seeded fault schedules the lean
loop (with its fault phase on) and the instrumented loop must stay
bit-identical on all four engines, and an empty schedule must be
indistinguishable from no fault plumbing at all.

Property-based so the fault phase is exercised across mesh sizes,
workloads, schedule shapes, and abort outcomes (drops, partitions,
no-progress) — not just the handcrafted cases in tests/faults/.  The
dynamic engines add injection after the fault phase and the sorted
node visit order."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import DimensionOrderPolicy, RandomRankPolicy
from repro.core.buffered_engine import BufferedEngine
from repro.core.engine import HotPotatoEngine
from repro.core.events import RunObserver
from repro.dynamic import (
    BernoulliTraffic,
    BufferedDynamicEngine,
    DynamicEngine,
)
from repro.faults import FaultSchedule, random_schedule
from repro.mesh.topology import Mesh
from repro.workloads import random_many_to_many, random_permutation
from tests.dynamic.rows import run_rows

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _random_schedule(draw, mesh):
    return random_schedule(
        mesh,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        link_faults=draw(st.integers(min_value=0, max_value=3)),
        node_faults=draw(st.integers(min_value=0, max_value=1)),
        packet_drops=draw(st.integers(min_value=0, max_value=2)),
        horizon=32,
        max_window=16,
    )


@st.composite
def _chaos_instances(draw):
    side = draw(st.integers(min_value=3, max_value=5))
    mesh = Mesh(2, side)
    if draw(st.booleans()):
        problem = random_permutation(
            mesh, seed=draw(st.integers(min_value=0, max_value=2**16))
        )
    else:
        problem = random_many_to_many(
            mesh,
            k=draw(st.integers(min_value=1, max_value=mesh.num_nodes)),
            seed=draw(st.integers(min_value=0, max_value=2**16)),
        )
    schedule = _random_schedule(draw, mesh)
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return problem, schedule, seed


@st.composite
def _dynamic_chaos(draw):
    mesh = Mesh(2, draw(st.integers(min_value=3, max_value=5)))
    return (
        mesh,
        _random_schedule(draw, mesh),
        draw(st.floats(min_value=0.05, max_value=0.3)),
        draw(st.integers(min_value=1, max_value=60)),
        draw(st.integers(min_value=0, max_value=2**16)),
    )


def _dynamic_outcome(engine, steps):
    """Everything a dynamic run exposes: its step and delivery rows,
    the statistics (what is left and the abort verdict included) and
    the counters."""
    return run_rows(engine, steps), engine.telemetry


class TestHotPotatoChaos:
    @_SETTINGS
    @given(instance=_chaos_instances())
    def test_lean_equals_instrumented_under_faults(self, instance):
        problem, schedule, seed = instance
        lean = HotPotatoEngine(
            problem,
            RandomRankPolicy(),
            seed=seed,
            faults=schedule,
            backend="object",
            max_steps=600,
        ).run()
        instrumented = HotPotatoEngine(
            problem,
            RandomRankPolicy(),
            seed=seed,
            faults=schedule,
            backend="object",
            max_steps=600,
            observers=[RunObserver()],
        ).run()
        assert lean == instrumented

    @_SETTINGS
    @given(instance=_chaos_instances())
    def test_faulted_runs_are_reproducible(self, instance):
        problem, schedule, seed = instance
        first = HotPotatoEngine(
            problem,
            RandomRankPolicy(),
            seed=seed,
            faults=schedule,
            backend="object",
            max_steps=600,
        ).run()
        second = HotPotatoEngine(
            problem,
            RandomRankPolicy(),
            seed=seed,
            faults=schedule,
            backend="object",
            max_steps=600,
        ).run()
        assert first == second

    @_SETTINGS
    @given(instance=_chaos_instances())
    def test_empty_schedule_is_bit_identical_to_no_faults(self, instance):
        problem, _, seed = instance
        plain = HotPotatoEngine(
            problem, RandomRankPolicy(), seed=seed, backend="object"
        ).run()
        empty = HotPotatoEngine(
            problem,
            RandomRankPolicy(),
            seed=seed,
            faults=FaultSchedule.empty(),
        ).run()
        assert plain == empty


class TestBufferedChaos:
    @_SETTINGS
    @given(instance=_chaos_instances())
    def test_lean_equals_instrumented_under_faults(self, instance):
        problem, schedule, seed = instance
        lean = BufferedEngine(
            problem,
            DimensionOrderPolicy(),
            seed=seed,
            faults=schedule,
            backend="object",
            max_steps=600,
        ).run()
        instrumented = BufferedEngine(
            problem,
            DimensionOrderPolicy(),
            seed=seed,
            faults=schedule,
            backend="object",
            max_steps=600,
            observers=[RunObserver()],
        ).run()
        assert lean == instrumented

    @_SETTINGS
    @given(instance=_chaos_instances())
    def test_empty_schedule_is_bit_identical_to_no_faults(self, instance):
        problem, _, seed = instance
        plain = BufferedEngine(
            problem, DimensionOrderPolicy(), seed=seed, backend="object"
        ).run()
        empty = BufferedEngine(
            problem,
            DimensionOrderPolicy(),
            seed=seed,
            faults=FaultSchedule.empty(),
        ).run()
        assert plain == empty


class TestDynamicChaos:
    @_SETTINGS
    @given(instance=_dynamic_chaos())
    def test_lean_equals_instrumented_under_faults(self, instance):
        mesh, schedule, rate, steps, seed = instance

        def engine(observers=()):
            return DynamicEngine(
                mesh,
                RandomRankPolicy(),
                BernoulliTraffic(rate),
                seed=seed,
                faults=schedule,
                backend="object",
                observers=observers,
            )

        assert _dynamic_outcome(engine(), steps) == _dynamic_outcome(
            engine([RunObserver()]), steps
        )


class TestBufferedDynamicChaos:
    @_SETTINGS
    @given(instance=_dynamic_chaos())
    def test_lean_equals_instrumented_under_faults(self, instance):
        mesh, schedule, rate, steps, seed = instance

        def engine(observers=()):
            return BufferedDynamicEngine(
                mesh,
                DimensionOrderPolicy(),
                BernoulliTraffic(rate),
                seed=seed,
                faults=schedule,
                backend="object",
                observers=observers,
            )

        assert _dynamic_outcome(engine(), steps) == _dynamic_outcome(
            engine([RunObserver()]), steps
        )
