"""Lean/instrumented differential tests for the buffered and dynamic engines.

The batch hot-potato engine's fast-path equivalence suite
(``tests/core/test_engine_fastpath.py``) pins the kernel's two code
paths against each other for one configuration of the kernel.  Now that
*every* engine is a kernel configuration, the same differential must
hold for the others: a run with zero observers (the lean loop) must be
observably identical to the same run driven step-by-step through the
instrumented loop (forced here by attaching a no-op observer).  Both
sides pin ``backend="object"``: under ``"auto"`` the lean side would
run the array kernel instead.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    DimensionOrderPolicy,
    PlainGreedyPolicy,
    RandomizedGreedyPolicy,
    RestrictedPriorityPolicy,
)
from repro.core.buffered_engine import BufferedEngine
from repro.core.events import RunObserver
from repro.dynamic import (
    BernoulliTraffic,
    BufferedDynamicEngine,
    DynamicEngine,
    HotSpotTraffic,
)
from repro.mesh.topology import Mesh
from repro.mesh.torus import Torus
from repro.workloads import random_many_to_many, random_permutation
from tests.dynamic.rows import run_rows

DYNAMIC_POLICIES = (
    RestrictedPriorityPolicy,
    PlainGreedyPolicy,
    RandomizedGreedyPolicy,
)

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)




@st.composite
def _batch_problems(draw):
    kind = draw(st.sampled_from(["mesh", "torus"]))
    side = draw(st.integers(min_value=3, max_value=6))
    mesh = (Torus if kind == "torus" else Mesh)(2, side)
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
    return problem, draw(st.integers(min_value=0, max_value=2**16))


@st.composite
def _dynamic_configs(draw):
    kind = draw(st.sampled_from(["mesh", "torus"]))
    side = draw(st.integers(min_value=3, max_value=5))
    mesh = (Torus if kind == "torus" else Mesh)(2, side)
    # A factory, not an instance: each engine under comparison gets its
    # own traffic object so neither run can leak state into the other.
    if draw(st.booleans()):
        rate = draw(st.floats(min_value=0.05, max_value=0.4))

        def traffic():
            return BernoulliTraffic(rate)

    else:
        rate = draw(st.floats(min_value=0.05, max_value=0.3))

        def traffic():
            return HotSpotTraffic(rate, hot_fraction=0.25)

    seed = draw(st.integers(min_value=0, max_value=2**16))
    warmup = draw(st.integers(min_value=0, max_value=10))
    steps = draw(st.integers(min_value=1, max_value=60))
    return mesh, traffic, seed, warmup, steps


class TestBufferedDifferential:
    @_SETTINGS
    @given(instance=_batch_problems())
    def test_lean_equals_instrumented(self, instance):
        problem, seed = instance
        lean = BufferedEngine(
            problem, DimensionOrderPolicy(), seed=seed, backend="object"
        )
        instrumented = BufferedEngine(
            problem,
            DimensionOrderPolicy(),
            seed=seed,
            observers=[RunObserver()],
            backend="object",
        )
        assert lean.run() == instrumented.run()
        assert lean.max_buffer_seen == instrumented.max_buffer_seen

    @_SETTINGS
    @given(instance=_batch_problems())
    def test_runs_are_reproducible(self, instance):
        problem, seed = instance
        first = BufferedEngine(
            problem, DimensionOrderPolicy(), seed=seed, backend="object"
        )
        second = BufferedEngine(
            problem, DimensionOrderPolicy(), seed=seed, backend="object"
        )
        assert first.run() == second.run()


class TestDynamicDifferential:
    @_SETTINGS
    @given(
        instance=_dynamic_configs(),
        policy_cls=st.sampled_from(DYNAMIC_POLICIES),
    )
    def test_lean_equals_instrumented(self, instance, policy_cls):
        mesh, traffic, seed, warmup, steps = instance
        lean = DynamicEngine(
            mesh,
            policy_cls(),
            traffic(),
            seed=seed,
            warmup=warmup,
            backend="object",
        )
        instrumented = DynamicEngine(
            mesh,
            policy_cls(),
            traffic(),
            seed=seed,
            warmup=warmup,
            observers=[RunObserver()],
            backend="object",
        )
        assert run_rows(lean, steps) == run_rows(instrumented, steps)
        assert lean.telemetry == instrumented.telemetry
        assert lean._source.next_id == instrumented._source.next_id
        assert [p.id for p in lean.in_flight] == [
            p.id for p in instrumented.in_flight
        ]


class TestBufferedDynamicDifferential:
    @_SETTINGS
    @given(instance=_dynamic_configs())
    def test_lean_equals_instrumented(self, instance):
        mesh, traffic, seed, warmup, steps = instance
        lean = BufferedDynamicEngine(
            mesh,
            DimensionOrderPolicy(),
            traffic(),
            seed=seed,
            warmup=warmup,
            backend="object",
        )
        instrumented = BufferedDynamicEngine(
            mesh,
            DimensionOrderPolicy(),
            traffic(),
            seed=seed,
            warmup=warmup,
            observers=[RunObserver()],
            backend="object",
        )
        assert run_rows(lean, steps) == run_rows(instrumented, steps)
        assert lean.telemetry == instrumented.telemetry
        assert lean.max_queue_seen == instrumented.max_queue_seen
