"""Profiled-loop differential tests.

:meth:`StepKernel.run_lean` handed a phase sink reads timestamps
around each phase, so it must be *observably identical* to the same
loop without one: same :class:`RunResult` (telemetry included), same
RNG consumption, same delivery order.  These tests pin that contract
for all four engines, and check that the profiler actually measured
something while telemetry stayed bit-identical.  The soa backend's two
loops take the same ``profiler`` sink and are held to the same
contract.  The object-loop tests pin ``backend="object"``, which
``"auto"`` would otherwise swap for the array kernel.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    DimensionOrderPolicy,
    MaximalGreedyPolicy,
    PlainGreedyPolicy,
    RandomizedGreedyPolicy,
    RestrictedPriorityPolicy,
)
from repro.algorithms.random_rank import RandomRankPolicy
from repro.core import soa
from repro.core.buffered_engine import BufferedEngine
from repro.core.engine import HotPotatoEngine
from repro.core.soa import kernel as soa_kernel
from repro.core.validation import validators_for
from repro.dynamic import (
    BernoulliTraffic,
    BufferedDynamicEngine,
    DynamicEngine,
)
from repro.mesh.topology import Mesh
from repro.mesh.torus import Torus
from repro.obs.profiler import PhaseProfiler
from repro.workloads import random_many_to_many, random_permutation
from tests.dynamic.rows import run_rows

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

POLICIES = (
    RestrictedPriorityPolicy,
    PlainGreedyPolicy,
    RandomizedGreedyPolicy,
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


class TestHotPotatoProfiled:
    @_SETTINGS
    @given(
        instance=_batch_problems(), policy_cls=st.sampled_from(POLICIES)
    )
    def test_profiled_equals_lean(self, instance, policy_cls):
        problem, seed = instance

        def engine(profiler=None):
            policy = policy_cls()
            return HotPotatoEngine(
                problem,
                policy,
                seed=seed,
                validators=validators_for(policy, strict=False),
                profiler=profiler,
                backend="object",
            )

        profiler = PhaseProfiler()
        lean_result = engine().run()
        profiled_result = engine(profiler).run()
        assert profiled_result == lean_result
        assert profiler.steps == profiled_result.total_steps


#: RNG-free policies: the soa backend runs them on its numpy loop.
VECTORIZED_POLICIES = (
    RestrictedPriorityPolicy,
    PlainGreedyPolicy,
    MaximalGreedyPolicy,
    RandomRankPolicy,
)


def _check_soa_profiled(problem, seed, policy_cls):
    def engine(backend, profiler=None):
        policy = policy_cls()
        return HotPotatoEngine(
            problem,
            policy,
            seed=seed,
            validators=validators_for(policy, strict=False),
            backend=backend,
            profiler=profiler,
        )

    object_result = engine("object").run()
    plain = engine("soa")
    plain_result = plain.run()
    profiler = PhaseProfiler()
    profiled = engine("soa", profiler)
    assert profiled.run() == plain_result == object_result
    assert profiled.telemetry == plain.telemetry
    assert profiler.steps == profiled.telemetry.steps


class TestSoaProfiled:
    @pytest.mark.skipif(
        not soa.numpy_available(), reason="the vectorized loop needs numpy"
    )
    @_SETTINGS
    @given(
        instance=_batch_problems(),
        policy_cls=st.sampled_from(VECTORIZED_POLICIES),
    )
    def test_vectorized_profiled_equals_unprofiled(
        self, instance, policy_cls
    ):
        problem, seed = instance
        with pytest.MonkeyPatch.context() as patch:
            # Most of these batches (k <= 36) start below
            # VECTOR_MIN_ROWS, which would hand them to the columnar
            # loop from the start; a floor of one keeps every step on
            # numpy.
            patch.setattr(soa_kernel, "VECTOR_MIN_ROWS", 1)
            _check_soa_profiled(problem, seed, policy_cls)

    @_SETTINGS
    @given(
        instance=_batch_problems(),
        policy_cls=st.sampled_from(
            VECTORIZED_POLICIES + (RandomizedGreedyPolicy,)
        ),
    )
    def test_columnar_profiled_equals_unprofiled(self, instance, policy_cls):
        problem, seed = instance
        with pytest.MonkeyPatch.context() as patch:
            # Without numpy the soa kernel runs its columnar loop.
            patch.setattr(soa._compat, "np", None)
            _check_soa_profiled(problem, seed, policy_cls)


class TestBufferedProfiled:
    @_SETTINGS
    @given(instance=_batch_problems())
    def test_profiled_equals_lean(self, instance):
        problem, seed = instance
        lean = BufferedEngine(
            problem, DimensionOrderPolicy(), seed=seed, backend="object"
        )
        profiler = PhaseProfiler()
        profiled = BufferedEngine(
            problem,
            DimensionOrderPolicy(),
            seed=seed,
            profiler=profiler,
            backend="object",
        )
        assert profiled.run() == lean.run()
        assert profiled.max_buffer_seen == lean.max_buffer_seen
        assert profiler.steps > 0 or problem.k == 0


class TestDynamicProfiled:
    @_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.floats(min_value=0.05, max_value=0.3),
        steps=st.integers(min_value=1, max_value=50),
        policy_cls=st.sampled_from(POLICIES),
    )
    def test_profiled_equals_lean(self, seed, rate, steps, policy_cls):
        mesh = Mesh(2, 4)
        lean = DynamicEngine(
            mesh,
            policy_cls(),
            BernoulliTraffic(rate),
            seed=seed,
            backend="object",
        )
        profiler = PhaseProfiler()
        profiled = DynamicEngine(
            mesh,
            policy_cls(),
            BernoulliTraffic(rate),
            seed=seed,
            profiler=profiler,
            backend="object",
        )
        assert run_rows(profiled, steps) == run_rows(lean, steps)
        assert profiled.telemetry == lean.telemetry
        assert profiler.steps == steps


class TestBufferedDynamicProfiled:
    @_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.floats(min_value=0.05, max_value=0.3),
        steps=st.integers(min_value=1, max_value=50),
    )
    def test_profiled_equals_lean(self, seed, rate, steps):
        mesh = Mesh(2, 4)
        lean = BufferedDynamicEngine(
            mesh,
            DimensionOrderPolicy(),
            BernoulliTraffic(rate),
            seed=seed,
            backend="object",
        )
        profiler = PhaseProfiler()
        profiled = BufferedDynamicEngine(
            mesh,
            DimensionOrderPolicy(),
            BernoulliTraffic(rate),
            seed=seed,
            profiler=profiler,
            backend="object",
        )
        assert run_rows(profiled, steps) == run_rows(lean, steps)
        assert profiled.telemetry == lean.telemetry
        assert profiled.max_queue_seen == lean.max_queue_seen


class TestProfilerRefusals:
    def test_batch_profiling_requires_the_lean_loop(self, mesh4):
        import pytest

        from repro.core.events import RunObserver

        problem = random_many_to_many(mesh4, k=5, seed=1)
        policy = RestrictedPriorityPolicy()
        engine = HotPotatoEngine(
            problem,
            policy,
            seed=1,
            validators=validators_for(policy, strict=False),
            observers=[RunObserver()],
            profiler=PhaseProfiler(),
        )
        with pytest.raises(ValueError, match="profiling times the lean"):
            engine.run()

    def test_dynamic_profiling_requires_the_lean_loop(self, mesh4):
        import pytest

        from repro.core.events import RunObserver

        engine = DynamicEngine(
            mesh4,
            RestrictedPriorityPolicy(),
            BernoulliTraffic(0.1),
            seed=1,
            observers=[RunObserver()],
            profiler=PhaseProfiler(),
        )
        with pytest.raises(ValueError, match="profiling times the lean"):
            engine.run(10)
