"""Equivalence tests for the engine's lean fast-path loop.

The fast path (`HotPotatoEngine._run_fast`) must be an invisible
optimization: for any problem, policy and seed, a run with the fast
path on yields a :class:`RunResult` bit-identical to the instrumented
loop — same delivered times, hops, deflections, step metrics, and the
same policy RNG stream (the two loops visit nodes in the same order).
Every run here pins ``backend="object"``: the subject is the object
kernel's lean loop, which ``"auto"`` would swap for the array kernel.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import make_policy
from repro.core.engine import HotPotatoEngine, describe_seed
from repro.core.events import RunObserver
from repro.core.validation import validators_for
from repro.mesh.hypercube import Hypercube
from repro.mesh.topology import Mesh
from repro.mesh.torus import Torus
from repro.workloads import (
    random_many_to_many,
    random_permutation,
    single_target,
    transpose,
)

POLICIES = (
    "restricted-priority",
    "fewest-good-directions",
    "plain-greedy",
    "randomized-greedy",
    "fixed-priority",
    "destination-order",
    "closest-first",
)


def _run(problem, policy_name, seed, fast_path, **kwargs):
    policy = make_policy(policy_name)
    engine = HotPotatoEngine(
        problem,
        policy,
        seed=seed,
        validators=validators_for(policy, strict=False),
        fast_path=fast_path,
        backend="object",
        **kwargs,
    )
    return engine.run()


class TestFastPathEquivalence:
    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_policies_random_workload(self, policy_name):
        problem = random_many_to_many(Mesh(2, 8), k=48, seed=3)
        fast = _run(problem, policy_name, 3, True)
        slow = _run(problem, policy_name, 3, False)
        assert fast == slow

    @pytest.mark.parametrize("seed", [0, 1, 2, 17])
    def test_seeds(self, seed):
        problem = random_many_to_many(Mesh(2, 8), k=64, seed=seed)
        assert _run(problem, "restricted-priority", seed, True) == _run(
            problem, "restricted-priority", seed, False
        )

    def test_randomized_policy_consumes_rng_in_lockstep(self):
        """Both loops must visit nodes in the same order, or a policy's
        private RNG stream (shuffles, random deflections) diverges."""
        problem = random_many_to_many(Mesh(2, 8), k=64, seed=9)
        fast = _run(problem, "randomized-greedy", 9, True)
        slow = _run(problem, "randomized-greedy", 9, False)
        assert fast == slow

    def test_other_workloads(self):
        mesh = Mesh(2, 8)
        for problem in (
            random_permutation(mesh, seed=5),
            transpose(mesh),
            single_target(mesh, k=20, seed=5),
        ):
            assert _run(problem, "restricted-priority", 5, True) == _run(
                problem, "restricted-priority", 5, False
            )

    def test_torus_and_hypercube(self):
        for mesh in (Torus(2, 8), Hypercube(5)):
            problem = random_many_to_many(mesh, k=32, seed=4)
            assert _run(problem, "plain-greedy", 4, True) == _run(
                problem, "plain-greedy", 4, False
            )

    @pytest.mark.parametrize("policy_name", ["plain-greedy", "restricted-priority"])
    @pytest.mark.parametrize("side", [5, 7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_odd_side_torus(self, policy_name, side, seed):
        """Odd-side tori break the ±1-per-hop distance invariant: a bad
        hop out of a maximal per-axis offset wraps to an equally short
        way around, leaving the distance unchanged.  The fast path must
        recompute distances after such deflections and absorb packets by
        destination comparison, or packets pass through their
        destination undelivered."""
        problem = random_many_to_many(Torus(2, side), k=24, seed=seed)
        fast = _run(problem, policy_name, seed, True)
        slow = _run(problem, policy_name, seed, False)
        assert fast == slow

    def test_odd_torus_delivers_through_preserved_distance(self):
        """Regression: with incremental ±1 tracking, this exact run
        livelocked to max_steps on the fast path (23/24 delivered after
        480 steps) while the instrumented loop finished in 5 steps."""
        problem = random_many_to_many(Torus(2, 5), k=24, seed=1)
        fast = _run(problem, "plain-greedy", 1, True)
        slow = _run(problem, "plain-greedy", 1, False)
        assert fast.completed
        assert fast.delivered == problem.k
        assert fast == slow

    def test_three_dimensional_mesh(self):
        problem = random_many_to_many(Mesh(3, 4), k=40, seed=6)
        assert _run(problem, "fewest-good-directions", 6, True) == _run(
            problem, "fewest-good-directions", 6, False
        )

    def test_matches_strict_validation_run(self):
        """Strict validators only check; outcomes must be unchanged."""
        problem = random_many_to_many(Mesh(2, 8), k=48, seed=11)
        policy = make_policy("restricted-priority")
        strict = HotPotatoEngine(
            problem,
            policy,
            seed=11,
            validators=validators_for(policy, strict=True),
            backend="object",
        ).run()
        fast = _run(problem, "restricted-priority", 11, True)
        assert fast == strict

    def test_matches_recording_run_outcomes(self):
        """record_steps forces the instrumented loop; everything except
        the records themselves must agree with the fast path."""
        problem = random_many_to_many(Mesh(2, 8), k=48, seed=13)
        policy = make_policy("restricted-priority")
        recording = HotPotatoEngine(
            problem,
            policy,
            seed=13,
            validators=validators_for(policy, strict=False),
            record_steps=True,
            backend="object",
        ).run()
        fast = _run(problem, "restricted-priority", 13, True)
        assert recording.records  # the recording run actually recorded
        assert fast.records is None
        assert fast.outcomes == recording.outcomes
        assert fast.step_metrics == recording.step_metrics
        assert fast.total_steps == recording.total_steps

    def test_record_paths(self):
        problem = random_many_to_many(Mesh(2, 8), k=32, seed=7)
        fast = HotPotatoEngine(
            problem,
            make_policy("restricted-priority"),
            seed=7,
            validators=[],
            record_paths=True,
            fast_path=True,
            backend="object",
        )
        slow = HotPotatoEngine(
            problem,
            make_policy("restricted-priority"),
            seed=7,
            validators=[],
            record_paths=True,
            fast_path=False,
            backend="object",
        )
        fast.run()
        slow.run()
        assert [p.path for p in fast.packets] == [p.path for p in slow.packets]

    def test_random_instance_seed(self):
        problem = random_many_to_many(Mesh(2, 8), k=32, seed=2)
        fast = _run(problem, "randomized-greedy", random.Random(42), True)
        slow = _run(problem, "randomized-greedy", random.Random(42), False)
        assert fast == slow

    def test_timeout_runs_agree(self):
        problem = random_many_to_many(Mesh(2, 8), k=64, seed=1)
        fast = HotPotatoEngine(
            problem,
            make_policy("restricted-priority"),
            seed=1,
            validators=[],
            max_steps=3,
            fast_path=True,
            backend="object",
        ).run()
        slow = HotPotatoEngine(
            problem,
            make_policy("restricted-priority"),
            seed=1,
            validators=[],
            max_steps=3,
            fast_path=False,
            backend="object",
        ).run()
        assert not fast.completed
        assert fast == slow


def _small_networks(draw):
    kind = draw(st.sampled_from(["mesh", "torus", "hypercube"]))
    if kind == "hypercube":
        return Hypercube(draw(st.integers(min_value=2, max_value=4)))
    dimension = draw(st.integers(min_value=2, max_value=3))
    # Odd sides included on purpose: odd tori exercise the fast path's
    # distance-recompute branch (see test_odd_side_torus).
    side = draw(st.integers(min_value=3, max_value=6))
    cls = Torus if kind == "torus" else Mesh
    return cls(dimension, side)


@st.composite
def _random_instances(draw):
    mesh = _small_networks(draw)
    workload = draw(st.sampled_from(["many-to-many", "permutation", "hotspot"]))
    wl_seed = draw(st.integers(min_value=0, max_value=2**16))
    if workload == "permutation":
        problem = random_permutation(mesh, seed=wl_seed)
    else:
        k = draw(st.integers(min_value=1, max_value=mesh.num_nodes))
        if workload == "hotspot":
            problem = single_target(mesh, k=k, seed=wl_seed)
        else:
            problem = random_many_to_many(mesh, k=k, seed=wl_seed)
    policy_name = draw(st.sampled_from(POLICIES))
    engine_seed = draw(st.integers(min_value=0, max_value=2**16))
    return problem, policy_name, engine_seed


class TestFastPathDifferential:
    """Hypothesis sweep of the fast-path/instrumented-loop equivalence.

    The determinism invariant the lint rules defend (a run is a pure
    function of problem, policy and seed) is what makes this test
    meaningful: any hidden source of nondeterminism in either loop
    shows up here as a flaky differential failure.
    """

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(instance=_random_instances())
    def test_fast_equals_instrumented(self, instance):
        problem, policy_name, seed = instance
        fast = _run(problem, policy_name, seed, True)
        slow = _run(problem, policy_name, seed, False)
        assert fast == slow

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(instance=_random_instances())
    def test_runs_are_reproducible(self, instance):
        """Same (problem, policy, seed) twice ⇒ identical RunResult,
        on both loops."""
        problem, policy_name, seed = instance
        for fast_path in (True, False):
            first = _run(problem, policy_name, seed, fast_path)
            second = _run(problem, policy_name, seed, fast_path)
            assert first == second


class TestFastPathEligibility:
    def test_auto_uses_fast_path_when_capacity_only(self):
        problem = random_many_to_many(Mesh(2, 8), k=16, seed=0)
        policy = make_policy("restricted-priority")
        engine = HotPotatoEngine(
            problem,
            policy,
            seed=0,
            validators=validators_for(policy, strict=False),
        )
        assert engine._lean()

    def test_strict_validators_force_instrumented(self):
        problem = random_many_to_many(Mesh(2, 8), k=16, seed=0)
        policy = make_policy("restricted-priority")
        engine = HotPotatoEngine(problem, policy, seed=0)
        assert not engine._lean()

    def test_record_steps_forces_instrumented(self):
        problem = random_many_to_many(Mesh(2, 8), k=16, seed=0)
        policy = make_policy("restricted-priority")
        engine = HotPotatoEngine(
            problem, policy, seed=0, validators=[], record_steps=True
        )
        assert not engine._lean()

    def test_observers_force_instrumented(self):
        problem = random_many_to_many(Mesh(2, 8), k=16, seed=0)
        policy = make_policy("restricted-priority")
        engine = HotPotatoEngine(
            problem, policy, seed=0, validators=[], observers=[RunObserver()]
        )
        assert not engine._lean()

    def test_fast_path_true_raises_when_ineligible(self):
        problem = random_many_to_many(Mesh(2, 8), k=16, seed=0)
        policy = make_policy("restricted-priority")
        engine = HotPotatoEngine(
            problem, policy, seed=0, record_steps=True, fast_path=True
        )
        with pytest.raises(ValueError):
            engine.run()

    def test_fast_path_false_disables(self):
        problem = random_many_to_many(Mesh(2, 8), k=16, seed=0)
        policy = make_policy("restricted-priority")
        engine = HotPotatoEngine(
            problem, policy, seed=0, validators=[], fast_path=False
        )
        assert not engine._lean()


class TestSeedDescription:
    def test_int_seed_passes_through(self):
        assert describe_seed(7) == 7

    def test_none_is_the_default_stream(self):
        assert describe_seed(None) == 0

    def test_random_instance_is_described_not_dropped(self):
        desc = describe_seed(random.Random(123))
        assert isinstance(desc, str) and desc.startswith("rng-state:")

    def test_equal_state_generators_describe_equal(self):
        assert describe_seed(random.Random(5)) == describe_seed(
            random.Random(5)
        )
        assert describe_seed(random.Random(5)) != describe_seed(
            random.Random(6)
        )

    def test_run_result_carries_description(self):
        problem = random_many_to_many(Mesh(2, 8), k=8, seed=0)
        result = HotPotatoEngine(
            problem, make_policy("restricted-priority"),
            seed=random.Random(99),
        ).run()
        assert result.seed == describe_seed(random.Random(99))
