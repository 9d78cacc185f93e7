"""The shared step kernel: knobs, shared helpers, engine parity.

Covers the machinery every engine now rides on: the constructor knob
validation, the one shared ``default_step_limit``/``describe_seed``
pair (previously duplicated per engine), the summary→metrics mapping,
the lean-loop eligibility predicate, and engines that drop without
leaving cyclic garbage.
"""

import gc
import random

import pytest

from repro.algorithms import (
    DimensionOrderPolicy,
    PlainGreedyPolicy,
    RestrictedPriorityPolicy,
)
from repro.core import engine as engine_mod
from repro.core import kernel as kernel_mod
from repro.core import rng as rng_mod
from repro.core.buffered_engine import BufferedEngine
from repro.core.engine import HotPotatoEngine
from repro.core.events import RunObserver
from repro.core.kernel import (
    InjectionSource,
    StepKernel,
    StepSummary,
    default_step_limit,
    lean_equivalent,
    step_metrics_from_summary,
)
from repro.core.rng import describe_seed
from repro.core.validation import (
    CapacityValidator,
    GreedyValidator,
    validators_for,
)
from repro.dynamic import BernoulliTraffic, DynamicEngine
from repro.dynamic.buffered import BufferedDynamicEngine
from repro.faults import random_schedule
from repro.mesh.topology import Mesh
from repro.workloads import random_many_to_many


@pytest.fixture
def mesh():
    return Mesh(2, 4)


@pytest.fixture
def problem(mesh):
    return random_many_to_many(mesh, k=8, seed=3)


class TestSharedHelpers:
    """Satellite: one implementation, every engine uses it."""

    def test_describe_seed_has_one_home(self):
        assert engine_mod.describe_seed is rng_mod.describe_seed

    def test_default_step_limit_has_one_home(self):
        assert engine_mod.default_step_limit is kernel_mod.default_step_limit

    def test_describe_seed_int_passthrough(self):
        assert describe_seed(42) == 42

    def test_describe_seed_none_is_default_stream(self):
        assert describe_seed(None) == 0

    def test_describe_seed_rng_is_state_digest(self):
        a = describe_seed(random.Random(5))
        b = describe_seed(random.Random(5))
        c = describe_seed(random.Random(6))
        assert a == b != c
        assert isinstance(a, str) and a.startswith("rng-state:")

    def test_all_batch_engines_default_to_shared_limit(self, problem):
        hot = HotPotatoEngine(problem, PlainGreedyPolicy())
        buf = BufferedEngine(problem, DimensionOrderPolicy())
        assert hot.max_steps == buf.max_steps == default_step_limit(problem)

    def test_all_batch_engines_describe_seed_uniformly(self, problem):
        source = random.Random(99)
        expected = describe_seed(random.Random(99))
        hot = HotPotatoEngine(problem, PlainGreedyPolicy(), seed=source)
        buf = BufferedEngine(
            problem, DimensionOrderPolicy(), seed=random.Random(99)
        )
        assert hot.run().seed == expected
        assert buf.run().seed == expected


class TestKernelKnobs:
    def test_rejects_unknown_node_order(self, mesh):
        with pytest.raises(ValueError, match="node_order"):
            StepKernel(mesh, PlainGreedyPolicy(), node_order="hashed")

    def test_buffered_kernel_requires_forwarding_policy(self, mesh):
        with pytest.raises(TypeError, match="BufferedPolicy"):
            StepKernel(mesh, PlainGreedyPolicy(), buffered=True)

    def test_hot_potato_kernel_requires_assigning_policy(self, mesh):
        class ForwardOnly:
            name = "forward-only"

            def forward(self, view):
                return {}

        with pytest.raises(TypeError, match="RoutingPolicy"):
            StepKernel(mesh, ForwardOnly())

    def test_injection_source_default_backlog_is_zero(self):
        class NullSource(InjectionSource):
            def admit_batch(self, time, loads):
                return 0, [], [], []

        assert NullSource().backlog_size() == 0


class TestSummaryConversion:
    def test_metrics_mapping(self):
        summary = StepSummary(
            step=4,
            generated=3,
            injected=2,
            routed=10,
            moved=7,
            advancing=5,
            delivered=1,
            delivered_total=6,
            total_distance=40,
            max_node_load=3,
            bad_nodes=1,
            packets_in_bad_nodes=3,
            backlog=2,
        )
        metrics = step_metrics_from_summary(summary)
        assert metrics.step == 4
        assert metrics.in_flight == 10
        assert metrics.advancing == 5
        # Deflected counts only *moved* non-advancing packets: under
        # buffered semantics waiting packets neither advance nor deflect.
        assert metrics.deflected == 2
        assert metrics.packets_in_good_nodes == 7
        assert metrics.packets_in_bad_nodes == 3
        assert metrics.max_node_load == 3


class TestLeanEquivalence:
    def test_plain_capacity_stack_is_eligible(self):
        assert lean_equivalent([CapacityValidator()], [], False)

    def test_anything_observable_disqualifies(self):
        assert not lean_equivalent([], [RunObserver()], False)
        assert not lean_equivalent([], [], True)
        assert not lean_equivalent([GreedyValidator()], [], False)

    def test_capacity_subclass_disqualifies(self):
        class Tightened(CapacityValidator):
            pass

        assert not lean_equivalent([Tightened()], [], False)

    def test_step_free_observer_does_not_disqualify(self):
        class RunBoundaryObserver(RunObserver):
            needs_steps = False

        assert lean_equivalent(
            [CapacityValidator()], [RunBoundaryObserver()], False
        )
        # Mixing in one step consumer flips it back.
        assert not lean_equivalent(
            [], [RunBoundaryObserver(), RunObserver()], False
        )


def _hot_potato(backend):
    policy = RestrictedPriorityPolicy()
    engine = HotPotatoEngine(
        random_many_to_many(Mesh(2, 16), 128, seed=1),
        policy,
        seed=1,
        validators=validators_for(policy, strict=False),
        backend=backend,
    )
    return engine, engine.run()


def _buffered(backend):
    engine = BufferedEngine(
        random_many_to_many(Mesh(2, 16), 128, seed=1),
        DimensionOrderPolicy(),
        seed=1,
        backend=backend,
    )
    return engine, engine.run()


def _dynamic(backend):
    engine = DynamicEngine(
        Mesh(2, 8),
        RestrictedPriorityPolicy(),
        BernoulliTraffic(0.1),
        seed=1,
        backend=backend,
    )
    return engine, engine.run(50)


def _buffered_dynamic(backend):
    engine = BufferedDynamicEngine(
        Mesh(2, 8),
        DimensionOrderPolicy(),
        BernoulliTraffic(0.1),
        seed=1,
        backend=backend,
    )
    return engine, engine.run(50)


def _schedule(mesh):
    return random_schedule(
        mesh,
        seed=4,
        link_faults=3,
        node_faults=1,
        packet_drops=2,
        horizon=40,
        max_window=20,
    )


def _faulted_hot_potato(backend):
    policy = RestrictedPriorityPolicy()
    mesh = Mesh(2, 8)
    engine = HotPotatoEngine(
        random_many_to_many(mesh, 40, seed=1),
        policy,
        seed=1,
        validators=validators_for(policy, strict=False),
        backend=backend,
        faults=_schedule(mesh),
    )
    return engine, engine.run()


def _faulted_buffered(backend):
    mesh = Mesh(2, 8)
    engine = BufferedEngine(
        random_many_to_many(mesh, 40, seed=1),
        DimensionOrderPolicy(),
        seed=1,
        backend=backend,
        faults=_schedule(mesh),
    )
    return engine, engine.run()


def _faulted_dynamic(backend):
    mesh = Mesh(2, 8)
    engine = DynamicEngine(
        mesh,
        RestrictedPriorityPolicy(),
        BernoulliTraffic(0.1),
        seed=1,
        backend=backend,
        faults=_schedule(mesh),
    )
    return engine, engine.run(50)


def _faulted_buffered_dynamic(backend):
    mesh = Mesh(2, 8)
    engine = BufferedDynamicEngine(
        mesh,
        DimensionOrderPolicy(),
        BernoulliTraffic(0.1),
        seed=1,
        backend=backend,
        faults=_schedule(mesh),
    )
    return engine, engine.run(50)


def _unreachable_after_drop(make, backend):
    """Objects a full collection finds after a finished engine is
    dropped with the collector off (0: refcounting freed it all)."""
    make(backend)  # process-wide caches fill outside the count
    gc.collect()
    gc.disable()
    try:
        engine, outcome = make(backend)
        del engine
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert outcome is not None
    return unreachable


class TestNoReferenceCycles:
    """The kernel's ``emit`` / ``on_deliver`` callbacks close over the
    engine's state, not the engine, and a fault view reads the fault
    mask, not its owner, so a finished engine, its kernel and every
    packet are freed by reference counting alone: with the collector
    off, a full collection afterwards finds nothing."""

    @pytest.mark.parametrize("backend", ["object", "soa", "auto"])
    @pytest.mark.parametrize(
        "make",
        [_hot_potato, _buffered, _dynamic, _buffered_dynamic],
        ids=["hot-potato", "buffered", "dynamic", "buffered-dynamic"],
    )
    def test_dropped_engine_leaves_no_garbage(self, make, backend):
        assert _unreachable_after_drop(make, backend) == 0

    @pytest.mark.parametrize(
        "make",
        [
            _faulted_hot_potato,
            _faulted_buffered,
            _faulted_dynamic,
            _faulted_buffered_dynamic,
        ],
        ids=["hot-potato", "buffered", "dynamic", "buffered-dynamic"],
    )
    def test_dropped_faulted_engine_leaves_no_garbage(self, make):
        assert _unreachable_after_drop(make, "object") == 0
