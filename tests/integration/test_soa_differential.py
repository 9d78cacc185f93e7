"""Object/array differential: ``backend="soa"`` must be bit-identical.

The structure-of-arrays kernel (:mod:`repro.core.soa`) re-implements
:meth:`~repro.core.kernel.StepKernel.run_lean` on flat columns, with a
vectorized numpy path for RNG-free policies and a columnar pure-Python
path for the rest.  Its correctness claim is *bit identity*: for every
supported engine and policy, a soa run must produce exactly the object
kernel's results — ``RunResult``, ``RunTelemetry``, per-packet
outcomes, dynamic step samples, packet-id sequences, and the RNG
stream (pinned indirectly through RNG-consuming policies).

These hypothesis suites are the proof harness; the golden fixtures
(``tests/integration/test_golden_engines.py``) pin the same property
against the pre-kernel legacy captures.  Most drawn batches (k <= 36)
start below ``VECTOR_MIN_ROWS``, so a batch soa run here mostly takes
the columnar loop; ``test_soa_handoff.py`` runs them with numpy
throughout and covers the numpy-to-columnar handoff of larger batches.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms import (
    DimensionOrderPolicy,
    MaximalGreedyPolicy,
    PlainGreedyPolicy,
    RandomizedGreedyPolicy,
    RestrictedPriorityPolicy,
)
from repro.algorithms.random_rank import RandomRankPolicy
from repro.core.buffered_engine import BufferedEngine
from repro.core.engine import HotPotatoEngine
from repro.core.problem import RoutingProblem
from repro.core.soa import _compat
from repro.core.soa import kernel as soa_kernel
from repro.core.validation import validators_for
from repro.dynamic import BufferedDynamicEngine, DynamicEngine
from repro.faults import FaultSchedule
from repro.mesh.hypercube import Hypercube
from repro.mesh.topology import Mesh
from repro.mesh.torus import Torus
from repro.workloads import random_many_to_many, single_target

from tests.dynamic.rows import run_rows

from .test_engine_differential import (
    _SETTINGS,
    DYNAMIC_POLICIES,
    _batch_problems,
    _dynamic_configs,
)

#: Every hot-potato policy family the adapter supports, including the
#: RNG-consuming ones (columnar path) and the RNG-free ones
#: (vectorized path).
HOT_POTATO_POLICIES = (
    lambda: RestrictedPriorityPolicy(),
    lambda: RestrictedPriorityPolicy(prefer_type_a=False),
    lambda: RestrictedPriorityPolicy(tie_break="random"),
    lambda: RestrictedPriorityPolicy(deflection="reverse"),
    lambda: RestrictedPriorityPolicy(deflection="random"),
    lambda: PlainGreedyPolicy(),
    lambda: RandomizedGreedyPolicy(),
    lambda: MaximalGreedyPolicy(),
    lambda: MaximalGreedyPolicy(deflection="random"),
    lambda: RandomRankPolicy(),
)


def _hot_potato(problem, policy, seed, backend, **kwargs):
    # Capacity-only validators: the soa backend runs the lean loop,
    # and the object run must use the same (lean) configuration.
    return HotPotatoEngine(
        problem,
        policy,
        seed=seed,
        validators=validators_for(policy, strict=False),
        backend=backend,
        **kwargs,
    )


class TestHotPotatoSoaDifferential:
    @_SETTINGS
    @given(
        instance=_batch_problems(),
        policy_index=st.integers(
            min_value=0, max_value=len(HOT_POTATO_POLICIES) - 1
        ),
    )
    def test_soa_equals_object(self, instance, policy_index):
        problem, seed = instance
        make = HOT_POTATO_POLICIES[policy_index]
        obj = _hot_potato(problem, make(), seed, "object")
        soa = _hot_potato(problem, make(), seed, "soa")
        assert obj.run() == soa.run()
        assert obj.telemetry == soa.telemetry

    @_SETTINGS
    @given(instance=_batch_problems())
    def test_incomplete_run_leaves_identical_packets(self, instance):
        # A tight step budget stops mid-flight, so this pins the soa
        # kernel's writeback of live packet state (location, entry
        # direction, flags, counters), not just delivered outcomes.
        problem, seed = instance
        obj = _hot_potato(
            problem, RestrictedPriorityPolicy(), seed, "object", max_steps=3
        )
        soa = _hot_potato(
            problem, RestrictedPriorityPolicy(), seed, "soa", max_steps=3
        )
        assert obj.run() == soa.run()
        assert len(obj.in_flight) == len(soa.in_flight)
        for left, right in zip(obj.in_flight, soa.in_flight):
            assert left.id == right.id
            assert left.location == right.location
            assert left.entry_direction == right.entry_direction
            assert left.restricted_last_step == right.restricted_last_step
            assert left.advanced_last_step == right.advanced_last_step
            assert left.hops == right.hops
            assert left.advances == right.advances
            assert left.deflections == right.deflections

    @_SETTINGS
    @given(instance=_batch_problems())
    def test_empty_fault_schedule_is_equivalent(self, instance):
        # backend="soa" accepts FaultSchedule.empty() and must behave
        # exactly like a fault-free object run (the empty schedule's
        # auto-watchdog can never fire on the lean path either).
        problem, seed = instance
        obj = _hot_potato(problem, RestrictedPriorityPolicy(), seed, "object")
        soa = HotPotatoEngine(
            problem,
            RestrictedPriorityPolicy(),
            seed=seed,
            validators=validators_for(
                RestrictedPriorityPolicy(), strict=False
            ),
            backend="soa",
            faults=FaultSchedule.empty(),
        )
        assert obj.run() == soa.run()
        assert obj.telemetry == soa.telemetry

    @_SETTINGS
    @given(
        instance=_batch_problems(),
        policy_index=st.integers(
            min_value=0, max_value=len(HOT_POTATO_POLICIES) - 1
        ),
    )
    def test_pure_python_fallback_equals_object(self, instance, policy_index):
        # With numpy unavailable the soa backend must transparently run
        # its columnar pure-Python loop — same bit-identical results.
        problem, seed = instance
        make = HOT_POTATO_POLICIES[policy_index]
        obj = _hot_potato(problem, make(), seed, "object")
        expected = obj.run()
        soa = _hot_potato(problem, make(), seed, "soa")
        saved = _compat.np
        _compat.np = None
        try:
            assert expected == soa.run()
        finally:
            _compat.np = saved
        assert obj.telemetry == soa.telemetry


#: Every RNG-free hot-potato adapter configuration: the policies the
#: vectorized path runs (lone rows take their lowest good direction,
#: every other node its answer from the shape's decision table, which
#: only ``resolve_node`` fills).
RNG_FREE_POLICIES = (
    lambda: RestrictedPriorityPolicy(),
    lambda: RestrictedPriorityPolicy(prefer_type_a=False),
    lambda: RestrictedPriorityPolicy(deflection="reverse"),
    lambda: PlainGreedyPolicy(),
    lambda: MaximalGreedyPolicy(),
    lambda: RandomRankPolicy(),
    lambda: RandomRankPolicy(deflection="reverse"),
)


class TestHeavyContentionSoaDifferential:
    """soa == object where many nodes are contended.

    ``_batch_problems`` draws small 2-D meshes with ``k <= N``, where a
    node whose rows clash on a lowest good direction is rare.  These
    fixed instances load meshes, a torus, a 3-D mesh and a hypercube
    to ``k = N`` and ``k = 2N``, so the vectorized path's decision
    table answers tens to thousands of contended nodes per case.  A
    hypercube node's 12-bit masks make counts above four (three under
    ``reverse``) too wide for a key; at ``k = 2N`` every policy meets
    such nodes, which are solved from their rows and never stored.
    """

    @pytest.mark.parametrize(
        "policy_index", range(len(RNG_FREE_POLICIES))
    )
    @pytest.mark.parametrize("load", (1, 2))
    @pytest.mark.parametrize(
        "mesh",
        (Mesh(2, 24), Torus(2, 13), Mesh(3, 7), Hypercube(6)),
        ids=("mesh2x24", "torus2x13", "mesh3x7", "hypercube6"),
    )
    def test_soa_equals_object(
        self, mesh, load, policy_index, monkeypatch
    ):
        wide = []
        if _compat.np is not None:
            solve = soa_kernel.DecisionTable._solve

            def counted(table, np, nodes, *args):
                counts = args[4]
                wide.append(int(counts[nodes].max()) > table.max_rows)
                return solve(table, np, nodes, *args)

            monkeypatch.setattr(soa_kernel.DecisionTable, "_solve", counted)
        make = RNG_FREE_POLICIES[policy_index]
        problem = random_many_to_many(mesh, k=load * mesh.num_nodes, seed=7)
        obj = _hot_potato(problem, make(), 7, "object")
        soa = _hot_potato(problem, make(), 7, "soa")
        assert obj.run() == soa.run()
        assert obj.telemetry == soa.telemetry
        if _compat.np is not None and isinstance(mesh, Hypercube):
            assert any(wide) or load == 1

    def test_kuhn_moves_the_holder_of_a_direction(self):
        # Plain greedy matches in id order.  Packet 0 (good: +x, +y)
        # takes +x first; packet 1 (good: +x only) must then move it
        # onto +y.  Giving packet 1 its lowest *free* good direction
        # instead finds none and deflects it.
        problem = RoutingProblem.from_pairs(
            Mesh(2, 6), [((2, 2), (4, 4)), ((2, 2), (5, 2))]
        )
        runs = [
            _hot_potato(problem, PlainGreedyPolicy(), 0, backend, max_steps=1)
            for backend in ("object", "soa")
        ]
        results = [engine.run() for engine in runs]
        assert results[0] == results[1]
        for engine in runs:
            assert [p.location for p in engine.in_flight] == [(2, 3), (3, 2)]
            assert engine.telemetry.advances == 2


#: Hot-potato policies with the key count their numpy order runs over,
#: per node: restricted keys run below 4N, plain greedy's (the node)
#: and random-rank's (the node, over the rank order) below N.
CODE_POLICIES = (
    (RestrictedPriorityPolicy, 4),
    (PlainGreedyPolicy, 1),
    (RandomRankPolicy, 1),
)


class TestTwoPassSoaDifferential:
    """soa == object where the radix order needs a second 16-bit pass.

    The restricted order's keys run below 4N and the buffered step's
    arc keys below 2dN.  On ``Mesh(2, 130)`` (4N = 67,600) and
    ``Mesh(3, 26)`` (4N = 70,304) both exceed ``2**16``, so both
    orders take two passes; on ``Mesh(2, 128)`` 4N is ``2**16``
    exactly and the restricted order takes one.  Each shape routes a
    random k = 600 problem and a hot-spot problem (600 packets to the
    centre), with every run on the numpy step from its first step.
    """

    MESHES = pytest.mark.parametrize(
        "mesh",
        (Mesh(2, 130), Mesh(3, 26), Mesh(2, 128)),
        ids=("mesh2x130", "mesh3x26", "mesh2x128"),
    )
    WORKLOADS = pytest.mark.parametrize(
        "workload",
        (
            lambda mesh: random_many_to_many(mesh, k=600, seed=11),
            lambda mesh: single_target(mesh, k=600, seed=11),
        ),
        ids=("random", "hotspot"),
    )

    @staticmethod
    def _bounds(monkeypatch):
        """The bound of every radix order the soa run takes."""
        bounds = []
        if _compat.np is not None:
            order = soa_kernel.radix_order

            def recorded(np, key, bound):
                bounds.append(bound)
                return order(np, key, bound)

            monkeypatch.setattr(soa_kernel, "radix_order", recorded)
        return bounds

    @MESHES
    @WORKLOADS
    @pytest.mark.parametrize(
        "policy_index",
        range(len(CODE_POLICIES)),
        ids=("restricted", "plain", "random-rank"),
    )
    def test_hot_potato(self, mesh, workload, policy_index, monkeypatch):
        make, codes = CODE_POLICIES[policy_index]
        problem = workload(mesh)
        obj = _hot_potato(problem, make(), 11, "object")
        expected = obj.run()
        bounds = self._bounds(monkeypatch)
        soa = _hot_potato(problem, make(), 11, "soa")
        assert soa.run() == expected
        assert soa.telemetry == obj.telemetry
        if _compat.np is not None:
            assert set(bounds) == {codes * mesh.num_nodes}

    @MESHES
    @WORKLOADS
    def test_buffered(self, mesh, workload, monkeypatch):
        problem = workload(mesh)
        obj = BufferedEngine(
            problem, DimensionOrderPolicy(), seed=11, backend="object"
        )
        expected = obj.run()
        bounds = self._bounds(monkeypatch)
        soa = BufferedEngine(
            problem, DimensionOrderPolicy(), seed=11, backend="soa"
        )
        assert soa.run() == expected
        assert soa.telemetry == obj.telemetry
        assert soa.max_buffer_seen == obj.max_buffer_seen
        if _compat.np is not None:
            assert set(bounds) == {2 * mesh.dimension * mesh.num_nodes}


class TestBufferedSoaDifferential:
    @_SETTINGS
    @given(instance=_batch_problems())
    def test_soa_equals_object(self, instance):
        problem, seed = instance
        obj = BufferedEngine(
            problem, DimensionOrderPolicy(), seed=seed, backend="object"
        )
        soa = BufferedEngine(
            problem, DimensionOrderPolicy(), seed=seed, backend="soa"
        )
        assert obj.run() == soa.run()
        assert obj.telemetry == soa.telemetry
        assert obj.max_buffer_seen == soa.max_buffer_seen


class TestDynamicSoaDifferential:
    @_SETTINGS
    @given(
        instance=_dynamic_configs(),
        policy_cls=st.sampled_from(DYNAMIC_POLICIES),
    )
    def test_soa_equals_object(self, instance, policy_cls):
        mesh, traffic, seed, warmup, steps = instance
        obj = DynamicEngine(
            mesh,
            policy_cls(),
            traffic(),
            seed=seed,
            warmup=warmup,
            backend="object",
        )
        soa = DynamicEngine(
            mesh,
            policy_cls(),
            traffic(),
            seed=seed,
            warmup=warmup,
            backend="soa",
        )
        assert run_rows(obj, steps) == run_rows(soa, steps)
        assert obj.telemetry == soa.telemetry
        assert obj._next_id == soa._next_id
        assert [p.id for p in obj.in_flight] == [
            p.id for p in soa.in_flight
        ]


class TestBufferedDynamicSoaDifferential:
    @_SETTINGS
    @given(instance=_dynamic_configs())
    def test_soa_equals_object(self, instance):
        mesh, traffic, seed, warmup, steps = instance
        obj = BufferedDynamicEngine(
            mesh,
            DimensionOrderPolicy(),
            traffic(),
            seed=seed,
            warmup=warmup,
            backend="object",
        )
        soa = BufferedDynamicEngine(
            mesh,
            DimensionOrderPolicy(),
            traffic(),
            seed=seed,
            warmup=warmup,
            backend="soa",
        )
        assert run_rows(obj, steps) == run_rows(soa, steps)
        assert obj.telemetry == soa.telemetry
        assert obj.max_queue_seen == soa.max_queue_seen
