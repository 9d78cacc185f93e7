"""``backend="auto"``: which step loop a run takes, and that it never
matters to the outcome.

``auto`` (every engine's default) runs the array kernel
(:class:`~repro.core.soa.SoaKernel`) exactly when the run takes the
lean loop, :func:`~repro.core.soa.select_adapter` finds an adapter for
the policy, and there are no faults (not even an empty schedule), no
watchdog and no path recording; otherwise it runs the object loop.
The choice is made when ``run()`` starts.  Without numpy the array
kernel is its columnar pure-Python loop, so this file also runs on
the no-numpy CI leg.

Whatever the choice, results, telemetry and the full engine state
equal an explicit ``backend="object"`` run, and a snapshot written on
one kernel resumes bit-identically on the other.
"""

import pytest

from repro.algorithms import (
    DimensionOrderPolicy,
    RandomizedGreedyPolicy,
    RandomRankPolicy,
    RestrictedPriorityPolicy,
    make_policy,
)
from repro.core import soa
from repro.core.buffered_engine import BufferedEngine
from repro.core.engine import HotPotatoEngine
from repro.core.events import CallbackObserver, RunObserver
from repro.core.validation import validators_for
from repro.dynamic import BernoulliTraffic, BufferedDynamicEngine, DynamicEngine
from repro.faults import FaultSchedule, RunWatchdog
from repro.mesh.topology import Mesh
from repro.obs.metrics import RunMetricsRecorder
from repro.obs.profiler import PhaseProfiler
from repro.obs.series import SeriesRecorder
from repro.snapshot import engine_snapshot
from repro.workloads import random_many_to_many

from ..snapshot.scenarios import drive, make_engine, roundtrip

KINDS = ("hot-potato", "buffered", "dynamic", "buffered-dynamic")
HORIZON = 40
SEED = 7


class _TweakedRestricted(RestrictedPriorityPolicy):
    """No adapter: adapters match by exact class."""


class _TweakedDimensionOrder(DimensionOrderPolicy):
    """No adapter: adapters match by exact class."""


def _default_policy(kind):
    if kind in ("buffered", "buffered-dynamic"):
        return DimensionOrderPolicy()
    return RestrictedPriorityPolicy()


def _engine(kind, backend="auto", *, policy=None, **kwargs):
    """A small lean-eligible run of ``kind`` (capacity-only validators
    on the hot-potato engine)."""
    policy = policy if policy is not None else _default_policy(kind)
    if kind in ("hot-potato", "buffered"):
        problem = random_many_to_many(Mesh(2, 6), k=30, seed=SEED)
        if kind == "buffered":
            return BufferedEngine(
                problem, policy, seed=SEED, backend=backend, **kwargs
            )
        kwargs.setdefault(
            "validators", validators_for(policy, strict=False)
        )
        return HotPotatoEngine(
            problem, policy, seed=SEED, backend=backend, **kwargs
        )
    cls = DynamicEngine if kind == "dynamic" else BufferedDynamicEngine
    return cls(
        Mesh(2, 5),
        policy,
        BernoulliTraffic(0.15),
        seed=SEED,
        warmup=5,
        backend=backend,
        **kwargs,
    )


def _run(kind, engine):
    if kind in ("hot-potato", "buffered"):
        return engine.run()
    return engine.run(HORIZON)


@pytest.fixture
def array_runs(monkeypatch):
    """Record every SoaKernel segment the engines start: one entry per
    segment, True when it took the numpy path."""
    runs = []

    class Spy(soa.SoaKernel):
        def run(self, until, profiler=None):
            runs.append(self.vectorized)
            super().run(until, profiler)

    # The engines import SoaKernel from the package at each segment.
    monkeypatch.setattr(soa, "SoaKernel", Spy)
    return runs


class TestAutoPicksTheArrayKernel:
    @pytest.mark.parametrize("kind", KINDS)
    def test_eligible_run_uses_soa(self, kind, array_runs):
        engine = _engine(kind)
        assert engine.backend == "auto"
        assert engine.backend_used is None
        _run(kind, engine)
        assert engine.backend_used == "soa"
        # Without numpy, auto falls through to the columnar loop.
        assert array_runs == [soa.numpy_available()]

    def test_auto_is_the_default(self):
        engines = [
            HotPotatoEngine(
                random_many_to_many(Mesh(2, 4), k=4, seed=1),
                RestrictedPriorityPolicy(),
            ),
            BufferedEngine(
                random_many_to_many(Mesh(2, 4), k=4, seed=1),
                DimensionOrderPolicy(),
            ),
            DynamicEngine(
                Mesh(2, 4), RestrictedPriorityPolicy(), BernoulliTraffic(0.1)
            ),
            BufferedDynamicEngine(
                Mesh(2, 4), DimensionOrderPolicy(), BernoulliTraffic(0.1)
            ),
        ]
        assert [engine.backend for engine in engines] == ["auto"] * 4

    def test_rng_consuming_policy_runs_the_columnar_loop(self, array_runs):
        engine = _engine("hot-potato", policy=RandomizedGreedyPolicy())
        engine.run()
        assert engine.backend_used == "soa"
        assert array_runs == [False]

    @pytest.mark.parametrize("kind", KINDS)
    def test_profiler_does_not_change_the_choice(self, kind, array_runs):
        profiler = PhaseProfiler()
        engine = _engine(kind, profiler=profiler)
        _run(kind, engine)
        assert engine.backend_used == "soa"
        assert array_runs
        assert profiler.steps == engine.telemetry.steps

    @pytest.mark.parametrize("kind", KINDS)
    def test_summary_observers_keep_the_array_kernel(self, kind, array_runs):
        engine = _engine(
            kind, observers=[RunMetricsRecorder(), SeriesRecorder()]
        )
        _run(kind, engine)
        assert engine.backend_used == "soa"

    @pytest.mark.parametrize("kind", KINDS)
    def test_checkpointed_run_uses_soa_per_segment(self, kind, array_runs):
        taken = []
        engine = _engine(
            kind, checkpoint_every=3, on_checkpoint=taken.append
        )
        _run(kind, engine)
        assert engine.backend_used == "soa"
        assert taken
        assert len(array_runs) > len(taken)


def _no_adapter_policy(kind):
    if kind in ("buffered", "buffered-dynamic"):
        return _TweakedDimensionOrder()
    return _TweakedRestricted()


#: (engine kinds it applies to, label, engine kwargs builder)
DISQUALIFIERS = [
    (KINDS, "policy-subclass", lambda kind: {
        "policy": _no_adapter_policy(kind)
    }),
    (("hot-potato", "dynamic"), "policy-without-adapter", lambda kind: {
        "policy": make_policy("fewest-good-directions")
    }),
    (KINDS, "empty-fault-schedule", lambda kind: {
        "faults": FaultSchedule.empty()
    }),
    (KINDS, "watchdog", lambda kind: {"watchdog": RunWatchdog()}),
    (("hot-potato",), "record-paths", lambda kind: {"record_paths": True}),
    (("hot-potato",), "strict-validators", lambda kind: {
        "validators": validators_for(RestrictedPriorityPolicy())
    }),
    (("hot-potato",), "fast-path-off", lambda kind: {"fast_path": False}),
]

DISQUALIFIER_CASES = [
    pytest.param(kind, build, id=f"{kind}-{label}")
    for kinds, label, build in DISQUALIFIERS
    for kind in kinds
]


class TestAutoFallsBackToTheObjectLoop:
    @pytest.mark.parametrize("kind,build", DISQUALIFIER_CASES)
    def test_disqualified_run_uses_object(self, kind, build, array_runs):
        kwargs = build(kind)
        engine = _engine(kind, **kwargs)
        outcome = _run(kind, engine)
        assert engine.backend_used == "object"
        assert array_runs == []
        reference = _engine(kind, "object", **build(kind))
        assert outcome == _run(kind, reference)
        assert engine.telemetry == reference.telemetry

    @pytest.mark.parametrize("kind", KINDS)
    def test_step_observer_appended_after_construction(
        self, kind, array_runs
    ):
        # Eligibility is decided when run() starts, not in __init__.
        steps = []
        engine = _engine(kind)
        engine.observers.append(
            CallbackObserver(on_step=lambda record, metrics: steps.append(1))
        )
        _run(kind, engine)
        assert engine.backend_used == "object"
        assert array_runs == []
        assert len(steps) == engine.telemetry.steps

    def test_record_paths_set_after_construction(self, array_runs):
        engine = _engine("hot-potato")
        engine.record_paths = True
        engine.run()
        assert engine.backend_used == "object"
        assert array_runs == []
        assert all(packet.path for packet in engine.packets)

    def test_choice_is_remade_by_each_dynamic_run(self, array_runs):
        engine = _engine("dynamic")
        engine.run(10)
        assert engine.backend_used == "soa"
        engine.observers.append(RunObserver())
        engine.run(10)
        assert engine.backend_used == "object"
        assert len(array_runs) == 1
        reference = _engine("dynamic", "object")
        reference.run(20)
        assert engine.telemetry == reference.telemetry


class TestExplicitBackendsAreUnchanged:
    @pytest.mark.parametrize("kind", KINDS)
    def test_object_never_uses_the_array_kernel(self, kind, array_runs):
        engine = _engine(kind, "object")
        _run(kind, engine)
        assert engine.backend_used == "object"
        assert array_runs == []

    @pytest.mark.parametrize("kind", KINDS)
    def test_soa_rejects_what_auto_falls_back_from(self, kind):
        with pytest.raises(ValueError, match="does not support"):
            _engine(kind, "soa", policy=_no_adapter_policy(kind))
        with pytest.raises(ValueError, match="watchdogs"):
            _engine(kind, "soa", watchdog=RunWatchdog())


class TestAutoEqualsObject:
    @pytest.mark.parametrize("kind", KINDS)
    def test_results_telemetry_and_state_match(self, kind):
        auto = _engine(kind)
        obj = _engine(kind, "object")
        assert _run(kind, auto) == _run(kind, obj)
        assert auto.backend_used == "soa"
        assert auto.telemetry == obj.telemetry
        assert engine_snapshot(auto) == engine_snapshot(obj)

    @pytest.mark.parametrize(
        "kind,policy_class",
        [
            pytest.param(kind, policy_class, id=f"{kind}{suffix}")
            for kind in ("hot-potato", "dynamic")
            for policy_class, suffix in (
                (RandomizedGreedyPolicy, ""),
                # Draws a rank lazily for each injected packet, alone
                # at its node or not; the array kernel replays those
                # draws, so a skipped priority_key call shows here.
                (RandomRankPolicy, "-random-rank"),
            )
        ],
    )
    def test_rng_consuming_policy_matches(self, kind, policy_class):
        auto = _engine(kind, policy=policy_class())
        obj = _engine(kind, "object", policy=policy_class())
        assert _run(kind, auto) == _run(kind, obj)
        assert auto.telemetry == obj.telemetry
        assert engine_snapshot(auto) == engine_snapshot(obj)

    @pytest.mark.parametrize("kind", KINDS)
    def test_exported_observations_match(self, kind):
        def observed(backend):
            metrics, series = RunMetricsRecorder(), SeriesRecorder()
            engine = _engine(kind, backend, observers=[metrics, series])
            _run(kind, engine)
            return metrics.registry.snapshot(), series.series.to_dict()

        assert observed("auto") == observed("object")


#: (kind, backend the checkpoint is written on, backend that resumes).
CROSS_RESUMES = [
    pytest.param(kind, source, target, id=f"{kind}-{source}-to-{target}")
    for kind in KINDS
    for source, target in (
        ("object", "soa"),
        ("soa", "object"),
        ("object", "auto"),
    )
]


class TestResumeAcrossKernels:
    @pytest.mark.parametrize("kind,source,target", CROSS_RESUMES)
    def test_every_boundary_resumes_bit_identically(
        self, kind, source, target
    ):
        reference = make_engine(kind, "object")
        ref_outcome = drive(reference, kind)
        ref_final = engine_snapshot(reference)
        snapshots = []
        writer = make_engine(
            kind, source, every=3, on_checkpoint=snapshots.append
        )
        assert drive(writer, kind) == ref_outcome
        assert snapshots, "no checkpoint boundary fired"
        for snapshot in snapshots:
            engine = make_engine(kind, target)
            engine.resume_from(roundtrip(snapshot))
            assert drive(engine, kind) == ref_outcome
            assert engine_snapshot(engine) == ref_final, (
                f"{source} -> {target} diverged after resume from step "
                f"{snapshot['step']}"
            )
            if target != "object":
                assert engine.backend_used == "soa"
