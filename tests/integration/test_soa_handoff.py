"""The array kernel's numpy-to-columnar handoff cannot be observed.

A batch run on the array kernel (``backend="soa"``, or ``"auto"``'s
choice) steps with numpy only while at least ``VECTOR_MIN_ROWS``
packets are in flight; the columnar loop packs the survivors from
``in_flight`` and finishes the run.  The crossing is a segment
boundary like a checkpoint, so it must leave everything an object-loop
run shows unchanged: the result, the telemetry, the per-step summary
stream, the final engine state, profiling, checkpoints and resume.

Batch sizes sit below, at and above the constant, so runs start on
either loop and cross mid-run.  Without numpy every array run is
columnar: the differentials still run there, and the checks on which
loop ran are skipped.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms import DimensionOrderPolicy, make_policy
from repro.core import soa
from repro.core.buffered_engine import BufferedEngine
from repro.core.engine import HotPotatoEngine
from repro.core.events import CallbackObserver
from repro.core.soa import kernel as soa_kernel
from repro.core.soa.kernel import VECTOR_MIN_ROWS
from repro.core.validation import validators_for
from repro.dynamic import BernoulliTraffic, DynamicEngine
from repro.mesh.topology import Mesh
from repro.mesh.torus import Torus
from repro.obs.profiler import PhaseProfiler
from repro.snapshot import engine_snapshot
from repro.workloads import random_many_to_many

from ..snapshot.scenarios import roundtrip
from .test_engine_differential import _SETTINGS, _batch_problems
from .test_soa_differential import RNG_FREE_POLICIES, _hot_potato

SEED = 13

#: Every batch configuration whose array run takes the numpy step: the
#: four RNG-free hot-potato registry policies and buffered
#: dimension-order.
KINDS = (
    "restricted-priority",
    "plain-greedy",
    "maximal-greedy",
    "random-rank",
    "buffered",
)

#: Below, at and above the constant: start columnar, start numpy and
#: cross at the first delivery, start numpy and cross later.
SIZES = (
    VECTOR_MIN_ROWS - 1,
    VECTOR_MIN_ROWS,
    VECTOR_MIN_ROWS + 1,
    4 * VECTOR_MIN_ROWS,
)

needs_numpy = pytest.mark.skipif(
    not soa.numpy_available(), reason="the numpy step needs numpy"
)


def _engine(kind, k, backend, *, mesh=None, **kwargs):
    problem = random_many_to_many(
        mesh if mesh is not None else Mesh(2, 12), k=k, seed=k
    )
    if kind == "buffered":
        return BufferedEngine(
            problem, DimensionOrderPolicy(), seed=SEED, backend=backend,
            **kwargs,
        )
    policy = make_policy(kind)
    return HotPotatoEngine(
        problem,
        policy,
        seed=SEED,
        validators=validators_for(policy, strict=False),
        backend=backend,
        **kwargs,
    )


def _observed(kind, k, backend, **kwargs):
    """Everything a run shows: result, telemetry, the summary stream
    and the final engine state."""
    summaries = []
    engine = _engine(
        kind,
        k,
        backend,
        observers=[CallbackObserver(on_summary=summaries.append)],
        **kwargs,
    )
    result = engine.run()
    assert engine.backend_used == ("object" if backend == "object" else "soa")
    return result, engine.telemetry, summaries, engine_snapshot(engine)


def _crossing_step(summaries, k):
    """The first step that starts with fewer than the constant live."""
    for summary in summaries:
        live = k - summary.delivered_total + summary.delivered
        if live < VECTOR_MIN_ROWS:
            return summary.step
    return None


@pytest.fixture
def loops(monkeypatch):
    """Record each loop the array kernel enters, with the step and the
    live count at entry."""
    entered = []

    def spy(name):
        original = getattr(soa.SoaKernel, name)

        def wrapped(self, until, profiler):
            kernel = self.kernel
            entered.append((name, kernel.time, len(kernel.in_flight)))
            return original(self, until, profiler)

        monkeypatch.setattr(soa.SoaKernel, name, wrapped)

    spy("_run_vectorized")
    spy("_run_columnar")
    return entered


class TestHandoffDifferential:
    @pytest.mark.parametrize("k", SIZES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_array_run_equals_object_run(self, kind, k):
        expected = _observed(kind, k, "object")
        assert _observed(kind, k, "soa") == expected
        assert _observed(kind, k, "auto") == expected

    @pytest.mark.parametrize("kind", KINDS)
    def test_state_just_past_the_crossing(self, kind):
        # Stop one step after the handoff: the packets still in flight
        # went through numpy, writeback, repack and one columnar step.
        k = 4 * VECTOR_MIN_ROWS
        _, _, summaries, _ = _observed(kind, k, "object")
        crossing = _crossing_step(summaries, k)
        assert crossing is not None and crossing > 0
        stop = crossing + 1
        expected = _observed(kind, k, "object", max_steps=stop)
        assert expected[3]["packets"], "the run should stop mid-flight"
        assert _observed(kind, k, "soa", max_steps=stop) == expected

    @pytest.mark.parametrize(
        "mesh",
        (Torus(2, 9), Mesh(3, 5)),
        ids=("torus2x9", "mesh3x5"),
    )
    @pytest.mark.parametrize("kind", KINDS)
    def test_other_topologies(self, kind, mesh):
        k = 3 * VECTOR_MIN_ROWS
        expected = _observed(kind, k, "object", mesh=mesh)
        assert _observed(kind, k, "soa", mesh=mesh) == expected

    @pytest.mark.parametrize("threshold", (1, 5, 17, 10**9))
    def test_any_crossing_step(self, monkeypatch, threshold):
        # The constant is a speed choice, never a semantic one: numpy
        # throughout (1), a late or early handoff, or columnar
        # throughout all give the object loop's run.
        k = 60
        expected = _observed("restricted-priority", k, "object")
        monkeypatch.setattr(soa_kernel, "VECTOR_MIN_ROWS", threshold)
        assert _observed("restricted-priority", k, "soa") == expected

    @_SETTINGS
    @given(
        instance=_batch_problems(),
        policy_index=st.integers(
            min_value=0, max_value=len(RNG_FREE_POLICIES) - 1
        ),
    )
    def test_numpy_throughout_on_small_batches(self, instance, policy_index):
        # Most drawn batches (k <= 36) start below the constant, so
        # the array kernel would run them columnar; a floor of one
        # keeps the numpy step proven on every drawn topology and size.
        problem, seed = instance
        make = RNG_FREE_POLICIES[policy_index]
        obj = _hot_potato(problem, make(), seed, "object")
        expected = obj.run()
        soa_run = _hot_potato(problem, make(), seed, "soa")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(soa_kernel, "VECTOR_MIN_ROWS", 1)
            assert soa_run.run() == expected
        assert soa_run.telemetry == obj.telemetry


class TestHandoffProfiled:
    @pytest.mark.parametrize("k", SIZES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_profiled_equals_unprofiled(self, kind, k):
        plain = _observed(kind, k, "soa")
        profiler = PhaseProfiler()
        assert _observed(kind, k, "soa", profiler=profiler) == plain
        assert profiler.steps == plain[1].steps


class TestHandoffCheckpoints:
    @pytest.mark.parametrize("kind", KINDS)
    def test_segments_straddling_the_crossing(self, kind):
        # Two-step segments: some segment starts on numpy and hands
        # off inside, later ones start below the constant.
        k = 4 * VECTOR_MIN_ROWS
        reference = []
        expected = _observed(
            kind, k, "object", checkpoint_every=2,
            on_checkpoint=reference.append,
        )
        snapshots = []
        assert _observed(
            kind, k, "soa", checkpoint_every=2,
            on_checkpoint=snapshots.append,
        ) == expected
        assert snapshots == reference
        crossing = _crossing_step(expected[2], k)
        steps = [snapshot["step"] for snapshot in snapshots]
        assert min(steps) < crossing < max(steps)
        # Every checkpoint resumes on the array kernel to the object
        # loop's final state, whichever side of the crossing it is on.
        for snapshot in snapshots:
            tail = []
            engine = _engine(
                kind, k, "soa",
                observers=[CallbackObserver(on_summary=tail.append)],
            )
            engine.resume_from(roundtrip(snapshot))
            assert engine.run() == expected[0]
            assert tail == expected[2][snapshot["step"]:]
            assert engine_snapshot(engine) == expected[3]


@needs_numpy
class TestLoopChoice:
    @pytest.mark.parametrize("kind", KINDS)
    def test_small_run_never_enters_numpy(self, kind, loops):
        _engine(kind, VECTOR_MIN_ROWS - 1, "auto").run()
        assert [name for name, _, _ in loops] == ["_run_columnar"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_large_run_hands_off_at_the_crossing(self, kind, loops):
        k = 4 * VECTOR_MIN_ROWS
        _, _, summaries, _ = _observed(kind, k, "object")
        _engine(kind, k, "auto").run()
        assert loops == [
            ("_run_vectorized", 0, k),
            (
                "_run_columnar",
                _crossing_step(summaries, k),
                loops[1][2],
            ),
        ]
        assert 0 < loops[1][2] < VECTOR_MIN_ROWS

    def test_profiler_does_not_change_the_loops(self, loops):
        k = 4 * VECTOR_MIN_ROWS
        _engine("restricted-priority", k, "soa").run()
        plain = list(loops)
        loops.clear()
        _engine(
            "restricted-priority", k, "soa", profiler=PhaseProfiler()
        ).run()
        assert loops == plain

    def test_injecting_run_stays_on_numpy(self, loops):
        # A light load keeps far fewer packets in flight than the
        # constant; an injecting kernel still never hands off.
        engine = DynamicEngine(
            Mesh(2, 5),
            make_policy("restricted-priority"),
            BernoulliTraffic(0.05),
            seed=SEED,
            warmup=5,
            backend="auto",
        )
        engine.run(60)
        assert engine.telemetry.max_in_flight < VECTOR_MIN_ROWS
        assert [name for name, _, _ in loops] == ["_run_vectorized"]

    def test_columnar_kernel_never_enters_numpy(self, loops, monkeypatch):
        engine = _engine("restricted-priority", 4 * VECTOR_MIN_ROWS, "soa")
        engine._start()
        adapter = soa.adapter_for(
            engine.policy, buffered=False, has_injection=False
        )
        monkeypatch.setattr(soa._compat, "np", None)
        soa.SoaKernel(engine._kernel, adapter).run(engine.max_steps)
        assert [name for name, _, _ in loops] == ["_run_columnar"]
