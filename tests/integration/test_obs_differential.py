"""Observer-effect differential: observability must never change a run.

The summary-fed recorders (:class:`RunMetricsRecorder`,
:class:`SeriesRecorder`) keep the lean loop and the soa backend
eligible; the step-fed :class:`PacketTracer` forces the instrumented
loop.  Either way the routing outcome must be bit-identical to the
unobserved run, and the object and soa backends must agree on every
exported artifact — registry snapshots and series payloads included.

The hypothesis suites sweep problems and policies; the golden capture
(``golden/obs_capture.json``) pins one fully-observed scenario's
series, registry snapshot and telemetry so a regression in any
observability layer fails loudly against a committed artifact.
"""

import json
import os

from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms import RestrictedPriorityPolicy
from repro.core.engine import HotPotatoEngine
from repro.core.validation import validators_for
from repro.dynamic import BernoulliTraffic, DynamicEngine
from repro.mesh.topology import Mesh
from repro.obs.metrics import RunMetricsRecorder
from repro.obs.series import SeriesRecorder
from repro.obs.tracing import PacketTracer
from repro.workloads import random_many_to_many
from tests.dynamic.rows import run_rows

from .test_engine_differential import _SETTINGS, _batch_problems
from .test_soa_differential import HOT_POTATO_POLICIES, _hot_potato

CAPTURE_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "obs_capture.json"
)

policy_indices = st.integers(
    min_value=0, max_value=len(HOT_POTATO_POLICIES) - 1
)


def _observed_run(problem, policy, seed, backend):
    metrics = RunMetricsRecorder()
    series = SeriesRecorder()
    engine = _hot_potato(
        problem, policy, seed, backend, observers=[metrics, series]
    )
    return engine.run(), metrics.registry, series.series


class TestSummaryObserversAreInert:
    @_SETTINGS
    @given(instance=_batch_problems(), policy_index=policy_indices)
    def test_object_backend_unchanged(self, instance, policy_index):
        problem, seed = instance
        build = HOT_POTATO_POLICIES[policy_index]
        plain = _hot_potato(problem, build(), seed, "object").run()
        observed, _, _ = _observed_run(problem, build(), seed, "object")
        assert observed == plain

    @_SETTINGS
    @given(instance=_batch_problems(), policy_index=policy_indices)
    def test_soa_backend_unchanged(self, instance, policy_index):
        problem, seed = instance
        build = HOT_POTATO_POLICIES[policy_index]
        plain = _hot_potato(problem, build(), seed, "soa").run()
        observed, _, _ = _observed_run(problem, build(), seed, "soa")
        assert observed == plain

    @_SETTINGS
    @given(instance=_batch_problems(), policy_index=policy_indices)
    def test_backends_agree_on_exported_artifacts(
        self, instance, policy_index
    ):
        problem, seed = instance
        build = HOT_POTATO_POLICIES[policy_index]
        obj = _observed_run(problem, build(), seed, "object")
        soa = _observed_run(problem, build(), seed, "soa")
        assert obj[0] == soa[0]
        assert obj[1].snapshot() == soa[1].snapshot()
        assert obj[2].to_dict() == soa[2].to_dict()


class TestTracerIsInert:
    @_SETTINGS
    @given(instance=_batch_problems())
    def test_traced_run_unchanged(self, instance):
        problem, seed = instance
        plain = HotPotatoEngine(
            problem, RestrictedPriorityPolicy(), seed=seed, backend="object"
        ).run()
        tracer = PacketTracer()
        traced = HotPotatoEngine(
            problem,
            RestrictedPriorityPolicy(),
            seed=seed,
            observers=[tracer],
        ).run()
        assert traced == plain
        delivers = sum(
            1 for e in tracer.trace.events if e.kind == "deliver"
        )
        # Packets whose source equals their destination are absorbed at
        # time 0 before routing starts, so the trace only sees the
        # step-delivered population (what telemetry counts).
        assert delivers == plain.telemetry.delivered


class TestDynamicObserversAreInert:
    @_SETTINGS
    @given(
        side=st.integers(min_value=3, max_value=5),
        rate=st.floats(min_value=0.05, max_value=0.3),
        seed=st.integers(min_value=0, max_value=2**16),
        steps=st.integers(min_value=1, max_value=60),
    )
    def test_dynamic_run_unchanged(self, side, rate, seed, steps):
        def run(observers):
            engine = DynamicEngine(
                Mesh(2, side),
                RestrictedPriorityPolicy(),
                BernoulliTraffic(rate),
                seed=seed,
                observers=observers,
                backend="object",
            )
            return run_rows(engine, steps), engine.telemetry

        assert run([RunMetricsRecorder(), SeriesRecorder()]) == run([])


def observed_capture(backend="object"):
    """The pinned scenario behind ``golden/obs_capture.json``.

    Regenerate (only for an intended, documented behavior change)::

        PYTHONPATH=src python - <<'EOF'
        import json
        from tests.integration.test_obs_differential import (
            CAPTURE_PATH, observed_capture,
        )
        with open(CAPTURE_PATH, "w", encoding="utf-8") as fh:
            json.dump(observed_capture(), fh, indent=2, sort_keys=True)
            fh.write("\\n")
        EOF
    """
    mesh = Mesh(2, 6)
    problem = random_many_to_many(mesh, k=40, seed=11)
    result, registry, series = _observed_run(
        problem, RestrictedPriorityPolicy(), 5, backend
    )
    return {
        "total_steps": result.total_steps,
        "delivered": result.delivered,
        "telemetry": result.telemetry.to_dict(),
        "registry": registry.snapshot(),
        "series": series.to_dict(),
    }


class TestGoldenObsCapture:
    def test_object_backend_matches_capture(self):
        with open(CAPTURE_PATH, encoding="utf-8") as fh:
            assert observed_capture("object") == json.load(fh)

    def test_soa_backend_matches_capture(self):
        with open(CAPTURE_PATH, encoding="utf-8") as fh:
            assert observed_capture("soa") == json.load(fh)
