"""Unified step-limit semantics: all four engines end an exhausted
run with the same structured ``RunAborted`` vocabulary (reason
``"step-limit"``), never a silent truncation or an exception — unless
``raise_on_timeout`` explicitly asks for one."""

import pytest

from repro.algorithms import DimensionOrderPolicy, RandomRankPolicy
from repro.core.buffered_engine import BufferedEngine
from repro.core.engine import HotPotatoEngine
from repro.core.events import RunObserver
from repro.dynamic import (
    BernoulliTraffic,
    BufferedDynamicEngine,
    DynamicEngine,
    ScriptedTraffic,
)
from repro.exceptions import LivelockSuspectedError
from repro.faults import FaultSchedule, RunWatchdog
from repro.mesh.topology import Mesh
from repro.workloads import random_permutation

MESH = Mesh(2, 4)
LIMIT = 2  # far below what a 4x4 permutation needs


def problem():
    return random_permutation(MESH, seed=4)


class TestHotPotatoStepLimit:
    def run_limited(self, **kwargs):
        return HotPotatoEngine(
            problem(), RandomRankPolicy(), seed=0, max_steps=LIMIT, **kwargs
        ).run()

    def test_structured_abort_with_census(self):
        result = self.run_limited()
        assert not result.completed
        assert result.total_steps == LIMIT
        assert result.abort is not None
        assert result.abort.reason == "step-limit"
        assert result.abort.step == LIMIT
        assert list(result.abort.undelivered) == result.undelivered_ids
        assert result.abort.undelivered  # something really was in flight
        assert result.abort.stranded == ()
        assert "TIMEOUT" in result.summary()

    def test_instrumented_path_matches(self):
        lean = self.run_limited(backend="object")
        instrumented = self.run_limited(
            observers=[RunObserver()], backend="object"
        )
        assert lean == instrumented

    def test_guarded_path_matches(self):
        lean = self.run_limited(backend="object")
        guarded = self.run_limited(
            faults=FaultSchedule.empty(), backend="object"
        )
        assert lean == guarded

    def test_raise_on_timeout_still_raises(self):
        with pytest.raises(LivelockSuspectedError):
            self.run_limited(raise_on_timeout=True)


class TestBufferedStepLimit:
    def run_limited(self, **kwargs):
        return BufferedEngine(
            problem(),
            DimensionOrderPolicy(),
            seed=0,
            max_steps=LIMIT,
            **kwargs,
        ).run()

    def test_structured_abort_with_census(self):
        result = self.run_limited()
        assert not result.completed
        assert result.total_steps == LIMIT
        assert result.abort is not None
        assert result.abort.reason == "step-limit"
        assert list(result.abort.undelivered) == result.undelivered_ids
        assert "TIMEOUT" in result.summary()

    def test_instrumented_path_matches(self):
        lean = self.run_limited(backend="object")
        instrumented = self.run_limited(
            observers=[RunObserver()], backend="object"
        )
        assert lean == instrumented

    def test_raise_on_timeout_still_raises(self):
        with pytest.raises(LivelockSuspectedError):
            self.run_limited(raise_on_timeout=True)


class TestDynamicHorizon:
    """For the dynamic engines the requested horizon is a normal end,
    not an abort; only a watchdog verdict sets ``stats.abort``."""

    def test_horizon_end_is_not_an_abort(self):
        stats = DynamicEngine(
            MESH, RandomRankPolicy(), BernoulliTraffic(0.1), seed=3
        ).run(40)
        assert stats.horizon == 40
        assert stats.abort is None

    def test_buffered_horizon_end_is_not_an_abort(self):
        stats = BufferedDynamicEngine(
            MESH, DimensionOrderPolicy(), BernoulliTraffic(0.1), seed=3
        ).run(40)
        assert stats.abort is None

    def test_watchdog_verdict_lands_on_stats(self):
        # One far-away packet, zero tolerance for delivery-free steps:
        # the watchdog must cut the horizon short with a structured
        # verdict while the packet is still crossing the mesh.
        traffic = ScriptedTraffic([((1, 1), 0, (4, 4))])
        stats = DynamicEngine(
            MESH,
            RandomRankPolicy(),
            traffic,
            seed=3,
            watchdog=RunWatchdog(
                no_progress_limit=1, partition_interval=None
            ),
        ).run(200)
        assert stats.abort is not None
        assert stats.abort.reason == "no-progress"
        assert stats.horizon < 200
