"""The persistent WorkerPool: serial paths, persistence, callbacks,
crash recovery.

The chunk functions live at module level — the same PAR502 pickling
contract the pool enforces on its callers.  Process-spawning cases are
marked ``slow`` like the rest of the parallel suite.  Crash and hang
behaviour is armed through sentinel files, so a chunk misbehaves
exactly once and then runs normally: the first pool pass fails, the
retry (or the serial fallback) succeeds.
"""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import pytest

from repro.campaign import CaseSpec
from repro.campaign.pool import BACKOFF_CAP, WorkerPool
from repro.campaign.worker import execute_chunk

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _double_chunk(chunk):
    return [2 * item for item in chunk]


def _raising_chunk(chunk):
    raise ValueError("deterministic chunk failure")


def _arm(sentinel):
    """True exactly once per sentinel path (the first caller wins)."""
    try:
        with open(sentinel, "x", encoding="utf-8"):
            return True
    except FileExistsError:
        return False


def _crash_once_chunk(sentinel, chunk):
    """Kill the whole worker process on first use, then run the specs.

    Never exits the test process itself (a pool that cannot start runs
    the batch serially here)."""
    if _arm(sentinel) and multiprocessing.parent_process() is not None:
        os._exit(1)
    return execute_chunk(chunk)


def _hang_once_chunk(sentinel, chunk):
    """Hang (longer than any test timeout) on first use, then run."""
    if _arm(sentinel):
        time.sleep(8.0)
    return execute_chunk(chunk)


def _abandon_wedged_pool(sentinel):
    """Child-process body: a batch whose first chunk hangs, under a
    pool timeout far shorter than the hang."""
    pool = WorkerPool(workers=2, timeout=0.5, retries=1, backoff=0)
    try:
        points = pool.run_batch(
            _specs([0, 1, 2]), partial(_hang_once_chunk, sentinel)
        )
    finally:
        pool.close()
    assert len(points) == 3
    assert pool.degraded


_ABANDON = (
    "import sys\n"
    "from tests.campaign.test_pool import _abandon_wedged_pool\n"
    "_abandon_wedged_pool(sys.argv[1])\n"
)


def _specs(seeds):
    return [
        CaseSpec(
            topology="mesh",
            workload="random",
            policy="restricted-priority",
            seed=seed,
            side=4,
            workload_params=(("k", 8),),
        )
        for seed in seeds
    ]


class TestSerialPath:
    def test_workers_one_runs_in_process(self):
        pool = WorkerPool(workers=1)
        assert pool.run_batch([1, 2, 3], _double_chunk) == [2, 4, 6]
        assert pool.chunked == 0
        assert not pool.degraded
        assert pool.starts == 0

    def test_single_item_batches_stay_serial(self):
        pool = WorkerPool(workers=4)
        assert pool.run_batch([5], _double_chunk) == [10]
        assert pool.chunked == 0
        pool.close()

    def test_empty_batch_returns_empty(self):
        pool = WorkerPool(workers=1)
        assert pool.run_batch([], _double_chunk) == []

    def test_on_result_fires_per_item_with_items_index(self):
        pool = WorkerPool(workers=1)
        seen = []
        pool.run_batch(
            [10, 20, 30],
            _double_chunk,
            on_result=lambda index, result: seen.append((index, result)),
        )
        assert sorted(seen) == [(0, 20), (1, 40), (2, 60)]

    def test_deterministic_chunk_exception_propagates(self):
        pool = WorkerPool(workers=1)
        with pytest.raises(ValueError, match="deterministic chunk"):
            pool.run_batch([1, 2], _raising_chunk)

    def test_start_declines_without_workers(self):
        pool = WorkerPool(workers=1)
        assert pool.start() is False
        assert pool.starts == 0

    def test_workers_floor_is_one(self):
        assert WorkerPool(workers=0).workers == 1
        assert WorkerPool(workers=-3).workers == 1


class TestChunkPartition:
    """The chunk planner alone — no processes spawned."""

    def test_chunk_count_tracks_workers(self):
        pending = list(range(64))
        few = WorkerPool(workers=2)._chunks(pending)
        many = WorkerPool(workers=8)._chunks(pending)
        assert len(few) <= 2 * WorkerPool.CHUNKS_PER_WORKER
        assert len(many) >= len(few)

    def test_small_batches_chunk_one_item_each(self):
        assert WorkerPool(workers=4)._chunks([0, 1, 2]) == [[0], [1], [2]]


@pytest.mark.slow
class TestPersistence:
    def test_pool_survives_across_batches(self):
        with WorkerPool(workers=2) as pool:
            first = pool.run_batch(list(range(8)), _double_chunk)
            second = pool.run_batch(list(range(8, 16)), _double_chunk)
        assert first == [2 * i for i in range(8)]
        assert second == [2 * i for i in range(8, 16)]
        # One spawn serves both batches: the whole point of the pool.
        assert pool.starts == 1
        assert not pool.degraded

    def test_start_is_idempotent(self):
        with WorkerPool(workers=2) as pool:
            assert pool.start() is True
            assert pool.start() is True
            assert pool.starts == 1

    def test_closed_pool_restarts_on_demand(self):
        pool = WorkerPool(workers=2)
        pool.run_batch(list(range(4)), _double_chunk)
        pool.close()
        assert pool.run_batch(list(range(4)), _double_chunk) == [
            0,
            2,
            4,
            6,
        ]
        assert pool.starts == 2
        pool.close()

    def test_pooled_results_match_serial(self):
        items = list(range(20))
        serial = WorkerPool(workers=1).run_batch(items, _double_chunk)
        with WorkerPool(workers=2) as pool:
            pooled = pool.run_batch(items, _double_chunk)
        assert pooled == serial
        assert pool.chunked > 0

    def test_chunks_partition_contiguously(self):
        pool = WorkerPool(workers=2)
        chunks = pool._chunks(list(range(10)))
        flattened = [i for chunk in chunks for i in chunk]
        assert flattened == list(range(10))
        assert all(chunk == sorted(chunk) for chunk in chunks)


class TestRetryBackoffAndAttempts:
    def test_backoff_delays_are_capped(self):
        # Stub out the pool pass so every attempt "fails": the sleep
        # schedule must double from `backoff` and saturate at
        # BACKOFF_CAP instead of reaching minutes.
        delays = []
        pool = WorkerPool(workers=2, retries=4, backoff=1.0, sleep=delays.append)
        pool._pool_pass = lambda items, pending, fn, record: None
        assert pool.run_batch([1, 2], _double_chunk) == [2, 4]
        assert delays == [1.0, 2.0, 4.0, BACKOFF_CAP]
        assert pool.degraded

    def test_zero_backoff_never_sleeps(self):
        delays = []
        pool = WorkerPool(workers=2, retries=3, backoff=0.0, sleep=delays.append)
        pool._pool_pass = lambda items, pending, fn, record: None
        pool.run_batch([1, 2], _double_chunk)
        assert delays == []

    def test_attempts_count_the_serial_fallback(self):
        pool = WorkerPool(workers=2, retries=1, backoff=0.0, sleep=lambda _: None)
        pool._pool_pass = lambda items, pending, fn, record: None
        pool.run_batch([1, 2], _double_chunk)
        # Pool passes never landed anything; the serial rescue ran
        # each item exactly once.
        assert pool.attempts == {0: 1, 1: 1}

    def test_attempts_on_the_plain_serial_path(self):
        pool = WorkerPool(workers=1)
        assert pool.run_batch([1, 2, 3], _double_chunk) == [2, 4, 6]
        assert pool.attempts == {0: 1, 1: 1, 2: 1}


@pytest.mark.slow
class TestCrashRecovery:
    def test_killed_worker_costs_nothing_but_a_retry(self, tmp_path):
        sentinel = str(tmp_path / "crashed")
        landed = []
        with WorkerPool(workers=2, retries=2, backoff=0) as pool:
            points = pool.run_batch(
                _specs([0, 1, 2, 3]),
                partial(_crash_once_chunk, sentinel),
                on_result=lambda index, point: landed.append(index),
            )
        assert [p.params["seed"] for p in points] == [0, 1, 2, 3]
        assert all(p.result.completed for p in points)
        assert pool.degraded
        assert os.path.exists(sentinel)
        # Every item lands exactly once, crash and retry included:
        # the campaign store appends one case-finished per landing.
        assert sorted(landed) == [0, 1, 2, 3]

    def test_crash_results_match_a_clean_run(self, tmp_path):
        sentinel = str(tmp_path / "crashed")
        specs = _specs([0, 1, 2])
        with WorkerPool(workers=2, retries=2, backoff=0) as pool:
            crashed = pool.run_batch(
                specs, partial(_crash_once_chunk, sentinel)
            )
        clean = WorkerPool(workers=1).run_batch(specs, execute_chunk)
        assert crashed == clean

    def test_pool_broken_between_submissions_leaves_chunks_pending(
        self, monkeypatch
    ):
        # A worker that dies while chunks are still being submitted
        # makes the next submit() raise.  That chunk and the ones after
        # it were never sent: they stay pending for the retry pass and
        # count no attempt until they are.
        submit = ProcessPoolExecutor.submit
        calls = []

        def breaking_submit(self, *args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise BrokenProcessPool("worker died mid-submission")
            return submit(self, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", breaking_submit)
        with WorkerPool(workers=2, retries=2, backoff=0) as pool:
            results = pool.run_batch(list(range(6)), _double_chunk)
        assert results == [2 * item for item in range(6)]
        assert pool.degraded
        assert pool.attempts == {index: 1 for index in range(6)}

    def test_retries_zero_falls_back_to_serial(self, tmp_path):
        sentinel = str(tmp_path / "crashed")
        with WorkerPool(workers=2, retries=0) as pool:
            points = pool.run_batch(
                _specs([0, 1]), partial(_crash_once_chunk, sentinel)
            )
        assert len(points) == 2
        assert all(p.result.completed for p in points)
        assert pool.degraded

    def test_hung_worker_is_abandoned_after_the_timeout(self, tmp_path):
        sentinel = str(tmp_path / "slept")
        pool = WorkerPool(workers=2, timeout=0.5, retries=1, backoff=0)
        start = time.monotonic()
        try:
            points = pool.run_batch(
                _specs([0, 1, 2]), partial(_hang_once_chunk, sentinel)
            )
        finally:
            pool.close()
        elapsed = time.monotonic() - start
        assert len(points) == 3
        assert all(p.result.completed for p in points)
        assert pool.degraded
        # The 8s sleeper must not be waited out.
        assert elapsed < 6

    def test_abandoned_pool_lets_the_process_exit(self, tmp_path):
        # Interpreter exit joins every pool worker, so the abandoned
        # pool's hung worker must have been terminated: otherwise the
        # child lives until the 8s sleeper returns.  A fresh
        # interpreter, so its pool forks as the platform default does.
        child = subprocess.Popen(
            [sys.executable, "-c", _ABANDON, str(tmp_path / "slept")],
            cwd=REPO_ROOT,
            env=dict(os.environ),
        )
        try:
            status = child.wait(timeout=6)
        except subprocess.TimeoutExpired:
            status = None
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        assert status == 0

    def test_deterministic_chunk_exception_propagates(self):
        with WorkerPool(workers=2, retries=3, backoff=0) as pool:
            with pytest.raises(ValueError, match="deterministic chunk"):
                pool.run_batch([1, 2], _raising_chunk)
        # Retrying cannot fix a deterministic failure: no second try.
        assert pool.attempts == {0: 1, 1: 1}

    def test_unpicklable_item_in_a_pooled_batch_raises(self):
        with WorkerPool(workers=2) as pool:
            with pytest.raises(TypeError, match="pickle"):
                pool.run_batch([1, threading.Lock(), 3], _double_chunk)
