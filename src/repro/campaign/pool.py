"""The persistent worker pool behind every process fan-out.

``ProcessPoolExecutor`` spawn cost dominates a pool started per batch:
fresh workers, meshes shipped per chunk, everything torn down after.
:class:`WorkerPool` inverts the lifecycle: the pool outlives
individual batches, worker processes keep their per-process caches
warm across batches (see :mod:`repro.campaign.worker`), and an
``initializer`` can pre-warm them before the first chunk lands.

Crash recovery is generic over the payload type:

* a killed/crashed worker loses only the chunk it held; up to
  ``retries`` fresh pool passes re-run the gaps (with exponential
  ``backoff`` between attempts, slept through the sanctioned
  :func:`repro.obs.clock.sleep_for`);
* ``timeout`` bounds the wait for the *next* completion — a wedged
  pool is abandoned (futures cancelled, worker processes terminated)
  and replaced;
* whatever survives every pool attempt runs serially in the parent,
  so every item is executed and reported exactly once;
* any detour sets :attr:`degraded`.

Results reach the parent a landed chunk at a time: ``on_result``
receives each chunk's ``(index, result)`` pairs in one call, so a
caller that journals results (the campaign store) pays one durable
append per chunk, not one per item.

Exceptions raised *by the chunk function itself* are deterministic
and re-raised immediately (the campaign chunk function converts
per-case failures to data before they get here).  Items and the chunk
function must pickle: a pooled batch that cannot send one raises.
"""

from __future__ import annotations

from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from types import TracebackType
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.obs.clock import sleep_for

__all__ = ["BACKOFF_CAP", "WorkerPool"]

ChunkFn = Callable[[Sequence[Any]], List[Any]]

#: One landed chunk: ``(index, result)`` pairs in chunk order, indices
#: into the batch's items.
Landed = List[Tuple[int, Any]]

#: Ceiling on the exponential retry backoff, in seconds.  Uncapped
#: doubling reaches minutes within a dozen attempts, which turns a
#: transiently failing case into a silently stalled campaign.
BACKOFF_CAP = 5.0


class WorkerPool:
    """A restartable, batch-agnostic process pool.

    Use as a context manager (or call :meth:`close` explicitly); the
    same pool instance serves any number of :meth:`run_batch` calls,
    and the underlying worker processes persist between them unless a
    crash forces a restart.

    Dispatch is chunked: each submission carries a contiguous slice of
    items (about :attr:`CHUNKS_PER_WORKER` chunks per worker) and the
    worker runs the whole slice in one call.  Results always come back
    in item order, so a pooled batch is element-for-element identical
    to the serial one.

    The pool degrades gracefully to in-process execution when
    ``workers <= 1``, the batch has fewer than two items, or the pool
    cannot be started at all.
    """

    #: Target chunks per worker: mild oversubscription keeps workers
    #: busy when chunks finish unevenly without reverting to
    #: item-at-a-time dispatch (whose per-task IPC dominated short
    #: runs).
    CHUNKS_PER_WORKER = 4

    def __init__(
        self,
        workers: int = 1,
        *,
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.25,
        sleep: Optional[Callable[[float], None]] = None,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
    ) -> None:
        self.workers = max(1, int(workers))
        #: Max seconds to wait for the next completion before the pool
        #: is declared wedged; ``None`` waits forever.
        self.timeout = timeout
        #: Extra pool attempts after the first (0 disables retry).
        self.retries = max(0, int(retries))
        #: Base delay before retry ``k`` is ``backoff * 2**(k-1)``,
        #: bounded by :data:`BACKOFF_CAP`.
        self.backoff = backoff
        self._sleep = sleep if sleep is not None else sleep_for
        self._initializer = initializer
        self._initargs = initargs
        self._pool: Optional[ProcessPoolExecutor] = None
        #: True when the most recent batch needed retries or fallbacks.
        self.degraded = False
        #: Chunks dispatched to pools in the most recent batch (0 when
        #: the batch ran serially in-process).
        self.chunked = 0
        #: Pool (re)starts over this instance's lifetime.  A healthy
        #: campaign shows 1; each crash/wedge recovery adds one.
        self.starts = 0
        #: Execution tries per item index in the most recent batch
        #: (first dispatch counts as 1).  Lets callers report a
        #: permanently failing item's retry history instead of just
        #: its final exception.
        self.attempts: Dict[int, int] = {}

    # -- lifecycle -----------------------------------------------------

    def start(self) -> bool:
        """Ensure worker processes exist; False when they can't.

        Idempotent: a live pool is reused.  Call eagerly to move spawn
        cost (and initializer pre-warming) outside a timed region;
        otherwise the first :meth:`run_batch` starts the pool lazily.
        """
        if self._pool is not None:
            return True
        if self.workers == 1:
            return False
        try:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=self._initializer,
                initargs=self._initargs,
            )
        except (OSError, PermissionError):
            return False
        self.starts += 1
        return True

    def close(self) -> None:
        """Shut the worker processes down (the instance stays usable;
        the next batch simply starts a fresh pool)."""
        self._discard(wait_for_workers=True)

    def _discard(self, *, wait_for_workers: bool) -> None:
        """Drop the executor.  An abandoned one (``wait_for_workers``
        False: wedged, broken, or re-raising) also has its worker
        processes terminated: cancelling futures does not stop a
        running chunk, and interpreter exit joins every worker, so a
        hung one would otherwise keep the process alive."""
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        if wait_for_workers:
            pool.shutdown(wait=True)
            return
        # shutdown() forgets the processes, so take them first.
        processes = list((pool._processes or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.terminate()

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    # -- execution -----------------------------------------------------

    def run_batch(
        self,
        items: Sequence[Any],
        fn: ChunkFn,
        *,
        on_result: Optional[Callable[[Landed], None]] = None,
    ) -> List[Any]:
        """Execute ``fn`` over all items, returning results in order.

        ``fn(chunk)`` receives a contiguous slice of ``items`` and
        must return one result per element, in slice order.  It runs
        inside workers when the pool is live and in this process on
        the serial path — same function, same results, either way.

        ``on_result(landed)`` fires once per landed chunk (event-log
        hooks) with that chunk's ``(index, result)`` pairs in chunk
        order; indices refer to ``items`` order, and the callback runs
        in this process regardless of fan-out.  The serial path and
        the serial fallback land one item at a time.  Across the
        batch every item is reported exactly once, retries included.
        """
        self.degraded = False
        self.chunked = 0
        items = list(items)
        self.attempts = {index: 0 for index in range(len(items))}
        results: Dict[int, Any] = {}

        def record(landed: Landed) -> None:
            for index, result in landed:
                results[index] = result
            if on_result is not None:
                on_result(landed)

        if self.workers == 1 or len(items) < 2:
            for index, item in enumerate(items):
                self.attempts[index] = 1
                record([(index, fn([item])[0])])
            return [results[i] for i in range(len(items))]

        pending = list(range(len(items)))
        for attempt in range(self.retries + 1):
            if not pending:
                break
            if attempt:
                self.degraded = True
                if self.backoff > 0:
                    self._sleep(
                        min(BACKOFF_CAP, self.backoff * (2 ** (attempt - 1)))
                    )
            self._pool_pass(items, pending, fn, record)
            pending = [i for i in pending if i not in results]
        if pending:
            # Last resort: whatever the pools never finished runs
            # serially here, so the batch always comes back whole.
            self.degraded = True
            for index in pending:
                self.attempts[index] += 1
                record([(index, fn([items[index]])[0])])
        return [results[i] for i in range(len(items))]

    def _chunks(self, pending: Sequence[int]) -> List[List[int]]:
        """Partition ``pending`` into contiguous, near-equal chunks."""
        target = self.workers * self.CHUNKS_PER_WORKER
        size = max(1, -(-len(pending) // target))
        return [
            list(pending[start : start + size])
            for start in range(0, len(pending), size)
        ]

    def _pool_pass(
        self,
        items: List[Any],
        pending: Sequence[int],
        fn: ChunkFn,
        record: Callable[[Landed], None],
    ) -> None:
        """One pool attempt over ``pending``; records each chunk that
        completes, whole, in one ``record`` call.

        Infrastructure casualties are swallowed: a worker crash (even
        one that breaks the pool while chunks are still being
        submitted), an unstartable pool, a wedged one.  Lost and
        unsubmitted chunks simply stay pending and the caller retries
        the gaps; only submitted chunks count in :attr:`attempts`.  A
        casualty costs the pool its worker processes: a broken or
        wedged pool is discarded so the next pass (or batch) starts a
        fresh one.  Exceptions raised by ``fn`` itself propagate.
        """
        if not self.start():
            self.degraded = True
            return
        pool = self._pool
        assert pool is not None
        healthy = True
        try:
            futures: Dict[Future[List[Any]], Sequence[int]] = {}
            for chunk in self._chunks(pending):
                try:
                    future = pool.submit(fn, [items[i] for i in chunk])
                except (BrokenProcessPool, OSError):
                    # A worker died while chunks were still going out:
                    # this chunk and the rest stay pending.
                    healthy = False
                    break
                futures[future] = chunk
                for index in chunk:
                    self.attempts[index] += 1
            self.chunked += len(futures)
            outstanding = set(futures)
            while outstanding:
                done, outstanding = wait(
                    outstanding,
                    timeout=self.timeout,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    # Nothing finished within the timeout: the pool is
                    # wedged (hung worker).  Abandon it and move on.
                    healthy = False
                    break
                for future in done:
                    chunk = futures[future]
                    try:
                        chunk_results = future.result()
                    except (BrokenProcessPool, OSError, PermissionError):
                        # This worker died; its chunk stays pending.
                        healthy = False
                        continue
                    except BaseException:
                        # Deterministic chunk failure (or a payload
                        # that failed to pickle): don't let the rest
                        # of the pool grind on before re-raising.
                        healthy = False
                        raise
                    record(list(zip(chunk, chunk_results)))
        finally:
            if not healthy:
                self.degraded = True
                self._discard(wait_for_workers=False)
