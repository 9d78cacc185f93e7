"""The campaign front door: specs in, durable results out.

:class:`Campaign` ties the three lower layers together: it queues
declarative specs into a :class:`~repro.campaign.store.CampaignStore`,
dispatches the open ones through a persistent
:class:`~repro.campaign.pool.WorkerPool` (worker-side resolution via
:func:`repro.campaign.worker.execute_chunk`), and appends durable
``case-finished`` / ``case-failed`` events as results land: one
fsynced append per landed pool chunk (one per case on the serial
path).  That last part is where a 1-CPU machine still wins from
``workers=2``: the parent fsyncs a chunk's events while workers
compute the next chunks, overlapping the log's I/O stalls with
simulation instead of serializing them.

Crash safety is resume-by-replay: a killed campaign re-created over
the same store (or rebuilt from the store alone via
:meth:`Campaign.from_store`) restores every acknowledged point from
the event log and executes only the remainder — completed cases are
never re-run, queued events are never re-appended.  A case is
acknowledged when the append carrying its event returns, so a kill
between a chunk landing and its append re-runs that chunk.

Execution order is the store's priority queue (``priority`` desc,
submission order within a priority) but :attr:`CampaignResult.points`
always comes back in spec order, and serial (``workers=1``) and
pooled runs of the same specs produce bit-identical points: both
paths run the same chunk function with the same summary-level
payload contract.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.campaign.pool import WorkerPool
from repro.campaign.results import (
    CaseFailure,
    ExperimentPoint,
    aggregate_telemetry,
)
from repro.campaign.spec import CaseSpec, spec_key
from repro.campaign.store import CampaignStore
from repro.campaign.worker import execute_chunk, initialize_worker
from repro.obs.metrics import MetricRegistry, fold_telemetry
from repro.obs.telemetry import RunTelemetry

__all__ = ["Campaign", "CampaignResult"]


@dataclass
class CampaignResult:
    """Outcome of one :meth:`Campaign.run`.

    ``points`` holds the successful cases in *spec* order (failed
    cases leave no hole — they appear in ``failures`` instead, keyed
    for the event log).  ``resumed`` counts points restored from the
    store rather than executed; ``degraded`` / ``chunked`` mirror the
    pool's account of the fabric.
    """

    points: List[ExperimentPoint] = field(default_factory=list)
    failures: List[CaseFailure] = field(default_factory=list)
    degraded: bool = False
    resumed: int = 0
    chunked: int = 0

    def all_completed(self) -> bool:
        return not self.failures and all(
            point.result.completed for point in self.points
        )

    def telemetry(self) -> Optional[RunTelemetry]:
        """Aggregate lean-path counters over every successful point."""
        return aggregate_telemetry(self.points)


class Campaign:
    """A batch of declarative cases over one store and one pool.

    ``store=None`` runs without durability (no events, no resume) —
    useful for benchmarks and differential tests that only want the
    execution semantics.  Pass a started :class:`WorkerPool` as
    ``pool`` to share workers across campaigns; otherwise the campaign
    owns a pool configured from ``workers`` / ``timeout`` / ``retries``
    / ``backoff`` whose initializer pre-warms each worker with the
    campaign's distinct mesh shapes.
    """

    def __init__(
        self,
        specs: Sequence[CaseSpec],
        *,
        store: Optional[CampaignStore] = None,
        pool: Optional[WorkerPool] = None,
        workers: int = 1,
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.25,
    ) -> None:
        self.specs = list(specs)
        self.keys = [spec_key(spec) for spec in self.specs]
        duplicates = [
            key for key, count in Counter(self.keys).items() if count > 1
        ]
        if duplicates:
            raise ValueError(
                "duplicate case specs in campaign: "
                + ", ".join(sorted(duplicates))
            )
        self.store = store
        #: Campaign-level aggregate metrics.  As each worker result
        #: lands in ``on_result`` (a chunk at a time) its metric
        #: snapshot (the telemetry riding on the point) is folded in —
        #: counters add, peaks take the max — alongside lifecycle
        #: counters, so the registry is live *during* :meth:`run`, not
        #: just after.  The fold is order-independent, so pooled
        #: completion order cannot change the aggregate.  Accumulates
        #: across repeated :meth:`run` calls on the same campaign
        #: object.
        self.metrics = MetricRegistry()
        self._owns_pool = pool is None
        if pool is None:
            pool = WorkerPool(
                workers,
                timeout=timeout,
                retries=retries,
                backoff=backoff,
                initializer=initialize_worker,
                initargs=(self.shapes(),),
            )
        self.pool = pool

    @classmethod
    def from_store(
        cls,
        store: Union[CampaignStore, str],
        *,
        pool: Optional[WorkerPool] = None,
        workers: int = 1,
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.25,
    ) -> "Campaign":
        """Rebuild a campaign from its event log alone.

        The ``case-queued`` events carry full spec dicts, so the store
        file is self-sufficient: this is what ``repro campaign resume``
        uses after the original process is gone.
        """
        if isinstance(store, str):
            store = CampaignStore(store)
        state = store.replay()
        specs = [state.specs[key] for key in state.order]
        return cls(
            specs,
            store=store,
            pool=pool,
            workers=workers,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
        )

    def shapes(self) -> Tuple[Tuple[str, int, int], ...]:
        """Distinct mesh shapes of the campaign, in first-use order."""
        seen: Dict[Tuple[str, int, int], None] = {}
        for spec in self.specs:
            seen.setdefault(spec.shape, None)
        return tuple(seen)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Shut down an owned pool (shared pools are left running)."""
        if self._owns_pool:
            self.pool.close()

    def __enter__(self) -> "Campaign":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    # -- execution -----------------------------------------------------

    def status(self) -> Dict[str, int]:
        """Lifecycle counts from the store (all-queued without one)."""
        if self.store is None:
            return {
                "queued": len(self.specs),
                "started": 0,
                "finished": 0,
                "failed": 0,
            }
        return self.store.status()

    def metrics_snapshot(self) -> Dict[str, object]:
        """Schema-versioned snapshot of the campaign-level aggregates
        (export with :func:`repro.obs.export.render_prometheus`)."""
        return self.metrics.snapshot()

    def _fold_point(self, point: ExperimentPoint, counter: str) -> None:
        self.metrics.counter(
            f"repro_campaign_cases_{counter}_total",
            f"Campaign cases {counter}",
        ).inc()
        fold_telemetry(self.metrics, point.result.telemetry)

    def _chunk_fn(
        self,
        pending: Sequence[str],
        by_key: Dict[str, CaseSpec],
        checkpoints: Dict[str, Dict[str, Any]],
    ):
        """The chunk function for this batch.

        When no pending spec asks for mid-run durability the bare
        :func:`~repro.campaign.worker.execute_chunk` goes out, exactly
        as before.  Otherwise the stored snapshots for pending keys and
        the store path are bound via :func:`functools.partial` — pure
        data riding next to the spec payload, so the PAR5xx submission
        purity rules hold and the serial path behaves identically.
        """
        durable = self.store is not None and any(
            by_key[key].checkpoint_every is not None for key in pending
        )
        relevant = {
            key: checkpoints[key] for key in pending if key in checkpoints
        }
        if not durable and not relevant:
            return execute_chunk
        assert self.store is not None
        return functools.partial(
            execute_chunk,
            checkpoints=relevant,
            store_path=self.store.path,
        )

    def _enrich_failure(
        self,
        key: str,
        index: int,
        failure: CaseFailure,
        prior_failures: Dict[str, CaseFailure],
    ) -> CaseFailure:
        """Fold retry accounting into a failure before it is recorded.

        ``attempts`` counts every execution try the pool made for this
        item in the current batch, plus whatever earlier campaign runs
        already burned (replayed from the last ``case-failed`` event);
        ``history`` carries one line per earlier terminal failure so a
        permanently broken case shows its whole trajectory.
        """
        attempts = self.pool.attempts.get(index, 1)
        prior = prior_failures.get(key)
        history: Tuple[str, ...] = ()
        if prior is not None:
            attempts += prior.attempts
            history = prior.history + (
                f"{prior.error}: {prior.message}",
            )
        return dataclasses.replace(
            failure, attempts=attempts, history=history
        )

    def run(self) -> CampaignResult:
        """Execute every open case; returns points in spec order.

        Idempotent over the store: cases with an acknowledged
        ``case-finished`` event are restored, not re-run, and
        ``case-queued`` events are appended only for specs the log has
        never seen.  Failed cases are retried (their old ``case-failed``
        events stay in the log; a later success supersedes them).
        """
        by_key = {key: spec for key, spec in zip(self.keys, self.specs)}
        restored: Dict[str, ExperimentPoint] = {}
        known: Dict[str, str] = {}
        checkpoints: Dict[str, Dict[str, Any]] = {}
        prior_failures: Dict[str, CaseFailure] = {}
        if self.store is not None:
            state = self.store.replay()
            known = {key: "seen" for key in state.specs}
            checkpoints = state.checkpoints
            prior_failures = state.failures
            restored = {
                key: point
                for key, point in state.points.items()
                if key in by_key
            }
            fresh = [
                (key, by_key[key])
                for key in self.keys
                if key not in known
            ]
            if fresh:
                self.store.queue(fresh)

        for point in restored.values():
            self._fold_point(point, "restored")

        position = {key: index for index, key in enumerate(self.keys)}
        pending = [key for key in self.keys if key not in restored]
        pending.sort(
            key=lambda key: (-by_key[key].priority, position[key])
        )
        outcome: Dict[str, Union[ExperimentPoint, CaseFailure]] = {}

        if pending:
            if self.store is not None:
                self.store.start(pending)

            def on_result(
                landed: List[Tuple[int, Union[ExperimentPoint, CaseFailure]]]
            ) -> None:
                # Outcomes and metrics per item; the chunk's terminal
                # events in one fsynced append.
                settled = []
                for index, result in landed:
                    key = pending[index]
                    if isinstance(result, CaseFailure):
                        result = self._enrich_failure(key, index, result,
                                                      prior_failures)
                        self.metrics.counter(
                            "repro_campaign_cases_failed_total",
                            "Campaign cases failed",
                        ).inc()
                    else:
                        self._fold_point(result, "finished")
                    outcome[key] = result
                    settled.append((key, result))
                if self.store is not None:
                    self.store.settle(settled)

            self.pool.run_batch(
                [by_key[key] for key in pending],
                self._chunk_fn(pending, by_key, checkpoints),
                on_result=on_result,
            )

        points: List[ExperimentPoint] = []
        failures: List[CaseFailure] = []
        for key in self.keys:
            if key in restored:
                points.append(restored[key])
                continue
            result = outcome[key]
            if isinstance(result, CaseFailure):
                failures.append(result)
            else:
                points.append(result)
        return CampaignResult(
            points=points,
            failures=failures,
            degraded=self.pool.degraded if pending else False,
            resumed=len(restored),
            chunked=self.pool.chunked if pending else 0,
        )
