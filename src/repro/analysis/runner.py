"""Experiment harness: seed-replicated runs and parameter sweeps.

The benchmarks and examples share one way to run things: a *case* is a
(problem-factory, policy-factory) pair evaluated over several seeds;
sweeps map a parameter grid to cases and collect
:class:`~repro.core.metrics.RunResult` objects with their parameters
attached.

Replicates are independent (each builds its own problem, policy and
engine from a seed), so the harness can fan them out across processes:
every public entry point takes ``workers`` and routes the work through
:class:`ParallelExecutor`, which preserves the serial result order and
falls back to in-process execution when parallelism is unavailable
(``workers=1``, a single case, or unpicklable factories).

Process fan-out itself lives in :class:`repro.campaign.pool.WorkerPool`
(the campaign execution layer); this module keeps the factory-based
:class:`CaseSpec` surface on top of it.  Every entry point also
accepts a started ``pool`` so repeated sweeps can share persistent
workers; for new code prefer the declarative campaign stack
(:mod:`repro.campaign`), which ships ~100-byte specs instead of
pickled factories and adds the durable event log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.campaign.pool import WorkerPool
from repro.campaign.results import (
    ExperimentPoint,
    aggregate_telemetry,
)
from repro.core.buffered_engine import BufferedEngine
from repro.core.engine import HotPotatoEngine
from repro.core.policy import RoutingPolicy
from repro.core.problem import RoutingProblem
from repro.obs.telemetry import RunTelemetry
from repro.analysis.stats import Summary, summarize

ProblemFactory = Callable[[int], RoutingProblem]
PolicyFactory = Callable[[], RoutingPolicy]

__all__ = [
    "CaseSpec",
    "ExperimentPoint",
    "ParallelExecutor",
    "SweepResult",
    "aggregate_telemetry",
    "compare_policies",
    "run_case",
    "sweep",
]


@dataclass
class SweepResult:
    """All runs of a sweep, with aggregation helpers."""

    points: List[ExperimentPoint] = field(default_factory=list)
    #: True when the harness had to retry or serially re-run part of
    #: the batch (worker crash, wedged pool, pool start failure).  The
    #: results are still complete and deterministic; the flag only
    #: records that the parallel fabric misbehaved along the way.
    degraded: bool = False
    #: Number of points restored from a checkpoint instead of re-run.
    resumed: int = 0
    #: Number of chunks the parallel fabric dispatched (0 for serial
    #: in-process execution).  Chunked dispatch sends each worker a
    #: contiguous slice of specs in one submission, so per-task
    #: pickling/IPC overhead is paid per chunk, not per spec.
    chunked: int = 0

    def steps_by(self, key: str) -> Dict[object, List[int]]:
        """Group total-step counts by one parameter."""
        grouped: Dict[object, List[int]] = {}
        for point in self.points:
            grouped.setdefault(point.params[key], []).append(point.steps)
        return grouped

    def summarize_by(self, key: str) -> Dict[object, Summary]:
        """Per-parameter-value summary of total steps."""
        return {
            value: summarize(steps)
            for value, steps in sorted(self.steps_by(key).items())
        }

    def all_completed(self) -> bool:
        return all(point.result.completed for point in self.points)

    def telemetry(self) -> Optional[RunTelemetry]:
        """Aggregate lean-path counters over every point of the sweep
        (totals add, peaks max; see :func:`aggregate_telemetry`)."""
        return aggregate_telemetry(self.points)


@dataclass(frozen=True)
class CaseSpec:
    """One picklable unit of harness work: a single seeded run.

    Everything a worker process needs to reproduce the run is carried
    by value; the factories must therefore be picklable (module-level
    functions or :func:`functools.partial` over them — not lambdas or
    closures, which trigger the serial fallback).
    """

    problem_factory: ProblemFactory
    policy_factory: PolicyFactory
    seed: int
    params: Tuple[Tuple[str, object], ...] = ()
    strict_validation: bool = True
    max_steps: Optional[int] = None
    #: "hot-potato" (deflection) or "buffered" (store-and-forward).
    #: With "buffered" the policy factory must build a BufferedPolicy;
    #: strict_validation is ignored (buffers legitimately exceed degree).
    engine: str = "hot-potato"
    #: Step-kernel implementation: "auto" (the array kernel whenever
    #: the engine allows it), "object" (per-packet objects) or "soa"
    #: (structure-of-arrays).  With "soa" the hot-potato engine needs
    #: the lean loop, so strict_validation must be False.
    backend: str = "auto"


def _execute_spec(spec: CaseSpec) -> ExperimentPoint:
    """Run one spec (in the parent or a worker process)."""
    from repro.core.validation import validators_for

    problem = spec.problem_factory(spec.seed)
    policy = spec.policy_factory()
    if spec.engine == "buffered":
        result = BufferedEngine(
            problem,
            policy,
            seed=spec.seed,
            max_steps=spec.max_steps,
            backend=spec.backend,
        ).run()
    elif spec.engine == "hot-potato":
        result = HotPotatoEngine(
            problem,
            policy,
            seed=spec.seed,
            validators=validators_for(policy, strict=spec.strict_validation),
            max_steps=spec.max_steps,
            backend=spec.backend,
        ).run()
    else:
        raise ValueError(
            f"unknown engine {spec.engine!r}; "
            "expected 'hot-potato' or 'buffered'"
        )
    point_params: Dict[str, object] = dict(spec.params)
    point_params.setdefault("seed", spec.seed)
    point_params.setdefault("policy", policy.name)
    point_params.setdefault("k", problem.k)
    point_params.setdefault("n", problem.mesh.side)
    return ExperimentPoint(params=point_params, result=result)


def _execute_chunk(specs: Sequence[CaseSpec]) -> List[ExperimentPoint]:
    """Run a contiguous slice of specs inside one worker process.

    Engine construction happens here, in the worker, from the pickled
    :class:`CaseSpec` values — the parent never builds (or pickles) an
    engine.  One submission per chunk amortizes task pickling and IPC
    over the whole slice instead of paying it per spec.
    """
    return [_execute_spec(spec) for spec in specs]


class ParallelExecutor:
    """Fans :class:`CaseSpec` batches across worker processes.

    Since the ``repro.campaign`` refactor this class is the legacy
    harness's face over :class:`repro.campaign.pool.WorkerPool`: the
    chunked dispatch, the retry-through-killed-workers machinery, the
    wedged-pool timeout and the serial last resort all live in the
    pool (one implementation, shared with campaigns), while this
    wrapper keeps the factory-based spec type, the telemetry
    aggregation and the historical constructor.

    Results always come back in spec order, so a parallel run is
    point-for-point identical to the serial one (each spec is an
    independent seeded simulation; nothing leaks between workers).

    Each run's :class:`~repro.obs.telemetry.RunTelemetry` travels
    inside its pickled :class:`~repro.core.metrics.RunResult`, so
    after :meth:`run` the executor's :attr:`telemetry` holds the
    cross-worker aggregate of the whole batch.

    The executor degrades gracefully to in-process execution when

    * ``workers <= 1`` or the batch has fewer than two specs,
    * a spec fails to pickle (lambda/closure factories), or
    * the process pool cannot be started or breaks (restricted
      sandboxes, missing ``fork``/``spawn`` support).

    Crash recovery (see :class:`~repro.campaign.pool.WorkerPool`): a
    killed or crashed worker loses only the specs it was holding; up
    to ``retries`` fresh pool passes re-run *only* the unfinished
    specs (exponential ``backoff`` between attempts), ``timeout``
    bounds the wait for the *next* completion before a wedged pool is
    abandoned, and whatever is still missing after the last attempt
    runs serially in-process.  Any detour sets :attr:`degraded`.

    Exceptions raised *by a spec itself* (policy bugs, validation
    errors) are deterministic and re-raised immediately — retrying
    cannot fix them and would just repeat the failure.

    Pass a started :class:`~repro.campaign.pool.WorkerPool` as
    ``pool`` to reuse persistent workers across batches (the executor
    then ignores ``workers``/``timeout``/``retries``/``backoff`` and
    never shuts the pool down); otherwise each :meth:`run` owns a
    transient pool, preserving the historical lifecycle.
    """

    #: Target chunks per worker (see :class:`WorkerPool`).
    CHUNKS_PER_WORKER = WorkerPool.CHUNKS_PER_WORKER

    def __init__(
        self,
        workers: int = 1,
        *,
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.25,
        sleep: Optional[Callable[[float], None]] = None,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        self.workers = max(1, int(workers))
        #: Max seconds to wait for the next completion before the pool
        #: is declared wedged; ``None`` waits forever.
        self.timeout = timeout
        #: Extra pool attempts after the first (0 disables retry).
        self.retries = max(0, int(retries))
        #: Base delay before retry ``k`` is ``backoff * 2**(k-1)``.
        self.backoff = backoff
        self._sleep = sleep
        self._shared_pool = pool
        #: Aggregate counters of the most recent :meth:`run` batch.
        self.telemetry: Optional[RunTelemetry] = None
        #: True when the most recent batch needed retries or fallbacks.
        self.degraded = False
        #: Chunks dispatched to pools in the most recent batch (0 when
        #: the batch ran serially in-process).
        self.chunked = 0

    def _make_pool(self) -> WorkerPool:
        return WorkerPool(
            self.workers,
            timeout=self.timeout,
            retries=self.retries,
            backoff=self.backoff,
            sleep=self._sleep,
        )

    def run(
        self,
        specs: Sequence[CaseSpec],
        *,
        on_point: Optional[Callable[[int, ExperimentPoint], None]] = None,
    ) -> List[ExperimentPoint]:
        """Execute all specs, returning points in spec order.

        ``on_point(index, point)`` fires once per spec as its result
        lands (checkpoint hooks); indices refer to ``specs`` order, and
        the callback runs in this process regardless of worker fan-out.
        """
        pool = self._shared_pool
        owned = pool is None
        if pool is None:
            pool = self._make_pool()
        try:
            points: List[ExperimentPoint] = pool.run_batch(
                list(specs), _execute_chunk, on_result=on_point
            )
        finally:
            self.degraded = pool.degraded
            self.chunked = pool.chunked
            if owned:
                pool.close()
        self.telemetry = aggregate_telemetry(points)
        return points

    def _chunks(self, pending: Sequence[int]) -> List[List[int]]:
        """Partition ``pending`` into contiguous, near-equal chunks
        (delegates to the pool's math; kept for callers and tests)."""
        return self._make_pool()._chunks(pending)


def run_case(
    problem_factory: ProblemFactory,
    policy_factory: PolicyFactory,
    seeds: Sequence[int],
    *,
    params: Optional[Dict[str, object]] = None,
    strict_validation: bool = True,
    max_steps: Optional[int] = None,
    workers: int = 1,
    engine: str = "hot-potato",
    backend: str = "auto",
    pool: Optional[WorkerPool] = None,
) -> List[ExperimentPoint]:
    """Run one case over several seeds.

    The seed feeds both the problem generator (workload randomness)
    and the engine (policy randomness), so a case is fully determined
    by its factories and seed list.  ``workers > 1`` replicates the
    seeds across processes (same results, same order).  Pass
    ``engine="buffered"`` (with a buffered-policy factory) to run the
    store-and-forward baseline instead of hot-potato routing.  The
    default ``backend="auto"`` takes the structure-of-arrays kernel
    whenever the run allows it; ``backend="soa"`` requires it
    (hot-potato then needs ``strict_validation=False`` — the array
    kernel runs the lean loop).  A started
    :class:`~repro.campaign.pool.WorkerPool` passed as ``pool``
    persists across calls (``workers`` is then ignored).
    """
    frozen_params = tuple((params or {}).items())
    specs = [
        CaseSpec(
            problem_factory=problem_factory,
            policy_factory=policy_factory,
            seed=seed,
            params=frozen_params,
            strict_validation=strict_validation,
            max_steps=max_steps,
            engine=engine,
            backend=backend,
        )
        for seed in seeds
    ]
    return ParallelExecutor(workers, pool=pool).run(specs)


def sweep(
    grid: Iterable[Dict[str, object]],
    case_builder: Callable[[Dict[str, object]], tuple],
    seeds: Sequence[int],
    *,
    strict_validation: bool = True,
    max_steps: Optional[int] = None,
    workers: int = 1,
    executor: Optional[ParallelExecutor] = None,
    checkpoint: Optional["object"] = None,
    backend: str = "auto",
    pool: Optional[WorkerPool] = None,
) -> SweepResult:
    """Evaluate a parameter grid.

    ``case_builder(params)`` returns ``(problem_factory, policy_factory)``
    for one grid point; every point is replicated over ``seeds``.  With
    ``workers > 1`` the whole grid-by-seeds product is fanned out at
    once, so parallelism helps even when one grid point has few seeds.

    Pass a configured :class:`ParallelExecutor` as ``executor`` to
    control timeouts/retries (``workers`` is then ignored), and a
    :class:`~repro.analysis.checkpoint.SweepCheckpoint` as
    ``checkpoint`` to make the sweep crash-safe: each finished point is
    durably recorded as it lands, and a rerun of the same sweep skips
    every point already on disk (``SweepResult.resumed`` counts them).
    A started :class:`~repro.campaign.pool.WorkerPool` passed as
    ``pool`` persists across sweeps (ignored when ``executor`` is
    given — configure the executor with the pool instead).
    """
    from repro.analysis.checkpoint import restore_points, spec_key

    specs: List[CaseSpec] = []
    for params in grid:
        problem_factory, policy_factory = case_builder(params)
        for seed in seeds:
            specs.append(
                CaseSpec(
                    problem_factory=problem_factory,
                    policy_factory=policy_factory,
                    seed=seed,
                    params=tuple(dict(params).items()),
                    strict_validation=strict_validation,
                    max_steps=max_steps,
                    backend=backend,
                )
            )
    restored = restore_points(checkpoint, specs)
    pending = [i for i in range(len(specs)) if i not in restored]
    runner = (
        executor
        if executor is not None
        else ParallelExecutor(workers, pool=pool)
    )
    on_point = None
    if checkpoint is not None:
        def on_point(local_index: int, point: ExperimentPoint) -> None:
            index = pending[local_index]
            checkpoint.record(spec_key(specs[index]), specs[index], point)
    fresh = runner.run([specs[i] for i in pending], on_point=on_point)
    by_index = dict(restored)
    by_index.update(zip(pending, fresh))
    return SweepResult(
        points=[by_index[i] for i in range(len(specs))],
        degraded=runner.degraded,
        resumed=len(restored),
        chunked=runner.chunked,
    )


def compare_policies(
    problem_factory: ProblemFactory,
    policies: Dict[str, PolicyFactory],
    seeds: Sequence[int],
    *,
    strict_validation: bool = True,
    max_steps: Optional[int] = None,
    workers: int = 1,
    pool: Optional[WorkerPool] = None,
) -> Dict[str, List[ExperimentPoint]]:
    """Run several policies on identical problem instances.

    With a shared ``pool`` the per-policy batches reuse one set of
    worker processes instead of spawning a pool per policy.
    """
    return {
        name: run_case(
            problem_factory,
            factory,
            seeds,
            params={"policy": name},
            strict_validation=strict_validation,
            max_steps=max_steps,
            workers=workers,
            pool=pool,
        )
        for name, factory in policies.items()
    }
