"""The benchmark's four closed-loop workloads and their output checks.

Every workload owns a fixed, seed-derived pool of *units*.  A unit is a
group of cases with the same mix every time (a batch problem routed by
both of its policies, one light and one near-saturation dynamic run, a
whole campaign batch), so a run's mix does not depend on where its time
ran out.  A case is one engine run (one campaign spec for
campaign_durable).  The untraced run cycles through the pool until its
time is up; the traced run makes exactly one pass, so its counts repeat.

Batch and dynamic cases build their own ``Mesh``, as ``repro route``
does; the process-wide ArcTables are built once per shape in set-up.
Reusing one ``Mesh`` would let its unbounded (node, destination) memo
grow through the timed region, so throughput and peak memory would
depend on how many cases a run reached.  campaign_durable keeps the
campaign workers' own per-process mesh cache, which is how campaigns run.

A case fails when it raises, comes back as a ``CaseFailure``, ends
aborted, or fails :func:`check_batch` / :func:`check_dynamic`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.algorithms import make_policy
from repro.campaign import Campaign, CampaignStore, CaseSpec, WorkerPool
from repro.campaign import worker as campaign_worker
from repro.campaign.results import point_to_dict
from repro.campaign.spec import spec_key
from repro.campaign.worker import execute_case, initialize_worker
from repro.core.buffered_engine import BufferedEngine
from repro.core.engine import HotPotatoEngine
from repro.core.metrics import RunResult
from repro.core.problem import RoutingProblem
from repro.core.soa import SoaKernel, adapter_for, numpy_available
from repro.core.validation import validators_for
from repro.dynamic import BernoulliTraffic, DynamicEngine, DynamicStats
from repro.faults.schedule import random_schedule
from repro.mesh.topology import Mesh
from repro.obs.export import render_prometheus, write_series_jsonl
from repro.obs.metrics import RunMetricsRecorder
from repro.obs.series import SeriesRecorder
from repro.obs.telemetry import RunTelemetry
from repro.potential.bounds import theorem20_bound
from repro.workloads import random_many_to_many

from tracing import NullTracer, Tracer

AnyTracer = Union[Tracer, NullTracer]

#: Pool workers for campaign_durable (the benchmark host has 2 CPUs).
WORKERS = 2

#: Sizes per scale.  "toy" runs every code path in about a second.
SCALES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "batch_scalar": {"side": 48, "k": 1152, "units": 4},
        "batch_vectorized": {"side": 128, "k": 16384, "units": 3},
        "dynamic_observed": {
            "side": 16,
            "runs": ((0.02, 300), (0.2, 1000)),
            "warmup": 50,
            "checkpoint_every": 100,
            "units": 1,
        },
        "campaign_durable": {
            "sides": (8, 12, 16),
            "k_min": 8,
            "sweep_seeds": 6,
            "slice": 4,
            "slice_side": 16,
            "slice_k": 128,
            "fault_side": 12,
            "fault_k": 64,
            "checkpoint_every": 8,
            "units": 3,
        },
    },
    "toy": {
        "batch_scalar": {"side": 8, "k": 32, "units": 2},
        "batch_vectorized": {"side": 12, "k": 144, "units": 2},
        "dynamic_observed": {
            "side": 6,
            "runs": ((0.05, 40), (0.3, 40)),
            "warmup": 5,
            "checkpoint_every": 10,
            "units": 2,
        },
        "campaign_durable": {
            "sides": (4, 6),
            "k_min": 4,
            "sweep_seeds": 1,
            "slice": 1,
            "slice_side": 6,
            "slice_k": 16,
            "fault_side": 6,
            "fault_k": 16,
            "checkpoint_every": 4,
            "units": 2,
        },
    },
}


@dataclass
class Unit:
    """What one unit did: cases, failures, time and work."""

    cases: int = 0
    #: Wall seconds inside the engines' run() (Campaign.run for campaigns).
    run_s: float = 0.0
    packet_steps: int = 0
    advances: int = 0
    #: One telemetry digest per case, in case order.
    digests: List[str] = field(default_factory=list)
    #: Indices of failed cases, and what was wrong with them.
    bad: Set[int] = field(default_factory=set)
    problems: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.bad)

    def add_case(
        self,
        label: str,
        telemetry: Optional[RunTelemetry],
        problems: List[str],
    ) -> None:
        if telemetry is not None:
            self.packet_steps += telemetry.packet_steps
            self.advances += telemetry.advances
        self.digests.append(case_digest(telemetry))
        self.fail(self.cases, label, problems)
        self.cases += 1

    def fail(self, case: int, label: str, problems: List[str]) -> None:
        if problems:
            self.bad.add(case)
            self.problems.extend(f"{label}: {p}" for p in problems)


def case_digest(telemetry: Optional[RunTelemetry]) -> str:
    payload = None if telemetry is None else telemetry.to_dict()
    material = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(material).hexdigest()[:16]


def check_batch(
    result: RunResult,
    problem: RoutingProblem,
    policy: str,
    faulted: bool = False,
) -> List[str]:
    """Output check for one batch run; returns what is wrong with it."""
    problems = []
    if not result.completed or result.abort is not None:
        problems.append(f"did not complete (abort={result.abort})")
    tel = result.telemetry
    if tel is None:
        return problems + ["no telemetry"]
    if tel.delivered + tel.dropped != problem.k:
        problems.append(
            f"delivered {tel.delivered} + dropped {tel.dropped} != "
            f"k {problem.k}"
        )
    # Every packet arrives, so the hops that closed distance outnumber
    # the ones that opened it by exactly the initial distance.
    distance = problem.total_distance
    if not faulted and tel.advances - tel.deflections != distance:
        problems.append(
            f"advances {tel.advances} - deflections {tel.deflections} "
            f"!= total initial distance {distance}"
        )
    if policy == "restricted-priority" and not faulted:
        bound = theorem20_bound(problem.mesh.side, problem.k)
        if result.total_steps > bound:
            problems.append(
                f"{result.total_steps} steps exceed Theorem 20's {bound:.1f}"
            )
    return problems


def check_dynamic(
    telemetry: RunTelemetry,
    stats: DynamicStats,
    recorder: RunMetricsRecorder,
    prometheus: str,
    snapshots: int,
    steps: int,
    every: int,
) -> List[str]:
    """Output check for one continuous-traffic run."""
    problems = []
    if stats.abort is not None or stats.horizon != steps:
        problems.append(
            f"ended at step {stats.horizon} of {steps} "
            f"(abort={stats.abort})"
        )
    if telemetry.generated != telemetry.injected + stats.final_backlog:
        problems.append(
            f"generated {telemetry.generated} != injected "
            f"{telemetry.injected} + backlog {stats.final_backlog}"
        )
    in_network = telemetry.delivered + telemetry.dropped
    if telemetry.injected != in_network + stats.final_in_flight:
        problems.append(
            f"injected {telemetry.injected} != delivered + dropped "
            f"{in_network} + in flight {stats.final_in_flight}"
        )
    counted = recorder.registry.get("repro_step_packet_steps_total")
    if counted is None or counted.value != telemetry.packet_steps:
        problems.append("recorder packet-steps disagree with telemetry")
    if f"repro_step_packet_steps_total {telemetry.packet_steps}\n" not in (
        prometheus
    ):
        problems.append("Prometheus export lacks the packet-step total")
    # A checkpoint is taken at every multiple of `every` before the end.
    expected = (steps - 1) // every
    if snapshots != expected:
        problems.append(f"{snapshots} checkpoints, expected {expected}")
    return problems


def cross_backend_problems(seed: int) -> List[str]:
    """Route one small problem on both backends; they must agree."""
    problem = random_many_to_many(Mesh(2, 8), k=48, seed=seed)
    outcomes = []
    for backend in ("object", "soa"):
        policy = make_policy("restricted-priority")
        result = HotPotatoEngine(
            problem,
            policy,
            seed=seed,
            validators=validators_for(policy, strict=False),
            backend=backend,
        ).run()
        outcomes.append(
            (result.total_steps, result.telemetry, result.outcomes)
        )
    if outcomes[0] != outcomes[1]:
        return ["object and soa backends disagree on a side-8 k=48 case"]
    return []


class Workload:
    """A seed-derived pool of units plus its set-up and clean-up."""

    name = ""

    def __init__(
        self, seed: int, scale: str, outdir: str, tracer: AnyTracer
    ) -> None:
        self.seed = seed
        self.size = SCALES[scale][self.name]
        self.outdir = outdir
        self.workdir = os.path.join(outdir, f"work-{os.getpid()}")
        self.tracer = tracer
        rng = random.Random(f"{self.name}/{seed}")
        self.unit_seeds = [
            rng.randrange(1, 2**31) for _ in range(self.size["units"])
        ]
        #: Called where a long unit can stop for host calibration
        #: (``Calibrator.pause`` in untraced runs); returns the seconds
        #: the stop took, which the unit leaves out of its run time.
        self.pause: Callable[[], float] = lambda: 0.0

    @property
    def units(self) -> int:
        return len(self.unit_seeds)

    def setup(self) -> None:
        """Build what every case shares; fills process-wide caches."""
        os.makedirs(self.workdir, exist_ok=True)

    def run_unit(self, index: int) -> Unit:
        raise NotImplementedError

    def traced_extra(self) -> None:
        """Traced runs only: per-layer passes beyond the units."""

    def close(self) -> None:
        """Release what set-up started."""
        shutil.rmtree(self.workdir, ignore_errors=True)

    @contextlib.contextmanager
    def _untraced(self) -> Iterator[None]:
        """Set-up warm-ups run the case code but record nothing."""
        tracer, self.tracer = self.tracer, NullTracer()
        try:
            yield
        finally:
            self.tracer = tracer


class _Batch(Workload):
    """One random many-to-many problem per unit, routed once per route:
    (policy, backend, name of the profiler layer its loop reports to)."""

    routes: Tuple[Tuple[str, str, str], ...] = ()

    def setup(self) -> None:
        super().setup()
        side = self.size["side"]
        with self.tracer.span("mesh.build"):
            Mesh(2, side).arc_tables()
        for policy, backend, layer in self.routes:
            if backend != "soa":
                continue
            adapter = adapter_for(
                make_policy(policy), buffered=False, has_injection=False
            )
            vectorized = numpy_available() and adapter.vectorizable
            if vectorized != (layer == "soa.vectorized"):
                raise RuntimeError(f"{policy} on soa misses the {layer} loop")
        # Lazy imports and per-shape array views fill here, not in the
        # first timed case.
        warm = Unit()
        problem = random_many_to_many(Mesh(2, side), k=8, seed=self.seed)
        with self._untraced():
            for policy, backend, _ in self.routes:
                self._route(warm, problem, policy, backend, 0, None)
        if warm.problems:
            raise RuntimeError(f"warm-up failed: {warm.problems}")

    def run_unit(self, index: int) -> Unit:
        unit = Unit()
        seed = self.unit_seeds[index]
        tracer = self.tracer
        with tracer.case_scope(f"u{index}c0", "batch"):
            with tracer.span("workloads.generate"):
                mesh = Mesh(2, self.size["side"])
                problem = random_many_to_many(
                    mesh, k=self.size["k"], seed=seed
                )
        for number, (policy, backend, layer) in enumerate(self.routes):
            with tracer.case_scope(f"u{index}c{number}", "batch"):
                self._route(
                    unit, problem, policy, backend, seed,
                    tracer.phase_sink(layer),
                )
        return unit

    def _route(
        self,
        unit: Unit,
        problem: RoutingProblem,
        policy_name: str,
        backend: str,
        seed: int,
        sink: Any,
    ) -> None:
        label = f"{policy_name}/{backend}/seed{seed}"
        telemetry = None
        try:
            policy = make_policy(policy_name)
            engine = HotPotatoEngine(
                problem,
                policy,
                seed=seed,
                validators=validators_for(policy, strict=False),
                backend=backend,
                profiler=sink,
            )
            start = time.perf_counter()
            with self.tracer.span("engine.run"):
                result = engine.run()
            unit.run_s += time.perf_counter() - start
            telemetry = result.telemetry
            problems = check_batch(result, problem, policy_name)
        except Exception as exc:  # a raising case is a failed case
            problems = [f"raised {type(exc).__name__}: {exc}"]
        unit.add_case(label, telemetry, problems)


class BatchScalar(_Batch):
    """Side 48, k = N/2: both scalar step loops, numpy bypassed."""

    name = "batch_scalar"
    routes = (
        ("restricted-priority", "object", "kernel"),
        # Its RNG draws force the soa backend's pure-Python loop.
        ("randomized-greedy", "soa", "soa.columnar"),
    )


class BatchVectorized(_Batch):
    """Side 128, k = N: the numpy step on tables larger than L2."""

    name = "batch_vectorized"
    routes = (
        ("restricted-priority", "soa", "soa.vectorized"),
        # Ranks are drawn up front, so this takes the lexsort path.
        ("random-rank", "soa", "soa.vectorized"),
    )


class DynamicObserved(Workload):
    """Continuous Bernoulli traffic with summary-fed recorders attached
    and periodic checkpoints JSON-encoded by the sink."""

    name = "dynamic_observed"

    def setup(self) -> None:
        super().setup()
        self.series_path = os.path.join(self.workdir, "series.jsonl")
        warm = Unit()
        every = self.size["checkpoint_every"]
        with self._untraced():
            self._case(warm, 0.02, every + 1, self.seed)
        if warm.problems:
            raise RuntimeError(f"warm-up failed: {warm.problems}")

    def run_unit(self, index: int) -> Unit:
        unit = Unit()
        seed = self.unit_seeds[index]
        for number, (rate, steps) in enumerate(self.size["runs"]):
            with self.tracer.case_scope(f"u{index}c{number}", "dynamic"):
                self._case(unit, rate, steps, seed + number)
        return unit

    def _case(self, unit: Unit, rate: float, steps: int, seed: int) -> None:
        tracer = self.tracer
        every = self.size["checkpoint_every"]
        label = f"bernoulli-{rate}/{steps}-steps/seed{seed}"
        telemetry = None
        try:
            series = SeriesRecorder()
            recorder = RunMetricsRecorder()
            encoded: List[int] = []
            paused: List[float] = []

            def encode(payload: Dict[str, Any]) -> None:
                with tracer.span("snapshot.encode"):
                    text = json.dumps(payload, separators=(",", ":"))
                encoded.append(len(text))
                # A case runs for seconds, so the host is calibrated at
                # each checkpoint as well as after the unit.
                paused.append(self.pause())

            engine = DynamicEngine(
                Mesh(2, self.size["side"]),
                make_policy("restricted-priority"),
                BernoulliTraffic(rate),
                seed=seed,
                warmup=self.size["warmup"],
                observers=[tracer.observe(series), tracer.observe(recorder)],
                profiler=tracer.phase_sink("kernel"),
                checkpoint_every=every,
                on_checkpoint=encode,
            )
            if tracer.enabled:
                engine.snapshot = tracer.wrap(  # type: ignore[method-assign]
                    engine.snapshot, "snapshot.capture"
                )
            start = time.perf_counter()
            with tracer.span("engine.run"):
                stats = engine.run(steps)
            unit.run_s += time.perf_counter() - start - sum(paused)
            open(self.series_path, "w").close()
            with tracer.span("obs.export"):
                prometheus = render_prometheus(recorder.registry)
                write_series_jsonl(
                    series.series,
                    self.series_path,
                    meta={"rate": rate, "seed": seed},
                )
            telemetry = engine.telemetry
            problems = check_dynamic(
                telemetry, stats, recorder, prometheus, len(encoded),
                steps, every,
            )
            tracer.count("snapshot.bytes", sum(encoded))
            tracer.count("dynamic.injected", telemetry.injected)
            tracer.peak("dynamic.max_backlog", telemetry.max_backlog)
        except Exception as exc:  # a raising case is a failed case
            problems = [f"raised {type(exc).__name__}: {exc}"]
        unit.add_case(label, telemetry, problems)


class CampaignDurable(Workload):
    """Theorem-20 validation batches through ``Campaign.run`` over an
    on-disk store and a persistent 2-worker pool."""

    name = "campaign_durable"

    def __init__(
        self, seed: int, scale: str, outdir: str, tracer: AnyTracer
    ) -> None:
        super().__init__(seed, scale, outdir, tracer)
        self.pool: Optional[WorkerPool] = None
        self.batches: List[List[CaseSpec]] = []
        #: spec key -> (problem the spec resolves to, slice name).
        self.expected: Dict[str, Tuple[RoutingProblem, str]] = {}
        #: Stores of the traced pass, kept for counting and replay.
        self.stores: List[str] = []
        self.batches_run = 0

    def _batch(self, index: int, seed: int) -> List[CaseSpec]:
        size = self.size
        seeds = iter(range(seed * 1000, seed * 1000 + 1000))

        def spec(side: int, k: int, slice_name: str, **extra: Any) -> CaseSpec:
            return CaseSpec(
                topology="mesh",
                workload="random",
                policy=extra.pop("policy", "restricted-priority"),
                seed=next(seeds),
                side=side,
                workload_params=(("k", k),),
                params=(("slice", slice_name),),
                strict_validation=False,
                **extra,
            )

        specs = []
        for side in size["sides"]:
            k = size["k_min"]
            while k <= side * side:
                for _ in range(size["sweep_seeds"]):
                    specs.append(spec(side, k, "main"))
                k *= 2
        slice_side, slice_k = size["slice_side"], size["slice_k"]
        for number in range(size["slice"]):
            specs.append(
                spec(
                    slice_side, slice_k, "checkpointed",
                    checkpoint_every=size["checkpoint_every"],
                )
            )
            specs.append(
                spec(
                    size["fault_side"], size["fault_k"], "faulted",
                    faults=self._fault_file(index, number, seed),
                )
            )
            specs.append(
                spec(
                    slice_side, slice_k, "buffered",
                    policy="dimension-order", engine="buffered",
                )
            )
        return specs

    def _fault_file(self, index: int, number: int, seed: int) -> str:
        """A seeded schedule of transient link faults and packet drops.

        The path is relative and content-derived, so the store's bytes
        repeat across runs; concurrent runs write identical content.
        """
        folder = os.path.join(self.outdir, "faults")
        os.makedirs(folder, exist_ok=True)
        path = os.path.join(folder, f"{self.seed}-{index}-{number}.json")
        schedule = random_schedule(
            Mesh(2, self.size["fault_side"]),
            seed=seed + number,
            link_faults=3,
            packet_drops=2,
            horizon=32,
            max_window=8,
        )
        partial = f"{path}.{os.getpid()}"
        schedule.save(partial)
        os.replace(partial, path)
        return path

    def setup(self) -> None:
        super().setup()
        self.batches = [
            self._batch(index, seed)
            for index, seed in enumerate(self.unit_seeds)
        ]
        shapes = tuple(
            dict.fromkeys(s.shape for batch in self.batches for s in batch)
        )
        with self.tracer.span("mesh.build"):
            initialize_worker(shapes)
        for batch in self.batches:
            for spec in batch:
                problem = campaign_worker.resolve_workload(
                    campaign_worker.mesh_for(spec), spec
                )
                self.expected[spec_key(spec)] = (
                    problem,
                    dict(spec.params)["slice"],
                )
        self.pool = WorkerPool(
            WORKERS, initializer=initialize_worker, initargs=(shapes,)
        )
        if not self.pool.start():
            raise RuntimeError("the campaign worker pool did not start")
        # One spec per (shape, slice) starts both workers and every
        # engine path; a whole batch would only lengthen set-up.
        kinds = {
            (spec.shape, self.expected[spec_key(spec)][1]): spec
            for spec in self.batches[0]
        }
        warm = Unit()
        with self._untraced():
            self._run_batch(warm, list(kinds.values()))
        if warm.problems:
            raise RuntimeError(f"warm-up failed: {warm.problems}")

    def _run_batch(self, unit: Unit, specs: List[CaseSpec]) -> None:
        """One pooled batch over a fresh store.  Traced runs keep the
        store for the per-layer pass; untraced runs delete it."""
        self.batches_run += 1
        store = CampaignStore(
            os.path.join(self.workdir, f"store-{self.batches_run}.jsonl")
        )
        assert self.pool is not None
        campaign = Campaign(specs, store=store, pool=self.pool)
        start = time.perf_counter()
        with self.tracer.span("campaign.run"):
            result = campaign.run()
        unit.run_s += time.perf_counter() - start
        self.tracer.count(
            "campaign.retries",
            sum(tries - 1 for tries in self.pool.attempts.values()),
        )
        failures = {failure.key: failure for failure in result.failures}
        points = iter(result.points)
        for spec in specs:
            key = spec_key(spec)
            problem, kind = self.expected[key]
            label = f"{kind}/{spec.policy}/n{spec.side}/seed{spec.seed}"
            failure = failures.get(key)
            if failure is not None:
                unit.add_case(
                    label, None,
                    [f"CaseFailure {failure.error}: {failure.message}"],
                )
                continue
            point = next(points)
            telemetry = point.result.telemetry
            problems = check_batch(
                point.result, problem, spec.policy, kind == "faulted"
            )
            unit.add_case(label, telemetry, problems)
            if kind == "faulted" and telemetry is not None:
                self.tracer.count("faults.dropped", telemetry.dropped)
        if self.tracer.enabled:
            self.stores.append(store.path)
        else:
            os.remove(store.path)

    def run_unit(self, index: int) -> Unit:
        unit = Unit()
        self._run_batch(unit, self.batches[index])
        return unit

    def traced_extra(self) -> None:
        """The per-layer split of a campaign case.

        The pooled stores are counted and replayed; then the same specs
        run serially in this process through the public per-case calls,
        with the resolve, generate, snapshot and append calls made
        inside ``execute_case`` wrapped from outside.
        """
        tracer = self.tracer
        tracer.count("campaign.workers", WORKERS)
        for path in self.stores:
            with open(path, "rb") as handle:
                lines = handle.read().splitlines()
            tracer.count("campaign.store_events", len(lines))
            tracer.count("campaign.store_bytes", os.path.getsize(path))
            for line in lines:
                event = json.loads(line)
                if event["event"] == "case-checkpointed":
                    tracer.count(
                        "snapshot.bytes",
                        len(json.dumps(event["snapshot"],
                                       separators=(",", ":"))),
                    )
            with tracer.span("campaign.replay"):
                state = CampaignStore(path).replay()
            if state.errors:
                raise RuntimeError(f"replay of {path}: {state.errors}")
        serial = CampaignStore(os.path.join(self.workdir, "serial.jsonl"))
        with self._wrapped():
            for index, batch in enumerate(self.batches):
                for spec in batch:
                    key = spec_key(spec)
                    kind = self.expected[key][1]
                    with tracer.case_scope(f"u{index}/{key}", kind):
                        with tracer.span("campaign.execute"):
                            point = execute_case(spec, store_path=serial.path)
                        with tracer.span("campaign.serialize"):
                            point_to_dict(point)
                        with tracer.span("campaign.store_append"):
                            serial.finish(key, point)

    @contextlib.contextmanager
    def _wrapped(self) -> Iterator[None]:
        patch = self.tracer.patch
        with contextlib.ExitStack() as stack:
            for name in ("mesh_for", "resolve_workload", "resolve_policy"):
                stack.enter_context(
                    patch(campaign_worker, name, "campaign.resolve")
                )
            stack.enter_context(
                patch(
                    campaign_worker, "random_many_to_many",
                    "workloads.generate",
                )
            )
            for engine in (HotPotatoEngine, BufferedEngine):
                stack.enter_context(
                    patch(engine, "snapshot", "snapshot.capture")
                )
            stack.enter_context(
                patch(CampaignStore, "checkpoint", "campaign.store_append")
            )
            yield

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        super().close()


WORKLOADS = {
    cls.name: cls
    for cls in (BatchScalar, BatchVectorized, DynamicObserved, CampaignDurable)
}


@contextlib.contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Wrappers every traced run installs: the soa kernel entry point,
    whose self time (outside the per-step phases) is column pack,
    array conversion and writeback."""
    with tracer.patch(SoaKernel, "run", "soa.run"):
        yield
