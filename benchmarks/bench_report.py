"""Append an engine-throughput record to the BENCH_engine.json trajectory.

Runs the same configurations as ``bench_engine_perf.py`` (strict
validation, instrumented capacity-only, lean fast path) plus a small
parallel-harness sweep, computes packet-steps per second for each, and
appends one JSON record to ``BENCH_engine.json`` at the repository
root.  The file is a list of records, one per invocation, so future
PRs can diff simulator throughput against history and catch perf
regressions::

    PYTHONPATH=src python benchmarks/bench_report.py [--workers N] [--repeats R]

Not a pytest benchmark (no ``test_`` functions): pytest-benchmark
timings are great for relative CI comparisons but awkward to append to
a cross-run trajectory file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from functools import partial

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.algorithms import (  # noqa: E402
    DimensionOrderPolicy,
    RestrictedPriorityPolicy,
)
from repro.campaign import (  # noqa: E402
    Campaign,
    CampaignStore,
    CaseSpec,
    WorkerPool,
)
from repro.campaign.worker import (  # noqa: E402
    execute_chunk,
    initialize_worker,
)
from repro.core.buffered_engine import BufferedEngine  # noqa: E402
from repro.core.engine import HotPotatoEngine  # noqa: E402
from repro.core.validation import validators_for  # noqa: E402
from repro.dynamic import (  # noqa: E402
    BernoulliTraffic,
    BufferedDynamicEngine,
    DynamicEngine,
)
from repro.mesh.topology import Mesh  # noqa: E402
from repro.obs.manifest import git_sha  # noqa: E402
from repro.obs.profiler import PhaseProfiler  # noqa: E402
from repro.workloads import random_many_to_many  # noqa: E402

TRAJECTORY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_engine.json",
)

SIDE = 16
K = 256
SEED = 77


#: The large-scale workload only the array backend can complete in
#: reasonable time (the scalar kernel would take minutes per run).
LARGE_SIDE = 256
LARGE_K = 65536


def _run_once(
    strict: bool, fast_path, backend: str = "object", observers=()
) -> tuple:
    """One full simulation; returns (elapsed seconds, packet-steps)."""
    mesh = Mesh(2, SIDE)
    problem = random_many_to_many(mesh, k=K, seed=SEED)
    policy = RestrictedPriorityPolicy()
    engine = HotPotatoEngine(
        problem,
        policy,
        seed=SEED,
        validators=validators_for(policy, strict=strict),
        fast_path=fast_path,
        backend=backend,
        observers=list(observers),
    )
    start = time.perf_counter()
    result = engine.run()
    elapsed = time.perf_counter() - start
    assert result.completed
    packet_steps = sum(m.in_flight for m in result.step_metrics)
    return elapsed, packet_steps


def _throughput(
    strict: bool, fast_path, repeats: int, backend: str = "object"
) -> float:
    """Best-of-N packet-steps/sec (best-of controls scheduler noise)."""
    best = None
    for _ in range(repeats):
        elapsed, packet_steps = _run_once(strict, fast_path, backend)
        rate = packet_steps / elapsed
        if best is None or rate > best:
            best = rate
    return best


def _run_large_once() -> tuple:
    """The n=256, k=65536 workload on the soa backend.

    Scalar-kernel throughput (~50k packet-steps/s) would need minutes
    for the ~11M packet-steps here, so this row is array-backend only.
    The first call also pays the one-time ArcTables build for the
    65536-node mesh; best-of repeats absorb it.
    """
    mesh = Mesh(2, LARGE_SIDE)
    problem = random_many_to_many(mesh, k=LARGE_K, seed=SEED)
    policy = RestrictedPriorityPolicy()
    engine = HotPotatoEngine(
        problem,
        policy,
        seed=SEED,
        validators=validators_for(policy, strict=False),
        backend="soa",
    )
    start = time.perf_counter()
    result = engine.run()
    elapsed = time.perf_counter() - start
    assert result.completed
    packet_steps = sum(m.in_flight for m in result.step_metrics)
    return elapsed, packet_steps


def _run_buffered_once() -> tuple:
    """One store-and-forward batch run (lean kernel loop)."""
    mesh = Mesh(2, SIDE)
    problem = random_many_to_many(mesh, k=K, seed=SEED)
    engine = BufferedEngine(
        problem, DimensionOrderPolicy(), seed=SEED, backend="object"
    )
    start = time.perf_counter()
    result = engine.run()
    elapsed = time.perf_counter() - start
    assert result.completed
    packet_steps = sum(m.in_flight for m in result.step_metrics)
    return elapsed, packet_steps


DYNAMIC_STEPS = 400
DYNAMIC_WARMUP = 50
DYNAMIC_RATE = 0.05


def _run_dynamic_once(buffered: bool) -> tuple:
    """One continuous-traffic run (lean kernel loop, no observers)."""
    mesh = Mesh(2, SIDE)
    if buffered:
        engine = BufferedDynamicEngine(
            mesh,
            DimensionOrderPolicy(),
            BernoulliTraffic(DYNAMIC_RATE),
            seed=SEED,
            warmup=DYNAMIC_WARMUP,
            backend="object",
        )
    else:
        engine = DynamicEngine(
            mesh,
            RestrictedPriorityPolicy(),
            BernoulliTraffic(DYNAMIC_RATE),
            seed=SEED,
            warmup=DYNAMIC_WARMUP,
            backend="object",
        )
    start = time.perf_counter()
    engine.run(DYNAMIC_STEPS)
    elapsed = time.perf_counter() - start
    return elapsed, engine.telemetry.packet_steps


def _best_rate(run_once, repeats: int) -> float:
    """Best-of-N packet-steps/sec for a zero-argument runner."""
    best = None
    for _ in range(repeats):
        elapsed, packet_steps = run_once()
        rate = packet_steps / elapsed
        if best is None or rate > best:
            best = rate
    return best


def _observed_throughput(repeats: int) -> float:
    """Best-of-N fast-path packet-steps/sec with obs recorders attached.

    The recorders are the summary-fed pair (``RunMetricsRecorder`` +
    ``StepSeries``) that ``--series`` and campaign metric folding use:
    ``needs_steps=False``, so the engine stays on the lean loop and the
    entire observability cost is the per-step summary dispatch.  Fresh
    recorders per attempt keep run state independent.
    """
    from repro.obs.metrics import RunMetricsRecorder
    from repro.obs.series import SeriesRecorder

    best = None
    for _ in range(repeats):
        elapsed, packet_steps = _run_once(
            False, True, observers=[RunMetricsRecorder(), SeriesRecorder()]
        )
        rate = packet_steps / elapsed
        if best is None or rate > best:
            best = rate
    return best


#: Checkpoint interval for the overhead row.  The reference workload
#: completes in ~25 steps, so every-8 gives a few snapshots per run —
#: frequent enough to measure serialization cost, and *denser* than a
#: sane production interval, which makes the ≤5% guard conservative.
CHECKPOINT_EVERY = 8


def _checkpoint_throughput(repeats: int) -> float:
    """Best-of-N fast-path packet-steps/sec with checkpointing on.

    The sink discards the snapshot after asserting one arrived, so the
    row measures exactly what ``checkpoint_every`` adds on the lean
    loop: segment-boundary exits plus snapshot serialization — not
    disk I/O, which belongs to the chosen sink (store append, atomic
    file write) rather than to the engine.
    """
    mesh = Mesh(2, SIDE)
    problem = random_many_to_many(mesh, k=K, seed=SEED)
    best = None
    for _ in range(repeats):
        taken = []
        policy = RestrictedPriorityPolicy()
        engine = HotPotatoEngine(
            problem,
            policy,
            seed=SEED,
            validators=validators_for(policy, strict=False),
            fast_path=True,
            backend="object",
            checkpoint_every=CHECKPOINT_EVERY,
            on_checkpoint=taken.append,
        )
        start = time.perf_counter()
        result = engine.run()
        elapsed = time.perf_counter() - start
        assert result.completed
        assert taken, "reference run too short to checkpoint"
        packet_steps = sum(m.in_flight for m in result.step_metrics)
        rate = packet_steps / elapsed
        if best is None or rate > best:
            best = rate
    return best


def _lean_observability() -> tuple:
    """One profiled fast-path run; returns (phase shares, counters).

    The profiled loop is the lean loop with timestamps, so the shares
    attribute the lean path's time across the kernel phases, and the
    counters are the run's :class:`RunTelemetry` totals.
    """
    mesh = Mesh(2, SIDE)
    problem = random_many_to_many(mesh, k=K, seed=SEED)
    policy = RestrictedPriorityPolicy()
    profiler = PhaseProfiler()
    engine = HotPotatoEngine(
        problem,
        policy,
        seed=SEED,
        validators=validators_for(policy, strict=False),
        profiler=profiler,
        backend="object",
    )
    result = engine.run()
    assert result.completed
    shares = {
        phase: round(share, 4) for phase, share in profiler.shares().items()
    }
    return shares, engine.telemetry.to_dict()


def _campaign_specs() -> list:
    """The declarative form of the 8-seed reference sweep."""
    return [
        CaseSpec(
            topology="mesh",
            workload="random",
            policy="restricted-priority",
            seed=seed,
            side=SIDE,
            workload_params=(("k", K),),
            strict_validation=False,
        )
        for seed in range(8)
    ]


def _sweep_seconds(workers: int, repeats: int) -> float:
    """Wall time of the 8-seed reference sweep through a storeless
    campaign whose owned pool starts cold inside the timed region."""
    specs = _campaign_specs()
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        with Campaign(specs, workers=workers) as campaign:
            campaign.run()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def _campaign_sweep_seconds(workers: int, repeats: int) -> float:
    """Wall time of the 8-seed sweep through the campaign orchestrator.

    Both variants run against a real event-sourced store (fsync per
    finished case): that is the configuration where ``workers=2`` beats
    serial even on one CPU, because the parent overlaps event-log I/O
    with worker compute.  The pool is started and warmed *outside* the
    timed region — campaign pools are persistent, so steady-state cost
    is what the trajectory should track.
    """
    import gc
    import tempfile

    specs = _campaign_specs()
    # The earlier throughput rows leave a large, garbage-laden heap in
    # this process.  Settle and freeze it (symmetrically, for both the
    # serial and pooled variant) so the timed region measures the
    # campaign stack, not GC passes over benchmark debris — and so
    # forked workers don't spend the measurement copy-on-write-faulting
    # inherited pages every time a collection touches them.
    gc.collect()
    gc.freeze()
    pool = None
    if workers > 1:
        pool = WorkerPool(
            workers,
            initializer=initialize_worker,
            initargs=((specs[0].shape,),),
        )
        pool.start()
        # Touch every worker process once so spawn + import cost stays
        # out of the measurement (a 2-item batch makes 2 chunks).
        warm = [
            CaseSpec(
                topology="mesh",
                workload="random",
                policy="restricted-priority",
                seed=seed,
                side=4,
                workload_params=(("k", 4),),
            )
            for seed in range(2)
        ]
        pool.run_batch(warm, execute_chunk)
    best = None
    try:
        with tempfile.TemporaryDirectory() as tmp:
            # Sub-second rows need more best-of samples than the
            # multi-second throughput rows to shake scheduler noise.
            for attempt in range(max(repeats, 5)):
                store = CampaignStore(
                    os.path.join(tmp, f"campaign-{workers}-{attempt}.jsonl")
                )
                if pool is not None:
                    campaign = Campaign(specs, store=store, pool=pool)
                else:
                    campaign = Campaign(specs, store=store)
                start = time.perf_counter()
                result = campaign.run()
                elapsed = time.perf_counter() - start
                assert len(result.points) == 8
                if best is None or elapsed < best:
                    best = elapsed
    finally:
        if pool is not None:
            pool.close()
        gc.unfreeze()
    return best


def build_record(
    workers: int, repeats: int, include_large: bool = True
) -> dict:
    strict = _throughput(True, None, repeats)
    instrumented = _throughput(False, False, repeats)
    fast = _throughput(False, True, repeats)
    observed = _observed_throughput(repeats)
    checkpointed = _checkpoint_throughput(repeats)
    soa = _throughput(False, None, repeats, backend="soa")
    buffered = _best_rate(_run_buffered_once, repeats)
    dynamic = _best_rate(partial(_run_dynamic_once, False), repeats)
    buffered_dynamic = _best_rate(partial(_run_dynamic_once, True), repeats)
    phase_shares, lean_counters = _lean_observability()
    rates = {
        "strict_validation": round(strict, 1),
        "instrumented": round(instrumented, 1),
        "fast_path": round(fast, 1),
        "soa": round(soa, 1),
        "buffered_batch": round(buffered, 1),
        "dynamic": round(dynamic, 1),
        "buffered_dynamic": round(buffered_dynamic, 1),
    }
    #: Which kernel produced each throughput row.
    backend = {name: "object" for name in rates}
    backend["soa"] = "soa"
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "workload": f"random k={K} on 2-d mesh n={SIDE}, seed {SEED}",
        "policy": "restricted-priority",
        "backend": backend,
        "packet_steps_per_sec": rates,
        "dynamic_workload": (
            f"bernoulli p={DYNAMIC_RATE} on 2-d mesh n={SIDE}, "
            f"{DYNAMIC_STEPS} steps, warmup {DYNAMIC_WARMUP}, seed {SEED}"
        ),
        "fast_over_instrumented": round(fast / instrumented, 2),
        #: Cost of the summary-fed obs layer on the lean loop: the
        #: fast-path row re-run with RunMetricsRecorder + StepSeries
        #: attached.  ``overhead`` is the fractional throughput drop
        #: ((plain - observed) / plain); the regression guard fails it
        #: above the tolerance, measured fresh each run (no baseline
        #: entry needed).
        "obs_overhead": {
            "plain": round(fast, 1),
            "observed": round(observed, 1),
            "overhead": round(max(0.0, 1.0 - observed / fast), 4),
        },
        #: Cost of mid-run checkpointing on the lean loop: the
        #: fast-path row re-run with ``checkpoint_every=64`` and a
        #: discard sink, so the figure isolates segmentation plus
        #: snapshot serialization.  Guarded same-run like obs_overhead
        #: (zero cost when the knob is off — the off path has no
        #: per-step branch at all).
        "checkpoint_overhead": {
            "every": CHECKPOINT_EVERY,
            "plain": round(fast, 1),
            "checkpointed": round(checkpointed, 1),
            "overhead": round(max(0.0, 1.0 - checkpointed / fast), 4),
        },
        #: Lean-path time attribution, from one profiled fast-path run
        #: (fractions of total kernel time, keyed by PHASES order).
        "phase_time_shares": phase_shares,
        #: RunTelemetry totals of the same fast-path configuration.
        "lean_counters": lean_counters,
        #: The 8-seed sweep through a storeless campaign; the pooled
        #: figure includes starting its pool cold.
        "sweep_8_seeds_seconds": {
            "serial": round(_sweep_seconds(1, repeats), 3),
            f"workers_{workers}": round(_sweep_seconds(workers, repeats), 3),
        },
        #: Same 8-seed sweep through the campaign orchestrator with a
        #: durable event store; the pooled figure uses a pre-started
        #: persistent pool (steady-state campaign cost).
        "campaign_pool": {
            "serial": round(_campaign_sweep_seconds(1, repeats), 3),
            f"workers_{workers}": round(
                _campaign_sweep_seconds(workers, repeats), 3
            ),
        },
    }
    if include_large:
        large = _best_rate(_run_large_once, repeats)
        rates["soa_large"] = round(large, 1)
        backend["soa_large"] = "soa"
        record["large_workload"] = (
            f"random k={LARGE_K} on 2-d mesh n={LARGE_SIDE}, seed {SEED}"
        )
    return record


#: Throughput rows the 5% regression guard watches.  A row only
#: participates once both the previous trajectory entry and the new
#: record carry it, so the guard extends itself to new rows (``soa``,
#: ``soa_large``) as soon as a baseline exists.
GUARDED_ROWS = ("fast_path", "soa", "soa_large")

#: Wall-time tables the guard also watches (lower is better).  Every
#: variant present in both the previous entry and the new record
#: participates, so the serial *and* parallel sweep figures — and the
#: campaign-orchestrator equivalents — are covered as soon as a
#: baseline entry carries them.
GUARDED_SECONDS_TABLES = ("sweep_8_seeds_seconds", "campaign_pool")


def check_lean_regression(
    record: dict, path: str = TRAJECTORY, tolerance: float = 0.05
) -> str:
    """Compare the new record's lean throughput to the last entry.

    Returns an empty string when every guarded figure — packet-steps/s
    for the object fast path and soa rows (higher is better), wall
    seconds for the 8-seed sweep and campaign tables (lower is better)
    — is within ``tolerance`` of the most recent record in the
    trajectory file, and a human-readable warning otherwise.  The
    ``obs_overhead`` and ``checkpoint_overhead`` figures are guarded
    against the same-run plain row rather than history (all three
    throughputs come from this record), so they fire even on a fresh
    trajectory file.  The guard is advisory
    by default because absolute timings vary across machines; same-host
    CI promotes it to a failure with ``--fail-on-regression``.
    """
    warnings = []
    overhead = (record.get("obs_overhead") or {}).get("overhead")
    if overhead is not None and overhead > tolerance:
        warnings.append(
            f"obs overhead regression: summary-fed recorders cost "
            f"{overhead:.1%} of lean throughput "
            f"({record['obs_overhead']['observed']:.1f} vs "
            f"{record['obs_overhead']['plain']:.1f} packet-steps/s); "
            f"tolerance is {tolerance:.0%}"
        )
    ck_overhead = (record.get("checkpoint_overhead") or {}).get("overhead")
    if ck_overhead is not None and ck_overhead > tolerance:
        warnings.append(
            f"checkpoint overhead regression: checkpoint_every="
            f"{record['checkpoint_overhead']['every']} costs "
            f"{ck_overhead:.1%} of lean throughput "
            f"({record['checkpoint_overhead']['checkpointed']:.1f} vs "
            f"{record['checkpoint_overhead']['plain']:.1f} "
            f"packet-steps/s); tolerance is {tolerance:.0%}"
        )
    history = []
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            content = handle.read().strip()
        if content:
            history = json.loads(content)
    if not history:
        return "; ".join(warnings)
    for row in GUARDED_ROWS:
        previous = history[-1]["packet_steps_per_sec"].get(row)
        current = record["packet_steps_per_sec"].get(row)
        if not previous or not current:
            continue
        if current >= previous * (1.0 - tolerance):
            continue
        warnings.append(
            f"lean throughput regression: {row} {current:.1f} "
            f"packet-steps/s is {1.0 - current / previous:.1%} below the "
            f"previous entry ({previous:.1f}, {history[-1]['git_sha']}); "
            f"tolerance is {tolerance:.0%}"
        )
    for table in GUARDED_SECONDS_TABLES:
        previous_table = history[-1].get(table) or {}
        current_table = record.get(table) or {}
        for row in sorted(set(previous_table) & set(current_table)):
            previous = previous_table[row]
            current = current_table[row]
            if not previous or not current:
                continue
            if current <= previous * (1.0 + tolerance):
                continue
            warnings.append(
                f"sweep wall-time regression: {table}[{row}] "
                f"{current:.3f}s is {current / previous - 1.0:.1%} above "
                f"the previous entry ({previous:.3f}s, "
                f"{history[-1]['git_sha']}); tolerance is {tolerance:.0%}"
            )
    return "; ".join(warnings)


def append_record(record: dict, path: str = TRAJECTORY) -> None:
    history = []
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            content = handle.read().strip()
        if content:  # tolerate a pre-created empty file (e.g. mktemp)
            history = json.loads(content)
    history.append(record)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(history, handle, indent=2)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers",
        type=int,
        default=max(2, (os.cpu_count() or 1)),
        help="worker count for the parallel-sweep sample",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of repeats per config"
    )
    parser.add_argument(
        "--output", default=TRAJECTORY, help="trajectory file to append to"
    )
    parser.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit nonzero when lean throughput drops more than 5%% "
        "below the previous trajectory entry (advisory warning "
        "otherwise)",
    )
    parser.add_argument(
        "--skip-large",
        action="store_true",
        help=f"skip the n={LARGE_SIDE}, k={LARGE_K} soa row (CI smoke "
        "runs use this to stay fast)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="allowed fractional throughput drop before the regression "
        "guard fires (CI smoke loosens this: short reference runs are "
        "noisy on shared runners)",
    )
    args = parser.parse_args(argv)
    record = build_record(
        args.workers, args.repeats, include_large=not args.skip_large
    )
    warning = check_lean_regression(
        record, args.output, tolerance=args.tolerance
    )
    append_record(record, args.output)
    print(json.dumps(record, indent=2))
    print(f"appended to {args.output}")
    if warning:
        print(f"WARNING: {warning}", file=sys.stderr)
        if args.fail_on_regression:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
