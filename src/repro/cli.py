"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``route``    — route one workload under one policy, print the summary
  (optionally audit the full Theorem 20 analysis chain, or archive the
  trace as JSON);
* ``sweep``    — sweep k for one policy, print T vs the Theorem 20 bound;
* ``campaign`` — run / resume / inspect resumable experiment campaigns
  backed by the event-sourced store (see :mod:`repro.campaign`);
* ``dynamic``  — continuous-traffic load sweep (latency/backlog table);
* ``profile``  — run one scenario on the profiled kernel loop and print
  the per-phase wall-time table;
* ``livelock`` — run the 8-packet livelock demonstration;
* ``policies`` — list the registered routing policies;
* ``lint``     — run the determinism linter over the source tree.

``route``/``sweep``/``dynamic``/``profile`` accept ``--telemetry PATH``
to append one structured :class:`~repro.obs.manifest.RunManifest` JSON
line per run (configuration, seed, git sha, lean-path counters).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, List, Optional

from repro.algorithms import (
    BlockingGreedyPolicy,
    available_policies,
    livelock_instance,
    make_policy,
)
from repro.analysis.livelock import detect_cycle
from repro.analysis.tables import format_table
from repro.campaign.spec import (
    DEFAULT_POLICIES,
    TOPOLOGIES,
    WORKLOADS,
    CaseSpec,
)
from repro.campaign.worker import mesh_for, resolve_policy, resolve_workload
from repro.core.buffered_engine import BufferedEngine
from repro.core.engine import HotPotatoEngine
from repro.core.policy import RoutingPolicy
from repro.core.serialization import save_trace
from repro.core.trace import record_run
from repro.dynamic import BernoulliTraffic, BufferedDynamicEngine, DynamicEngine
from repro.mesh.topology import Mesh
from repro.potential.bounds import theorem20_bound
from repro.potential.verification import verify_restricted_run


def _case(args: argparse.Namespace, **fields: Any) -> CaseSpec:
    """The case a command's mesh and policy flags name, with
    ``fields``; the campaign's vocabulary resolves it.

    Without ``--policy`` the case runs its engine's default policy.
    """
    engine = fields.setdefault("engine", "hot-potato")
    return CaseSpec(
        topology=args.topology,
        side=args.side,
        dimension=args.dimension,
        policy=args.policy or DEFAULT_POLICIES[engine],
        **fields,
    )


def _workload_params(args: argparse.Namespace) -> tuple:
    """``--k`` as a case's workload parameters (none when unset)."""
    return () if args.k is None else (("k", args.k),)


def _policy(spec: CaseSpec) -> RoutingPolicy:
    """A fresh instance of the case's policy; a policy its engine
    cannot run ends the command with the reason."""
    try:
        return resolve_policy(spec)
    except ValueError as problem:
        raise SystemExit(str(problem))


def _telemetry_observers(args: argparse.Namespace, command: str) -> list:
    """A :class:`JsonlRunLogger` list for ``--telemetry PATH`` (or [])."""
    if not getattr(args, "telemetry", None):
        return []
    from repro.obs.manifest import JsonlRunLogger

    return [JsonlRunLogger(args.telemetry, command=command)]


def _series_recorder(args: argparse.Namespace):
    """A :class:`SeriesRecorder` for ``--series PATH`` (or None).

    The recorder is summary-fed (``needs_steps=False``), so attaching
    it never disqualifies the lean loop or the soa kernel.
    """
    if not getattr(args, "series", None):
        return None
    from repro.obs.series import SeriesRecorder

    return SeriesRecorder()


def _write_series(args: argparse.Namespace, recorder, command: str) -> None:
    """Export a recorder's series to ``--series PATH`` (JSONL)."""
    if recorder is None:
        return
    from repro.obs.export import write_series_jsonl

    meta = {
        "command": command,
        "workload": args.workload,
        "policy": args.policy or "",
        "engine": args.engine,
        "backend": args.backend,
        "seed": args.seed,
    }
    samples = write_series_jsonl(recorder.series, args.series, meta=meta)
    print(f"series written to {args.series} ({samples} samples)")


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def _load_faults(args: argparse.Namespace, mesh: Mesh):
    """Load and mesh-check ``--faults PATH`` (None without the flag)."""
    if not getattr(args, "faults", None):
        return None
    from repro.exceptions import ConfigurationError
    from repro.faults import FaultSchedule

    try:
        schedule = FaultSchedule.load(args.faults)
        schedule.check(mesh)
    except (OSError, ValueError, ConfigurationError) as problem:
        raise SystemExit(f"cannot use fault schedule {args.faults}: {problem}")
    events = schedule.events
    label = schedule.description or "unnamed"
    print(
        f"fault schedule {label!r}: {len(events)} events "
        f"({len(schedule.link_faults())} link, "
        f"{len(schedule.node_faults())} node, "
        f"{len(schedule.packet_drops())} drop)"
    )
    return schedule


def _print_fault_outcome(result) -> None:
    """One line per fault consequence: drops always, abort when set."""
    if result.total_dropped:
        print(f"dropped by faults: {result.total_dropped}")
    if result.abort is not None:
        print(result.abort.summary())


def _route_durability(args: argparse.Namespace):
    """Resolve ``--checkpoint-every/--checkpoint/--resume-from``.

    Returns ``(on_checkpoint, resume_payload)`` — either may be None.
    Both knobs run plain engine runs only: the analysis paths
    (``--verify``/``--save-trace``) replay a run in full, so mid-run
    durability has nothing to attach to there.
    """
    on_checkpoint = None
    resume_payload = None
    if args.checkpoint_every is not None or args.resume_from:
        if args.verify or args.save_trace:
            raise SystemExit(
                "--checkpoint-every/--resume-from checkpoint plain "
                "engine runs; they do not combine with "
                "--verify/--save-trace"
            )
    if args.checkpoint_every is not None:
        if not args.checkpoint:
            raise SystemExit(
                "--checkpoint-every needs --checkpoint PATH to know "
                "where to write snapshots"
            )
        from repro.snapshot import save_snapshot

        def on_checkpoint(snapshot, _path=args.checkpoint):
            save_snapshot(snapshot, _path)

    elif args.checkpoint:
        raise SystemExit("--checkpoint needs --checkpoint-every N")
    if args.resume_from:
        from repro.snapshot import load_snapshot

        try:
            resume_payload = load_snapshot(args.resume_from)
        except (OSError, ValueError) as problem:
            raise SystemExit(
                f"cannot resume from {args.resume_from}: {problem}"
            )
        print(
            f"resuming from {args.resume_from} "
            f"(step {resume_payload.get('step')})"
        )
    return on_checkpoint, resume_payload


def _route_resume(engine, args: argparse.Namespace, payload) -> None:
    """Restore a snapshot into a freshly built engine (or exit)."""
    if payload is None:
        return
    try:
        engine.resume_from(payload)
    except (ValueError, TypeError, KeyError) as problem:
        raise SystemExit(
            f"snapshot {args.resume_from} does not match this run "
            f"(same mesh/workload/policy/seed flags required): {problem}"
        )


def cmd_route(args: argparse.Namespace) -> int:
    spec = _case(
        args,
        engine=args.engine,
        workload=args.workload,
        workload_params=_workload_params(args),
        seed=args.seed,
    )
    mesh = mesh_for(spec)
    problem = resolve_workload(mesh, spec)
    policy = _policy(spec)
    print(
        f"Routing {problem.describe()} with {spec.policy!r}"
        + (" (store-and-forward)" if args.engine == "buffered" else "")
    )

    if args.telemetry and (args.verify or args.save_trace):
        raise SystemExit(
            "--telemetry logs plain engine runs; it does not combine "
            "with --verify/--save-trace"
        )
    if args.series and (args.verify or args.save_trace):
        raise SystemExit(
            "--series records plain engine runs; it does not combine "
            "with --verify/--save-trace"
        )
    if args.faults and (args.verify or args.save_trace):
        raise SystemExit(
            "--faults injects failures into plain engine runs; it does "
            "not combine with --verify/--save-trace"
        )
    checkpoint_cb, resume_payload = _route_durability(args)
    observers = _telemetry_observers(args, "route")
    series = _series_recorder(args)
    if series is not None:
        observers = observers + [series]
    faults = _load_faults(args, mesh)

    if args.backend == "soa":
        if args.verify or args.save_trace:
            raise SystemExit(
                "--backend soa runs the lean array kernel; it does not "
                "combine with --verify/--save-trace"
            )
        if faults is not None:
            raise SystemExit(
                "--backend soa does not support fault schedules"
            )

    if args.engine == "buffered":
        if args.verify or args.save_trace:
            raise SystemExit(
                "--verify/--save-trace analyze hot-potato runs; they do "
                "not apply to --engine buffered"
            )
        buffered_engine = BufferedEngine(
            problem, policy, seed=args.seed, observers=observers,
            faults=faults, backend=args.backend,
            checkpoint_every=args.checkpoint_every,
            on_checkpoint=checkpoint_cb,
        )
        _route_resume(buffered_engine, args, resume_payload)
        result = buffered_engine.run()
        if checkpoint_cb is not None:
            print(f"checkpoints written to {args.checkpoint}")
        print(result.summary())
        _print_fault_outcome(result)
        print(f"max buffer occupancy: {buffered_engine.max_buffer_seen}")
        if args.telemetry:
            print(f"manifest appended to {args.telemetry}")
        _write_series(args, series, "route")
        return 0 if result.completed else 1

    if args.verify:
        if mesh.dimension != 2 or mesh.kind != "mesh":
            raise SystemExit("--verify needs a 2-dimensional mesh")
        report = verify_restricted_run(problem, policy, seed=args.seed)
        print(report.summary())
        return 0 if report.all_hold else 1

    if args.save_trace:
        trace = record_run(problem, policy, seed=args.seed)
        save_trace(trace, args.save_trace)
        print(f"trace written to {args.save_trace}")
        result = trace.result
    else:
        extra = {}
        if args.backend == "soa":
            # The array kernel runs the lean loop, which requires
            # capacity-only validation (same as fast_path=True runs).
            from repro.core.validation import validators_for

            extra["validators"] = validators_for(policy, strict=False)
        engine = HotPotatoEngine(
            problem, policy, seed=args.seed, observers=observers,
            faults=faults, backend=args.backend,
            checkpoint_every=args.checkpoint_every,
            on_checkpoint=checkpoint_cb, **extra,
        )
        _route_resume(engine, args, resume_payload)
        result = engine.run()
        if checkpoint_cb is not None:
            print(f"checkpoints written to {args.checkpoint}")
        if args.telemetry:
            print(f"manifest appended to {args.telemetry}")
        _write_series(args, series, "route")

    print(result.summary())
    _print_fault_outcome(result)
    if mesh.dimension == 2 and mesh.kind == "mesh":
        bound = theorem20_bound(mesh.side, problem.k)
        print(
            f"Theorem 20 bound: {bound:.0f} "
            f"(measured/bound = {result.total_steps / bound:.3f})"
        )
    return 0 if result.completed else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.campaign import Campaign

    if args.telemetry:
        from repro.obs.manifest import (
            append_manifest,
            manifest_from_run_result,
        )

    mesh = mesh_for(_case(args, workload="random", seed=0))
    ks = []
    k = max(1, args.k_min)
    while k <= args.k_max:
        ks.append(k)
        k *= 2
    specs = [
        _case(
            args, workload="random", workload_params=(("k", k),), seed=seed
        )
        for k in ks
        for seed in range(args.seeds)
    ]
    with Campaign(specs, workers=args.workers) as campaign:
        result = campaign.run()
    if result.failures:
        failure = result.failures[0]
        raise SystemExit(
            f"sweep case failed: {failure.error}: {failure.message}"
        )
    rows = []
    manifests = 0
    for index, k in enumerate(ks):
        points = result.points[index * args.seeds : (index + 1) * args.seeds]
        if args.telemetry:
            # One manifest per point: telemetry rides inside each
            # RunResult, back across worker-process boundaries.
            for point in points:
                append_manifest(
                    manifest_from_run_result(
                        point.result,
                        command="sweep",
                        workload=f"random k={k} seeds={args.seeds}",
                    ),
                    args.telemetry,
                )
                manifests += 1
        times = []
        for point in points:
            if not point.result.completed:
                raise SystemExit(f"run did not complete at k={k}")
            times.append(point.result.total_steps)
        mean = sum(times) / len(times)
        if mesh.dimension == 2 and mesh.kind == "mesh":
            bound = theorem20_bound(mesh.side, k)
            rows.append([k, mean, max(times), bound, max(times) / bound])
        else:
            rows.append([k, mean, max(times), "-", "-"])
    print(
        format_table(
            ["k", "T mean", "T max", "Thm20 bound", "max/bound"],
            rows,
            title=f"{args.policy} on {mesh.kind} n={mesh.side} "
            f"d={mesh.dimension} ({args.seeds} seeds)",
        )
    )
    if args.telemetry:
        print(f"{manifests} manifests appended to {args.telemetry}")
    return 0


def cmd_dynamic(args: argparse.Namespace) -> int:
    spec = _case(args, engine=args.engine, workload="random", seed=args.seed)
    mesh = mesh_for(spec)
    buffered = args.engine == "buffered"
    rows = []
    for rate in args.rates:
        # Fresh policy/traffic/observers per rate: engines share nothing.
        engine = (
            BufferedDynamicEngine if buffered else DynamicEngine
        )(
            mesh,
            _policy(spec),
            BernoulliTraffic(rate),
            seed=args.seed,
            warmup=args.horizon // 4,
            observers=_telemetry_observers(args, "dynamic"),
            backend=args.backend,
        )
        stats = engine.run(args.horizon)
        rows.append(
            [
                rate,
                stats.mean_latency,
                stats.latency_percentile(99),
                stats.deflection_rate,
                stats.throughput,
                engine.max_queue_seen if buffered else stats.max_backlog,
                stats.is_stable(),
            ]
        )
    queue_header = "queue" if buffered else "backlog"
    print(
        format_table(
            ["load", "lat mean", "lat p99", "deflect", "thruput",
             queue_header, "stable"],
            rows,
            title=f"dynamic {spec.policy} on {mesh.kind} n={mesh.side} "
            f"({args.horizon} steps"
            + (", store-and-forward)" if buffered else ")"),
        )
    )
    if args.telemetry:
        print(
            f"{len(args.rates)} manifests appended to {args.telemetry}"
        )
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Run one scenario on the profiled kernel loop; print the phase
    table, the lean-path counters, and (optionally) a manifest."""
    from repro.core.validation import validators_for
    from repro.obs import PhaseProfiler
    from repro.obs.manifest import JsonlRunLogger

    buffered = args.engine in ("buffered", "buffered-dynamic")
    spec = _case(
        args,
        engine="buffered" if buffered else "hot-potato",
        workload=args.workload,
        workload_params=_workload_params(args),
        seed=args.seed,
    )
    mesh = mesh_for(spec)
    policy = _policy(spec)
    profiler = PhaseProfiler()
    observers = []
    if args.telemetry:
        observers.append(
            JsonlRunLogger(
                args.telemetry, command="profile", profiler=profiler
            )
        )

    if args.engine in ("dynamic", "buffered-dynamic"):
        dynamic_engine = (
            BufferedDynamicEngine if buffered else DynamicEngine
        )(
            mesh,
            policy,
            BernoulliTraffic(args.rate),
            seed=args.seed,
            warmup=args.horizon // 4,
            observers=observers,
            profiler=profiler,
            backend=args.backend,
        )
        stats = dynamic_engine.run(args.horizon)
        print(
            f"{args.engine} {spec.policy!r} on {mesh.kind} n={mesh.side} "
            f"rate={args.rate}: {stats.summary()}"
        )
        telemetry = dynamic_engine.telemetry
    else:
        problem = resolve_workload(mesh, spec)
        if args.engine == "buffered":
            engine = BufferedEngine(
                problem,
                policy,
                seed=args.seed,
                observers=observers,
                profiler=profiler,
                backend=args.backend,
            )
        else:
            # Capacity-only validators keep the run fast-path eligible —
            # the profiler times the lean pipeline.
            engine = HotPotatoEngine(
                problem,
                policy,
                seed=args.seed,
                validators=validators_for(policy, strict=False),
                observers=observers,
                profiler=profiler,
                backend=args.backend,
            )
        result = engine.run()
        print(result.summary())
        telemetry = engine.telemetry

    print()
    print(profiler.format_table())
    print(telemetry.summary())
    if args.telemetry:
        print(f"manifest appended to {args.telemetry}")
    return 0


def cmd_livelock(args: argparse.Namespace) -> int:
    problem = livelock_instance()
    engine = HotPotatoEngine(
        problem, BlockingGreedyPolicy(), max_steps=args.steps
    )
    result = engine.run()
    cycle = detect_cycle(problem, BlockingGreedyPolicy(), max_steps=100)
    print(
        f"blocking-greedy: {result.delivered}/8 delivered after "
        f"{args.steps} validated-greedy steps"
    )
    print(f"cycle: {cycle}")
    fixed = HotPotatoEngine(problem, make_policy("restricted-priority")).run()
    print(
        f"restricted-priority routes the same instance in "
        f"{fixed.total_steps} steps"
    )
    return 0


def cmd_policies(args: argparse.Namespace) -> int:
    for name in available_policies():
        print(f"{name:26s} {make_policy(name).describe()}")
    return 0


def _campaign_specs(args: argparse.Namespace) -> list:
    """Seed-replicated declarative specs for ``repro campaign run``."""
    try:
        return [
            _case(
                args,
                workload=args.workload,
                workload_params=_workload_params(args),
                seed=seed,
                # The soa kernel runs the lean loop, which requires
                # capacity-only validation (same rule as `repro route`).
                # Under auto, strict hot-potato cases therefore keep
                # the object loop; buffered cases take the array kernel.
                strict_validation=args.backend != "soa",
                max_steps=args.max_steps,
                engine=args.engine,
                backend=args.backend,
                checkpoint_every=getattr(args, "checkpoint_every", None),
            )
            for seed in range(args.seeds)
        ]
    except ValueError as problem:
        raise SystemExit(f"invalid campaign case: {problem}")


def _print_campaign_result(result) -> int:
    print(
        f"campaign: {len(result.points)} finished "
        f"({result.resumed} restored from the store), "
        f"{len(result.failures)} failed"
        + (", degraded" if result.degraded else "")
    )
    for failure in result.failures:
        print(f"  {failure.key}: {failure.error}: {failure.message}")
    if result.points:
        steps = [p.result.total_steps for p in result.points]
        print(
            f"T mean={sum(steps) / len(steps):.1f} max={max(steps)} "
            f"over {len(steps)} cases"
        )
    return 0 if result.all_completed() else 1


def _append_campaign_manifests(campaign, result, path: str) -> None:
    """One manifest per finished point for ``--telemetry PATH``.

    Points come back in spec order with failed cases skipped, so
    filtering the failure keys out of the campaign's own key/spec
    pairing realigns specs with points.
    """
    from repro.obs.manifest import append_manifest, manifest_from_run_result

    failed = {failure.key for failure in result.failures}
    specs = [
        spec
        for key, spec in zip(campaign.keys, campaign.specs)
        if key not in failed
    ]
    for spec, point in zip(specs, result.points):
        append_manifest(
            manifest_from_run_result(
                point.result,
                command="campaign",
                engine=spec.engine,
                workload=spec.workload,
                case=dict(point.params),
            ),
            path,
        )
    print(
        f"{len(result.points)} manifest"
        + ("" if len(result.points) == 1 else "s")
        + f" appended to {path}"
    )


def cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import Campaign, CampaignStore

    if getattr(args, "checkpoint_every", None) is not None and not args.store:
        raise SystemExit(
            "--checkpoint-every appends snapshots to the event log; "
            "it needs --store PATH"
        )
    specs = _campaign_specs(args)
    store = CampaignStore(args.store) if args.store else None
    with Campaign(specs, store=store, workers=args.workers) as campaign:
        result = campaign.run()
    if args.telemetry:
        _append_campaign_manifests(campaign, result, args.telemetry)
    return _print_campaign_result(result)


def cmd_campaign_resume(args: argparse.Namespace) -> int:
    from repro.campaign import Campaign

    campaign = Campaign.from_store(args.store, workers=args.workers)
    if not campaign.specs:
        raise SystemExit(f"no cases queued in {args.store}")
    with campaign:
        result = campaign.run()
    if args.telemetry:
        _append_campaign_manifests(campaign, result, args.telemetry)
    return _print_campaign_result(result)


def cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignStore

    store = CampaignStore(args.store)
    state = store.replay()
    if not state.order:
        raise SystemExit(f"no cases queued in {args.store}")
    if args.watch:
        from repro.campaign import watch

        watch(store, interval=args.interval, max_polls=args.max_polls)
        state = store.replay()
    else:
        counts = state.counts()
        total = len(state.order)
        print(f"{total} cases in {args.store}")
        for name in ("finished", "started", "queued", "failed"):
            print(f"  {name:9s} {counts[name]}")
        for problem in state.errors:
            print(f"  damaged line skipped: {problem}")
    if args.prometheus:
        from repro.campaign import registry_from_state
        from repro.obs.export import render_prometheus

        with open(args.prometheus, "w", encoding="utf-8") as handle:
            handle.write(render_prometheus(registry_from_state(state)))
        print(f"prometheus metrics written to {args.prometheus}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_lint

    return run_lint(args, sys.stdout)


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import build_report, write_report

    if args.output:
        stats = write_report(args.results, args.output)
        print(
            f"wrote {stats['experiments']} experiment blocks "
            f"({stats['bytes']} bytes) to {args.output}"
        )
    else:
        print(build_report(args.results))
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def _add_mesh_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topology",
        choices=TOPOLOGIES,
        default="mesh",
        help="network family (default: mesh)",
    )
    parser.add_argument(
        "--side", type=int, default=16, help="side length n (default 16)"
    )
    parser.add_argument(
        "--dimension", type=int, default=2, help="dimension d (default 2)"
    )


def _add_seed_argument(parser: argparse.ArgumentParser) -> None:
    """``--seed`` for the single-run commands; ``sweep`` and
    ``campaign run`` replicate over seeds ``0..--seeds-1`` instead."""
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")


def _add_backend_argument(
    parser: argparse.ArgumentParser, *, auto: bool = True
) -> None:
    """``--backend``; ``auto=False`` keeps the object default for
    ``profile``, whose phase table shows the object loop's five-phase
    split.  ``campaign run`` takes ``auto`` like ``route``: a spec's
    key hashes ``auto`` as ``object``, and its default strict
    hot-potato cases keep the object loop under ``auto``."""
    choices = ("auto", "object", "soa") if auto else ("object", "soa")
    parser.add_argument(
        "--backend",
        choices=choices,
        default=choices[0],
        help="step-kernel implementation: per-packet objects (object), "
        "the bit-identical structure-of-arrays kernel (soa)"
        + (", or soa whenever the run allows it (auto)" if auto else "")
        + f"; default {choices[0]}",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Greedy hot-potato routing on meshes "
        "(Ben-Dor, Halevi & Schuster, PODC 1994 — reproduction).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    route = commands.add_parser("route", help="route one workload")
    _add_mesh_arguments(route)
    _add_seed_argument(route)
    _add_backend_argument(route)
    route.add_argument("--workload", choices=WORKLOADS, default="random")
    route.add_argument("--k", type=int, default=None, help="batch size")
    route.add_argument(
        "--policy",
        default=None,
        help="routing policy (default: restricted-priority for hot-potato, "
        "dimension-order for buffered)",
    )
    route.add_argument(
        "--engine",
        choices=("hot-potato", "buffered"),
        default="hot-potato",
        help="routing discipline: deflection (hot-potato) or "
        "store-and-forward (buffered)",
    )
    route.add_argument(
        "--verify",
        action="store_true",
        help="audit the full Theorem 20 analysis chain on this run",
    )
    route.add_argument(
        "--save-trace", metavar="PATH", help="archive the full trace as JSON"
    )
    route.add_argument(
        "--telemetry",
        metavar="PATH",
        help="append a structured run manifest (JSONL) for this run",
    )
    route.add_argument(
        "--series",
        metavar="PATH",
        help="export the per-step time series (phi, in-flight, "
        "deflections, max node load) as schema-versioned JSONL; "
        "summary-fed, so the lean loop and the soa kernel stay eligible",
    )
    route.add_argument(
        "--faults",
        metavar="PATH",
        help="inject failures from a JSON fault schedule (see "
        "repro.faults.FaultSchedule); the run degrades gracefully and "
        "ends in a structured verdict instead of a crash",
    )
    route.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="write a deterministic engine snapshot every N steps "
        "(needs --checkpoint PATH); a killed run resumes bit-identically "
        "with --resume-from",
    )
    route.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="snapshot file for --checkpoint-every (atomically "
        "overwritten at each interval)",
    )
    route.add_argument(
        "--resume-from",
        metavar="PATH",
        default=None,
        help="resume from a snapshot written by --checkpoint; all "
        "mesh/workload/policy/seed flags must match the original run",
    )
    route.set_defaults(func=cmd_route)

    # The seed-replicated commands take no --seed; without abbreviation
    # it cannot silently parse as --seeds either.
    sweep = commands.add_parser(
        "sweep", help="sweep k, print T vs bound", allow_abbrev=False
    )
    _add_mesh_arguments(sweep)
    sweep.add_argument("--policy", default="restricted-priority")
    sweep.add_argument("--k-min", type=int, default=8)
    sweep.add_argument("--k-max", type=int, default=256)
    sweep.add_argument("--seeds", type=int, default=3)
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="campaign pool size for the sweep's (k, seed) cases "
        "(1 = serial; results are identical either way)",
    )
    sweep.add_argument(
        "--telemetry",
        metavar="PATH",
        help="append one run manifest (JSONL) per sweep point",
    )
    sweep.set_defaults(func=cmd_sweep)

    dynamic = commands.add_parser(
        "dynamic", help="continuous-traffic load sweep"
    )
    _add_mesh_arguments(dynamic)
    _add_seed_argument(dynamic)
    _add_backend_argument(dynamic)
    dynamic.add_argument(
        "--policy",
        default=None,
        help="routing policy (default: restricted-priority for hot-potato, "
        "dimension-order for buffered)",
    )
    dynamic.add_argument(
        "--engine",
        choices=("hot-potato", "buffered"),
        default="hot-potato",
        help="injection/routing discipline to simulate",
    )
    dynamic.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=[0.05, 0.15, 0.25, 0.35],
        help="offered loads to sweep",
    )
    dynamic.add_argument("--horizon", type=int, default=600)
    dynamic.add_argument(
        "--telemetry",
        metavar="PATH",
        help="append one run manifest (JSONL) per offered load",
    )
    dynamic.set_defaults(func=cmd_dynamic)

    profile = commands.add_parser(
        "profile",
        help="time the kernel pipeline phases for one scenario",
    )
    _add_mesh_arguments(profile)
    _add_seed_argument(profile)
    _add_backend_argument(profile, auto=False)
    profile.add_argument("--workload", choices=WORKLOADS, default="random")
    profile.add_argument("--k", type=int, default=None, help="batch size")
    profile.add_argument(
        "--policy",
        default=None,
        help="routing policy (default: restricted-priority; "
        "dimension-order for the buffered engines)",
    )
    profile.add_argument(
        "--engine",
        choices=("hot-potato", "buffered", "dynamic", "buffered-dynamic"),
        default="hot-potato",
        help="which engine's kernel configuration to profile",
    )
    profile.add_argument(
        "--rate",
        type=float,
        default=0.1,
        help="offered load (dynamic engines only)",
    )
    profile.add_argument(
        "--horizon",
        type=int,
        default=600,
        help="steps to simulate (dynamic engines only)",
    )
    profile.add_argument(
        "--telemetry",
        metavar="PATH",
        help="append a run manifest (JSONL) with the phase timings",
    )
    profile.set_defaults(func=cmd_profile)

    campaign = commands.add_parser(
        "campaign",
        help="run resumable experiment campaigns (event-sourced store)",
    )
    campaign_commands = campaign.add_subparsers(
        dest="campaign_command", required=True
    )

    campaign_run = campaign_commands.add_parser(
        "run",
        help="queue and execute a seed-replicated campaign",
        allow_abbrev=False,
    )
    _add_mesh_arguments(campaign_run)
    _add_backend_argument(campaign_run)
    campaign_run.add_argument(
        "--workload", choices=WORKLOADS, default="random"
    )
    campaign_run.add_argument(
        "--k", type=int, default=None, help="batch size"
    )
    campaign_run.add_argument(
        "--policy",
        default=None,
        help="routing policy (default: restricted-priority for hot-potato, "
        "dimension-order for buffered)",
    )
    campaign_run.add_argument(
        "--engine",
        choices=("hot-potato", "buffered"),
        default="hot-potato",
        help="routing discipline",
    )
    campaign_run.add_argument(
        "--seeds",
        type=int,
        default=3,
        help="replicate seeds 0..N-1 (default 3)",
    )
    campaign_run.add_argument(
        "--max-steps", type=int, default=None, help="per-case step budget"
    )
    campaign_run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="persistent pool size (1 = serial; results are identical "
        "either way)",
    )
    campaign_run.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="event-log JSONL; with it the campaign is durable and "
        "resumable (repro campaign resume)",
    )
    campaign_run.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="append a mid-run engine snapshot to the store every N "
        "steps per case (needs --store); a killed case resumes from "
        "its last checkpoint instead of step 0",
    )
    campaign_run.add_argument(
        "--telemetry",
        metavar="PATH",
        help="append one run manifest (JSONL) per finished case",
    )
    campaign_run.set_defaults(func=cmd_campaign_run)

    campaign_resume = campaign_commands.add_parser(
        "resume",
        help="restore finished cases from a store and run the rest",
    )
    campaign_resume.add_argument(
        "--store", metavar="PATH", required=True, help="event-log JSONL"
    )
    campaign_resume.add_argument(
        "--workers", type=int, default=1, help="persistent pool size"
    )
    campaign_resume.add_argument(
        "--telemetry",
        metavar="PATH",
        help="append one run manifest (JSONL) per finished case",
    )
    campaign_resume.set_defaults(func=cmd_campaign_resume)

    campaign_status = campaign_commands.add_parser(
        "status", help="summarize a campaign store without running it"
    )
    campaign_status.add_argument(
        "--store", metavar="PATH", required=True, help="event-log JSONL"
    )
    campaign_status.add_argument(
        "--watch",
        action="store_true",
        help="tail the event log, printing one progress line per poll "
        "(counts, throughput, ETA) until no case is pending; never "
        "touches the running pool",
    )
    campaign_status.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between --watch polls (default 1.0)",
    )
    campaign_status.add_argument(
        "--max-polls",
        type=int,
        default=None,
        help="stop --watch after N polls even if cases are pending "
        "(bounds watching a campaign whose driver died)",
    )
    campaign_status.add_argument(
        "--prometheus",
        metavar="PATH",
        help="write campaign-level aggregates (lifecycle counters plus "
        "folded per-run telemetry) in Prometheus text exposition format",
    )
    campaign_status.set_defaults(func=cmd_campaign_status)

    livelock = commands.add_parser(
        "livelock", help="run the greedy livelock demonstration"
    )
    livelock.add_argument("--steps", type=int, default=500)
    livelock.set_defaults(func=cmd_livelock)

    policies = commands.add_parser("policies", help="list routing policies")
    policies.set_defaults(func=cmd_policies)

    lint = commands.add_parser(
        "lint",
        help="run the determinism linter (see docs/ARCHITECTURE.md)",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(func=cmd_lint)

    report = commands.add_parser(
        "report",
        help="assemble the markdown report from benchmark result blocks",
    )
    report.add_argument(
        "--results",
        default="benchmarks/results",
        help="directory of experiment blocks (default benchmarks/results)",
    )
    report.add_argument(
        "--output", metavar="PATH", help="write to a file instead of stdout"
    )
    report.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
