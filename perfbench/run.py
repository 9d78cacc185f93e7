"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload batch_scalar --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes one
traced pass over the same cases and prints the per-layer metrics (see
perfbench/README.md).  The last line of standard output is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the run's environment (git SHA, versions, nproc, CPU steal) and
the wall-clock figures beside the host speeds that scaled them (see
calibration.py).

This process only orchestrates.  Each set-up sample and the measured
run happen in a fresh child process (this script with ``--role``), so
``setup_s`` includes interpreter start and imports, and ``peak_rss_mb``
covers the measuring process and its campaign pool workers only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from calibration import Calibrator

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTDIR = os.path.join("perfbench", "out")
DIGESTS = os.path.join(HERE, "digests.json")

#: Workload name -> (calibration kernel, processes it runs in): the
#: kernel that leans on the same resource as the workload, on as many
#: CPUs as the workload keeps busy.
WORKLOAD_KERNELS = {
    "batch_scalar": ("python", 1),
    "batch_vectorized": ("mixed", 1),
    "dynamic_observed": ("python", 1),
    "campaign_durable": ("python", 2),
}
WORKLOAD_NAMES = tuple(WORKLOAD_KERNELS)

#: The seed whose per-case telemetry digests are committed.
DEFAULT_SEED = 1

#: Fresh processes that set up per untraced run; setup_s is their median.
SETUP_SAMPLES = {"full": 7, "toy": 2}

#: Calibration time per second of set-up time.  Set-up samples are
#: short, so they get a larger share than the timed region's units.
SETUP_CALIBRATION_SHARE = 0.5

#: Wall budget of one invocation; a child still running then is killed.
BUDGET_S = 170.0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    parser.add_argument(
        "--role",
        choices=("main", "setup", "measure"),
        default="main",
        help=argparse.SUPPRESS,
    )
    parser.add_argument(
        "--write-digests",
        action="store_true",
        help="run every workload's unit pool once at the default seed "
        "and rewrite perfbench/digests.json",
    )
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_digests:
        parser.error("--workload is required")
    return args


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------


def _launch(args: argparse.Namespace, role: str, deadline: float) -> dict:
    """Run one child to completion; returns its parsed stdout lines."""
    command = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--role", role,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
    ]
    launched = time.monotonic()
    # A process group of its own, so the pool workers go with the child.
    child = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, preexec_fn=os.setpgrp
    )
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError(f"{role} child exceeded the time budget")
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass  # the group has already gone
    if child.returncode != 0:
        raise RuntimeError(f"{role} child exited with {child.returncode}")
    lines = {}
    for line in out.decode("utf-8").splitlines():
        if line.startswith("{"):
            lines.update(json.loads(line))
    lines["setup_s"] = lines["ready"] - launched
    return lines


def orchestrate(args: argparse.Namespace) -> int:
    deadline = time.monotonic() + BUDGET_S
    samples = []
    probes = 0 if args.trace else SETUP_SAMPLES[args.scale] - 1
    calibrator: Optional[Calibrator] = None
    try:
        if probes:
            # Set-up runs on one CPU, so one kernel process tracks it.
            calibrator = Calibrator(
                WORKLOAD_KERNELS[args.workload][0],
                share=SETUP_CALIBRATION_SHARE,
            )
        for _ in range(probes):
            samples.append(_launch(args, "setup", deadline)["setup_s"])
            calibrator.follow(samples[-1])
        measured = _launch(args, "measure", deadline)
    except RuntimeError as problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 1
    finally:
        if calibrator is not None:
            calibrator.close()
    samples.append(measured["setup_s"])
    result = measured["result"]
    metrics = result["metrics"]
    info = dict(result["info"], setup_samples_s=samples)
    if calibrator is not None:
        setup_s = statistics.median(samples)
        speed = calibrator.speed
        metrics["setup_s"] = {"value": setup_s * speed, "unit": "s"}
        info.update(setup_wall_s=setup_s, setup_host_speed=speed)
    for problem in result["problems"][:20]:
        print(f"perfbench: failed case: {problem}", file=sys.stderr)
    print(json.dumps({"info": info}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            },
            sort_keys=True,
        )
    )
    return 0


# ----------------------------------------------------------------------
# Child: set-up, timed region, checks
# ----------------------------------------------------------------------


def _cpu_times() -> List[int]:
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(value) for value in handle.readline().split()[1:9]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of CPU time the host stole between two /proc/stat reads."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total else 0.0


def peak_rss_mib() -> float:
    """Peak resident memory of this process plus its live children
    (the campaign pool workers), each process's own peak summed."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    me = str(os.getpid())
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                parent = handle.read().rsplit(")", 1)[1].split()[1]
            if parent != me:
                continue
            with open(f"/proc/{entry}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        kib += int(line.split()[1])
        except (OSError, IndexError):
            continue  # the process ended while we looked
    return kib / 1024


def _load_digests() -> Dict[str, Any]:
    try:
        with open(DIGESTS, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def _emit(payload: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def child(args: argparse.Namespace) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import tracing
    import workloads
    from repro.obs.manifest import git_sha

    # git must not report a repository that merely encloses the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.scale, OUTDIR, tracer
    )
    calibrator: Optional[Calibrator] = None
    try:
        workload.setup()
        _emit({"ready": time.monotonic()})
        if args.role == "setup":
            return 0
        digests = None
        if args.seed == DEFAULT_SEED and args.scale == "full":
            digests = _load_digests().get("cases", {}).get(args.workload, [])
        units = []
        if not args.trace:
            kind, processes = WORKLOAD_KERNELS[args.workload]
            calibrator = Calibrator(kind, processes=processes)
            workload.pause = calibrator.pause
        cpu_before = _cpu_times()
        start = time.perf_counter()
        region_s = 0.0
        if args.trace:
            with workloads.instrumented(tracer):
                for index in range(workload.units):
                    units.append(workload.run_unit(index))
            traced_s = time.perf_counter() - start
            workload.traced_extra()
            region_s = time.perf_counter() - start
        else:
            # Units and calibration pauses alternate (a workload may
            # pause inside a long unit too); the next unit starts while
            # it would end at most half a unit late.  The timed region
            # is the units' time without the pauses.
            index = 0
            last_s = 0.0
            while time.perf_counter() - start + last_s / 2 < args.seconds:
                began = time.perf_counter()
                paused_s = calibrator.paused_s
                units.append(workload.run_unit(index % workload.units))
                region_s += time.perf_counter() - began
                region_s -= calibrator.paused_s - paused_s
                calibrator.pause()
                last_s = time.perf_counter() - began
                index += 1
            calibrator.close()  # its processes must not count in peak RSS
        steal = steal_share(cpu_before, _cpu_times())
        problems: List[str] = []
        for index, unit in enumerate(units):
            if digests is not None:
                _compare_digests(unit, digests, index % workload.units)
            problems.extend(unit.problems)
        cross = workloads.cross_backend_problems(args.seed)
        problems.extend(cross)
        rss = peak_rss_mib()
    finally:
        if calibrator is not None:
            calibrator.close()
        workload.close()

    attempted = sum(unit.cases for unit in units) + 1
    failed = sum(unit.failed for unit in units) + len(cross)
    passing = sum(unit.cases - unit.failed for unit in units)
    packet_steps = sum(unit.packet_steps for unit in units)
    run_s = sum(unit.run_s for unit in units)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_steal_share": steal,
        "region_s": region_s,
        "units": len(units),
        "unit_packet_steps_per_s": [
            u.packet_steps / u.run_s if u.run_s else 0.0 for u in units
        ],
    }
    if args.trace:
        tracer.counts["packet_steps"] = packet_steps
        tracer.counts["advances"] = sum(unit.advances for unit in units)
        layers = tracing.layer_metrics(tracer, passing / traced_s)
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in layers.items()
        }
        trace_path = os.path.join(
            OUTDIR, f"trace-{args.workload}-seed{args.seed}.jsonl"
        )
        tracer.write(trace_path, info)
        info["trace_file"] = trace_path
    else:
        speed = calibrator.speed
        info.update(
            calibration_s=calibrator.seconds,
            host_speed=speed,
            wall_packet_steps_per_s=packet_steps / run_s,
            wall_cases_per_s=passing / region_s,
        )
        metrics = {
            "packet_steps_per_s": {
                "value": packet_steps / run_s / speed,
                "unit": "packet-steps/s",
            },
            "cases_per_s": {
                "value": passing / region_s / speed,
                "unit": "cases/s",
            },
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
        }
    _emit(
        {
            "result": {
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
                "info": info,
                "problems": problems,
            }
        }
    )
    return 0


def _compare_digests(unit: Any, expected: List[List[str]], index: int) -> None:
    """Mark every case whose telemetry differs from the committed run."""
    committed = expected[index] if index < len(expected) else []
    for case, digest in enumerate(unit.digests):
        if case >= len(committed) or committed[case] != digest:
            unit.fail(
                case,
                f"unit {index} case {case}",
                ["telemetry differs from the committed digest"],
            )


def _numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:
        return None
    return str(numpy.__version__)


def write_digests() -> int:
    """Rewrite digests.json from one pass at the default seed."""
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import tracing
    import workloads

    cases: Dict[str, List[List[str]]] = {}
    for name in WORKLOAD_NAMES:
        workload = workloads.WORKLOADS[name](
            DEFAULT_SEED, "full", OUTDIR, tracing.NullTracer()
        )
        try:
            workload.setup()
            units = [workload.run_unit(i) for i in range(workload.units)]
        finally:
            workload.close()
        problems = [p for unit in units for p in unit.problems]
        if problems:
            print(f"{name}: {problems}", file=sys.stderr)
            return 1
        cases[name] = [unit.digests for unit in units]
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump({"seed": DEFAULT_SEED, "cases": cases}, handle, indent=1)
        handle.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            "perfbench: the simulator sources (src/repro) are missing; "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2
    os.chdir(ROOT)
    if args.write_digests:
        return write_digests()
    if args.role == "main":
        return orchestrate(args)
    return child(args)


if __name__ == "__main__":
    sys.exit(main())
