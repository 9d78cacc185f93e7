"""Tests of the benchmark itself, at toy size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.core.engine import HotPotatoEngine  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

NAMES = [workload["name"] for workload in SPEC["workloads"]]
COUNTS = ("count", "bytes")


def run_bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    process = subprocess.run(
        [
            sys.executable, os.path.join(cwd, "perfbench", "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "0.5",
            "--trace", str(trace),
            "--scale", "toy",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return process


def result_of(process) -> dict:
    assert process.returncode == 0, process.stderr
    result = json.loads(process.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def assert_metric_set(metrics: dict, declared: list) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for metric in declared:
        reported = metrics[metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert isinstance(reported["value"], (int, float))


@pytest.mark.parametrize("workload", NAMES)
def test_toy_run_reports_every_metric_with_its_unit(workload):
    untraced = result_of(run_bench(workload, 3, 0))
    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["attempted"] >= 1
    assert_metric_set(untraced["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    traced = result_of(run_bench(workload, 3, 1))
    assert traced["correct"] and traced["failed"] == 0
    assert_metric_set(traced["metrics"], SPEC["per_layer"])


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_for_one_seed(workload):
    first, second = (
        result_of(run_bench(workload, 5, 1))["metrics"] for _ in range(2)
    )
    counts = {
        name: metric["value"]
        for name, metric in first.items()
        if metric["unit"] in COUNTS
    }
    assert counts["kernel.packet_steps"] > 0
    assert counts == {name: second[name]["value"] for name in counts}


def test_rates_are_wall_rates_over_the_host_speed():
    process = run_bench("campaign_durable", 3, 0)
    metrics = result_of(process)["metrics"]
    info = json.loads(process.stdout.strip().splitlines()[-2])["info"]
    speed = info["host_speed"]
    assert info["calibration_s"] > 0 and speed > 0
    for name in ("packet_steps_per_s", "cases_per_s"):
        assert metrics[name]["value"] * speed == pytest.approx(
            info[f"wall_{name}"], rel=1e-9
        )
    assert metrics["setup_s"]["value"] == pytest.approx(
        info["setup_wall_s"] * info["setup_host_speed"], rel=1e-9
    )


@pytest.mark.parametrize("kind", ["python", "mixed"])
def test_calibration_rounds_repeat_the_same_work(kind):
    assert calibration._kernel(kind)() == calibration._kernel(kind)()
    calibrator = calibration.Calibrator(kind, share=1.0, processes=2)
    try:
        calibrator.follow(0.05)
        assert calibrator.rounds >= 2 and calibrator.seconds >= 0.1
        assert calibrator.speed > 0
        took = calibrator.pause()
        assert took > 0 and calibrator.paused_s == took
    finally:
        calibrator.close()
    with pytest.raises(ValueError):
        calibration.Calibrator("abacus")


def _toy(name, seed, tracer=None):
    workload = workloads.WORKLOADS[name](
        seed, "toy", os.path.join(ROOT, "perfbench", "out"),
        tracer or tracing.NullTracer(),
    )
    workload.setup()
    return workload


def test_perturbed_case_result_counts_as_failed(monkeypatch):
    workload = _toy("batch_scalar", 3)
    try:
        assert workload.run_unit(0).failed == 0
        run = HotPotatoEngine.run

        def perturbed(self):
            result = run(self)
            result.telemetry.deflections += 1
            return result

        monkeypatch.setattr(HotPotatoEngine, "run", perturbed)
        unit = workload.run_unit(0)
    finally:
        workload.close()
    assert unit.failed == unit.cases == 2
    assert all("advances" in problem for problem in unit.problems)


def test_perturbed_campaign_point_counts_as_failed(monkeypatch):
    workload = _toy("campaign_durable", 3)
    try:
        run = workloads.Campaign.run

        def perturbed(self):
            result = run(self)
            result.points[0].result.telemetry.delivered -= 1
            return result

        monkeypatch.setattr(workloads.Campaign, "run", perturbed)
        unit = workload.run_unit(0)
    finally:
        workload.close()
    assert unit.failed == 1
    assert "delivered" in unit.problems[0]


def test_seed_changes_cases_but_not_metric_set():
    digests = {}
    for seed in (3, 4):
        workload = _toy("dynamic_observed", seed)
        try:
            digests[seed] = workload.run_unit(0).digests
        finally:
            workload.close()
    assert digests[3] != digests[4]
    metric_sets = [
        set(result_of(run_bench("batch_scalar", seed, 0))["metrics"])
        for seed in (3, 4)
    ]
    assert metric_sets[0] == metric_sets[1]


def test_timed_observers_keep_snapshots_byte_identical():
    encoded = {}
    for tracer in (tracing.NullTracer(), tracing.Tracer()):
        payloads = []
        engine = workloads.DynamicEngine(
            workloads.Mesh(2, 6),
            workloads.make_policy("restricted-priority"),
            workloads.BernoulliTraffic(0.3),
            seed=9,
            observers=[
                tracer.observe(workloads.SeriesRecorder()),
                tracer.observe(workloads.RunMetricsRecorder()),
            ],
            checkpoint_every=10,
            on_checkpoint=lambda p: payloads.append(json.dumps(p)),
        )
        engine.run(40)
        encoded[tracer.enabled] = payloads
    assert len(encoded[False]) == 3
    assert encoded[True] == encoded[False]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    process = run_bench("batch_scalar", 3, 0, cwd=str(tmp_path))
    assert process.returncode != 0
    assert '"metrics"' not in process.stdout
