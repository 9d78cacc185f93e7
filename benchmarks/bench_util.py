"""Shared helpers for the benchmark/experiment suite.

Every experiment (E1-E13 in DESIGN.md) both *prints* its result table
and *writes* it to ``benchmarks/results/<experiment>.txt`` so the
numbers survive pytest's output capture and can be pasted into
EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

from repro.analysis.tables import format_table
from repro.campaign import Campaign

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def emit(experiment: str, title: str, text: str) -> None:
    """Print a report block and persist it under results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    block = f"== {experiment}: {title} ==\n{text}\n"
    print("\n" + block)
    path = os.path.join(RESULTS_DIR, f"{experiment}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(block)


def emit_table(
    experiment: str,
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    notes: str = "",
) -> None:
    """Format, print, and persist one experiment table."""
    text = format_table(headers, rows)
    if notes:
        text += f"\n{notes}"
    emit(experiment, title, text)


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are full simulations; statistical re-running is
    neither needed nor affordable, so every bench uses a single round.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def bench_workers() -> int:
    """Worker-process count for the sweep-style drivers.

    Controlled by the ``REPRO_BENCH_WORKERS`` environment variable so
    CI and local runs can fan cases across cores without editing the
    benchmarks; defaults to serial (1).  A campaign's pooled points
    are identical to its serial ones (see repro.campaign.Campaign).
    """
    try:
        return max(1, int(os.environ.get("REPRO_BENCH_WORKERS", "1")))
    except ValueError:
        return 1


def campaign_points(specs, group):
    """Run ``specs`` as one storeless campaign on ``bench_workers()``
    processes; return its points in consecutive groups of ``group``
    (one group per grid point when specs list each point's seeds
    together)."""
    with Campaign(specs, workers=bench_workers()) as campaign:
        result = campaign.run()
    assert not result.failures, result.failures
    return [
        result.points[start : start + group]
        for start in range(0, len(result.points), group)
    ]
