"""E1 — Theorem 20: routing time vs the 8*sqrt(2)*n*sqrt(k) bound.

Sweeps mesh side and batch size for the restricted-priority greedy
algorithm and reports the measured routing time against the Theorem 20
bound.  The reproduction criterion: every run completes within the
bound (the theorem is worst-case, so measured/bound << 1 is expected
and itself reproduces the paper's "greedy is much faster in practice"
observation).
"""

from bench_util import campaign_points, emit_table, once

from repro.analysis.stats import summarize
from repro.campaign import CaseSpec
from repro.potential.bounds import theorem20_bound

SIDES = (8, 16, 32)
LOADS = (0.125, 0.5, 1.0, 2.0)  # k as a multiple of n^2 (capped)
SEEDS = (0, 1, 2)


def _sweep():
    grid = [
        (side, k)
        for side in SIDES
        for k in (int(load * side * side) for load in LOADS)
        if 1 <= k <= 2 * side * side
    ]
    specs = [
        CaseSpec(
            topology="mesh",
            workload="random",
            policy="restricted-priority",
            seed=seed,
            side=side,
            workload_params=(("k", k),),
            max_steps=int(theorem20_bound(side, k)) + 1,
        )
        for side, k in grid
        for seed in SEEDS
    ]
    rows = []
    for (side, k), points in zip(grid, campaign_points(specs, len(SEEDS))):
        times = []
        for point in points:
            assert point.result.completed, "Theorem 20 bound exceeded!"
            times.append(point.result.total_steps)
        summary = summarize(times)
        bound = theorem20_bound(side, k)
        rows.append(
            [
                side,
                k,
                summary.mean,
                summary.maximum,
                bound,
                summary.maximum / bound,
            ]
        )
    return rows


def test_e1_theorem20_bound(benchmark):
    rows = once(benchmark, _sweep)
    emit_table(
        "E1",
        "Theorem 20 — T vs 8*sqrt(2)*n*sqrt(k) (restricted-priority)",
        ["n", "k", "T mean", "T max", "bound", "max/bound"],
        rows,
        notes=(
            "All runs complete within the bound; the ratio stays far "
            "below 1, matching the paper's worst-case-vs-practice gap."
        ),
    )
    assert all(row[5] <= 1.0 for row in rows)
