"""E13 — scaling shape: fitted exponents of T(n, k).

Sweeps mesh side and batch size, fits T = c * n^a * k^b in log space,
and compares against the Theorem 20 bound shape (a=1, b=0.5).  The
measured exponents quantify the gap between the worst-case analysis
and typical-load behavior (measured times scale roughly like the
trivial distance term, far below the bound's k-dependence).
"""

from bench_util import campaign_points, emit_table, once

from repro.analysis.regression import fit_power_law, fit_two_factor
from repro.analysis.stats import summarize
from repro.campaign import CaseSpec

SIDES = (8, 12, 16, 24)
LOADS = (0.25, 0.5, 1.0, 2.0)
SEEDS = (0, 1)


def _run():
    grid = [
        (side, max(1, int(load * side * side)))
        for side in SIDES
        for load in LOADS
    ]
    specs = [
        CaseSpec(
            topology="mesh",
            workload="random",
            policy="restricted-priority",
            seed=seed,
            side=side,
            workload_params=(("k", k),),
        )
        for side, k in grid
        for seed in SEEDS
    ]
    rows = []
    ns, ks, ts = [], [], []
    for (side, k), points in zip(grid, campaign_points(specs, len(SEEDS))):
        times = []
        for point in points:
            assert point.result.completed
            times.append(point.result.total_steps)
        mean = summarize(times).mean
        rows.append([side, k, mean])
        ns.append(side)
        ks.append(k)
        ts.append(mean)
    two_factor = fit_two_factor(ns, ks, ts)
    # Fixed-n slice for the k exponent alone (largest mesh).
    slice_k = [(k, t) for n, k, t in zip(ns, ks, ts) if n == SIDES[-1]]
    k_fit = fit_power_law([k for k, _ in slice_k], [t for _, t in slice_k])
    return rows, two_factor, k_fit


def test_e13_scaling_exponents(benchmark):
    rows, two_factor, k_fit = once(benchmark, _run)
    emit_table(
        "E13",
        "Scaling sweep — mean T over (n, k)",
        ["n", "k", "T mean"],
        rows,
        notes=(
            f"two-factor fit: {two_factor}\n"
            f"k-exponent at n={SIDES[-1]}: {k_fit}\n"
            "Theorem 20 bound shape: T = 11.3 * n^1.0 * k^0.5 — the "
            "measured exponents sit below it on random loads (the "
            "n-term dominates; k enters only through congestion)."
        ),
    )
    # Shape checks: time grows ~linearly in n, sublinearly in k, and
    # strictly slower than the bound's k^0.5 + its constant.
    assert 0.7 <= two_factor.n_exponent <= 1.4
    assert 0.0 <= two_factor.k_exponent <= 0.5
    assert two_factor.predict(16, 256) <= 11.3 * 16 * 16
