"""Engine micro-benchmarks: simulator throughput.

Not a paper experiment — these measure the reproduction itself
(packet-steps per second of the hot-potato engine with and without
strict validation, and with the lean fast-path loop on and off), so
regressions in the simulator's performance are visible in CI.

``benchmarks/bench_report.py`` runs the same configurations outside
pytest and appends packet-steps/sec to the ``BENCH_engine.json``
trajectory at the repo root.
"""

from repro.algorithms import RestrictedPriorityPolicy
from repro.core.engine import HotPotatoEngine
from repro.core.validation import validators_for
from repro.mesh.topology import Mesh
from repro.workloads import random_many_to_many


def _simulate(strict, fast_path=None):
    mesh = Mesh(2, 16)
    problem = random_many_to_many(mesh, k=256, seed=77)
    policy = RestrictedPriorityPolicy()
    engine = HotPotatoEngine(
        problem,
        policy,
        seed=77,
        validators=validators_for(policy, strict=strict),
        fast_path=fast_path,
        backend="object",
    )
    result = engine.run()
    assert result.completed
    return result


def test_perf_engine_strict_validation(benchmark):
    """The fully validated loop (greedy + restricted-priority checks)."""
    result = benchmark(lambda: _simulate(strict=True))
    assert result.completed


def test_perf_engine_fast_path(benchmark):
    """Capacity-only validation on the lean loop (fast_path asserts it)."""
    result = benchmark(lambda: _simulate(strict=False, fast_path=True))
    assert result.completed


def test_perf_engine_instrumented(benchmark):
    """Capacity-only validation on the instrumented loop.

    The gap between this and ``test_perf_engine_fast_path`` is exactly
    what the fast path buys (same validators, same results).
    """
    result = benchmark(lambda: _simulate(strict=False, fast_path=False))
    assert result.completed


def test_perf_step_cost_scales_with_in_flight(benchmark):
    """One engine step on a saturated 32x32 mesh (2048 packets)."""
    mesh = Mesh(2, 32)
    problem = random_many_to_many(mesh, k=2048, seed=78)
    policy = RestrictedPriorityPolicy()

    def run_once():
        engine = HotPotatoEngine(
            problem,
            policy,
            seed=78,
            validators=validators_for(policy, strict=False),
        )
        engine.step()
        return engine

    engine = benchmark(run_once)
    assert engine.time == 1
