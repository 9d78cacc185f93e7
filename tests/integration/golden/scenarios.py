"""Golden-fixture scenarios shared by the regeneration script and tests.

The fixture file ``engines.json`` was captured from the *legacy*
per-engine step loops (the hand-rolled ``BufferedEngine._start``/
``_route``/``_move`` clones that predate ``repro.core.kernel``)
immediately before they were deleted.  The tests in
``tests/integration/test_golden_engines.py`` re-run every scenario on
the current code and require identical results, so the kernel refactor
is pinned to the exact observable behavior of the engines it replaced
— including policy RNG streams (the ``randomized-greedy`` scenarios)
and injection ordering.

Regenerate (only when a behavior change is intended and documented)::

    PYTHONPATH=src python tests/integration/golden/regenerate.py
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Tuple

from repro.algorithms import (
    DimensionOrderPolicy,
    PlainGreedyPolicy,
    RandomizedGreedyPolicy,
    RestrictedPriorityPolicy,
)
from repro.core.buffered_engine import BufferedEngine
from repro.dynamic import (
    BernoulliTraffic,
    BufferedDynamicEngine,
    DynamicEngine,
    HotSpotTraffic,
    ScriptedTraffic,
)
from repro.mesh.topology import Mesh
from repro.mesh.torus import Torus
from repro.workloads import random_many_to_many, transpose
from tests.dynamic.rows import RunRows, assert_stats_fold_rows

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "engines.json")


def _buffered_batch(
    mesh: Any, problem: Any, seed: int, backend: str = "object"
) -> Dict[str, Any]:
    """Run a batch through the store-and-forward engine; full snapshot."""
    engine = BufferedEngine(
        problem, DimensionOrderPolicy(), seed=seed, backend=backend
    )
    result = engine.run()
    return {
        "completed": result.completed,
        "total_steps": result.total_steps,
        "delivered": result.delivered,
        "max_buffer_seen": engine.max_buffer_seen,
        "outcomes": [
            [o.packet_id, o.delivered_at, o.hops, o.advances, o.deflections]
            for o in result.outcomes
        ],
    }


def _dynamic_snapshot(engine: Any, steps: int) -> Dict[str, Any]:
    """Run ``engine`` for ``steps`` and return everything it observably
    produced, as plain JSON: the per-step and per-delivery rows come
    from :class:`~tests.dynamic.rows.RunRows`, and the engine's
    statistics must be their fold."""
    rows = RunRows(engine)
    stats = engine.run(steps)
    assert_stats_fold_rows(stats, rows)
    return {
        "delivered_count": stats.delivered_count,
        "horizon": stats.horizon,
        "final_in_flight": stats.final_in_flight,
        "final_backlog": stats.final_backlog,
        "next_id": engine._source.next_id,
        "samples": [list(row) for row in rows.steps],
        "deliveries": [list(row) for row in rows.counted],
    }


def scenario_buffered_random(backend: str = "object") -> Dict[str, Any]:
    mesh = Mesh(2, 8)
    return _buffered_batch(
        mesh, random_many_to_many(mesh, k=60, seed=13), 0, backend
    )


def scenario_buffered_transpose(
    backend: str = "object",
) -> Dict[str, Any]:
    mesh = Mesh(2, 6)
    return _buffered_batch(mesh, transpose(mesh), 1, backend)


def scenario_buffered_odd_torus(
    backend: str = "object",
) -> Dict[str, Any]:
    mesh = Torus(2, 5)
    return _buffered_batch(
        mesh, random_many_to_many(mesh, k=20, seed=3), 2, backend
    )


def scenario_dynamic_restricted(
    backend: str = "object",
) -> Dict[str, Any]:
    engine = DynamicEngine(
        Mesh(2, 8),
        RestrictedPriorityPolicy(),
        BernoulliTraffic(0.2),
        seed=7,
        warmup=20,
        backend=backend,
    )
    return _dynamic_snapshot(engine, 150)


def scenario_dynamic_randomized(
    backend: str = "object",
) -> Dict[str, Any]:
    # RNG-stream sensitive: the policy consumes its private stream once
    # per node visit, so this pins the node visit order too.
    engine = DynamicEngine(
        Mesh(2, 6),
        RandomizedGreedyPolicy(),
        BernoulliTraffic(0.3),
        seed=11,
        warmup=10,
        backend=backend,
    )
    return _dynamic_snapshot(engine, 120)


def scenario_dynamic_hotspot(backend: str = "object") -> Dict[str, Any]:
    engine = DynamicEngine(
        Mesh(2, 6),
        PlainGreedyPolicy(),
        HotSpotTraffic(0.15, hot_fraction=0.3),
        seed=5,
        backend=backend,
    )
    return _dynamic_snapshot(engine, 100)


def scenario_buffered_dynamic_bernoulli(
    backend: str = "object",
) -> Dict[str, Any]:
    engine = BufferedDynamicEngine(
        Mesh(2, 8),
        DimensionOrderPolicy(),
        BernoulliTraffic(0.3),
        seed=9,
        warmup=20,
        backend=backend,
    )
    snapshot = _dynamic_snapshot(engine, 150)
    snapshot["max_queue_seen"] = engine.max_queue_seen
    return snapshot


def scenario_buffered_dynamic_scripted(
    backend: str = "object",
) -> Dict[str, Any]:
    traffic = ScriptedTraffic(
        [
            ((1, 1), 0, (5, 5)),
            ((1, 1), 0, (3, 2)),
            ((5, 5), 1, (1, 1)),
            ((2, 2), 4, (2, 5)),
        ]
    )
    engine = BufferedDynamicEngine(
        Mesh(2, 6), DimensionOrderPolicy(), traffic, seed=0, backend=backend
    )
    snapshot = _dynamic_snapshot(engine, 30)
    snapshot["max_queue_seen"] = engine.max_queue_seen
    return snapshot


SCENARIOS: List[Tuple[str, Callable[[], Dict[str, Any]]]] = [
    ("buffered_random", scenario_buffered_random),
    ("buffered_transpose", scenario_buffered_transpose),
    ("buffered_odd_torus", scenario_buffered_odd_torus),
    ("dynamic_restricted", scenario_dynamic_restricted),
    ("dynamic_randomized", scenario_dynamic_randomized),
    ("dynamic_hotspot", scenario_dynamic_hotspot),
    ("buffered_dynamic_bernoulli", scenario_buffered_dynamic_bernoulli),
    ("buffered_dynamic_scripted", scenario_buffered_dynamic_scripted),
]


def capture_all() -> Dict[str, Any]:
    return {name: build() for name, build in SCENARIOS}


def load_fixture() -> Dict[str, Any]:
    with open(FIXTURE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)
