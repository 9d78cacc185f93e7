"""Shared scenario factories for the snapshot differential suite.

One factory per engine kind; every factory takes ``backend`` plus the
checkpoint hooks and builds a *fresh, identically configured* engine
each call — the property resume depends on.  The dynamic engines run
to :data:`HORIZON`; a resumed dynamic engine must be driven with
``HORIZON - engine.time`` remaining steps (``run(steps)`` is relative).
"""

import json
import os

from repro.algorithms import (
    DimensionOrderPolicy,
    RestrictedPriorityPolicy,
    make_policy,
)
from repro.core.buffered_engine import BufferedEngine
from repro.core.engine import HotPotatoEngine
from repro.core.validation import validators_for
from repro.dynamic import BernoulliTraffic, BufferedDynamicEngine, DynamicEngine
from repro.faults import random_schedule
from repro.mesh.topology import Mesh
from repro.workloads import random_many_to_many

HORIZON = 20
GOLDEN_EVERY = 4
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden.json")
#: The same scenarios captured under snapshot schema v1, kept to pin
#: the v1 read path.
GOLDEN_V1_PATH = os.path.join(os.path.dirname(__file__), "golden_v1.json")

BATCH_KINDS = ("hot-potato", "buffered")
DYNAMIC_KINDS = ("dynamic", "buffered-dynamic")
BACKENDS = ("object", "soa")

ALL_COMBOS = [
    (kind, backend)
    for kind in BATCH_KINDS + DYNAMIC_KINDS
    for backend in BACKENDS
]


def batch_schedule(mesh):
    """A non-empty seeded fault schedule for the batch scenario mesh."""
    schedule = random_schedule(
        mesh,
        seed=3,
        link_faults=2,
        node_faults=1,
        packet_drops=1,
        horizon=32,
        max_window=16,
    )
    assert not schedule.is_empty
    return schedule


def make_engine(
    kind,
    backend,
    *,
    seed=11,
    every=None,
    on_checkpoint=None,
    faults=None,
    side=6,
    k=30,
):
    """Build a fresh engine of ``kind`` on ``backend``."""
    if kind in BATCH_KINDS:
        mesh = Mesh(2, side)
        problem = random_many_to_many(mesh, k=k, seed=5)
        if kind == "buffered":
            return BufferedEngine(
                problem,
                DimensionOrderPolicy(),
                seed=seed,
                backend=backend,
                faults=faults,
                checkpoint_every=every,
                on_checkpoint=on_checkpoint,
            )
        policy = make_policy("restricted-priority")
        return HotPotatoEngine(
            problem,
            policy,
            seed=seed,
            validators=validators_for(policy, strict=False),
            backend=backend,
            faults=faults,
            checkpoint_every=every,
            on_checkpoint=on_checkpoint,
        )
    mesh = Mesh(2, 5)
    traffic = BernoulliTraffic(0.1)
    cls = BufferedDynamicEngine if kind == "buffered-dynamic" else DynamicEngine
    policy = (
        DimensionOrderPolicy()
        if kind == "buffered-dynamic"
        else RestrictedPriorityPolicy()
    )
    return cls(
        mesh,
        policy,
        traffic,
        seed=seed,
        warmup=3,
        backend=backend,
        faults=faults,
        checkpoint_every=every,
        on_checkpoint=on_checkpoint,
    )


def drive(engine, kind):
    """Run ``engine`` to the scenario's end; returns the run outcome."""
    if kind in BATCH_KINDS:
        return engine.run()
    return engine.run(HORIZON - engine.time)


def roundtrip(payload):
    """JSON round-trip, exactly like the snapshot file and the store."""
    return json.loads(json.dumps(payload))


def load_golden(path=GOLDEN_PATH):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
