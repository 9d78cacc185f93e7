"""A long dynamic run checkpoints in bounded space.

A dynamic snapshot carries the live packets, the source backlog and
the statistics' running aggregates; none of them grows with the
horizon of a run below saturation, so neither may the checkpoint.
"""

import json

import pytest

from repro.algorithms import RestrictedPriorityPolicy
from repro.dynamic import BernoulliTraffic, DynamicEngine
from repro.mesh.topology import Mesh

EVERY = 1000
HORIZON = 8000


@pytest.mark.slow
def test_checkpoints_stay_flat_over_the_horizon():
    payloads = []
    engine = DynamicEngine(
        Mesh(2, 6),
        RestrictedPriorityPolicy(),
        BernoulliTraffic(0.25),
        seed=1,
        checkpoint_every=EVERY,
        on_checkpoint=payloads.append,
    )
    engine.run(HORIZON)
    payloads.append(engine.snapshot())
    assert [p["step"] for p in payloads] == list(
        range(EVERY, HORIZON + 1, EVERY)
    )
    sizes = [len(json.dumps(p, separators=(",", ":"))) for p in payloads]
    first = sizes[0]
    for step, size in zip(range(EVERY, HORIZON + 1, EVERY), sizes):
        assert 0.75 * first <= size <= 1.25 * first, (step, sizes)
