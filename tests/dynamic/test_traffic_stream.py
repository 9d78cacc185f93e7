"""The traffic models' draw stream, pinned by digest.

Every packet id of a dynamic run, and with it every RNG-sensitive
routing decision downstream, follows from the order in which the
traffic models draw.  The digests below were captured from the models'
earlier per-node form (one ``arrivals(node, step)`` call per node per
step, nodes in ``mesh.nodes()`` order); the per-step
``arrivals(step)`` must reproduce them: the same ``(step, source,
destination)`` sequence, and the generator left in the same state.
"""

import hashlib
import random

import pytest

from repro.dynamic.injection import (
    BernoulliTraffic,
    HotSpotTraffic,
    ScriptedTraffic,
)
from repro.mesh.topology import Mesh
from repro.mesh.torus import Torus

MESHES = {
    "mesh2x8": lambda: Mesh(2, 8),
    "mesh2x16": lambda: Mesh(2, 16),
    "torus2x9": lambda: Torus(2, 9),
    "mesh3x5": lambda: Mesh(3, 5),
}
STEPS = 200
SEED = 11

#: (model, mesh, rate) -> first 16 hex digits of the stream's SHA-256.
DIGESTS = {
    ("bernoulli", "mesh2x8", 0.02): "287918eac6b7628f",
    ("hotspot", "mesh2x8", 0.02): "77a77ceca8527f99",
    ("bernoulli", "mesh2x8", 0.2): "2031737dce6ae86d",
    ("hotspot", "mesh2x8", 0.2): "640b8ded2ddb8af2",
    ("bernoulli", "mesh2x8", 0.35): "82d13a3a04fd6c0f",
    ("hotspot", "mesh2x8", 0.35): "1da5a55560b487d6",
    ("bernoulli", "mesh2x16", 0.02): "a61fdacdaf896922",
    ("hotspot", "mesh2x16", 0.02): "e88cf73cdbc3cd61",
    ("bernoulli", "mesh2x16", 0.2): "7ba603961e1c8dae",
    ("hotspot", "mesh2x16", 0.2): "0862ca2cbfcd866a",
    ("bernoulli", "mesh2x16", 0.35): "38354d9edbf9967a",
    ("hotspot", "mesh2x16", 0.35): "12835feb29939eb5",
    ("bernoulli", "torus2x9", 0.02): "5f304cf4e6a6f587",
    ("hotspot", "torus2x9", 0.02): "9ae5c9becc10eca2",
    ("bernoulli", "torus2x9", 0.2): "f163c9b7ec81e28b",
    ("hotspot", "torus2x9", 0.2): "dfac22782ad08613",
    ("bernoulli", "torus2x9", 0.35): "d42617a326426912",
    ("hotspot", "torus2x9", 0.35): "b050854413ca1a7f",
    ("bernoulli", "mesh3x5", 0.02): "232d66301fc4c74e",
    ("hotspot", "mesh3x5", 0.02): "a1f386b9c539b910",
    ("bernoulli", "mesh3x5", 0.2): "2f92e51d5284787c",
    ("hotspot", "mesh3x5", 0.2): "74d680757cfc67cc",
    ("bernoulli", "mesh3x5", 0.35): "0443555a2c91f34f",
    ("hotspot", "mesh3x5", 0.35): "6679d392c57e742e",
}

#: Includes zero-distance entries ((1, 1) -> (1, 1), (8, 8) -> (8, 8)),
#: which the model reports and the injection source discards.
SCRIPT = [
    ((1, 1), 0, (3, 3)),
    ((1, 1), 0, (1, 1)),
    ((2, 5), 0, (1, 1)),
    ((4, 4), 2, (1, 1)),
    ((1, 1), 2, (8, 8)),
    ((8, 8), 3, (8, 8)),
]
SCRIPT_DIGEST = "1e29792290228c6f"


def _digest(traffic, mesh):
    rng = random.Random(SEED)
    traffic.prepare(mesh, rng)
    stream = hashlib.sha256()
    for step in range(STEPS):
        for source, destination in traffic.arrivals(step):
            stream.update(repr((step, source, destination)).encode())
    # Nothing drawn beyond what the demand used.
    stream.update(repr(rng.getrandbits(32)).encode())
    return stream.hexdigest()[:16]


def _model(name, rate):
    if name == "bernoulli":
        return BernoulliTraffic(rate)
    return HotSpotTraffic(rate)


@pytest.mark.parametrize("model, mesh, rate", sorted(DIGESTS))
def test_stream_matches_per_node_digest(model, mesh, rate):
    assert _digest(_model(model, rate), MESHES[mesh]()) == DIGESTS[
        (model, mesh, rate)
    ]


def test_scripted_stream_matches_per_node_digest():
    assert _digest(ScriptedTraffic(SCRIPT), Mesh(2, 8)) == SCRIPT_DIGEST


def test_scripted_reports_zero_distance_demand():
    traffic = ScriptedTraffic(SCRIPT)
    traffic.prepare(Mesh(2, 8), random.Random(SEED))
    assert traffic.arrivals(0) == [
        ((1, 1), (3, 3)),
        ((1, 1), (1, 1)),
        ((2, 5), (1, 1)),
    ]
    assert traffic.arrivals(3) == [((8, 8), (8, 8))]
