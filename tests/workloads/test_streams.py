"""The batch generators' RNG streams are pinned.

Every experiment table, golden fixture and benchmark digest starts
from a generated pair list, so a change to the generators (or to the
mesh queries they make per draw, such as ``degree`` for the capacity
check) must leave each draw, and so each list, exactly as it was.  The
digests are sha256 over ``repr`` of the ``(source, destination)``
list.
"""

import hashlib

import pytest

from repro.mesh.hypercube import Hypercube
from repro.mesh.topology import Mesh
from repro.mesh.torus import Torus
from repro.workloads import (
    local_cluster,
    random_many_to_many,
    saturated_load,
    scattered_sparse,
    single_target,
)

CASES = [
    pytest.param(
        lambda: random_many_to_many(Mesh(2, 8), 100, seed=1),
        100,
        "f8bf82de8ff97c9bcbb509821519b90ce4f8cd8d0c47a8d1dcb7ea5e193333ac",
        id="random-mesh2x8-k100",
    ),
    pytest.param(
        # Every slot of the injection capacity: the capacity check
        # rejects draws until only free origins remain.
        lambda: random_many_to_many(Mesh(2, 8), 224, seed=2),
        224,
        "fe5d27430134bc96fec9539ec6fc6aa49e6ff5de10f522b88ed51b00ac541a60",
        id="random-mesh2x8-k224",
    ),
    pytest.param(
        lambda: random_many_to_many(Torus(2, 5), 60, seed=3),
        60,
        "8fb56e25a7e80af59c5375c39314d002a00077daaa873e7fe5f6c9ab87c4ae34",
        id="random-torus2x5-k60",
    ),
    pytest.param(
        lambda: random_many_to_many(Hypercube(4), 40, seed=4),
        40,
        "959c364309650a51a6e52a6d7e5e2da4ef6e0dd2d303c72feb56f72b57a2dabf",
        id="random-cube4-k40",
    ),
    pytest.param(
        lambda: random_many_to_many(Mesh(3, 4), 150, seed=5),
        150,
        "51ecfb08636b9524811a91d287e20b3792a8caf455178da1fddca62acf705ead",
        id="random-mesh3x4-k150",
    ),
    pytest.param(
        lambda: saturated_load(Mesh(2, 6), 3, seed=6),
        104,
        "d5d30e2cd6b1b3868bd9d3796d1f93c7a1e3e0ce9979f03357e84a108b351671",
        id="saturated-mesh2x6-3x",
    ),
    pytest.param(
        lambda: saturated_load(Mesh(3, 3), 4, seed=7),
        100,
        "2b3a5daa1ae2f9df326da3e392247a1439c12ab38d1f76861b74b7415e16f44b",
        id="saturated-mesh3x3-4x",
    ),
    pytest.param(
        lambda: single_target(Mesh(2, 7), 80, seed=8),
        80,
        "d6ccf380003c12233a6e17dcd0bad57a5ecc3ff09c2849f783558315cbf574db",
        id="single-target-mesh2x7-k80",
    ),
    pytest.param(
        lambda: single_target(Mesh(2, 4), 40, target=(1, 1), seed=9),
        40,
        "1140eadbc58638aa5afac0d26e5d0666805f4afb9b92b49896192b7590c09ea3",
        id="single-target-corner-mesh2x4-k40",
    ),
    pytest.param(
        lambda: scattered_sparse(Mesh(2, 16), 12, seed=10),
        12,
        "60a74777ec150aeae6c454b7f00a2cd8bb1a31485062d38beb0d1339dbe4de8d",
        id="scattered-mesh2x16-k12",
    ),
    pytest.param(
        lambda: local_cluster(Mesh(2, 10), 20, box_side=3, seed=11),
        20,
        "64b518a8d0b09c5431cde2906de7368f3ea9a8438a08a753346a1d07d06d50cd",
        id="cluster-mesh2x10-b3-k20",
    ),
]


def _digest(problem):
    pairs = [(r.source, r.destination) for r in problem.requests]
    return hashlib.sha256(repr(pairs).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("make, k, digest", CASES)
def test_pair_list_is_unchanged(make, k, digest):
    problem = make()
    assert problem.k == k
    assert _digest(problem) == digest
