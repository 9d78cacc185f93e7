"""Good directions (Definition 5), worked out on every query.

``good_directions_tuple`` is per-family coordinate arithmetic on the
mesh, the torus and the hypercube, and a live-arc filter on a fault
view.  These tests hold every answer to the definition by brute force
(the directions whose neighbour exists and is one step closer) and
check that answering queries leaves no per-(node, destination) state
behind: a mesh, a fault mask and a campaign worker's cached mesh stay
bounded by the node count however many pairs they are asked about.
"""

import pytest

from repro.campaign.spec import CaseSpec
from repro.campaign.worker import execute_case, mesh_for
from repro.faults import ActiveFaults, FaultSchedule
from repro.faults.schedule import LinkFault, NodeFault
from repro.faults.state import FaultMask, FaultView
from repro.mesh.hypercube import Hypercube
from repro.mesh.topology import Mesh
from repro.mesh.torus import Torus

#: One factory per family and parity: the box mesh in two and three
#: dimensions, an odd torus (a deflection can keep the distance), an
#: even torus (the midpoint offset has two good directions) and the
#: hypercube.
FAMILIES = {
    "mesh-2x5": lambda: Mesh(2, 5),
    "mesh-3x4": lambda: Mesh(3, 4),
    "torus-2x5": lambda: Torus(2, 5),
    "torus-2x6": lambda: Torus(2, 6),
    "hypercube-4": lambda: Hypercube(4),
}

#: The fault regime: one down link and one down node apart from it.
DOWN_LINK = ((2, 2), (2, 3))
DOWN_NODE = (4, 4)


def brute_force_good(mesh, node, destination):
    """Definition 5 read literally, in canonical direction order."""
    here = mesh.distance(node, destination)
    good = []
    for direction in mesh.directions:
        other = mesh.neighbor(node, direction)
        if other is not None and mesh.distance(other, destination) == here - 1:
            good.append(direction)
    return tuple(good)


def every_pair(mesh):
    nodes = list(mesh.nodes())
    return [(a, b) for a in nodes for b in nodes]


def faulted_view(mesh):
    faults = ActiveFaults(
        mesh,
        FaultSchedule(
            events=(
                LinkFault(a=DOWN_LINK[0], b=DOWN_LINK[1], start=0),
                NodeFault(node=DOWN_NODE, start=0),
            )
        ),
    )
    faults.advance(0)
    return faults.view


def container_sizes(obj):
    """Sizes of the sized containers an object holds in its instance
    dict or its slots."""
    if hasattr(obj, "__dict__"):
        values = list(vars(obj).values())
    else:
        values = [getattr(obj, slot) for slot in type(obj).__slots__]
    return [
        len(value)
        for value in values
        if isinstance(value, (dict, list, set, tuple))
    ]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_good_directions_match_definition_5(family):
    mesh = FAMILIES[family]()
    for node, destination in every_pair(mesh):
        expected = brute_force_good(mesh, node, destination)
        assert mesh.good_directions_tuple(node, destination) == expected
        assert mesh.good_directions(node, destination) == list(expected)
        assert mesh.num_good_directions(node, destination) == len(expected)
        assert mesh.is_restricted(node, destination) == (len(expected) == 1)
        assert mesh.bad_directions(node, destination) == [
            d for d in mesh.directions if d not in expected
        ]
        assert mesh.good_arcs(node, destination) == [
            (node, mesh.neighbor(node, d)) for d in expected
        ]


@pytest.mark.parametrize("family", ["mesh-2x5", "torus-2x6"])
def test_fault_view_counts_live_arcs_only(family):
    mesh = FAMILIES[family]()
    view = faulted_view(mesh)
    assert DOWN_LINK[1] not in view.neighbors(DOWN_LINK[0])
    assert view.node_arcs(DOWN_NODE).degree == 0
    filtered = 0
    for node, destination in every_pair(mesh):
        expected = brute_force_good(view, node, destination)
        assert view.good_directions_tuple(node, destination) == expected
        assert view.num_good_directions(node, destination) == len(expected)
        assert view.is_restricted(node, destination) == (len(expected) == 1)
        if expected != mesh.good_directions_tuple(node, destination):
            filtered += 1
    # The mask removed good directions somewhere (so the filter ran),
    # and a down node has none.
    assert filtered > 0
    assert view.good_directions_tuple(DOWN_NODE, (1, 1)) == ()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_queries_leave_no_per_pair_state(family):
    mesh = FAMILIES[family]()
    for node, destination in every_pair(mesh):
        mesh.good_directions_tuple(node, destination)
        mesh.node_arcs(node)
    assert max(container_sizes(mesh)) <= mesh.num_nodes


@pytest.mark.parametrize("family", ["mesh-2x5", "torus-2x6"])
def test_fault_mask_leaves_no_per_pair_state(family):
    mesh = FAMILIES[family]()
    mask = FaultMask(mesh)
    mask.update({DOWN_NODE}, {DOWN_LINK, DOWN_LINK[::-1]})
    view = FaultView(mask)
    for node, destination in every_pair(mesh):
        view.good_directions_tuple(node, destination)
    assert len(mask.arc_cache) == mesh.num_nodes
    assert max(container_sizes(mask)) <= mesh.num_nodes
    assert max(container_sizes(mesh)) <= mesh.num_nodes


def test_campaign_worker_mesh_stays_bounded():
    # Strict validation keeps these cases on the object loop, which
    # asks for good directions at every occupied node every step.
    specs = [
        CaseSpec(
            topology="mesh",
            workload="random",
            policy="restricted-priority",
            seed=seed,
            side=12,
            workload_params=(("k", 72),),
        )
        for seed in range(10)
    ]
    for spec in specs:
        assert spec.strict_validation
        execute_case(spec)
    mesh = mesh_for(specs[0])
    assert max(container_sizes(mesh)) <= mesh.num_nodes
