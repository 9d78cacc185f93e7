"""Random many-to-many workloads.

The generic workload of the paper's main theorems: ``k`` packets with
random origins (respecting the out-degree capacity of Section 2) and
independent random destinations.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Tuple

from repro.core.problem import RoutingProblem
from repro.core.rng import RngLike, make_rng
from repro.exceptions import ConfigurationError
from repro.mesh.topology import Mesh
from repro.types import Node


def max_packets(mesh: Mesh) -> int:
    """Largest batch the mesh can host at time 0
    (sum of node out-degrees, i.e. the arc count)."""
    return mesh.num_arcs


def random_many_to_many(
    mesh: Mesh,
    k: int,
    seed: RngLike = 0,
    *,
    exclude_trivial: bool = True,
    name: Optional[str] = None,
) -> RoutingProblem:
    """``k`` packets, origins capacity-respecting, destinations uniform.

    Args:
        exclude_trivial: redraw destinations equal to the source, so
            every packet actually has to move (the paper's bounds are
            trivially insensitive to zero-distance packets).

    Raises:
        ConfigurationError: when ``k`` exceeds the mesh's injection
            capacity.
    """
    capacity = max_packets(mesh)
    if k > capacity:
        raise ConfigurationError(
            f"k={k} exceeds the mesh injection capacity {capacity}"
        )
    rng = make_rng(seed)
    nodes = list(mesh.nodes())
    used: Counter = Counter()
    pairs: List[Tuple[Node, Node]] = []
    while len(pairs) < k:
        source = rng.choice(nodes)
        if used[source] >= mesh.degree(source):
            continue
        destination = rng.choice(nodes)
        if exclude_trivial and destination == source:
            continue
        used[source] += 1
        pairs.append((source, destination))
    return RoutingProblem.from_pairs(
        mesh, pairs, name=name or f"random-k{k}"
    )


def saturated_load(
    mesh: Mesh,
    per_node: int,
    seed: RngLike = 0,
    *,
    name: Optional[str] = None,
) -> RoutingProblem:
    """Every node originates ``per_node`` packets to random destinations.

    ``per_node = 1`` is the full load of the Remark after Theorem 20
    (``k = n^2`` in 2-D, bound ``8 n^2``); ``per_node = 4`` on an
    interior-heavy mesh approaches the ``16 n^2`` case.  Nodes whose
    degree is below ``per_node`` (corners, edges) originate only as
    many packets as they can.
    """
    if per_node < 1:
        raise ValueError(f"per_node must be >= 1, got {per_node}")
    rng = make_rng(seed)
    nodes = list(mesh.nodes())
    pairs: List[Tuple[Node, Node]] = []
    for node in nodes:
        count = min(per_node, mesh.degree(node))
        for _ in range(count):
            destination = rng.choice(nodes)
            while destination == node:
                destination = rng.choice(nodes)
            pairs.append((node, destination))
    return RoutingProblem.from_pairs(
        mesh, pairs, name=name or f"saturated-{per_node}x"
    )
