"""The numpy step's decision table answers exactly what ``resolve_node`` does.

The numpy step takes every node holding two or more rows from a
:class:`~repro.core.soa.kernel.DecisionTable` that only
:func:`~repro.core.soa.conflict.resolve_node` fills.  These tests go
through :meth:`DecisionTable.resolve_nodes`, the call the kernel makes,
and hold each node's answer to ``resolve_node`` on the same rows, once
from a cold table (every node solved from its rows) and once warm
(every keyed node served from the table):

* exhaustively over every 2-D node with 2 to 4 rows whose good masks
  hold at most one direction per axis, for every out mask of a 2-D
  mesh or torus node, under Kuhn and first-fit with ``ordered``
  deflection — over-full nodes included, which must come back invalid;
* on hypothesis-drawn nodes for ``reverse`` deflection (entry
  directions in the key), for 3-D nodes and for 6-D nodes, whose
  larger counts are too wide for a key and are solved uncached.

The run-level tests pin what the table changes about a run: an
over-full node still raises on every loop, even once its answer is
stored, and a warm table steps a near-saturation dynamic run without
calling ``resolve_node``.  The object and columnar halves of the
over-full test need no numpy; everything else skips without it.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import RestrictedPriorityPolicy, make_policy
from repro.core.kernel import StepKernel
from repro.core.packet import Packet
from repro.core.soa import SoaKernel, _compat, adapter_for
from repro.core.soa import kernel as soa_kernel
from repro.core.soa.conflict import resolve_node
from repro.core.soa.kernel import DecisionTable
from repro.dynamic import BernoulliTraffic, DynamicEngine
from repro.exceptions import ArcAssignmentError
from repro.mesh.tables import arc_tables_for
from repro.mesh.topology import Mesh

np = _compat.np

needs_numpy = pytest.mark.skipif(
    np is None, reason="the decision table is numpy state"
)


def _resolve(table, nodes):
    """One ``resolve_nodes`` call with each ``(masks, entries,
    out_mask)`` of ``nodes`` as one occupied node, in that order.

    Returns each node's directions (priority order) and the index of
    the first invalid node, -1 for none.
    """
    counts = [len(masks) for masks, _, _ in nodes]
    starts = [0, *itertools.accumulate(counts)][:-1]
    good = [mask for masks, _, _ in nodes for mask in masks]
    entry = [value for _, entries, _ in nodes for value in entries]
    dirs, invalid = table.resolve_nodes(
        np,
        np.arange(len(good)),
        np.asarray(good, dtype=np.int64),
        np.asarray(entry, dtype=np.int64),
        np.asarray(starts, dtype=np.int64),
        np.asarray(counts, dtype=np.int64),
        np.asarray([out for _, _, out in nodes], dtype=np.int64),
        max(counts),
    )
    flat = dirs.tolist()
    return [flat[s : s + c] for s, c in zip(starts, counts)], invalid


def _reference(table, masks, entries, out_mask):
    """``resolve_node`` on one node's rows; None when incomplete."""
    rows = range(len(masks))
    assignment = resolve_node(
        rows,
        rows,
        masks,
        entries,
        out_mask,
        table.first_fit,
        table.deflection,
        None,
    )
    if len(assignment) != len(masks):
        return None
    return [assignment[row] for row in rows]


def _check(table, nodes):
    """Cold, then warm: every valid node equals the reference, and
    the reported invalid node is the first incomplete one."""
    expected = [_reference(table, *node) for node in nodes]
    first_invalid = next(
        (index for index, answer in enumerate(expected) if answer is None),
        -1,
    )
    for _ in range(2):
        got, invalid = _resolve(table, nodes)
        assert invalid == first_invalid
        for answer, directions in zip(expected, got):
            if answer is not None:
                assert directions == answer


def _axis_options(out_mask, axis):
    """Good-mask choices on one axis: none, or one direction the
    node has an arc in."""
    return [0] + [
        1 << direction
        for direction in (2 * axis, 2 * axis + 1)
        if out_mask >> direction & 1
    ]


#: Out masks of 2-D mesh and torus nodes: each axis keeps its +, its
#: - or both arcs (corner, edge and interior nodes; torus nodes).
OUT_MASKS_2D = [
    x | y << 2 for x in (0b01, 0b10, 0b11) for y in (0b01, 0b10, 0b11)
]


def _nodes_2d():
    """Every 2-D node with 2 to 4 rows: ``(valid, overfull)``."""
    valid, overfull = [], []
    for out_mask in OUT_MASKS_2D:
        masks = [
            x | y
            for x in _axis_options(out_mask, 0)
            for y in _axis_options(out_mask, 1)
            if x | y
        ]
        for count in (2, 3, 4):
            for rows in itertools.product(masks, repeat=count):
                node = (list(rows), [-1] * count, out_mask)
                full = count > bin(out_mask).count("1")
                (overfull if full else valid).append(node)
    return valid, overfull


@needs_numpy
@pytest.mark.parametrize("first_fit", (False, True), ids=("kuhn", "first-fit"))
def test_every_2d_key_matches_resolve_node(first_fit):
    table = DecisionTable(np, 4, first_fit, "ordered")
    valid, overfull = _nodes_2d()
    assert len(valid) == 5308 and len(overfull) == 2932
    _check(table, valid)
    # Over-full nodes are stored as invalid and served as invalid.
    _resolve(table, overfull)
    stored = len(table)
    for node in overfull:
        assert _reference(table, *node) is None
        assert _resolve(table, [node])[1] == 0
    assert len(table) == stored == len(valid) + len(overfull)


@needs_numpy
def test_pending_answers_are_served_then_inserted(monkeypatch):
    # A table past SMALL_TABLE keys holds new answers in ``pending``
    # until they number a sixteenth of it.
    monkeypatch.setattr(soa_kernel, "SMALL_TABLE", 0)
    table = DecisionTable(np, 4, False, "ordered")
    valid, _ = _nodes_2d()
    _check(table, valid[:300])
    assert len(table) == 300 and not table.pending
    _check(table, valid[300:310])
    assert len(table) == 310 and len(table.pending) == 10
    # Served from ``pending`` without solving again.
    real, calls = soa_kernel.resolve_node, []
    monkeypatch.setattr(
        soa_kernel, "resolve_node", lambda *args: calls.append(args)
    )
    _resolve(table, valid[300:310])
    assert calls == []
    monkeypatch.setattr(soa_kernel, "resolve_node", real)
    table.flush(np)
    assert len(table) == 310 and not table.pending
    assert (np.diff(table.keys) > 0).all()
    _check(table, valid[:310])


@needs_numpy
@pytest.mark.parametrize("deflection", ("ordered", "reverse"))
def test_lone_row_without_good_direction(deflection):
    # A packet at its destination never steps, but the table still
    # answers a lone row with no good direction as resolve_node does.
    table = DecisionTable(np, 4, False, deflection)
    _check(table, [([0b0000], [3], 0b1111), ([0b0001], [1], 0b1111)])
    _check(table, [([0b0000], [-1], 0b0101), ([0b0000], [2], 0b1010)])


@st.composite
def _nodes(draw, dimension):
    """Occupied nodes of one dimension: any out mask, 1 to
    popcount + 1 rows, good masks any subset of the out mask (a torus
    with an even side has both directions of an axis good), entries
    any direction or -1."""
    num_directions = 2 * dimension
    nodes = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        out_mask = 0
        for axis in range(dimension):
            arcs = draw(st.sampled_from((0b01, 0b10, 0b11)))
            out_mask |= arcs << 2 * axis
        count = draw(
            st.integers(min_value=1, max_value=bin(out_mask).count("1") + 1)
        )
        masks = [
            draw(st.integers(min_value=0, max_value=out_mask)) & out_mask
            for _ in range(count)
        ]
        entries = [
            draw(st.integers(min_value=-1, max_value=num_directions - 1))
            for _ in range(count)
        ]
        nodes.append((masks, entries, out_mask))
    # Repeat some nodes so one call meets the same key twice.
    nodes.extend(draw(st.lists(st.sampled_from(nodes), max_size=4)))
    return nodes


@needs_numpy
@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    dimension=st.sampled_from((2, 3, 6)),
    first_fit=st.booleans(),
    deflection=st.sampled_from(("ordered", "reverse")),
)
def test_drawn_keys_match_resolve_node(data, dimension, first_fit, deflection):
    table = DecisionTable(np, 2 * dimension, first_fit, deflection)
    _check(table, data.draw(_nodes(dimension)))


@needs_numpy
def test_wide_nodes_are_never_stored():
    # Six rows of 12-bit masks cannot share one int64 key.
    table = DecisionTable(np, 12, False, "ordered")
    assert table.max_rows < 6
    out_mask = 0b010101010101
    node = ([1 << 2 * axis for axis in range(6)], [-1] * 6, out_mask)
    _check(table, [node])
    assert len(table) == 0


@needs_numpy
def test_wide_node_never_takes_a_stored_answer():
    # Seventeen rows overflow the 4-bit count into the out-mask field,
    # so this over-full node's clipped key equals the stored key of a
    # lone row at the same node.  It must still be solved, and fail.
    table = DecisionTable(np, 4, False, "ordered")
    assert table.max_rows < 17 < 1 << table.count_bits + 1
    lone = ([0], [-1], 0b0001)
    overfull = ([0] * 17, [-1] * 17, 0b0001)
    assert _resolve(table, [lone]) == ([[0]], -1)
    assert _resolve(table, [overfull])[1] == 0


# ----------------------------------------------------------------------
# Run level
# ----------------------------------------------------------------------

#: Five packets at an interior node of ``Mesh(2, 6)``, which has four
#: out arcs.
NODE = (3, 3)
DESTINATIONS = [(6, 6), (1, 1), (6, 1), (1, 6), (3, 6)]


def _overfull_kernel():
    mesh = Mesh(2, 6)
    policy = RestrictedPriorityPolicy()
    kernel = StepKernel(mesh, policy)
    kernel.seed_packets(
        [
            Packet(id=index, source=NODE, destination=destination)
            for index, destination in enumerate(DESTINATIONS)
        ],
        [mesh.distance(NODE, destination) for destination in DESTINATIONS],
    )
    return kernel, adapter_for(policy, buffered=False, has_injection=False)


def _raises_at_node(run):
    with pytest.raises(ArcAssignmentError) as caught:
        run()
    message = str(caught.value)
    assert message.startswith("step 0: ")
    assert str(NODE) in message


class TestOverfullNode:
    def test_object_loop_raises(self):
        kernel, _ = _overfull_kernel()
        _raises_at_node(lambda: kernel.run_lean(1))

    def test_columnar_loop_raises(self, monkeypatch):
        kernel, adapter = _overfull_kernel()
        monkeypatch.setattr(_compat, "np", None)
        soa = SoaKernel(kernel, adapter)
        _raises_at_node(lambda: soa.run(1))

    @needs_numpy
    def test_numpy_step_raises_every_time(self, monkeypatch):
        monkeypatch.setattr(soa_kernel, "VECTOR_MIN_ROWS", 1)
        # The second run meets the stored invalid answer.
        for _ in range(2):
            kernel, adapter = _overfull_kernel()
            soa = SoaKernel(kernel, adapter)
            assert soa.vectorized
            _raises_at_node(lambda: soa.run(1))


def _near_saturation_run():
    engine = DynamicEngine(
        Mesh(2, 16),
        make_policy("restricted-priority"),
        BernoulliTraffic(0.2),
        seed=3,
        checkpoint_every=50,
        on_checkpoint=lambda payload: None,
    )
    engine.run(200)
    assert engine.backend_used == "soa"
    return engine


@needs_numpy
def test_warm_table_takes_no_python_per_node(monkeypatch):
    first = _near_saturation_run()
    calls = []
    real = soa_kernel.resolve_node

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(soa_kernel, "resolve_node", counted)
    second = _near_saturation_run()
    assert second.telemetry == first.telemetry
    assert calls == []
    tables = arc_tables_for(Mesh(2, 16)).backend_views["decisions"]
    assert 0 < len(tables[(False, "ordered")]) < 5000
