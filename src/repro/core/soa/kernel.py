"""The structure-of-arrays step kernel: `run_lean` on flat columns.

:class:`SoaKernel` drives a configured :class:`StepKernel` through the
same synchronous loop as :meth:`StepKernel.run_lean`, but with packet
state held in flat columns (:class:`PacketColumns`) instead of
``Packet`` objects, and per-step work expressed as array operations:

* *rank* becomes one stable :func:`radix_order` of the rows by
  composite ``node * codes + priority_code`` keys, or, for
  random-rank, of the rows in rank order (sorted once per run segment)
  by node; the per-node priority orders fall out of the segmentation
  of the sorted order.  Each pass of a radix order stably sorts one
  16-bit digit, which numpy does by a linear-time radix sort; one
  pass covers keys below ``2**16``, so the restricted keys of every
  mesh up to 16,384 nodes;
* *arc_assign* becomes a table lookup: good masks and distances for
  every packet arrive from ``d`` gathers into the mesh's per-axis
  packed tables (:meth:`~repro.mesh.topology.Mesh.arc_tables`).  A
  row alone at its node takes its lowest good direction; every node
  holding two or more rows gets its whole assignment from a
  :class:`DecisionTable`, keyed by exactly what the scalar
  matching-and-deflection pipeline of :mod:`.conflict` reads there
  (the rows' good masks in priority order, their count, the node's
  out mask and, under ``reverse`` deflection, the rows' entry
  directions).  A key the table lacks is solved from the node's rows
  by :func:`~.conflict.resolve_node` and inserted in place, so the
  table only ever holds the scalar reference's answers.  A node too
  full for a 63-bit key is solved the same way and never stored.
  Tables are cached per mesh shape and per matching/deflection rule
  beside the numpy views of the arc tables, so every checkpoint
  segment, engine and campaign case of a process shares them.

Two execution paths share the loop structure:

* the **vectorized** numpy path, used when numpy is importable and the
  policy is RNG-free during stepping (see
  :attr:`~.adapters.PolicyAdapter.vectorizable`);
* the **columnar** pure-Python path — the no-numpy fallback, and the
  mandatory path for RNG-consuming policies, where node visit order is
  part of the seeded contract.  It walks the same integer columns with
  scalar loops, visiting nodes in the object kernel's exact order
  (insertion or sorted) and running the full decision template at
  every node so the sanctioned RNG stream advances identically.

A batch run (no injection source) on the vectorized path steps with
numpy only while at least :data:`VECTOR_MIN_ROWS` packets are in
flight, where numpy's fixed per-step cost beats the columnar loop.
Below that it writes back and the columnar loop packs the survivors
and finishes the run, the same boundary a checkpoint segment crosses.

Both paths are bit-identical to the object kernel: same
:class:`StepSummary` stream, same :class:`RunTelemetry` counters, same
packet outcomes, same ``on_deliver`` columns (one call per step that
delivers, ascending packet id), same final ``in_flight``/distance
state.  The proof harness lives in
``tests/integration/test_soa_differential.py`` and the golden-fixture
suite.

Both loops hold the packets as the :class:`PacketColumns` row table,
whose module alone knows the row layout: the columnar loop as its
lists, bound once per run, the numpy path as numpy arrays in table
order, which each step names in one unpacking and updates in place.
A run fed by an injection source carries its packets as rows from
admission to delivery.  The source admits rows (ids, source and
destination node indices) against per-node loads, which join the
table as a block of fresh rows (:meth:`PacketColumns.fresh_rows`);
each delivering step hands ``on_deliver`` the delivered rows'
columns, with every shortest distance gathered from the packed tables
at a per-row source column.  A ``Packet`` is built only when a row is
written back (:meth:`PacketColumns.write_rows`) at the end of a run
segment (a checkpoint, the end of a ``run`` call).  A batch run (no
source) carries no source column: its delivered rows are written back
into the problem's packets, which the run's result reads.

The kernel's clock and delivery counters stay authoritative on the
wrapped :class:`StepKernel` (``time``, ``delivered_total``), so engine
callbacks (``on_deliver``'s ``delivered_at`` is the kernel's clock)
and post-run logic (timeout handling, result building) work
unchanged.
"""

from __future__ import annotations

from itertools import repeat
from operator import lshift
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.kernel import PhaseSink, StepKernel, StepSummary
from repro.core.soa import _compat
from repro.core.soa.adapters import (
    CODE_RANK,
    CODE_RESTRICTED,
    PolicyAdapter,
)
from repro.core.soa.columns import IDS, POS, PacketColumns
from repro.core.soa.conflict import resolve_node
from repro.exceptions import ArcAssignmentError
from repro.mesh.tables import ArcTables

__all__ = ["SoaKernel", "VECTOR_MIN_ROWS"]

#: Live-packet count below which a batch run leaves the numpy step for
#: the columnar loop.  The numpy step pays a fixed cost per step, tens
#: of small array calls, and the columnar loop a cost per packet.
#: Median time of one profiled step at ``k`` live packets in
#: microseconds, numpy / columnar, on a 2-vCPU Xeon VM (Python 3.11.7,
#: numpy 2.4.6), restricted-priority on a warm decision table and
#: dimension-order, the two loops alternating sample by sample (median
#: of three runs of 301 samples):
#:
#:     side    k   hot-potato     buffered
#:        8   16    165 / 80      150 / 67
#:        8   32    210 / 146     166 / 123
#:        8   64    257 / 247     160 / 165
#:       16   16    113 / 57      100 / 47
#:       16   32    178 / 121     154 / 107
#:       16   64    221 / 235     167 / 173
#:       16  128    255 / 448     158 / 328
#:       32   32    209 / 144     190 / 122
#:       32   64    221 / 251     196 / 204
#:       32  128    201 / 324     190 / 315
#:
#: The first step of a batch crosses near 64 packets for both
#: disciplines.  Whole runs of the Theorem-20 sweep (sides 8/12/16,
#: k = 8..N doubling, six seeds) plus four buffered side-16 k = 128
#: runs, thresholds alternated in one process, time ratio against 32
#: and passes won: 16 1.03 (9/40), 24 1.01 (19/40), 48 1.00 (19/40),
#: 64 1.04 (11/40).  Flat from 24 to 48, slower at 16 and 64.
VECTOR_MIN_ROWS = 32


#: Up to this many keys a :class:`DecisionTable` inserts new answers
#: in the step that solved them.  A larger table batches them, because
#: each insert copies its columns: a cold ``Mesh(3, 8)`` Bernoulli-0.2
#: run meets ~31k keys in 600 steps, and inserting them step by step
#: took longer than solving them.
SMALL_TABLE = 4096


#: Width of one :func:`radix_order` digit: numpy sorts 16-bit integers
#: by radix and wider ones by comparison.
DIGIT_BITS = 16


def radix_order(np: Any, key: Any, bound: int) -> Any:
    """The stable argsort of non-negative integer keys below ``bound``.

    Least significant 16-bit digit first, one ``uint16`` stable
    argsort per digit, which numpy runs as a radix sort: one pass when
    ``bound <= 2**16`` and one more per further 16 bits.  Each pass
    keeps the order of the previous one among equal digits, so the
    result is exactly ``np.argsort(key, kind="stable")``: keys
    ascending, equal keys in row order.  Every digit below the top one
    is masked into ``uint16`` range before the cast, so keys wider
    than int64, held as Python ints, sort too.
    """
    order: Any = None
    shift = 0
    while True:
        digit = key >> shift if shift else key
        top = bound <= 1 << shift + DIGIT_BITS
        if not top:
            digit = digit & (1 << DIGIT_BITS) - 1
        digit = digit.astype(np.uint16)
        if order is None:
            order = np.argsort(digit, kind="stable")
        else:
            order = order[np.argsort(digit[order], kind="stable")]
        if top:
            return order
        shift += DIGIT_BITS


def compact_order(np: Any, order: Any, keep: Any) -> Any:
    """``order``, a permutation of rows, over the rows ``keep`` marks.

    The kept rows stay in their relative order and are renumbered as
    compacting the columns by ``keep`` numbers them, so a stable
    argsort of a column stays the stable argsort of its compacted
    column.
    """
    kept = np.flatnonzero(keep)
    renumber = np.empty(keep.shape[0], dtype=np.int64)
    renumber[kept] = np.arange(kept.shape[0])
    return renumber[order[keep[order]]]


def _table_views(tables: ArcTables, np: Any) -> Dict[str, Any]:
    """Numpy views of the flat tables, cached on the tables object.

    ``"decisions"`` holds the shape's :class:`DecisionTable` per
    ``(first_fit, deflection)``, so every kernel that steps this shape
    in the process shares what the others have solved.
    """
    views = tables.backend_views
    if views is None or views.get("kind") != "numpy":
        views = {
            "kind": "numpy",
            "coords": [
                np.asarray(column, dtype=np.int64)
                for column in tables.coords
            ],
            "packed": [
                np.asarray(table, dtype=np.int64)
                for table in tables.packed
            ],
            "nbr": np.asarray(tables.neighbor_flat, dtype=np.int64),
            "out_mask": np.asarray(tables.out_mask, dtype=np.int64),
            "decisions": {},
        }
        tables.backend_views = views
    return views


def _decision_table(
    views: Dict[str, Any],
    np: Any,
    num_directions: int,
    first_fit: bool,
    deflection: str,
) -> "DecisionTable":
    """The shape's table for one matching and deflection rule."""
    tables: Dict[Tuple[bool, str], DecisionTable] = views["decisions"]
    table = tables.get((first_fit, deflection))
    if table is None:
        table = DecisionTable(np, num_directions, first_fit, deflection)
        tables[(first_fit, deflection)] = table
    return table


class DecisionTable:
    """Per-node assignments of the numpy step, solved once per shape.

    :func:`~.conflict.resolve_node` is a pure function of what it
    reads at a node: the rows' good masks in priority order, their
    count, the node's out mask and, under ``reverse`` deflection only,
    the rows' entry directions.  The table packs exactly that into one
    int64 *key* per node and maps it to a *value* packing the node's
    directions, row ``j`` (priority order) in bits ``j * b .. j * b +
    b - 1``, or :attr:`INVALID` when the assignment is incomplete
    (more rows than out arcs).  Keys sit in a sorted column searched
    with ``np.searchsorted``; only :meth:`_solve`, calling
    ``resolve_node``, ever adds to it, so an answer served from the
    table is the scalar reference's by construction.

    Key layout, low bits first: the row count (:attr:`count_bits`),
    the out mask (``2d`` bits), then one slot of :attr:`slot_bits` per
    row holding its good mask and, under ``reverse``, ``entry + 1``
    above it.  A node with more than :attr:`max_rows` rows has no key
    that fits in 63 bits; it is solved from its rows every time and
    never stored.

    New answers collect in :attr:`pending`, where a missed node is
    looked up before it is solved, and :meth:`flush` inserts them at
    their sorted positions: in the same step while the table holds at
    most :data:`SMALL_TABLE` keys, otherwise once they number a
    sixteenth of it, and at the end of every numpy run segment.
    """

    #: The value of a node whose assignment leaves a row unassigned.
    INVALID = -1

    __slots__ = (
        "num_directions",
        "first_fit",
        "deflection",
        "reverse",
        "slot_bits",
        "count_bits",
        "base",
        "max_rows",
        "direction_bits",
        "keys",
        "values",
        "pending",
    )

    def __init__(
        self,
        np: Any,
        num_directions: int,
        first_fit: bool,
        deflection: str,
    ) -> None:
        self.num_directions = num_directions
        self.first_fit = first_fit
        self.deflection = deflection
        self.reverse = deflection == "reverse"
        entry_bits = num_directions.bit_length() if self.reverse else 0
        self.slot_bits = num_directions + entry_bits
        self.count_bits = (63 // self.slot_bits).bit_length()
        self.base = self.count_bits + num_directions
        self.max_rows = (63 - self.base) // self.slot_bits
        self.direction_bits = max((num_directions - 1).bit_length(), 1)
        # A -1 sentinel first: every key is non-negative, so a
        # right-sided search minus one always lands on an entry.
        self.keys: Any = np.full(1, -1, dtype=np.int64)
        self.values: Any = np.full(1, self.INVALID, dtype=np.int64)
        #: Solved keys not yet in the columns, key -> value.
        self.pending: Dict[int, int] = {}

    def __len__(self) -> int:
        return int(self.keys.shape[0]) - 1 + len(self.pending)

    def resolve_nodes(
        self,
        np: Any,
        order: Any,
        good: Any,
        entry: Any,
        starts: Any,
        counts: Any,
        out_masks: Any,
        max_load: int,
    ) -> Tuple[Any, int]:
        """Every row's direction, for one step's occupied nodes.

        ``order`` sorts the rows by node and, within a node, by
        priority; ``starts``/``counts`` segment it into nodes in
        ascending node order, ``out_masks`` holds each node's out mask
        and ``max_load`` the largest count.  ``good`` and ``entry`` are
        the row-order good masks and entry directions.  Returns the
        row-order directions and the index of the first node whose
        assignment is invalid, ``-1`` when there is none.
        """
        sorted_good = good[order]
        rank = np.arange(order.shape[0]) - np.repeat(starts, counts)
        if max_load > self.max_rows:
            rank = np.minimum(rank, self.max_rows)
        word = sorted_good
        sorted_entry = None
        if self.reverse:
            sorted_entry = entry[order]
            word = sorted_good | (sorted_entry + 1) << self.num_directions
        keys = np.add.reduceat(
            word << rank * self.slot_bits + self.base, starts
        )
        keys |= out_masks << self.count_bits | counts
        # A row alone at its node takes its lowest good direction.
        first = sorted_good[starts]
        values = np.subtract(
            np.frexp(first & -first)[1], 1, dtype=np.int64
        )
        need = np.flatnonzero((counts > 1) | (first == 0))
        wide: Optional[Tuple[Any, List[int]]] = None
        invalid = -1
        if need.size:
            need_keys = keys[need]
            at = np.searchsorted(self.keys, need_keys, side="right") - 1
            found = self.values[at]
            hit = self.keys[at] == need_keys
            if max_load > self.max_rows:
                hit &= counts[need] <= self.max_rows
            if not hit.all():
                missed = np.flatnonzero(~hit)
                solved, wide = self._solve(
                    np,
                    need[missed],
                    need_keys[missed],
                    sorted_good,
                    sorted_entry,
                    starts,
                    counts,
                    out_masks,
                )
                found[missed] = solved
            values[need] = found
            if int(found.min()) < 0:
                invalid = int(need[np.argmax(found < 0)])
        sorted_dirs = np.repeat(values, counts) >> (
            rank * self.direction_bits
        )
        sorted_dirs &= (1 << self.direction_bits) - 1
        if wide is not None:
            sorted_dirs[wide[0]] = wide[1]
        dirs = np.empty_like(sorted_dirs)
        dirs[order] = sorted_dirs
        return dirs, invalid

    def _solve(
        self,
        np: Any,
        nodes: Any,
        keys: Any,
        good: Any,
        entry: Optional[Any],
        starts: Any,
        counts: Any,
        out_masks: Any,
    ) -> Tuple[List[int], Optional[Tuple[Any, List[int]]]]:
        """The column misses, answered from :attr:`pending` or solved
        from their rows.

        ``nodes`` are the missed segments and ``keys`` their keys;
        ``good`` and, under ``reverse`` only, ``entry`` are in sorted
        order.  Gathers the missed nodes' rows into a slot matrix and
        calls ``resolve_node`` once per new key, and for every node too
        wide for a key.  Returns each node's value and, when wide nodes
        were solved, the sorted positions of their rows with the rows'
        directions (a wide node's value is 0, or :attr:`INVALID`).
        """
        node_counts = counts[nodes]
        slots = np.arange(int(node_counts.max()))
        filled = slots < node_counts[:, None]
        at = np.where(filled, starts[nodes][:, None] + slots, 0)
        # Only the reverse rule reads entry directions.
        entries: Iterable[Any] = (
            repeat(()) if entry is None else entry[at].tolist()
        )
        first_fit = self.first_fit
        deflection = self.deflection
        max_rows = self.max_rows
        shifts = range(0, 63, self.direction_bits)
        pending = self.pending
        solved: List[int] = []
        wide_nodes: List[int] = []
        wide_dirs: List[int] = []
        for index, (key, count, out_mask, masks, arrived) in enumerate(
            zip(
                keys.tolist(),
                node_counts.tolist(),
                out_masks[nodes].tolist(),
                good[at].tolist(),
                entries,
            )
        ):
            keyed = count <= max_rows
            value = pending.get(key) if keyed else None
            if value is None:
                rows = range(count)
                assignment = resolve_node(
                    rows,
                    rows,
                    masks,
                    arrived,
                    out_mask,
                    first_fit,
                    deflection,
                    None,
                )
                if len(assignment) < count:
                    value = self.INVALID
                elif keyed:
                    value = sum(
                        map(lshift, map(assignment.__getitem__, rows), shifts)
                    )
                else:
                    value = 0
                    wide_nodes.append(index)
                    wide_dirs.extend(map(assignment.__getitem__, rows))
                if keyed:
                    pending[key] = value
            solved.append(value)
        # An insert copies both columns: a small table takes new keys
        # at once, a large one once they number a sixteenth of it.
        size = int(self.keys.shape[0])
        if size <= SMALL_TABLE or len(pending) * 16 >= size:
            self.flush(np)
        if not wide_nodes:
            return solved, None
        picked = np.asarray(wide_nodes, dtype=np.int64)
        return solved, (at[picked][filled[picked]], wide_dirs)

    def flush(self, np: Any) -> None:
        """Insert the :attr:`pending` answers at their sorted positions.

        One mask of the grown columns serves both, so the columns are
        copied once each; nothing already stored moves out of order.
        """
        pending = self.pending
        if not pending:
            return
        self.pending = {}
        count = len(pending)
        new_keys = np.fromiter(pending, dtype=np.int64, count=count)
        new_values = np.fromiter(
            pending.values(), dtype=np.int64, count=count
        )
        fresh = np.argsort(new_keys, kind="stable")
        new_keys = new_keys[fresh]
        where = np.searchsorted(self.keys, new_keys) + np.arange(count)
        kept = np.ones(self.keys.shape[0] + count, dtype=bool)
        kept[where] = False
        keys = np.empty(kept.shape[0], dtype=np.int64)
        keys[kept] = self.keys
        keys[where] = new_keys
        values = np.empty_like(keys)
        values[kept] = self.values
        values[where] = new_values[fresh]
        self.keys = keys
        self.values = values


class SoaKernel:
    """Array twin of :meth:`StepKernel.run_lean` for one configured run.

    Args:
        kernel: the configured object kernel whose state (``time``,
            ``in_flight``, ``delivered_total``, distance table) this
            run advances.  Faults, watchdogs and path recording are
            object-kernel-only features and are rejected.
        adapter: the policy's declarative description
            (:func:`~.adapters.adapter_for`).
    """

    def __init__(self, kernel: StepKernel, adapter: PolicyAdapter) -> None:
        if kernel.faults is not None or kernel.watchdog is not None:
            raise ValueError(
                "SoaKernel does not support faults or watchdogs; "
                "use the object kernel"
            )
        if kernel.record_paths:
            raise ValueError("SoaKernel does not support record_paths")
        if kernel.buffered != adapter.buffered:
            raise ValueError(
                "adapter/kernel discipline mismatch "
                f"(kernel buffered={kernel.buffered})"
            )
        self.kernel = kernel
        self.adapter = adapter
        self.tables = kernel.mesh.arc_tables()
        self.vectorized = _compat.np is not None and adapter.vectorizable

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(
        self, until: int, profiler: Optional[PhaseSink] = None
    ) -> None:
        """Run steps until ``kernel.time == until`` (or drained).

        Mirrors :meth:`StepKernel.run_lean`, profiler included: batch
        kernels (no injection source) stop early once ``in_flight``
        drains; injecting kernels run the full horizon.  On return the
        wrapped kernel's ``in_flight`` and distance table hold the
        surviving packets, bit-identical to the object loop.

        A vectorized batch run takes the numpy step while at least
        :data:`VECTOR_MIN_ROWS` packets are in flight and the columnar
        loop for the rest; one that starts below the constant never
        leaves the columnar loop.
        """
        kernel = self.kernel
        if self.vectorized and (
            kernel.injection is not None
            or len(kernel.in_flight) >= VECTOR_MIN_ROWS
        ):
            self._run_vectorized(until, profiler)
            if kernel.time >= until or not kernel.in_flight:
                return
        self._run_columnar(until, profiler)

    # ------------------------------------------------------------------
    # Shared pieces
    # ------------------------------------------------------------------

    def _admit_batch(
        self, columns: PacketColumns, loads: List[int]
    ) -> Tuple[int, List[Sequence[Any]], int]:
        """The inject phase against per-node loads (by node index).

        Returns ``(generated, fresh, backlog)``: ``fresh`` is the block
        of admitted rows the caller appends to its table
        (:meth:`PacketColumns.fresh_rows`), empty when none was
        admitted.
        """
        source = self.kernel.injection
        assert source is not None
        generated, ids, sources, destinations = source.admit_batch(
            self.kernel.time, loads
        )
        fresh = columns.fresh_rows(ids, sources, destinations) if ids else []
        return generated, fresh, source.backlog_size()

    def _writeback(
        self, columns: PacketColumns
    ) -> None:
        """Restore the object kernel's end-of-run state from columns."""
        kernel = self.kernel
        distance = kernel.mesh.distance
        packets = columns.unpack()
        kernel.in_flight = packets
        kernel._dist = {
            packet.id: distance(packet.location, packet.destination)
            for packet in packets
        }

    def _note_step(
        self,
        step_index: int,
        generated: int,
        injected: int,
        backlog: int,
        routed: int,
        moved: int,
        advancing: int,
        delivered_count: int,
        total_distance: int,
        max_load: int,
        bad_nodes: int,
        packets_in_bad: int,
    ) -> None:
        """Telemetry + summary emission, exactly as run_lean does."""
        kernel = self.kernel
        kernel.delivered_total += delivered_count
        summary = StepSummary(
            step=step_index,
            generated=generated,
            injected=injected,
            routed=routed,
            moved=moved,
            advancing=advancing,
            delivered=delivered_count,
            delivered_total=kernel.delivered_total,
            total_distance=total_distance,
            max_node_load=max_load,
            bad_nodes=bad_nodes,
            packets_in_bad_nodes=packets_in_bad,
            backlog=backlog,
        )
        if kernel.telemetry is not None:
            kernel.telemetry.note_summary(summary)
        if kernel.emit is not None:
            kernel.emit(summary)

    # ------------------------------------------------------------------
    # Columnar pure-Python path
    # ------------------------------------------------------------------

    def _run_columnar(
        self, until: int, profiler: Optional[PhaseSink]
    ) -> None:
        """Scalar loops over integer columns.

        Node visit order, per-node decision templates and every RNG
        draw replicate the object kernel exactly — this path carries
        the policies whose stepping consumes the sanctioned stream.
        """
        kernel = self.kernel
        adapter = self.adapter
        tables = self.tables
        dimension = tables.dimension
        side1 = tables.side + 1
        shift = tables.shift
        mask_all = tables.good_mask_all
        packed = tables.packed
        tcoords = tables.coords
        nbr = tables.neighbor_flat
        out_mask_t = tables.out_mask
        index_node = tables.index_node
        two_d = tables.num_directions
        buffered = kernel.buffered
        sorted_order = kernel.sorted_order
        set_entry = kernel.set_entry_direction
        on_deliver = kernel.on_deliver
        source = kernel.injection
        stop_when_empty = source is None
        num_nodes = tables.num_nodes
        first_fit = adapter.first_fit
        deflection = adapter.deflection
        shuffle_ties = adapter.tie_break == "random"
        code_kind = adapter.code_kind
        prefer_type_a = adapter.prefer_type_a
        clock = profiler.clock if profiler is not None else None

        columns = PacketColumns.pack(
            kernel.in_flight,
            tables,
            sources=source is not None or on_deliver is not None,
        )
        state = columns.table
        # Admission and compaction change the columns in place, so
        # these names stay bound for the whole run.
        ids, pos, dest, entry, rl, al, hops, adv, defl, dcs, srcs = (
            columns.fields()
        )

        while kernel.time < until:
            if stop_when_empty and not pos:
                break
            t0 = clock() if clock is not None else 0
            generated = injected = backlog = 0
            if source is not None:
                loads = [0] * num_nodes
                for node_idx in pos:
                    loads[node_idx] += 1
                generated, fresh, backlog = self._admit_batch(columns, loads)
                if fresh:
                    injected = len(fresh[IDS])
                    for column, rows in zip(state, fresh):
                        column.extend(rows)
            t1 = clock() if clock is not None else 0

            step_index = kernel.time
            m = len(pos)
            routed = m
            # Good masks + distances: d gathers into the packed tables.
            acc = [0] * m
            for axis in range(dimension):
                coord = tcoords[axis]
                dc = dcs[axis]
                table = packed[axis]
                for row in range(m):
                    acc[row] += table[coord[pos[row]] * side1 + dc[row]]
            gm = [value & mask_all for value in acc]
            total_distance = 0
            for value in acc:
                total_distance += value >> shift
            # Grouping preserves the object kernel's node visit order:
            # dict insertion order is first-seen row order, and sorted
            # node indices coincide with sorted node tuples because
            # the numbering is lexicographic.
            groups: Dict[int, List[int]] = {}
            for row in range(m):
                groups.setdefault(pos[row], []).append(row)
            node_list = sorted(groups) if sorted_order else list(groups)
            t2 = clock() if clock is not None else 0

            pending: Dict[int, int] = {}
            advancing = 0
            max_load = 0
            bad_nodes = 0
            packets_in_bad = 0
            rng = adapter.rng
            for node_idx in node_list:
                rows = groups[node_idx]
                load = len(rows)
                if load > max_load:
                    max_load = load
                if load > dimension:
                    bad_nodes += 1
                    packets_in_bad += load
                if buffered:
                    chosen: Dict[int, int] = {}
                    coords_here = [
                        tcoords[axis][node_idx]
                        for axis in range(dimension)
                    ]
                    for row in rows:
                        direction = -1
                        for axis in range(dimension):
                            here = coords_here[axis]
                            there = dcs[axis][row]
                            if here < there:
                                direction = 2 * axis
                                break
                            if here > there:
                                direction = 2 * axis + 1
                                break
                        if direction < 0:
                            continue
                        if direction not in chosen:
                            chosen[direction] = row
                    for direction, row in chosen.items():
                        pending[row] = direction
                        if gm[row] >> direction & 1:
                            advancing += 1
                    continue
                # Hot-potato: replicate the greedy template, including
                # tie-break shuffles and priority sorts, at every node
                # (the object kernel runs it even for lone packets, so
                # the RNG stream advances there too).
                ordered = list(rows)
                if shuffle_ties:
                    if rng is None:
                        raise ValueError(
                            "policy RNG missing; was prepare() run?"
                        )
                    rng.shuffle(ordered)
                if code_kind == CODE_RESTRICTED:
                    a_code = 0 if prefer_type_a else 1
                    b_code = 1 - a_code

                    def restricted_code(row: int) -> int:
                        mask = gm[row]
                        if mask & (mask - 1):
                            return 2
                        if rl[row] and al[row]:
                            return a_code
                        return b_code

                    ordered.sort(key=restricted_code)
                elif code_kind == CODE_RANK:
                    rank_of = adapter.rank_of

                    def rank_key(row: int) -> Tuple[float, int]:
                        return (rank_of(ids[row]), ids[row])

                    ordered.sort(key=rank_key)
                assignment = resolve_node(
                    ordered,
                    rows,
                    gm,
                    entry,
                    out_mask_t[node_idx],
                    first_fit,
                    deflection,
                    rng,
                )
                if len(assignment) != load:
                    raise ArcAssignmentError(
                        f"step {step_index}: inconsistent assignment "
                        f"at {index_node[node_idx]} (soa kernel check)"
                    )
                for row, direction in assignment.items():
                    pending[row] = direction
                    if gm[row] >> direction & 1:
                        advancing += 1
            t3 = clock() if clock is not None else 0

            # Move, in row (= packet id = in_flight) order.
            kernel.time += 1
            moved = len(pending)
            if buffered:
                for row, direction in pending.items():
                    next_pos = nbr[pos[row] * two_d + direction]
                    if next_pos < 0:
                        raise ArcAssignmentError(
                            f"step {step_index}: inconsistent buffered "
                            f"assignment at {index_node[pos[row]]} "
                            f"(soa kernel check)"
                        )
                    pos[row] = next_pos
                    hops[row] += 1
                    if gm[row] >> direction & 1:
                        adv[row] += 1
                    else:
                        defl[row] += 1
            else:
                for row in range(m):
                    direction = pending[row]
                    mask = gm[row]
                    rl[row] = not mask & (mask - 1)
                    advanced = bool(mask >> direction & 1)
                    al[row] = advanced
                    pos[row] = nbr[pos[row] * two_d + direction]
                    if set_entry:
                        entry[row] = direction
                    hops[row] += 1
                    if advanced:
                        adv[row] += 1
                    else:
                        defl[row] += 1
            t4 = clock() if clock is not None else 0

            # Deliver, ascending row order (= in_flight order).
            now = kernel.time
            delivered = [
                row for row in range(len(pos)) if pos[row] == dest[row]
            ]
            delivered_count = len(delivered)
            if delivered:
                if source is None:
                    # A batch run's result reads the problem's packets.
                    for packet in columns.write_rows(
                        state,
                        lambda column: [column[row] for row in delivered],
                    ):
                        packet.delivered_at = now
                if on_deliver is not None:
                    assert srcs is not None
                    on_deliver(
                        [ids[row] for row in delivered],
                        now,
                        [hops[row] for row in delivered],
                        [defl[row] for row in delivered],
                        [
                            sum(
                                packed[axis][
                                    tcoords[axis][srcs[row]] * side1
                                    + dcs[axis][row]
                                ]
                                for axis in range(dimension)
                            )
                            >> shift
                            for row in delivered
                        ],
                    )
                keep = [True] * len(pos)
                for row in delivered:
                    keep[row] = False
                columns.compact(keep)
            t5 = clock() if clock is not None else 0
            if profiler is not None:
                profiler.record_step(
                    t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4
                )

            self._note_step(
                step_index,
                generated,
                injected,
                backlog,
                routed,
                moved,
                advancing,
                delivered_count,
                total_distance,
                max_load,
                bad_nodes,
                packets_in_bad,
            )

        self._writeback(columns)

    # ------------------------------------------------------------------
    # Vectorized numpy path
    # ------------------------------------------------------------------

    def _run_vectorized(
        self, until: int, profiler: Optional[PhaseSink]
    ) -> None:
        """The numpy path: one radix order + gathers per step.

        Only legal for RNG-free policies, where per-node decisions are
        pure functions of each node's rows (visit order immaterial).
        A batch kernel returns, written back, once fewer than
        :data:`VECTOR_MIN_ROWS` packets remain in flight.  The rows
        are the :class:`PacketColumns` table as numpy arrays in table
        order, which a step updates in place.
        """
        np = _compat.np
        assert np is not None
        kernel = self.kernel
        adapter = self.adapter
        tables = self.tables
        views = _table_views(tables, np)
        coords_v: List[Any] = views["coords"]
        packed_v: List[Any] = views["packed"]
        nbr_v: Any = views["nbr"]
        out_mask_v: Any = views["out_mask"]
        dimension = tables.dimension
        side1 = tables.side + 1
        shift = tables.shift
        mask_all = tables.good_mask_all
        index_node = tables.index_node
        two_d = tables.num_directions
        buffered = kernel.buffered
        set_entry = kernel.set_entry_direction
        on_deliver = kernel.on_deliver
        source = kernel.injection
        num_nodes = tables.num_nodes
        # A batch run leaves below the constant (always at zero); an
        # injecting run never leaves.
        min_rows = max(VECTOR_MIN_ROWS, 1) if source is None else 0
        decisions = _decision_table(
            views, np, two_d, adapter.first_fit, adapter.deflection
        )
        code_kind = adapter.code_kind
        prefer_type_a = adapter.prefer_type_a
        clock = profiler.clock if profiler is not None else None

        def gather(nodes: Any, dest_coords: List[Any]) -> Any:
            """Packed goodness/distance sums of (node, destination)
            rows: d gathers, one add chain."""
            acc = packed_v[0][coords_v[0][nodes] * side1 + dest_coords[0]]
            for axis in range(1, dimension):
                acc = acc + packed_v[axis][
                    coords_v[axis][nodes] * side1 + dest_coords[axis]
                ]
            return acc

        columns = PacketColumns.pack(
            kernel.in_flight,
            tables,
            sources=source is not None or on_deliver is not None,
        )
        state = columns.arrays(np)
        # Random-rank: the rows in rank order (ties by row), sorted
        # once here and carried through every compaction, so a step
        # only radix-orders it by node.
        rank_order: Any = None
        if code_kind == CODE_RANK:
            rank_of = adapter.rank_of
            rank_order = np.argsort(
                np.asarray(
                    [rank_of(packet_id) for packet_id in columns.table[IDS]],
                    dtype=np.float64,
                ),
                kind="stable",
            )

        while kernel.time < until:
            if state[POS].shape[0] < min_rows:
                break
            t0 = clock() if clock is not None else 0
            generated = injected = backlog = 0
            if source is not None:
                # Per-node loads from one bincount; the source's rows
                # join the table with no Packet behind them.
                generated, fresh, backlog = self._admit_batch(
                    columns,
                    np.bincount(state[POS], minlength=num_nodes).tolist(),
                )
                if fresh:
                    injected = len(fresh[IDS])
                    state = [
                        np.concatenate((array, np.asarray(rows, array.dtype)))
                        for array, rows in zip(state, fresh)
                    ]
            t1 = clock() if clock is not None else 0

            ids, pos, dest, entry, rl, al, hops, adv, defl, dcs, srcs = (
                columns.fields(state)
            )
            step_index = kernel.time
            m = int(pos.shape[0])
            routed = m
            acc = gather(pos, dcs)
            gm = acc & mask_all
            total_distance = int((acc >> shift).sum())

            if buffered:
                (
                    moved,
                    advancing,
                    max_load,
                    bad_nodes,
                    packets_in_bad,
                    delivered_rows,
                ) = self._step_buffered_vectorized(
                    np, pos, dest, dcs, gm, hops, adv, defl,
                    coords_v, nbr_v, dimension, two_d, step_index,
                )
            else:
                # Restricted rows: a single good direction.
                single = (gm & (gm - 1)) == 0
                # Node load stats + priority order from one radix order.
                if code_kind == CODE_RESTRICTED:
                    a_code = 0 if prefer_type_a else 1
                    restricted_codes = np.where(
                        rl & al, a_code, 1 - a_code
                    )
                    code = np.where(single, restricted_codes, 2)
                    order = radix_order(np, pos * 4 + code, 4 * num_nodes)
                elif code_kind == CODE_RANK:
                    order = rank_order[
                        radix_order(np, pos[rank_order], num_nodes)
                    ]
                else:
                    order = radix_order(np, pos, num_nodes)
                spos = pos[order]
                if m:
                    head = np.empty(m, dtype=bool)
                    head[0] = True
                    np.not_equal(spos[1:], spos[:-1], out=head[1:])
                    starts = np.flatnonzero(head)
                    counts = np.diff(np.append(starts, m))
                    max_load = int(counts.max())
                    bad = counts > dimension
                    bad_nodes = int(bad.sum())
                    packets_in_bad = int(counts[bad].sum())
                    # A lone row takes its lowest good direction; every
                    # other node's whole assignment comes from the
                    # shape's decision table, which only resolve_node
                    # fills.
                    nodes = spos[starts]
                    dirs, invalid = decisions.resolve_nodes(
                        np,
                        order,
                        gm,
                        entry,
                        starts,
                        counts,
                        out_mask_v[nodes],
                        max_load,
                    )
                    if invalid >= 0:
                        raise ArcAssignmentError(
                            f"step {step_index}: inconsistent "
                            f"assignment at "
                            f"{index_node[int(nodes[invalid])]} "
                            f"(soa kernel check)"
                        )
                else:
                    dirs = np.empty(0, dtype=np.int64)
                    max_load = bad_nodes = packets_in_bad = 0

                # Move: flags, position, counters, in place.
                rl[:] = single
                np.not_equal((gm >> dirs) & 1, 0, out=al)
                advancing = int(al.sum())
                moved = m
                pos[:] = nbr_v[pos * two_d + dirs]
                if set_entry:
                    entry[:] = dirs
                hops += 1
                adv += al
                defl += ~al
                delivered_rows = np.flatnonzero(pos == dest)
            t4 = clock() if clock is not None else 0

            kernel.time += 1
            now = kernel.time
            delivered_count = int(delivered_rows.size)
            if delivered_count:
                rows = delivered_rows
                if source is None:
                    # A batch run's result reads the problem's packets:
                    # one .tolist() slice of the delivered rows per
                    # column, so no numpy scalar is read per packet.
                    for packet in columns.write_rows(
                        state, lambda array: array[rows].tolist()
                    ):
                        packet.delivered_at = now
                if on_deliver is not None:
                    # Ascending row order = ascending id.  Shortest
                    # distances: the step's gathers, at the sources.
                    on_deliver(
                        ids[rows].tolist(),
                        now,
                        hops[rows].tolist(),
                        defl[rows].tolist(),
                        (
                            gather(srcs[rows], [dc[rows] for dc in dcs])
                            >> shift
                        ).tolist(),
                    )
                keep = np.ones(m, dtype=bool)
                keep[rows] = False
                # Unbind the step's names first, so each column is freed
                # as its compacted copy is made: one table's worth of
                # memory, not two, stays in cache.
                del ids, pos, dest, entry, rl, al, hops, adv, defl, dcs, srcs
                for index, array in enumerate(state):
                    state[index] = array[keep]
                if rank_order is not None:
                    rank_order = compact_order(np, rank_order, keep)
            t5 = clock() if clock is not None else 0
            if profiler is not None:
                # The array step fuses the good-mask gathers, the sort
                # and load stats, the direction assignment and the
                # move/flag updates into one span; all of it is
                # attributed to rank, with arc_assign and move given
                # 0, so phase totals still sum to the step time.
                profiler.record_step(t1 - t0, t4 - t1, 0, 0, t5 - t4)

            self._note_step(
                step_index,
                generated,
                injected,
                backlog,
                routed,
                moved,
                advancing,
                delivered_count,
                total_distance,
                max_load,
                bad_nodes,
                packets_in_bad,
            )

        decisions.flush(np)
        # .tolist() yields Python ints and bools.
        columns.table = [array.tolist() for array in state]
        self._writeback(columns)

    def _step_buffered_vectorized(
        self,
        np: Any,
        pos: Any,
        dest: Any,
        dcs: List[Any],
        gm: Any,
        hops: Any,
        adv: Any,
        defl: Any,
        coords_v: List[Any],
        nbr_v: Any,
        dimension: int,
        two_d: int,
        step_index: int,
    ) -> Tuple[int, int, int, int, int, Any]:
        """One buffered (dimension-order) step on arrays, in place.

        Mutates ``pos``/``hops``/``adv``/``defl`` for the winning rows
        and returns ``(moved, advancing, max_load, bad_nodes,
        packets_in_bad, delivered_rows)``.
        """
        m = int(pos.shape[0])
        if m:
            loads = np.bincount(pos)
            max_load = int(loads.max())
            bad = loads > dimension
            bad_nodes = int(bad.sum())
            packets_in_bad = int(loads[bad].sum())
        else:
            max_load = bad_nodes = packets_in_bad = 0
        # Dimension-order next hop: first differing axis, plain
        # comparison (deliberately wrap-unaware, like the policy).
        dirv = np.full(m, -1, dtype=np.int64)
        for axis in reversed(range(dimension)):
            here = coords_v[axis][pos]
            there = dcs[axis]
            dirv = np.where(
                here < there,
                2 * axis,
                np.where(here > there, 2 * axis + 1, dirv),
            )
        valid = np.flatnonzero(dirv >= 0)
        # One packet per (node, direction): the lowest row (= lowest
        # id) wins, matching the policy's first-seen rule.  A stable
        # order puts it at the head of its arc's run.  The keys are
        # arc indices into the neighbour table, which bounds them.
        arcs = pos[valid] * two_d + dirv[valid]
        order = radix_order(np, arcs, int(nbr_v.shape[0]))
        sorted_arcs = arcs[order]
        head = np.ones(sorted_arcs.shape[0], dtype=bool)
        np.not_equal(sorted_arcs[1:], sorted_arcs[:-1], out=head[1:])
        winners = valid[order[head]]
        win_dirs = dirv[winners]
        advancing = int(((gm[winners] >> win_dirs) & 1).sum())
        next_pos = nbr_v[pos[winners] * two_d + win_dirs]
        if next_pos.size and int(next_pos.min()) < 0:
            raise ArcAssignmentError(
                f"step {step_index}: inconsistent buffered assignment "
                f"(soa kernel check)"
            )
        advanced = ((gm[winners] >> win_dirs) & 1).astype(bool)
        pos[winners] = next_pos
        hops[winners] += 1
        adv[winners] += advanced
        defl[winners] += ~advanced
        delivered_rows = np.flatnonzero(pos == dest)
        return (
            int(winners.size),
            advancing,
            max_load,
            bad_nodes,
            packets_in_bad,
            delivered_rows,
        )
