"""Structure-of-arrays packet state: pack / unpack against ``Packet``.

:class:`PacketColumns` holds the mutable per-packet state of a run as
one table of plain-Python columns, one row per in-flight packet, rows
in ``StepKernel.in_flight`` order (ascending packet id; the kernel
maintains that invariant).  This module alone knows the row layout:
the columns and their order (the indexes below), their encodings and
the values of an admitted row.  Node locations are stored as
:class:`~repro.mesh.tables.ArcTables` node indices and entry
directions as canonical direction indices (``-1`` for none), so the
step kernels operate on integers only.

Every whole-table operation walks the table once: :meth:`pack`
snapshots live ``Packet`` objects (without mutating them),
:meth:`fresh_rows` builds the block of rows an injection source
admits (:meth:`write_block` writes the same block into the tail of
the numpy table), :meth:`compact` drops delivered rows in place and
:meth:`write_rows` writes rows back into their ``Packet`` objects.  A
run fed by an injection source also carries each row's source node
and shortest distance: its admitted rows have no ``Packet`` behind
them until :meth:`write_rows` builds one at the end of a run segment,
and the step that admits a row measures its distance (the row stands
at its source then).  The numpy path holds the same table as arrays
(:meth:`arrays`) with room for more rows behind a live prefix; the
pure-Python fallback loops over the lists directly.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.core.packet import Packet
from repro.mesh.tables import ArcTables, direction_index
from repro.types import PacketId

__all__ = ["PacketColumns", "IDS", "POS", "COORDS"]

#: Column indexes, in table order: the packet id, the location and
#: destination nodes, the entry direction, the restricted and advanced
#: flags Definition 18's priority reads, and the hop, advance and
#: deflection counters.  One (1-based) destination coordinate per axis
#: follows from ``COORDS``, the gather key into the per-axis packed
#: goodness/distance tables; the source node and the shortest
#: source-to-destination distance, when carried, are last.
IDS, POS, DEST, ENTRY, RESTRICTED, ADVANCED = range(6)
HOPS, ADVANCES, DEFLECTIONS, COORDS = range(6, 10)

#: An admitted row's values in columns ``ENTRY`` to ``DEFLECTIONS``: no
#: entry direction and no step history.
FRESH_HISTORY = (-1, False, False, 0, 0, 0)


def _dtype(np: Any, index: int) -> Any:
    """A column's numpy dtype: the two flags ``bool``, else ``int64``."""
    return bool if index in (RESTRICTED, ADVANCED) else np.int64


class PacketColumns:
    """Flat per-packet state columns (rows in packet-id order)."""

    __slots__ = ("tables", "sources", "table", "by_id")

    def __init__(self, tables: ArcTables, sources: bool = False) -> None:
        self.tables = tables
        #: Whether the table carries the source and shortest-distance
        #: columns, which runs that admit rows or report deliveries
        #: need.
        self.sources = sources
        self.table: List[List[Any]] = [
            [] for _ in range(COORDS + tables.dimension + 2 * sources)
        ]
        #: The live Packet object behind each packed id, for batch
        #: delivery and final unpacking; admitted rows have none.
        self.by_id: Dict[PacketId, Packet] = {}

    def __len__(self) -> int:
        return len(self.table[IDS])

    @classmethod
    def pack(
        cls,
        packets: Iterable[Packet],
        tables: ArcTables,
        sources: bool = False,
    ) -> "PacketColumns":
        """Snapshot live packets into columns (packets unmodified),
        with the source and shortest-distance columns when ``sources``
        is set.

        Builds each column with one comprehension.
        """
        rows = list(packets)
        node_index = tables.node_index
        destinations = [packet.destination for packet in rows]
        columns = cls(tables, sources)
        dest_coords = [
            [node[axis] for node in destinations]
            for axis in range(tables.dimension)
        ]
        columns.table = [
            [packet.id for packet in rows],
            [node_index[packet.location] for packet in rows],
            [node_index[node] for node in destinations],
            [
                -1
                if packet.entry_direction is None
                else direction_index(packet.entry_direction)
                for packet in rows
            ],
            [packet.restricted_last_step for packet in rows],
            [packet.advanced_last_step for packet in rows],
            [packet.hops for packet in rows],
            [packet.advances for packet in rows],
            [packet.deflections for packet in rows],
            *dest_coords,
        ]
        if sources:
            origins = [node_index[packet.source] for packet in rows]
            # The packed tables' sums at (source, destination).
            side1 = tables.side + 1
            sums = [0] * len(rows)
            for packed, coords, goals in zip(
                tables.packed, tables.coords, dest_coords
            ):
                sums = [
                    total + packed[coords[node] * side1 + goal]
                    for total, node, goal in zip(sums, origins, goals)
                ]
            columns.table.append(origins)
            columns.table.append([total >> tables.shift for total in sums])
        columns.by_id = dict(zip(columns.table[IDS], rows))
        return columns

    def fresh_rows(
        self,
        ids: Sequence[PacketId],
        sources: Sequence[int],
        destinations: Sequence[int],
    ) -> List[Sequence[Any]]:
        """The block of admitted packets' rows, in table order: each
        sits at its source with no step history, and its shortest
        distance reads 0 until the admitting step's gather measures
        it.  Needs the source column."""
        assert self.sources, "columns carry no sources"
        count = len(ids)
        return [
            ids,
            sources,
            destinations,
            *([value] * count for value in FRESH_HISTORY),
            *(
                [coords[node] for node in destinations]
                for coords in self.tables.coords
            ),
            sources,
            [0] * count,
        ]

    def write_block(
        self,
        np: Any,
        table: List[Any],
        at: int,
        ids: Sequence[PacketId],
        sources: Sequence[int],
        destinations: Sequence[int],
    ) -> None:
        """Write :meth:`fresh_rows`' block into rows ``at ..`` of
        ``table``, numpy arrays in table order (:meth:`arrays`).

        A table without room for the block has every column replaced,
        in ``table``, by one twice the rows it then holds, with the
        first ``at`` rows copied.  The shortest-distance rows are left
        for the admitting step's gather.
        """
        assert self.sources, "columns carry no sources"
        end = at + len(ids)
        if end > table[IDS].shape[0]:
            for index, column in enumerate(table):
                grown = np.empty(2 * end, dtype=column.dtype)
                grown[:at] = column[:at]
                table[index] = grown
        table[IDS][at:end] = ids
        table[POS][at:end] = sources
        table[DEST][at:end] = destinations
        for index, value in enumerate(FRESH_HISTORY, ENTRY):
            table[index][at:end] = value
        for index, coords in enumerate(self.tables.coords, COORDS):
            table[index][at:end] = [coords[node] for node in destinations]
        table[COORDS + self.tables.dimension][at:end] = sources

    def fields(self, table: Optional[Sequence[Any]] = None) -> tuple:
        """``table`` (default :attr:`table`) column by column, in table
        order, with the per-axis destination coordinates as one list
        and ``None`` for absent source and shortest-distance
        columns."""
        if table is None:
            table = self.table
        source = COORDS + self.tables.dimension
        return (
            *table[:COORDS],
            table[COORDS:source],
            *(table[source:] if self.sources else (None, None)),
        )

    def arrays(self, np: Any) -> List[Any]:
        """The table as numpy arrays, in table order: the two flags
        ``bool``, every other column ``int64``."""
        return [
            np.asarray(column, dtype=_dtype(np, index))
            for index, column in enumerate(self.table)
        ]

    def write_rows(
        self, table: Sequence[Sequence[Any]], rows: Iterable[int]
    ) -> List[Packet]:
        """Write ``rows`` of ``table`` (list columns in table order)
        into their Packet objects and return them in ``rows`` order;
        an admitted row gets its Packet built here.

        One pass reads each written row's fields by index, so writing a
        few rows back costs what those rows need.  Only an admitted
        row reads the source column and the destination; a batch run
        has none, so the numpy step passes the delivered rows of the
        columns through ``DEFLECTIONS`` as lists.
        """
        index_node = self.tables.index_node
        directions = self.tables.directions
        packet_of = self.by_id.get
        ids, pos, dest, entry, rl, al, hops, adv, defl = table[:COORDS]
        origin = COORDS + self.tables.dimension
        packets = []
        for row in rows:
            packet = packet_of(ids[row])
            if packet is None:
                assert self.sources, "an admitted row needs its source"
                packet = Packet(
                    id=ids[row],
                    source=index_node[table[origin][row]],
                    destination=index_node[dest[row]],
                )
            packet.location = index_node[pos[row]]
            direction = entry[row]
            packet.entry_direction = (
                None if direction < 0 else directions[direction]
            )
            packet.restricted_last_step = rl[row]
            packet.advanced_last_step = al[row]
            packet.hops = hops[row]
            packet.advances = adv[row]
            packet.deflections = defl[row]
            packets.append(packet)
        return packets

    def unpack(self) -> List[Packet]:
        """Write every row back and return the packets in row order."""
        return self.write_rows(self.table, range(len(self)))

    def compact(self, keep: Sequence[bool]) -> None:
        """Drop rows whose ``keep`` flag is False (delivered packets),
        in place, so names bound to the columns stay valid."""
        for column in self.table:
            column[:] = compress(column, keep)
