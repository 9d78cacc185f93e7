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
admits, :meth:`compact` drops delivered rows in place and
:meth:`write_rows` writes rows back into their ``Packet`` objects.  A
run fed by an injection source also carries each row's source node:
its admitted rows have no ``Packet`` behind them until
:meth:`write_rows` builds one at the end of a run segment.  The numpy
path holds the same table as arrays (:meth:`arrays`); the pure-Python
fallback loops over the lists directly.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.packet import Packet
from repro.mesh.tables import ArcTables, direction_index
from repro.types import PacketId

__all__ = ["PacketColumns", "IDS", "POS"]

#: Column indexes, in table order: the packet id, the location and
#: destination nodes, the entry direction, the restricted and advanced
#: flags Definition 18's priority reads, and the hop, advance and
#: deflection counters.  One (1-based) destination coordinate per axis
#: follows from ``COORDS``, the gather key into the per-axis packed
#: goodness/distance tables; the source node, when carried, is last.
IDS, POS, DEST, ENTRY, RESTRICTED, ADVANCED = range(6)
HOPS, ADVANCES, DEFLECTIONS, COORDS = range(6, 10)


class PacketColumns:
    """Flat per-packet state columns (rows in packet-id order)."""

    __slots__ = ("tables", "sources", "table", "by_id")

    def __init__(self, tables: ArcTables, sources: bool = False) -> None:
        self.tables = tables
        #: Whether the table carries the source column, which runs that
        #: admit rows or report deliveries need.
        self.sources = sources
        self.table: List[List[Any]] = [
            [] for _ in range(COORDS + tables.dimension + sources)
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
        with the source column when ``sources`` is set.

        Builds each column with one comprehension.
        """
        rows = list(packets)
        node_index = tables.node_index
        destinations = [packet.destination for packet in rows]
        columns = cls(tables, sources)
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
            *(
                [node[axis] for node in destinations]
                for axis in range(tables.dimension)
            ),
        ]
        if sources:
            columns.table.append(
                [node_index[packet.source] for packet in rows]
            )
        columns.by_id = dict(zip(columns.table[IDS], rows))
        return columns

    def fresh_rows(
        self,
        ids: Sequence[PacketId],
        sources: Sequence[int],
        destinations: Sequence[int],
    ) -> List[Sequence[Any]]:
        """The block of admitted packets' rows, in table order: each
        sits at its source with no step history.  Needs the source
        column."""
        assert self.sources, "columns carry no sources"
        count = len(ids)
        return [
            ids,
            sources,
            destinations,
            [-1] * count,
            [False] * count,
            [False] * count,
            [0] * count,
            [0] * count,
            [0] * count,
            *(
                [coords[node] for node in destinations]
                for coords in self.tables.coords
            ),
            sources,
        ]

    def fields(self, table: Optional[Sequence[Any]] = None) -> tuple:
        """``table`` (default :attr:`table`) column by column, in table
        order, with the per-axis destination coordinates as one list
        and ``None`` for an absent source column."""
        if table is None:
            table = self.table
        return (
            *table[:COORDS],
            table[COORDS : COORDS + self.tables.dimension],
            table[-1] if self.sources else None,
        )

    def arrays(self, np: Any) -> List[Any]:
        """The table as numpy arrays, in table order: the two flags
        ``bool``, every other column ``int64``."""
        return [
            np.asarray(
                column,
                dtype=bool if index in (RESTRICTED, ADVANCED) else np.int64,
            )
            for index, column in enumerate(self.table)
        ]

    def write_rows(
        self, table: Sequence[Any], take: Callable[[Any], Sequence[Any]]
    ) -> List[Packet]:
        """Write rows of ``table`` (columns in table order) into their
        Packet objects and return them in row order; an admitted row
        gets its Packet built here.

        ``take`` maps a column to the values of the rows to write.  It
        is applied only to the columns a Packet stores, so writing a
        few rows back costs one gather per such column and one pass.
        """
        index_node = self.tables.index_node
        directions = self.tables.directions
        ids, pos, dest, entry, rl, al, hops, adv, defl = table[:COORDS]
        ids = take(ids)
        packets = list(map(self.by_id.get, ids))
        # Only a run carrying sources admits rows without a Packet.
        if self.sources:
            for row, (packet, source, destination) in enumerate(
                zip(packets, take(table[-1]), take(dest))
            ):
                if packet is None:
                    packets[row] = Packet(
                        id=ids[row],
                        source=index_node[source],
                        destination=index_node[destination],
                    )
        for (
            packet,
            node,
            direction,
            restricted,
            advanced,
            hop_count,
            advance_count,
            deflection_count,
        ) in zip(packets, *map(take, (pos, entry, rl, al, hops, adv, defl))):
            packet.location = index_node[node]
            packet.entry_direction = (
                None if direction < 0 else directions[direction]
            )
            packet.restricted_last_step = restricted
            packet.advanced_last_step = advanced
            packet.hops = hop_count
            packet.advances = advance_count
            packet.deflections = deflection_count
        return packets

    def unpack(self) -> List[Packet]:
        """Write every row back and return the packets in row order."""
        return self.write_rows(self.table, list)

    def compact(self, keep: Sequence[bool]) -> None:
        """Drop rows whose ``keep`` flag is False (delivered packets),
        in place, so names bound to the columns stay valid."""
        for column in self.table:
            column[:] = compress(column, keep)
