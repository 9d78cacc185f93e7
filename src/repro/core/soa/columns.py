"""Structure-of-arrays packet state: pack / unpack against ``Packet``.

:class:`PacketColumns` holds the mutable per-packet state of a run as
parallel plain-Python lists — one column per field, one row per
in-flight packet, rows in ``StepKernel.in_flight`` order (ascending
packet id; the kernel maintains that invariant).  Node locations are
stored as :class:`~repro.mesh.tables.ArcTables` node indices and entry
directions as canonical direction indices (``-1`` for none), so the
step kernels operate on integers only.

The columns are the interchange format between the object and array
worlds: :meth:`pack` snapshots live ``Packet`` objects (without
mutating them), :meth:`writeback_row` / :meth:`unpack` write column
state back into the same objects.  A run fed by an injection source
also carries each row's source node (:attr:`sources`): the source
admits packets as rows (:meth:`append_rows`) with no ``Packet``
behind them, and :meth:`writeback_row` builds one only when such a
row is written back at the end of a run segment.  The numpy path
converts these lists to arrays on entry and back on exit; the
pure-Python fallback loops over them directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.packet import Packet
from repro.mesh.tables import ArcTables, direction_index
from repro.types import PacketId

__all__ = ["PacketColumns"]


class PacketColumns:
    """Flat per-packet state columns (rows in packet-id order)."""

    __slots__ = (
        "tables",
        "ids",
        "pos",
        "dest",
        "dest_coords",
        "entry",
        "restricted_last",
        "advanced_last",
        "hops",
        "advances",
        "deflections",
        "sources",
        "by_id",
    )

    def __init__(self, tables: ArcTables, sources: bool = False) -> None:
        self.tables = tables
        self.ids: List[PacketId] = []
        #: Node index of the packet's current location.
        self.pos: List[int] = []
        #: Node index of the packet's destination.
        self.dest: List[int] = []
        #: Per axis, the (1-based) destination coordinate — the gather
        #: key into the per-axis packed goodness/distance tables.
        self.dest_coords: List[List[int]] = [
            [] for _ in range(tables.dimension)
        ]
        #: Canonical direction index of ``entry_direction``; -1 = None.
        self.entry: List[int] = []
        self.restricted_last: List[bool] = []
        self.advanced_last: List[bool] = []
        self.hops: List[int] = []
        self.advances: List[int] = []
        self.deflections: List[int] = []
        #: Node index of the packet's source, carried only by runs
        #: that admit rows or report deliveries (None otherwise).
        self.sources: Optional[List[int]] = [] if sources else None
        #: The live Packet object behind each packed id, for batch
        #: delivery and final unpacking; admitted rows have none.
        self.by_id: Dict[PacketId, Packet] = {}

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def pack(
        cls,
        packets: Iterable[Packet],
        tables: ArcTables,
        sources: bool = False,
    ) -> "PacketColumns":
        """Snapshot live packets into columns (packets unmodified),
        with a :attr:`sources` column when ``sources`` is set.

        Builds each column with one comprehension.
        """
        rows = list(packets)
        node_index = tables.node_index
        destinations = [packet.destination for packet in rows]
        columns = cls(tables)
        columns.ids = [packet.id for packet in rows]
        columns.pos = [node_index[packet.location] for packet in rows]
        columns.dest = [node_index[node] for node in destinations]
        columns.dest_coords = [
            [node[axis] for node in destinations]
            for axis in range(tables.dimension)
        ]
        columns.entry = [
            -1
            if packet.entry_direction is None
            else direction_index(packet.entry_direction)
            for packet in rows
        ]
        columns.restricted_last = [
            packet.restricted_last_step for packet in rows
        ]
        columns.advanced_last = [packet.advanced_last_step for packet in rows]
        columns.hops = [packet.hops for packet in rows]
        columns.advances = [packet.advances for packet in rows]
        columns.deflections = [packet.deflections for packet in rows]
        if sources:
            columns.sources = [node_index[packet.source] for packet in rows]
        columns.by_id = dict(zip(columns.ids, rows))
        return columns

    def append_rows(
        self,
        ids: Sequence[PacketId],
        sources: Sequence[int],
        destinations: Sequence[int],
    ) -> None:
        """Add admitted packets as the last rows, with no ``Packet``
        behind them: each sits at its source with no step history.
        Needs the :attr:`sources` column."""
        assert self.sources is not None, "columns carry no sources"
        count = len(ids)
        coords = self.tables.coords
        self.ids.extend(ids)
        self.pos.extend(sources)
        self.dest.extend(destinations)
        for axis, column in enumerate(self.dest_coords):
            column.extend([coords[axis][node] for node in destinations])
        self.entry.extend([-1] * count)
        self.restricted_last.extend([False] * count)
        self.advanced_last.extend([False] * count)
        self.hops.extend([0] * count)
        self.advances.extend([0] * count)
        self.deflections.extend([0] * count)
        self.sources.extend(sources)

    def writeback_row(self, row: int) -> Packet:
        """Write row state back into its Packet object and return it;
        an admitted row gets its Packet built here."""
        tables = self.tables
        packet_id = self.ids[row]
        packet = self.by_id.get(packet_id)
        if packet is None:
            assert self.sources is not None, "row has no packet or source"
            packet = Packet(
                id=packet_id,
                source=tables.index_node[self.sources[row]],
                destination=tables.index_node[self.dest[row]],
            )
            self.by_id[packet_id] = packet
        packet.location = tables.index_node[self.pos[row]]
        entry = self.entry[row]
        packet.entry_direction = (
            None if entry < 0 else tables.directions[entry]
        )
        packet.restricted_last_step = self.restricted_last[row]
        packet.advanced_last_step = self.advanced_last[row]
        packet.hops = self.hops[row]
        packet.advances = self.advances[row]
        packet.deflections = self.deflections[row]
        return packet

    def unpack(self) -> List[Packet]:
        """Write every row back and return the packets in row order."""
        return [self.writeback_row(row) for row in range(len(self.ids))]

    def compact(self, keep: List[bool]) -> None:
        """Drop rows whose ``keep`` flag is False (delivered packets)."""
        selected = [row for row, flag in enumerate(keep) if flag]
        self.ids = [self.ids[row] for row in selected]
        self.pos = [self.pos[row] for row in selected]
        self.dest = [self.dest[row] for row in selected]
        self.dest_coords = [
            [column[row] for row in selected]
            for column in self.dest_coords
        ]
        self.entry = [self.entry[row] for row in selected]
        self.restricted_last = [
            self.restricted_last[row] for row in selected
        ]
        self.advanced_last = [self.advanced_last[row] for row in selected]
        self.hops = [self.hops[row] for row in selected]
        self.advances = [self.advances[row] for row in selected]
        self.deflections = [self.deflections[row] for row in selected]
        if self.sources is not None:
            sources = self.sources
            self.sources = [sources[row] for row in selected]
