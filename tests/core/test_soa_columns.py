"""SoA column round-trips, fallback selection, and rejected configs.

The differential suites prove whole runs bit-identical; these unit
tests pin the seams of the structure-of-arrays backend in isolation —
:class:`~repro.core.soa.columns.PacketColumns` pack/writeback against
mid-run object state, the numpy/pure-Python path auto-selection, and
the ValueErrors for every configuration ``backend="soa"`` refuses.
"""

import pytest

from repro.algorithms import (
    DimensionOrderPolicy,
    RestrictedPriorityPolicy,
)
from repro.core.buffered_engine import BufferedEngine
from repro.core.engine import HotPotatoEngine
from repro.core.packet import Packet
from repro.core.soa import SoaKernel, _compat, adapter_for
from repro.core.soa.columns import PacketColumns
from repro.core.validation import validators_for
from repro.dynamic import BernoulliTraffic, DynamicEngine
from repro.faults import FaultSchedule, PacketDrop, RunWatchdog
from repro.mesh.tables import arc_tables_for, direction_index
from repro.mesh.topology import Mesh
from repro.workloads import random_many_to_many, random_permutation


def _problem(seed=3):
    return random_permutation(Mesh(2, 5), seed=seed)


def _engine(backend="object", *, policy=None, **kwargs):
    policy = policy if policy is not None else RestrictedPriorityPolicy()
    return HotPotatoEngine(
        _problem(),
        policy,
        seed=11,
        validators=validators_for(policy, strict=False),
        backend=backend,
        **kwargs,
    )


#: Every Packet attribute PacketColumns carries (id is the row key).
_CARRIED = (
    "location",
    "entry_direction",
    "restricted_last_step",
    "advanced_last_step",
    "hops",
    "advances",
    "deflections",
)


def _snapshot(packet):
    return {name: getattr(packet, name) for name in _CARRIED}


class TestPackUnpackRoundTrip:
    def _mid_run_packets(self):
        # A truncated run leaves packets with non-trivial state:
        # interior locations, entry directions, mixed flags, counters.
        engine = _engine(max_steps=4)
        engine.run()
        packets = list(engine.in_flight)
        assert packets, "workload must leave packets in flight"
        assert any(p.entry_direction is not None for p in packets)
        return packets

    def test_pack_equals_row_by_row_append(self):
        # A dense batch, so some packets have been deflected, plus one
        # packet that has not moved yet (no entry direction).
        policy = RestrictedPriorityPolicy()
        problem = random_many_to_many(Mesh(2, 5), k=60, seed=3)
        engine = HotPotatoEngine(
            problem,
            policy,
            seed=11,
            validators=validators_for(policy, strict=False),
            max_steps=4,
        )
        engine.run()
        packets = list(engine.in_flight) + [
            Packet(id=problem.k, source=(1, 1), destination=(5, 5))
        ]
        assert any(p.entry_direction is None for p in packets)
        assert any(p.entry_direction is not None for p in packets)
        assert any(p.restricted_last_step for p in packets)
        assert any(p.advanced_last_step for p in packets)
        assert any(p.deflections for p in packets)
        tables = arc_tables_for(Mesh(2, 5))
        node_index = tables.node_index

        def rows_of(columns):
            ids, pos, dest, entry, rl, al, hops, adv, defl, dcs, srcs = (
                columns.fields()
            )
            return [
                (
                    ids[row],
                    pos[row],
                    dest[row],
                    [column[row] for column in dcs],
                    entry[row],
                    rl[row],
                    al[row],
                    hops[row],
                    adv[row],
                    defl[row],
                    srcs[row],
                )
                for row in range(len(columns))
            ]

        packed = PacketColumns.pack(iter(packets), tables, sources=True)
        # Each packed row is its packet's state, encoded row by row.
        assert rows_of(packed) == [
            (
                p.id,
                node_index[p.location],
                node_index[p.destination],
                list(p.destination),
                -1
                if p.entry_direction is None
                else direction_index(p.entry_direction),
                p.restricted_last_step,
                p.advanced_last_step,
                p.hops,
                p.advances,
                p.deflections,
                node_index[p.source],
            )
            for p in packets
        ]
        assert list(packed.by_id.values()) == packets
        unsourced = PacketColumns.pack(packets, tables)
        assert unsourced.fields()[-1] is None
        assert unsourced.table == packed.table[:-1]

        # Admitted packets: their rows, appended one by one with no
        # Packet behind them and all at once as one block, equal the
        # packed fresh packets, and the writeback builds those packets.
        fresh = [
            Packet(id=problem.k + 1, source=(2, 3), destination=(1, 5)),
            Packet(id=problem.k + 2, source=(5, 5), destination=(1, 1)),
            Packet(id=problem.k + 3, source=(2, 3), destination=(4, 2)),
        ]
        reference = PacketColumns.pack(fresh, tables, sources=True)
        one_by_one = PacketColumns(tables, sources=True)
        for packet in fresh:
            block = one_by_one.fresh_rows(
                [packet.id],
                [node_index[packet.source]],
                [node_index[packet.destination]],
            )
            for column, rows in zip(one_by_one.table, block):
                column.extend(rows)
        at_once = PacketColumns(tables, sources=True)
        for column, rows in zip(
            at_once.table,
            at_once.fresh_rows(
                [packet.id for packet in fresh],
                [node_index[packet.source] for packet in fresh],
                [node_index[packet.destination] for packet in fresh],
            ),
        ):
            column.extend(rows)
        for appended in (one_by_one, at_once):
            assert rows_of(appended) == rows_of(reference)
            assert appended.table == reference.table
            assert appended.by_id == {}
            rebuilt = appended.unpack()
            assert rebuilt == fresh
            assert [_snapshot(p) for p in rebuilt] == [
                _snapshot(p) for p in fresh
            ]

    def test_pack_does_not_mutate_packets(self):
        packets = self._mid_run_packets()
        before = [_snapshot(p) for p in packets]
        PacketColumns.pack(packets, arc_tables_for(Mesh(2, 5)))
        assert [_snapshot(p) for p in packets] == before

    def test_unpack_restores_every_carried_attribute(self):
        packets = self._mid_run_packets()
        expected = [_snapshot(p) for p in packets]
        columns = PacketColumns.pack(packets, arc_tables_for(Mesh(2, 5)))
        # Scramble the live objects; unpack must restore them from the
        # columns alone.
        for packet in packets:
            packet.location = (1, 1)
            packet.entry_direction = None
            packet.restricted_last_step = not packet.restricted_last_step
            packet.advanced_last_step = not packet.advanced_last_step
            packet.hops += 100
            packet.advances += 100
            packet.deflections += 100
        restored = columns.unpack()
        assert restored == packets  # same objects, row order = id order
        assert [_snapshot(p) for p in restored] == expected
        assert all(
            type(p.restricted_last_step) is bool
            and type(p.advanced_last_step) is bool
            for p in restored
        )

    def test_rows_follow_in_flight_order(self):
        packets = self._mid_run_packets()
        columns = PacketColumns.pack(packets, arc_tables_for(Mesh(2, 5)))
        ids, pos, dest = columns.fields()[:3]
        assert ids == [p.id for p in packets]
        assert len(columns) == len(packets)
        tables = columns.tables
        assert [tables.index_node[i] for i in pos] == [
            p.location for p in packets
        ]
        assert [tables.index_node[i] for i in dest] == [
            p.destination for p in packets
        ]

    def test_compact_drops_unkept_rows(self):
        packets = self._mid_run_packets()
        columns = PacketColumns.pack(
            packets, arc_tables_for(Mesh(2, 5)), sources=True
        )
        keep = [row % 2 == 0 for row in range(len(columns))]
        expected = [
            [value for value, flag in zip(column, keep) if flag]
            for column in columns.table
        ]
        columns.compact(keep)
        assert columns.table == expected
        assert len(columns) == sum(keep)

    def test_compact_keeps_each_column_object(self):
        # The columnar loop binds its column names once per run.
        packets = self._mid_run_packets()
        columns = PacketColumns.pack(
            packets, arc_tables_for(Mesh(2, 5)), sources=True
        )
        ids, pos, dest, entry, rl, al, hops, adv, defl, dcs, srcs = (
            columns.fields()
        )
        bound = [ids, pos, dest, entry, rl, al, hops, adv, defl, *dcs, srcs]
        keep = [row % 3 == 0 for row in range(len(columns))]
        kept_ids = [pid for pid, flag in zip(ids, keep) if flag]
        columns.compact(keep)
        assert len(bound) == len(columns.table)
        assert all(
            name is column for name, column in zip(bound, columns.table)
        )
        assert ids == kept_ids

    def test_numpy_round_trip(self):
        np = pytest.importorskip("numpy")
        packets = self._mid_run_packets()
        for sources in (False, True):
            columns = PacketColumns.pack(
                packets, arc_tables_for(Mesh(2, 5)), sources=sources
            )
            arrays = columns.arrays(np)
            assert len(arrays) == len(columns.table)
            back = [array.tolist() for array in arrays]
            assert back == columns.table
            assert [type(column[0]) for column in back] == [
                type(column[0]) for column in columns.table
            ]
            rl, al = columns.fields(back)[4:6]
            assert {type(flag) for flag in rl + al} == {bool}
        # An empty table keeps its dtypes, so admitted rows join it as
        # integers and flags.
        empty = PacketColumns(arc_tables_for(Mesh(2, 5)), sources=True)
        dtypes = [array.dtype for array in empty.arrays(np)]
        grown = [
            np.concatenate((array, block)).dtype
            for array, block in zip(
                empty.arrays(np), empty.fresh_rows([7], [3], [12])
            )
        ]
        assert grown == dtypes
        assert {str(dtype) for dtype in dtypes} == {"int64", "bool"}

    def test_write_rows_block_equals_row_by_row(self):
        tables = arc_tables_for(Mesh(2, 5))
        node_index = tables.node_index
        packets = self._mid_run_packets()
        columns = PacketColumns.pack(packets, tables, sources=True)
        for column, rows in zip(
            columns.table,
            columns.fresh_rows(
                [100, 101], [node_index[(2, 2)], 0], [node_index[(4, 1)], 7]
            ),
        ):
            column.extend(rows)
        expected = columns.unpack()
        snapshots = [_snapshot(p) for p in expected]
        # Scramble the packed packets, then write the rows back alone.
        for packet in packets:
            packet.hops += 50
            packet.entry_direction = None
        picked = [0, 2, len(columns) - 2, len(columns) - 1]
        one_by_one = [
            columns.write_rows(columns.table, lambda column: [column[row]])[0]
            for row in picked
        ]
        for packet in packets:
            packet.hops += 50
        block = columns.write_rows(
            columns.table, lambda column: [column[row] for row in picked]
        )
        assert block == one_by_one == [expected[row] for row in picked]
        assert [_snapshot(p) for p in block] == [
            snapshots[row] for row in picked
        ]
        # Packed rows write into their own Packet; an admitted row,
        # which has none, gets a new one each time.
        assert block[0] is packets[0] and block[1] is packets[2]
        assert block[2] is not one_by_one[2]
        assert block[2].source == (2, 2) and block[3].id == 101
        assert columns.by_id == dict(zip(columns.table[0][:-2], packets))


class TestPathSelection:
    """``SoaKernel.vectorized`` — decided at construction time."""

    def _kernel_for(self, policy):
        engine = _engine(policy=policy)
        adapter = adapter_for(policy, buffered=False, has_injection=False)
        return engine._kernel, adapter

    def test_rng_free_policy_vectorizes_with_numpy(self):
        pytest.importorskip("numpy")
        kernel, adapter = self._kernel_for(RestrictedPriorityPolicy())
        assert SoaKernel(kernel, adapter).vectorized is True

    def test_rng_consuming_policy_forces_columnar(self):
        policy = RestrictedPriorityPolicy(tie_break="random")
        kernel, adapter = self._kernel_for(policy)
        assert SoaKernel(kernel, adapter).vectorized is False

    def test_missing_numpy_auto_selects_pure_python(self):
        kernel, adapter = self._kernel_for(RestrictedPriorityPolicy())
        saved = _compat.np
        _compat.np = None
        try:
            assert SoaKernel(kernel, adapter).vectorized is False
        finally:
            _compat.np = saved

    def test_missing_numpy_engine_still_runs(self):
        expected = _engine().run()
        soa = _engine(backend="soa")
        saved = _compat.np
        _compat.np = None
        try:
            assert soa.run() == expected
        finally:
            _compat.np = saved


class TestRejectedConfigurations:
    def test_unknown_backend_string(self):
        with pytest.raises(ValueError, match="backend must be"):
            _engine(backend="simd")

    def test_record_paths_is_rejected(self):
        with pytest.raises(ValueError, match="record_paths"):
            _engine(backend="soa", record_paths=True)

    def test_watchdog_is_rejected(self):
        with pytest.raises(ValueError, match="watchdog"):
            _engine(backend="soa", watchdog=RunWatchdog())

    def test_nonempty_fault_schedule_is_rejected(self):
        schedule = FaultSchedule(
            events=(PacketDrop(node=(1, 1), step=2),)
        )
        with pytest.raises(ValueError, match="fault"):
            _engine(backend="soa", faults=schedule)

    def test_empty_fault_schedule_is_accepted(self):
        engine = _engine(backend="soa", faults=FaultSchedule.empty())
        assert engine.run().completed

    def test_policy_subclass_is_rejected(self):
        # Adapters match by exact class: a subclass may override the
        # priority logic, so it must fall back to backend="object".
        class Tweaked(RestrictedPriorityPolicy):
            pass

        with pytest.raises(ValueError, match="does not support policy"):
            _engine(backend="soa", policy=Tweaked())

    def test_buffered_policy_on_hot_potato_engine_is_rejected(self):
        with pytest.raises(ValueError, match="buffered"):
            adapter_for(
                DimensionOrderPolicy(), buffered=False, has_injection=False
            )

    def test_hot_potato_policy_on_buffered_engine_is_rejected(self):
        with pytest.raises(ValueError, match="buffered"):
            BufferedEngine(
                _problem(),
                RestrictedPriorityPolicy(),
                seed=0,
                backend="soa",
            )

    def test_strict_validators_fail_at_run_time(self):
        policy = RestrictedPriorityPolicy()
        engine = HotPotatoEngine(
            _problem(), policy, seed=11, backend="soa"
        )  # default validators are strict -> not lean-eligible
        with pytest.raises(ValueError, match="lean loop only"):
            engine.run()

    def test_record_steps_fails_at_run_time(self):
        engine = _engine(backend="soa", record_steps=True)
        with pytest.raises(ValueError, match="lean loop only"):
            engine.run()

    def test_dynamic_step_observers_fail_at_run_time(self):
        class StepConsumer:
            needs_steps = True

            def on_run_start(self, engine):
                pass

        engine = DynamicEngine(
            Mesh(2, 4),
            RestrictedPriorityPolicy(),
            BernoulliTraffic(rate=0.05),
            seed=5,
            backend="soa",
            observers=(StepConsumer(),),
        )
        with pytest.raises(ValueError, match="observers"):
            engine.run(10)
