"""JSON-safe (de)serializers for the kernel-level state pieces.

Everything here is a pure value transformation: no file I/O, no RNG
consumption, no wall clock.  The conversions are exact —
``random.Random.getstate()`` tuples round-trip through lists of ints,
floats survive via JSON's shortest-repr round-trip, node tuples
become lists and come back as tuples — so a row produced by
:func:`packet_to_row` and folded back by :func:`packet_from_row`
reconstructs a packet that is indistinguishable from the original to
every kernel path.  The keyed packet dicts of schema v1 payloads
still read through :func:`packet_from_dict`.

The field lists these functions capture are declared in
:mod:`repro.snapshot.registry`; the ``SNP701`` lint rule keeps them in
lockstep with the classes they serialize.
"""

from __future__ import annotations

import random
from dataclasses import fields as dataclass_fields
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.core.metrics import StepMetrics
from repro.core.packet import Packet
from repro.dynamic.stats import DynamicStats
from repro.faults.report import RunAborted
from repro.mesh.directions import Direction
from repro.types import Node, PacketId

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.kernel import StepKernel
    from repro.faults.watchdog import RunWatchdog
    from repro.obs.telemetry import RunTelemetry

__all__ = [
    "kernel_state",
    "metrics_from_json",
    "metrics_to_json",
    "node_from_json",
    "node_to_json",
    "PACKET_FIELDS",
    "packet_from_dict",
    "packet_from_row",
    "packet_to_row",
    "restore_kernel_state",
    "restore_telemetry",
    "rng_state_from_json",
    "rng_state_to_json",
    "restore_stats",
    "stats_from_dict",
    "stats_from_v1_dict",
    "stats_to_dict",
    "watchdog_state",
    "restore_watchdog",
]

RngState = Tuple[Any, ...]


# ----------------------------------------------------------------------
# RNG streams
# ----------------------------------------------------------------------


def rng_state_to_json(state: RngState) -> List[Any]:
    """``random.Random.getstate()`` as a JSON array.

    The Mersenne Twister state is ``(version, (int, ...), gauss_next)``
    where ``gauss_next`` is ``None`` or a float; both survive JSON
    exactly (ints are arbitrary precision, floats round-trip by
    shortest repr).
    """
    version, internal, gauss_next = state
    return [int(version), [int(word) for word in internal], gauss_next]


def rng_state_from_json(data: Sequence[Any]) -> RngState:
    """Inverse of :func:`rng_state_to_json` (tuples restored)."""
    version, internal, gauss_next = data
    return (
        int(version),
        tuple(int(word) for word in internal),
        None if gauss_next is None else float(gauss_next),
    )


def capture_rng(rng: random.Random) -> List[Any]:
    return rng_state_to_json(rng.getstate())


def restore_rng(rng: random.Random, data: Sequence[Any]) -> None:
    rng.setstate(rng_state_from_json(data))


# ----------------------------------------------------------------------
# Nodes, directions, packets
# ----------------------------------------------------------------------


def node_to_json(node: Node) -> List[int]:
    return [int(coordinate) for coordinate in node]


def node_from_json(data: Sequence[Any]) -> Node:
    return tuple(int(coordinate) for coordinate in data)


def _direction_to_json(
    direction: Optional[Direction],
) -> Optional[List[int]]:
    if direction is None:
        return None
    return [int(direction.axis), int(direction.sign)]


def _direction_from_json(data: Optional[Sequence[Any]]) -> Optional[Direction]:
    if data is None:
        return None
    axis, sign = data
    return Direction(axis=int(axis), sign=int(sign))


#: Field order of a packet row: every slot of
#: :class:`~repro.core.packet.Packet`, declared once for both forms.
PACKET_FIELDS: Tuple[str, ...] = (
    "id",
    "source",
    "destination",
    "location",
    "entry_direction",
    "delivered_at",
    "dropped_at",
    "advanced_last_step",
    "restricted_last_step",
    "hops",
    "advances",
    "deflections",
    "path",
)


def packet_to_row(packet: Packet) -> List[Any]:
    """Every slot of a :class:`~repro.core.packet.Packet`, JSON-safe,
    as a positional row in :data:`PACKET_FIELDS` order (schema v2)."""
    return [
        packet.id,
        node_to_json(packet.source),
        node_to_json(packet.destination),
        node_to_json(packet.location),
        _direction_to_json(packet.entry_direction),
        packet.delivered_at,
        packet.dropped_at,
        bool(packet.advanced_last_step),
        bool(packet.restricted_last_step),
        packet.hops,
        packet.advances,
        packet.deflections,
        [node_to_json(node) for node in packet.path],
    ]


def packet_from_row(row: Sequence[Any]) -> Packet:
    """Inverse of :func:`packet_to_row`."""
    (
        packet_id,
        source,
        destination,
        location,
        entry_direction,
        delivered_at,
        dropped_at,
        advanced_last_step,
        restricted_last_step,
        hops,
        advances,
        deflections,
        path,
    ) = row
    packet = Packet(
        id=int(packet_id),
        source=node_from_json(source),
        destination=node_from_json(destination),
    )
    packet.location = node_from_json(location)
    packet.entry_direction = _direction_from_json(entry_direction)
    packet.delivered_at = None if delivered_at is None else int(delivered_at)
    packet.dropped_at = None if dropped_at is None else int(dropped_at)
    packet.advanced_last_step = bool(advanced_last_step)
    packet.restricted_last_step = bool(restricted_last_step)
    packet.hops = int(hops)
    packet.advances = int(advances)
    packet.deflections = int(deflections)
    packet.path = [node_from_json(node) for node in path]
    return packet


def packet_from_dict(data: Dict[str, Any]) -> Packet:
    """A schema v1 packet, keyed by :data:`PACKET_FIELDS` names."""
    return packet_from_row([data[name] for name in PACKET_FIELDS])


# ----------------------------------------------------------------------
# Step metrics
# ----------------------------------------------------------------------

_METRIC_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in dataclass_fields(StepMetrics)
)


def metrics_to_json(metrics: Sequence[StepMetrics]) -> List[List[int]]:
    """Per-step metrics as compact positional rows (field order is
    :class:`~repro.core.metrics.StepMetrics` declaration order)."""
    return [
        [getattr(m, name) for name in _METRIC_FIELDS] for m in metrics
    ]


def metrics_from_json(rows: Sequence[Sequence[Any]]) -> List[StepMetrics]:
    return [
        StepMetrics(**dict(zip(_METRIC_FIELDS, row))) for row in rows
    ]


# ----------------------------------------------------------------------
# Kernel state
# ----------------------------------------------------------------------


def kernel_state(kernel: "StepKernel") -> Dict[str, Any]:
    """The kernel-owned run state (packets travel by id reference;
    the engine payload carries the packet objects)."""
    faults = kernel.faults
    return {
        "time": kernel.time,
        "delivered_total": kernel.delivered_total,
        "in_flight": [packet.id for packet in kernel.in_flight],
        "abort": (
            kernel.abort.to_dict() if kernel.abort is not None else None
        ),
        "dropped_ids": (
            list(faults.dropped_ids) if faults is not None else None
        ),
    }


def restore_kernel_state(
    kernel: "StepKernel",
    payload: Dict[str, Any],
    packets_by_id: Dict[PacketId, Packet],
) -> None:
    """Overwrite a freshly-started kernel with checkpointed state.

    ``packets_by_id`` must contain every id in the payload's
    ``in_flight`` list.  The distance table is recomputed from the
    restored locations (it is a pure function of them), and the fault
    mask is left to rebuild itself on the next ``advance()`` — a fresh
    :class:`~repro.faults.state.ActiveFaults` starts with ``_step``
    unset, so the first post-resume step recompiles the mask for the
    current regime deterministically.
    """
    kernel.time = int(payload["time"])
    kernel.delivered_total = int(payload["delivered_total"])
    kernel.in_flight = [
        packets_by_id[int(packet_id)] for packet_id in payload["in_flight"]
    ]
    kernel.abort = (
        RunAborted.from_dict(payload["abort"])
        if payload["abort"] is not None
        else None
    )
    distance = kernel.mesh.distance
    kernel._dist = {
        p.id: distance(p.location, p.destination) for p in kernel.in_flight
    }
    if kernel.faults is not None and payload["dropped_ids"] is not None:
        kernel.faults.dropped_ids[:] = [
            int(packet_id) for packet_id in payload["dropped_ids"]
        ]


# ----------------------------------------------------------------------
# Telemetry, watchdog
# ----------------------------------------------------------------------


def restore_telemetry(
    telemetry: "RunTelemetry", payload: Dict[str, Any]
) -> None:
    """In-place restore: the kernel and engine share one telemetry
    object, so the instance must keep its identity."""
    for field in dataclass_fields(telemetry):
        setattr(telemetry, field.name, int(payload[field.name]))


def watchdog_state(watchdog: Optional["RunWatchdog"]) -> Optional[Dict[str, int]]:
    if watchdog is None:
        return None
    return {
        "last_progress": watchdog._last_progress,
        "last_delivered": watchdog._last_delivered,
        "next_partition_check": watchdog._next_partition_check,
    }


def restore_watchdog(
    watchdog: "RunWatchdog", payload: Dict[str, Any]
) -> None:
    watchdog._last_progress = int(payload["last_progress"])
    watchdog._last_delivered = int(payload["last_delivered"])
    watchdog._next_partition_check = int(payload["next_partition_check"])


# ----------------------------------------------------------------------
# Dynamic statistics
# ----------------------------------------------------------------------


def stats_to_dict(stats: DynamicStats) -> Dict[str, Any]:
    """A :class:`~repro.dynamic.stats.DynamicStats` as its running
    aggregates (schema v2): the latency histogram as ``[latency,
    count]`` rows in ascending latency, the recent-generation window
    as a list.  Its size depends on the number of distinct latencies,
    not on the run's horizon."""
    return {
        "warmup": stats.warmup,
        "delivered_count": stats.delivered_count,
        "latency_counts": [
            [latency, count]
            for latency, count in sorted(stats.latency_counts.items())
        ],
        "latency_sum": stats.latency_sum,
        "hop_sum": stats.hop_sum,
        "deflection_sum": stats.deflection_sum,
        "stretch_sum": stats.stretch_sum,
        "stretch_count": stats.stretch_count,
        "in_flight_sum": stats.in_flight_sum,
        "in_flight_samples": stats.in_flight_samples,
        "max_backlog": stats.max_backlog,
        "recent_generated": list(stats.recent_generated),
        "horizon": stats.horizon,
        "final_in_flight": stats.final_in_flight,
        "final_backlog": stats.final_backlog,
        "abort": stats.abort.to_dict() if stats.abort is not None else None,
    }


def _restore_final(stats: DynamicStats, payload: Dict[str, Any]) -> None:
    stats.horizon = int(payload["horizon"])
    stats.final_in_flight = int(payload["final_in_flight"])
    stats.final_backlog = int(payload["final_backlog"])
    stats.abort = (
        RunAborted.from_dict(payload["abort"])
        if payload["abort"] is not None
        else None
    )


def stats_from_dict(payload: Dict[str, Any]) -> DynamicStats:
    """Inverse of :func:`stats_to_dict`."""
    stats = DynamicStats(warmup=int(payload["warmup"]))
    stats.delivered_count = int(payload["delivered_count"])
    stats.latency_counts = {
        int(latency): int(count)
        for latency, count in payload["latency_counts"]
    }
    stats.latency_sum = int(payload["latency_sum"])
    stats.hop_sum = int(payload["hop_sum"])
    stats.deflection_sum = int(payload["deflection_sum"])
    stats.stretch_sum = float(payload["stretch_sum"])
    stats.stretch_count = int(payload["stretch_count"])
    stats.in_flight_sum = int(payload["in_flight_sum"])
    stats.in_flight_samples = int(payload["in_flight_samples"])
    stats.max_backlog = int(payload["max_backlog"])
    stats.recent_generated.extend(
        int(generated) for generated in payload["recent_generated"]
    )
    _restore_final(stats, payload)
    return stats


def stats_from_v1_dict(payload: Dict[str, Any]) -> DynamicStats:
    """A schema v1 stats payload folded into the running aggregates.

    v1 stored one row per step (``samples``) and one per counted
    delivery (``deliveries``); they are replayed through
    :meth:`~repro.dynamic.stats.DynamicStats.record_step` and
    :meth:`~repro.dynamic.stats.DynamicStats.record_deliveries` in their
    stored order, which is the order the run recorded them, so the
    float stretch sum comes out as the uninterrupted run's.
    """
    stats = DynamicStats(warmup=int(payload["warmup"]))
    for row in payload["samples"]:
        # step, generated, injected, in_flight, advancing, delivered,
        # backlog
        step, generated, _, in_flight, _, _, backlog = (
            int(value) for value in row
        )
        stats.record_step(step, generated, in_flight, backlog)
    for row in payload["deliveries"]:
        generated_at, delivered_at, hops, deflections, shortest = (
            int(value) for value in row
        )
        stats.record_deliveries(
            [generated_at], delivered_at, [hops], [deflections], [shortest]
        )
    _restore_final(stats, payload)
    return stats


def restore_stats(stats: DynamicStats, restored: DynamicStats) -> None:
    """In-place restore: the kernel's step and delivery recorders hold
    the engine's stats object, so the instance must keep its identity."""
    for field in dataclass_fields(stats):
        setattr(stats, field.name, getattr(restored, field.name))
