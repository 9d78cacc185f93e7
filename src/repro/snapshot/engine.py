"""Engine-level snapshot and resume for all four engines.

One payload shape serves the batch engines (hot-potato and buffered —
full packet list, per-step metrics) and the dynamic engines (live
packets only, plus injection-source and statistics state).  The
protocol is deliberately *overwrite after start*:

1. the caller constructs a fresh engine from the same inputs (problem
   or mesh/traffic, policy, seed, faults, observers, ...);
2. :func:`resume_engine` runs the engine's normal ``_start()`` — the
   policy and source consume the seed stream exactly as the original
   run did, mesh-derived tables rebuild, observers see
   ``on_run_start``;
3. every captured field is then overwritten with the checkpointed
   value: both RNG streams (the engine stream *and* the policy's
   spawned stream — they are distinct ``random.Random`` instances and
   both advance during a run), packets, kernel counters, telemetry and
   dynamic statistics (in place — the kernel's callbacks hold those
   instances), recorder and watchdog state.

Because step N's outcome is a pure function of the state captured
here, the resumed engine's remaining steps are bit-identical to the
uninterrupted run's — results, telemetry, *and* the RNG streams
themselves — which the differential suite
(``tests/snapshot/``) proves per engine × backend, with and without
fault schedules.

Snapshots are JSON-safe dicts stamped with
:data:`SNAPSHOT_SCHEMA_VERSION`; :func:`save_snapshot` writes them
atomically (tmp file + ``os.replace``) so a crash mid-checkpoint
leaves the previous checkpoint intact.  Resume and
:func:`load_snapshot` also read schema v1 payloads (keyed packet
dicts, per-step and per-delivery statistics rows).
"""

from __future__ import annotations

import json
import os
import random
from typing import Any, Dict, List, Optional

from repro.snapshot.state import (
    kernel_state,
    metrics_from_json,
    metrics_to_json,
    packet_from_dict,
    packet_from_row,
    packet_to_row,
    restore_kernel_state,
    restore_stats,
    restore_telemetry,
    restore_watchdog,
    rng_state_from_json,
    rng_state_to_json,
    stats_from_dict,
    stats_from_v1_dict,
    stats_to_dict,
    watchdog_state,
)

__all__ = [
    "SNAPSHOT_SCHEMA_VERSION",
    "engine_snapshot",
    "load_snapshot",
    "resume_engine",
    "save_snapshot",
]

#: The payload shape this revision writes; bump it when that shape
#: changes incompatibly.  Version 2 carries packets as positional rows
#: (field order :data:`~repro.snapshot.state.PACKET_FIELDS`) and a
#: dynamic run's statistics as running aggregates
#: (:func:`~repro.snapshot.state.stats_to_dict`), so a dynamic
#: checkpoint no longer grows with the run's horizon.  Version 1 keyed
#: each packet by field name and stored one statistics row per step
#: and per delivery.
SNAPSHOT_SCHEMA_VERSION = 2

#: Payload versions resume and :func:`load_snapshot` accept.
_READABLE_VERSIONS = (1, SNAPSHOT_SCHEMA_VERSION)

#: Engine kinds with a full-packet-list payload (batch semantics).
_BATCH_KINDS = ("hot-potato", "buffered")

#: Engine kinds whose payload carries injection-source state.
_DYNAMIC_KINDS = ("dynamic", "buffered-dynamic")


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------


def _policy_state(policy: Any) -> Dict[str, Any]:
    """Capture a policy's mutable state.

    Every shipped policy with randomness keeps a spawned private
    stream in ``_rng`` (see :func:`repro.core.rng.spawn`); capturing
    only the engine stream would silently diverge any RNG-consuming
    policy on resume.  Policies with further state (the random-rank
    table) expose ``snapshot_state()`` / ``restore_state()``.
    """
    state: Dict[str, Any] = {}
    rng = getattr(policy, "_rng", None)
    if isinstance(rng, random.Random):
        state["rng"] = rng_state_to_json(rng.getstate())
    snapshot_extra = getattr(policy, "snapshot_state", None)
    if callable(snapshot_extra):
        state["extra"] = snapshot_extra()
    return state


def _restore_policy(policy: Any, payload: Dict[str, Any]) -> None:
    if "rng" in payload:
        rng = getattr(policy, "_rng", None)
        if not isinstance(rng, random.Random):
            raise ValueError(
                f"snapshot carries a policy RNG stream but "
                f"{type(policy).__name__} has none"
            )
        rng.setstate(rng_state_from_json(payload["rng"]))
    if "extra" in payload:
        restore_extra = getattr(policy, "restore_state", None)
        if not callable(restore_extra):
            raise ValueError(
                f"snapshot carries extra policy state but "
                f"{type(policy).__name__} has no restore_state()"
            )
        restore_extra(payload["extra"])


def _observer_states(observers: List[Any]) -> List[Optional[Any]]:
    states: List[Optional[Any]] = []
    for observer in observers:
        snapshot = getattr(observer, "snapshot_state", None)
        states.append(snapshot() if callable(snapshot) else None)
    return states


def _restore_observers(
    observers: List[Any], states: List[Optional[Any]]
) -> None:
    if len(states) != len(observers):
        raise ValueError(
            f"snapshot carries {len(states)} observer states but the "
            f"engine has {len(observers)} observers; attach the same "
            f"observers in the same order before resuming"
        )
    for observer, state in zip(observers, states):
        if state is None:
            continue
        restore = getattr(observer, "restore_state", None)
        if not callable(restore):
            raise ValueError(
                f"snapshot carries state for observer "
                f"{type(observer).__name__} but it has no restore_state()"
            )
        restore(state)


def _engine_kind(engine: Any) -> str:
    """Classify an engine instance into its snapshot kind."""
    name = type(engine).__name__
    if name == "HotPotatoEngine":
        return "hot-potato"
    if name == "BufferedEngine":
        return "buffered"
    # Dynamic engines subclass DynamicEngineBase and declare
    # ``buffered``; accept any subclass.
    if hasattr(engine, "traffic") and hasattr(engine, "_source"):
        return "buffered-dynamic" if engine.buffered else "dynamic"
    raise TypeError(f"cannot snapshot a {name}")


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------


def engine_snapshot(engine: Any) -> Dict[str, Any]:
    """Capture an engine's complete mid-run state as a JSON-safe dict.

    Works before the first step (the engine is started first, so the
    seeded prepare happens exactly once) and at any step boundary.
    """
    kind = _engine_kind(engine)
    if kind in _BATCH_KINDS and getattr(engine, "record_steps", False):
        raise ValueError(
            "snapshots do not capture step records; run with "
            "record_steps=False to checkpoint"
        )
    engine._start()
    payload: Dict[str, Any] = {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "kind": kind,
        "step": engine.time,
        "seed": engine._seed,
        "rng": rng_state_to_json(engine.rng.getstate()),
        "policy": _policy_state(engine.policy),
        "kernel": kernel_state(engine._kernel),
        "telemetry": engine.telemetry.to_dict(),
        "watchdog": watchdog_state(engine.watchdog),
        "observers": _observer_states(engine.observers),
    }
    if kind in _BATCH_KINDS:
        payload["packets"] = [packet_to_row(p) for p in engine.packets]
        payload["metrics"] = metrics_to_json(engine._metrics)
        if kind == "buffered":
            payload["max_buffer_seen"] = engine.max_buffer_seen
    else:
        payload["packets"] = [
            packet_to_row(p) for p in engine._kernel.in_flight
        ]
        payload["source"] = engine._source.snapshot_state()
        payload["stats"] = stats_to_dict(engine._stats)
    return payload


# ----------------------------------------------------------------------
# Resume
# ----------------------------------------------------------------------


def _check_version(payload: Dict[str, Any]) -> None:
    version = payload.get("schema_version")
    if version not in _READABLE_VERSIONS:
        raise ValueError(
            f"unsupported snapshot schema_version {version!r} "
            f"(expected one of {_READABLE_VERSIONS})"
        )


def _check_resumable(engine: Any, payload: Dict[str, Any]) -> str:
    _check_version(payload)
    kind = _engine_kind(engine)
    if payload.get("kind") != kind:
        raise ValueError(
            f"snapshot kind {payload.get('kind')!r} does not match "
            f"this {kind!r} engine"
        )
    if engine._started:
        raise ValueError(
            "resume_from() needs a fresh engine (construct it from the "
            "same inputs, then resume before running)"
        )
    if payload.get("seed") != engine._seed:
        raise ValueError(
            f"snapshot seed {payload.get('seed')!r} does not match the "
            f"engine seed {engine._seed!r}; resuming under a different "
            f"seed would silently diverge"
        )
    return kind


def resume_engine(engine: Any, payload: Dict[str, Any]) -> None:
    """Overwrite a fresh engine with checkpointed state (see module
    docstring for the protocol)."""
    kind = _check_resumable(engine, payload)
    engine._start()
    engine.rng.setstate(rng_state_from_json(payload["rng"]))
    _restore_policy(engine.policy, payload["policy"])

    legacy = payload["schema_version"] == 1
    read_packet = packet_from_dict if legacy else packet_from_row
    packets = [read_packet(data) for data in payload["packets"]]
    by_id = {packet.id: packet for packet in packets}
    if kind in _BATCH_KINDS:
        expected = {packet.id for packet in engine.packets}
        if expected != set(by_id):
            raise ValueError(
                "snapshot packet ids do not match the engine's problem; "
                "resume needs the identical problem (same workload, "
                "same seed)"
            )
        engine.packets = packets
        engine._metrics[:] = metrics_from_json(payload["metrics"])
    else:
        engine._source.restore_state(payload["source"])
        read_stats = stats_from_v1_dict if legacy else stats_from_dict
        restore_stats(engine._stats, read_stats(payload["stats"]))

    restore_kernel_state(engine._kernel, payload["kernel"], by_id)
    restore_telemetry(engine.telemetry, payload["telemetry"])
    if payload["watchdog"] is not None:
        if engine.watchdog is None:
            raise ValueError(
                "snapshot carries watchdog state but the engine has no "
                "watchdog; construct it with the original fault schedule"
            )
        restore_watchdog(engine.watchdog, payload["watchdog"])
    _restore_observers(engine.observers, payload["observers"])
    # run() must not re-baseline the restored watchdog counters.
    engine._resumed = True


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------


def save_snapshot(payload: Dict[str, Any], path: str) -> None:
    """Write a snapshot atomically (tmp + rename, fsynced).

    A crash during the write leaves either the previous snapshot or
    the new one at ``path`` — never a torn file — so `--resume-from`
    always sees a parseable payload.
    """
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def load_snapshot(path: str) -> Dict[str, Any]:
    """Read a snapshot written by :func:`save_snapshot` (validated)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    _check_version(payload)
    if payload.get("kind") not in _BATCH_KINDS + _DYNAMIC_KINDS:
        raise ValueError(f"unknown snapshot kind {payload.get('kind')!r}")
    return payload
