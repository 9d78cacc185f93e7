"""The event-sourced campaign ledger.

A campaign's durable state is an append-only JSONL file of immutable
events, one JSON object per line:

* ``case-queued``   — a spec entered the campaign; carries the full
  canonical spec dict, so the file alone suffices to resume;
* ``case-started``  — the case was dispatched to execution;
* ``case-finished`` — the case produced a summary-level point
  (:func:`repro.campaign.results.point_to_dict` payload);
* ``case-failed``   — the case raised; carries the
  :class:`~repro.campaign.results.CaseFailure` payload;
* ``case-checkpointed`` — a mid-run engine snapshot for the case (see
  :mod:`repro.snapshot`); a later checkpoint supersedes an earlier
  one, and the first ``case-finished`` discards them all, so a killed
  case resumes from its last checkpoint instead of step 0.

Every line carries ``schema_version`` and a ``created_at`` timestamp
(via the sanctioned :func:`repro.obs.clock.utc_now_iso`); every event
names its case by the content-derived
:func:`~repro.campaign.spec.spec_key`.  Appends go through
:func:`repro.obs.manifest.append_jsonl` with ``fsync=True``: once an append
returns, a crash can lose at most a torn trailing line, never an
acknowledged event.  :meth:`CampaignStore.replay` folds the log into
current state with the same torn-line tolerance as
:func:`~repro.obs.manifest.read_manifests`: damaged or foreign lines
are skipped and described in ``errors``, and the case a torn
``case-finished`` acknowledged simply runs again.

Because events are immutable and replay is a pure fold, properties a
mutable checkpoint file could not express come for free: the first
``case-finished`` for a key wins (duplicates from a crash-retry race
are ignored), a ``case-failed`` key is re-runnable on resume, and the
queue order — priority first, then submission order — is recoverable
from the log alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.campaign.results import (
    CaseFailure,
    ExperimentPoint,
    point_from_dict,
    point_to_dict,
)
from repro.campaign.spec import CaseSpec
from repro.obs.clock import utc_now_iso
from repro.obs.manifest import append_jsonl

__all__ = [
    "EVENT_KINDS",
    "EVENT_SCHEMA_VERSION",
    "CampaignState",
    "CampaignStore",
]

#: Bump when event fields change incompatibly.
EVENT_SCHEMA_VERSION = 1

#: The closed vocabulary of event kinds.
EVENT_KINDS: Tuple[str, ...] = (
    "case-queued",
    "case-started",
    "case-finished",
    "case-failed",
    "case-checkpointed",
)


@dataclass
class CampaignState:
    """The fold of an event log: current status per case key.

    ``specs`` and ``order`` reflect ``case-queued`` events (insertion
    order); ``status`` holds the latest lifecycle state per key except
    that ``finished`` is sticky — replay ignores anything after the
    first ``case-finished`` for a key.  ``errors`` describes skipped
    lines (torn tails, unknown kinds, malformed payloads).
    """

    specs: Dict[str, CaseSpec] = field(default_factory=dict)
    order: List[str] = field(default_factory=list)
    status: Dict[str, str] = field(default_factory=dict)
    points: Dict[str, ExperimentPoint] = field(default_factory=dict)
    failures: Dict[str, CaseFailure] = field(default_factory=dict)
    #: Latest mid-run snapshot per unfinished key (the resume seed for
    #: a killed case); dropped the moment the key finishes.
    checkpoints: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    #: Event ``created_at`` stamps per key: when the case was first
    #: queued, last dispatched, and first finished.  Live progress
    #: (:mod:`repro.campaign.progress`) derives throughput and ETA from
    #: these alone, so a watcher needs nothing but the log file.
    queued_at: Dict[str, str] = field(default_factory=dict)
    started_at: Dict[str, str] = field(default_factory=dict)
    finished_at: Dict[str, str] = field(default_factory=dict)

    def pending(self) -> List[str]:
        """Keys still owed a result, in execution order.

        Higher ``priority`` runs first; ties keep queue order.  Failed
        cases count as pending — an immutable log makes re-running
        them safe (a later ``case-finished`` supersedes the failure).
        """
        position = {key: index for index, key in enumerate(self.order)}
        open_keys = [
            key for key in self.order if key not in self.points
        ]
        return sorted(
            open_keys,
            key=lambda key: (-self.specs[key].priority, position[key]),
        )

    def counts(self) -> Dict[str, int]:
        """Cases per lifecycle state (``finished`` includes restored)."""
        out = {"queued": 0, "started": 0, "finished": 0, "failed": 0}
        for key in self.order:
            if key in self.points:
                out["finished"] += 1
            elif key in self.failures and self.status.get(key) == "failed":
                out["failed"] += 1
            elif self.status.get(key) == "started":
                out["started"] += 1
            else:
                out["queued"] += 1
        return out


class CampaignStore:
    """Append-only event log for one campaign (one JSONL file)."""

    def __init__(self, path: str) -> None:
        self.path = path

    # -- writing -------------------------------------------------------

    def _event(self, kind: str, key: str, **payload: Any) -> Dict[str, Any]:
        event: Dict[str, Any] = {
            "schema_version": EVENT_SCHEMA_VERSION,
            "event": kind,
            "key": key,
            "created_at": utc_now_iso(timespec="milliseconds"),
        }
        event.update(payload)
        return event

    def queue(self, entries: Sequence[Tuple[str, CaseSpec]]) -> None:
        """Durably append ``case-queued`` for each (key, spec) — one
        fsync for the whole batch."""
        append_jsonl(
            [
                self._event("case-queued", key, spec=spec.to_dict())
                for key, spec in entries
            ],
            self.path,
            fsync=True,
        )

    def start(self, keys: Sequence[str]) -> None:
        """Durably append ``case-started`` for each key (one fsync)."""
        append_jsonl(
            [self._event("case-started", key) for key in keys],
            self.path,
            fsync=True,
        )

    def finish(self, key: str, point: ExperimentPoint) -> None:
        """Durably append one ``case-finished`` (fsynced on return)."""
        append_jsonl(
            [self._event("case-finished", key, point=point_to_dict(point))],
            self.path,
            fsync=True,
        )

    def fail(self, key: str, failure: CaseFailure) -> None:
        """Durably append one ``case-failed`` (fsynced on return)."""
        append_jsonl(
            [self._event("case-failed", key, failure=failure.to_dict())],
            self.path,
            fsync=True,
        )

    def checkpoint(self, key: str, snapshot: Mapping[str, Any]) -> None:
        """Durably append one ``case-checkpointed`` (fsynced on
        return); ``snapshot`` is an engine snapshot payload from
        :mod:`repro.snapshot`."""
        append_jsonl(
            [
                self._event(
                    "case-checkpointed",
                    key,
                    step=int(snapshot.get("step", 0)),
                    snapshot=dict(snapshot),
                )
            ],
            self.path,
            fsync=True,
        )

    # -- reading -------------------------------------------------------

    def replay(self) -> CampaignState:
        """Fold the log into current state (missing file = fresh).

        The file is read as *bytes* and decoded per line: a crash can
        tear the trailing line anywhere, including mid-way through a
        multi-byte UTF-8 sequence, and a text-mode iterator would
        raise ``UnicodeDecodeError`` from the read itself — outside
        any per-line tolerance.  Decoding inside the per-line ``try``
        turns every form of torn tail (truncated JSON, split UTF-8,
        several unterminated lines from torn multi-event appends) into
        a recorded error instead of an unreadable store.
        """
        state = CampaignState()
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            return state
        with handle:
            for number, raw in enumerate(handle, start=1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    # UnicodeDecodeError is a ValueError subclass, so
                    # a torn multi-byte character lands in the same
                    # tolerance as torn JSON.
                    self._apply(state, json.loads(raw.decode("utf-8")))
                except (ValueError, TypeError, KeyError) as problem:
                    state.errors.append(
                        f"{self.path}:{number}: {problem}"
                    )
        return state

    def _apply(self, state: CampaignState, data: Mapping[str, Any]) -> None:
        version = data.get("schema_version")
        if version != EVENT_SCHEMA_VERSION:
            raise ValueError(
                f"event schema_version {version!r} != {EVENT_SCHEMA_VERSION}"
            )
        kind = data.get("event")
        key = data.get("key")
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        if not isinstance(key, str) or not key:
            raise ValueError(f"event {kind!r} without a case key")
        created_at = data.get("created_at")
        stamp = created_at if isinstance(created_at, str) else ""
        if kind == "case-queued":
            if key not in state.specs:
                state.specs[key] = CaseSpec.from_dict(data["spec"])
                state.order.append(key)
                state.status[key] = "queued"
                if stamp:
                    state.queued_at[key] = stamp
            return
        if key not in state.specs:
            raise ValueError(f"event {kind!r} for unqueued key {key!r}")
        if key in state.points:
            # Finished is sticky: immutable history means the first
            # acknowledged result wins, whatever a crashed retry
            # appended afterwards.
            return
        if kind == "case-started":
            state.status[key] = "started"
            if stamp:
                state.started_at[key] = stamp
        elif kind == "case-finished":
            state.points[key] = point_from_dict(data["point"])
            state.status[key] = "finished"
            # A finished case needs no resume seed.
            state.checkpoints.pop(key, None)
            if stamp:
                state.finished_at[key] = stamp
        elif kind == "case-failed":
            state.failures[key] = CaseFailure.from_dict(data["failure"])
            state.status[key] = "failed"
        elif kind == "case-checkpointed":
            snapshot = data["snapshot"]
            if not isinstance(snapshot, Mapping):
                raise ValueError("case-checkpointed without a snapshot")
            # Later checkpoints supersede earlier ones; the sticky
            # finished check above already discards stragglers from a
            # crashed retry.
            state.checkpoints[key] = dict(snapshot)

    def status(self) -> Dict[str, int]:
        """Counts per lifecycle state (replays the log)."""
        return self.replay().counts()

    def restored_points(self) -> Dict[str, ExperimentPoint]:
        """Finished points keyed by spec key (replays the log)."""
        return self.replay().points
