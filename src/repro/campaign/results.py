"""Result carriers of the campaign harness.

:class:`ExperimentPoint` is one finished case with its sweep labels.
:class:`CaseFailure` is a case that raised: the orchestrator records
it as data instead of letting one bad spec abort a thousand-case
campaign.

:func:`summary_result` is the wire diet both execution paths share:
per-step metrics and per-packet outcomes stay in the worker, only the
run totals, telemetry, and abort record travel.  Applying the same
diet to in-process execution is what makes serial and pooled campaign
runs bit-identical.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.core.metrics import RunResult
from repro.faults.report import RunAborted
from repro.obs.telemetry import RunTelemetry, aggregate

__all__ = [
    "CaseFailure",
    "ExperimentPoint",
    "aggregate_telemetry",
    "point_from_dict",
    "point_to_dict",
    "summary_result",
]


@dataclass
class ExperimentPoint:
    """One run plus the sweep parameters that produced it."""

    params: Dict[str, object]
    result: RunResult

    @property
    def steps(self) -> int:
        return self.result.total_steps


@dataclass(frozen=True)
class CaseFailure:
    """A case that raised instead of producing a run.

    Deterministic failures (policy bugs, validation errors) repeat on
    retry, so the campaign records them as data — keyed like any other
    event — rather than crashing the whole run.  ``error`` is the
    exception class name, ``message`` its text; ``attempts`` counts
    every execution try (first run + retries), and ``history`` keeps
    one line per earlier attempt so a permanently failing case reports
    its whole retry trajectory, not just the last exception.
    """

    key: str
    error: str
    message: str
    attempts: int = 1
    history: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "error": self.error,
            "message": self.message,
            "attempts": self.attempts,
            "history": list(self.history),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CaseFailure":
        # attempts/history are absent from pre-checkpointing event
        # logs; default them so old stores keep replaying.
        return cls(
            key=str(data["key"]),
            error=str(data["error"]),
            message=str(data["message"]),
            attempts=int(data.get("attempts", 1)),
            history=tuple(str(line) for line in data.get("history", ())),
        )


def aggregate_telemetry(
    points: Iterable[ExperimentPoint],
) -> Optional[RunTelemetry]:
    """Merge the lean-path counters of many runs (totals add, peaks
    take the max).  Returns ``None`` when no point carries telemetry
    (e.g. results deserialized from pre-telemetry payloads)."""
    return aggregate(point.result.telemetry for point in points)


def summary_result(result: RunResult) -> RunResult:
    """The summary-level view of a run: totals, telemetry, abort.

    Campaign aggregation consumes exactly this; per-step metrics and
    per-packet outcomes (tens of kilobytes per pickled run) never
    cross the process boundary.  Already-lean results pass through
    unchanged so double application is idempotent.
    """
    if not result.step_metrics and not result.outcomes and (
        result.records is None
    ):
        return result
    return dataclasses.replace(
        result, step_metrics=[], outcomes=[], records=None
    )


def point_to_dict(point: ExperimentPoint) -> Dict[str, Any]:
    """Serialize a summary-level point for the campaign event log."""
    result = point.result
    return {
        "params": dict(point.params),
        "result": {
            "problem_name": result.problem_name,
            "policy_name": result.policy_name,
            "mesh_kind": result.mesh_kind,
            "dimension": result.dimension,
            "side": result.side,
            "k": result.k,
            "completed": result.completed,
            "total_steps": result.total_steps,
            "delivered": result.delivered,
            "seed": result.seed,
            "telemetry": (
                result.telemetry.to_dict()
                if result.telemetry is not None
                else None
            ),
            "abort": (
                result.abort.to_dict() if result.abort is not None else None
            ),
        },
    }


def point_from_dict(data: Mapping[str, Any]) -> ExperimentPoint:
    """Rebuild a summary-level point from a ``case-finished`` event.

    Inverse of :func:`point_to_dict`: the reconstructed point compares
    equal to the in-memory original, which is what lets a resumed
    campaign splice restored points into fresh ones without the caller
    seeing a seam.
    """
    payload = data["result"]
    result = RunResult(
        problem_name=str(payload["problem_name"]),
        policy_name=str(payload["policy_name"]),
        mesh_kind=str(payload["mesh_kind"]),
        dimension=int(payload["dimension"]),
        side=int(payload["side"]),
        k=int(payload["k"]),
        completed=bool(payload["completed"]),
        total_steps=int(payload["total_steps"]),
        delivered=int(payload["delivered"]),
        seed=payload["seed"],
        telemetry=(
            RunTelemetry.from_dict(payload["telemetry"])
            if payload["telemetry"] is not None
            else None
        ),
        abort=(
            RunAborted.from_dict(payload["abort"])
            if payload["abort"] is not None
            else None
        ),
    )
    return ExperimentPoint(params=dict(data["params"]), result=result)
