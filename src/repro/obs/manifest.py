"""Structured run manifests and the JSONL run logger.

Every serious evaluation in the deflection-routing literature reports
*what exactly ran*: topology, demand, policy, seed, code version,
machine.  :class:`RunManifest` packages that self-description for one
run — engine configuration, seed description, git sha, interpreter and
machine, the run's :class:`~repro.obs.telemetry.RunTelemetry`, and
(when profiled) per-phase timings — and serializes it as one JSON line
so sweeps append cheaply and analyses stream them back with
:func:`read_manifests`.

:class:`JsonlRunLogger` is the observer face of this module: attach it
to any of the four engines and a manifest is appended at run end.  It
declares ``needs_steps = False``, so engines keep their lean kernel
loop — logging a manifest never de-optimizes the run it describes.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.core.events import RunObserver
from repro.core.metrics import RunResult
from repro.obs.clock import utc_now_iso
from repro.obs.profiler import PhaseProfiler
from repro.obs.telemetry import RunTelemetry

__all__ = [
    "SCHEMA_VERSION",
    "JsonlRunLogger",
    "RunManifest",
    "append_jsonl",
    "append_manifest",
    "git_sha",
    "manifest_for_engine",
    "manifest_from_run_result",
    "read_manifests",
    "validate_manifest",
]

#: Bump when manifest fields change incompatibly.
SCHEMA_VERSION = 1

#: Required manifest keys and the JSON types they must parse back as.
_REQUIRED_FIELDS: Dict[str, tuple] = {
    "schema_version": (int,),
    "created_at": (str,),
    "command": (str,),
    "engine": (str,),
    "mesh": (dict,),
    "workload": (str,),
    "policy": (str,),
    "seed": (int, str, type(None)),
    "git_sha": (str,),
    "python": (str,),
    "machine": (str,),
    "result": (dict,),
    "telemetry": (dict, type(None)),
    "phases": (dict, type(None)),
}

#: Optional manifest keys (newer writers only) and their JSON types.
#: ``case`` carries the sweep labels of the campaign case that produced
#: the run (``repro campaign run --telemetry``; files from the removed
#: sweep checkpoint hold ``{"key", "params"}`` there and still read as
#: manifests); ``backend`` names the step loop that ran (``"object"``
#: or ``"soa"``), which fixes what ``phases`` mean.  Readers must
#: tolerate the absence of either.
_OPTIONAL_FIELDS: Dict[str, tuple] = {
    "case": (dict, type(None)),
    "backend": (str, type(None)),
}


def git_sha(cwd: Optional[str] = None) -> str:
    """Short commit hash of the running tree (``-dirty`` suffix when the
    working copy differs from HEAD); ``"unknown"`` without git."""
    where = cwd or os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=where,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    sha = out.stdout.strip()
    try:
        dirty = subprocess.run(
            ["git", "diff", "--quiet", "HEAD"],
            cwd=where,
            capture_output=True,
            timeout=10,
        ).returncode
    except (OSError, subprocess.TimeoutExpired):
        return sha
    return f"{sha}-dirty" if dirty else sha


@dataclass
class RunManifest:
    """Self-description of one run, ready for JSONL serialization."""

    command: str
    engine: str
    mesh: Dict[str, Any]
    workload: str
    policy: str
    seed: Optional[Union[int, str]]
    result: Dict[str, Any]
    telemetry: Optional[Dict[str, int]] = None
    phases: Optional[Dict[str, int]] = None
    #: Sweep labels of the campaign case that produced this run.
    case: Optional[Dict[str, Any]] = None
    #: Step loop the run used ("object" or "soa"); the numpy array
    #: step reports its fused sort/assign/move span as rank and gives
    #: arc_assign and move 0.
    backend: Optional[str] = None
    schema_version: int = SCHEMA_VERSION
    created_at: str = field(default_factory=utc_now_iso)
    git_sha: str = field(default_factory=git_sha)
    python: str = field(default_factory=platform.python_version)
    machine: str = field(default_factory=platform.machine)

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "schema_version": self.schema_version,
            "created_at": self.created_at,
            "command": self.command,
            "engine": self.engine,
            "mesh": self.mesh,
            "workload": self.workload,
            "policy": self.policy,
            "seed": self.seed,
            "git_sha": self.git_sha,
            "python": self.python,
            "machine": self.machine,
            "result": self.result,
            "telemetry": self.telemetry,
            "phases": self.phases,
        }
        if self.case is not None:
            payload["case"] = self.case
        if self.backend is not None:
            payload["backend"] = self.backend
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunManifest":
        """Rebuild a manifest from a parsed JSONL line (validated)."""
        problems = validate_manifest(data)
        if problems:
            raise ValueError(
                "invalid run manifest: " + "; ".join(problems)
            )
        return cls(
            command=data["command"],
            engine=data["engine"],
            mesh=dict(data["mesh"]),
            workload=data["workload"],
            policy=data["policy"],
            seed=data["seed"],
            result=dict(data["result"]),
            telemetry=(
                dict(data["telemetry"])
                if data["telemetry"] is not None
                else None
            ),
            phases=(
                dict(data["phases"]) if data["phases"] is not None else None
            ),
            case=(
                dict(data["case"])
                if data.get("case") is not None
                else None
            ),
            backend=data.get("backend"),
            schema_version=data["schema_version"],
            created_at=data["created_at"],
            git_sha=data["git_sha"],
            python=data["python"],
            machine=data["machine"],
        )

    def run_telemetry(self) -> Optional[RunTelemetry]:
        """The telemetry payload as a :class:`RunTelemetry` (or None)."""
        if self.telemetry is None:
            return None
        return RunTelemetry.from_dict(self.telemetry)

    def phase_profile(self) -> Optional[PhaseProfiler]:
        """The phase payload as a :class:`PhaseProfiler` (or None)."""
        if self.phases is None:
            return None
        return PhaseProfiler.from_dict(self.phases)


def validate_manifest(data: Mapping[str, Any]) -> List[str]:
    """Schema-check one parsed manifest; returns problem strings
    (empty when valid).  Used by tests and the CI smoke step."""
    problems: List[str] = []
    for name, types in _REQUIRED_FIELDS.items():
        if name not in data:
            problems.append(f"missing field {name!r}")
            continue
        value = data[name]
        if isinstance(value, bool) or not isinstance(value, types):
            expected = "/".join(t.__name__ for t in types)
            problems.append(
                f"field {name!r} must be {expected}, "
                f"got {type(value).__name__}"
            )
    if not problems and data["schema_version"] != SCHEMA_VERSION:
        problems.append(
            f"schema_version {data['schema_version']} != {SCHEMA_VERSION}"
        )
    for name, types in _OPTIONAL_FIELDS.items():
        if name not in data:
            continue
        value = data[name]
        if isinstance(value, bool) or not isinstance(value, types):
            expected = "/".join(t.__name__ for t in types)
            problems.append(
                f"field {name!r} must be {expected}, "
                f"got {type(value).__name__}"
            )
    unknown = set(data) - set(_REQUIRED_FIELDS) - set(_OPTIONAL_FIELDS)
    if unknown:
        problems.append(f"unknown fields {sorted(unknown)}")
    return problems


def _mesh_dict(mesh: Any) -> Dict[str, Any]:
    return {
        "kind": mesh.kind,
        "dimension": mesh.dimension,
        "side": mesh.side,
        "num_nodes": mesh.num_nodes,
    }


def _result_dict(result: Any) -> Dict[str, Any]:
    """A compact outcome summary for either result flavor."""
    abort = getattr(result, "abort", None)
    if isinstance(result, RunResult):
        payload = {
            "kind": "batch",
            "completed": result.completed,
            "total_steps": result.total_steps,
            "k": result.k,
            "delivered": result.delivered,
            "total_deflections": result.total_deflections,
        }
    else:
        # DynamicStats, duck-typed so this module never imports
        # repro.dynamic.
        payload = {
            "kind": "dynamic",
            "horizon": result.horizon,
            "delivered": result.delivered_count,
            "mean_latency": result.mean_latency,
            "throughput": result.throughput,
            "final_in_flight": result.final_in_flight,
            "final_backlog": result.final_backlog,
        }
    if abort is not None:
        payload["abort"] = abort.to_dict()
    return payload


def _workload_description(engine: Any) -> str:
    problem = getattr(engine, "problem", None)
    if problem is not None:
        return str(problem.describe())
    traffic = getattr(engine, "traffic", None)
    if traffic is None:
        return ""
    parts = [type(traffic).__name__]
    rate = getattr(traffic, "rate", None)
    if rate is not None:
        parts.append(f"rate={rate}")
    warmup = getattr(engine, "warmup", None)
    if warmup:
        parts.append(f"warmup={warmup}")
    return " ".join(parts)


def manifest_for_engine(
    engine: Any,
    result: Any,
    *,
    command: str = "",
    workload: str = "",
    profiler: Optional[PhaseProfiler] = None,
) -> RunManifest:
    """Build a manifest by introspecting a finished engine.

    Works on all four engines: they name themselves in the CLI's
    vocabulary as ``kind``, share ``mesh``/``policy`` and the seeded
    ``_seed`` description, carry their
    :class:`~repro.obs.telemetry.RunTelemetry` as ``telemetry``, and
    record the step loop their last run used as ``backend_used``.
    """
    telemetry = getattr(engine, "telemetry", None)
    return RunManifest(
        command=command,
        engine=engine.kind,
        mesh=_mesh_dict(engine.mesh),
        workload=workload or _workload_description(engine),
        policy=engine.policy.name,
        seed=getattr(engine, "_seed", None),
        result=_result_dict(result),
        telemetry=telemetry.to_dict() if telemetry is not None else None,
        phases=profiler.to_dict() if profiler is not None else None,
        backend=getattr(engine, "backend_used", None),
    )


def manifest_from_run_result(
    result: RunResult,
    *,
    command: str = "",
    engine: str = "hot-potato",
    workload: str = "",
    profiler: Optional[PhaseProfiler] = None,
    case: Optional[Dict[str, Any]] = None,
) -> RunManifest:
    """Build a manifest from a bare :class:`RunResult` (no engine in
    hand — e.g. sweep points shipped back from worker processes).

    ``case`` attaches the campaign case's sweep labels.
    """
    return RunManifest(
        case=case,
        command=command,
        engine=engine,
        mesh={
            "kind": result.mesh_kind,
            "dimension": result.dimension,
            "side": result.side,
            "num_nodes": None,
        },
        workload=workload or result.problem_name,
        policy=result.policy_name,
        seed=result.seed,
        result=_result_dict(result),
        telemetry=(
            result.telemetry.to_dict()
            if result.telemetry is not None
            else None
        ),
        phases=profiler.to_dict() if profiler is not None else None,
    )


# Syscall seams for the durability layer.  Production code never
# rebinds these; the chaos harness (repro.chaos) patches them to
# inject fsync failures, ENOSPC short writes, and torn tails at exact
# byte offsets — the failure modes the recovery paths claim to
# survive.  Keeping the indirection at module level (instead of
# monkey-patching ``os``) scopes injection to this file's appends.
_os_write = os.write
_os_fsync = os.fsync


def append_jsonl(
    payloads: Sequence[Mapping[str, Any]], path: str, *, fsync: bool = False
) -> None:
    """Append JSON lines in one write (parents created as needed).

    The whole batch is encoded into a single buffer and pushed through
    one ``O_APPEND`` file descriptor.  ``O_APPEND`` makes each write
    land atomically at the current end of file, so concurrent writers
    (campaign workers appending to a shared event log) interleave whole
    buffers, never bytes — a torn *line* can only come from a crash
    mid-write, not from interleaving.

    With ``fsync=True`` the buffer is fsynced before the descriptor
    closes, so a crash immediately after the call can lose at most a
    torn trailing line, never an acknowledged one — the durability
    contract the campaign event log relies on.  Batching several
    payloads into one call pays the fsync once for the whole batch.
    """
    if not payloads:
        return
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    # ensure_ascii=False keeps non-ASCII payload text (workload
    # labels, fault descriptions) as real UTF-8 instead of \uXXXX
    # escapes — which is why every reader of these files must (and
    # does) tolerate a tail torn mid-way through a multi-byte
    # character.
    buffer = b"".join(
        json.dumps(
            payload, separators=(",", ":"), ensure_ascii=False
        ).encode("utf-8")
        + b"\n"
        for payload in payloads
    )
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        view = memoryview(buffer)
        while view:
            written = _os_write(fd, view)
            view = view[written:]
        if fsync:
            _os_fsync(fd)
    finally:
        os.close(fd)


def append_manifest(
    manifest: RunManifest, path: str, *, fsync: bool = False
) -> None:
    """Append one manifest as a JSON line (see :func:`append_jsonl`)."""
    append_jsonl([manifest.to_dict()], path, fsync=fsync)


def read_manifests(
    path: str, *, errors: Optional[List[str]] = None
) -> List[RunManifest]:
    """Parse a JSONL manifest file back (blank lines skipped).

    By default a malformed line raises, preserving strict behavior for
    curated files.  Passing ``errors`` switches to recovery mode: bad
    lines — torn tails from a crashed writer, invalid payloads — are
    skipped and one description per casualty is appended to ``errors``,
    so checkpoint restores survive a dirty shutdown while still
    reporting what was lost.
    """
    manifests: List[RunManifest] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if errors is None:
                manifests.append(RunManifest.from_dict(json.loads(line)))
                continue
            try:
                manifests.append(RunManifest.from_dict(json.loads(line)))
            except (ValueError, TypeError, KeyError) as problem:
                errors.append(f"{path}:{number}: {problem}")
    return manifests


class JsonlRunLogger(RunObserver):
    """Observer that appends a :class:`RunManifest` at run end.

    Step-free by design (``needs_steps = False``): attaching this
    logger never forces an engine off its lean kernel loop.  Works on
    all four engines — batch runs hand ``on_run_end`` a
    :class:`~repro.core.metrics.RunResult`, dynamic runs a
    :class:`~repro.dynamic.stats.DynamicStats`.
    """

    needs_steps = False

    def __init__(
        self,
        path: str,
        *,
        command: str = "",
        workload: str = "",
        profiler: Optional[PhaseProfiler] = None,
    ) -> None:
        self.path = path
        self.command = command
        self.workload = workload
        self.profiler = profiler
        self.written = 0
        self._engine: Optional[Any] = None

    def on_run_start(self, engine: Any) -> None:
        self._engine = engine

    def on_run_end(self, result: Any) -> None:
        if self._engine is not None:
            manifest = manifest_for_engine(
                self._engine,
                result,
                command=self.command,
                workload=self.workload,
                profiler=self.profiler,
            )
        elif isinstance(result, RunResult):
            manifest = manifest_from_run_result(
                result, command=self.command, profiler=self.profiler
            )
        else:
            raise RuntimeError(
                "JsonlRunLogger.on_run_end fired without on_run_start "
                "and without a RunResult; nothing to describe"
            )
        append_manifest(manifest, self.path)
        self.written += 1
