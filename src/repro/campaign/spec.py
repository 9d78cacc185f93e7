"""Declarative case specifications.

A campaign case is described entirely by *names and numbers* — the
topology family and shape, the workload generator and its parameters,
the policy registry name, the seed — never by live objects.  The spec
therefore serializes to a ~100-byte JSON object, crosses the worker
process boundary as data, and is resolved to a mesh / problem / policy
*inside* the worker (:mod:`repro.campaign.worker`), where resolved
meshes are cached across cases.  This is the closing move of the
PAR5xx purity rules: nothing submitted to a pool can accidentally drag
a closure or a pickled mesh along, because the submission type cannot
hold one.

:func:`spec_key` derives a stable content identity from the canonical
JSON form; the campaign event log keys every event on it, which is
what makes a resumed campaign match its own history across process
restarts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = [
    "CaseSpec",
    "DEFAULT_POLICIES",
    "TOPOLOGIES",
    "WORKLOADS",
    "spec_key",
]

#: Topology families a spec may name; the CLI offers the same.
TOPOLOGIES: Tuple[str, ...] = ("mesh", "torus", "hypercube")

#: The policy each engine runs when a command names none.
DEFAULT_POLICIES: Mapping[str, str] = {
    "hot-potato": "restricted-priority",
    "buffered": "dimension-order",
}

#: Workload generators a spec may name (see
#: :func:`~repro.campaign.worker.resolve_workload`); the CLI offers the
#: same.
WORKLOADS: Tuple[str, ...] = (
    "random",
    "permutation",
    "transpose",
    "reversal",
    "hotspot",
    "flood",
    "corners",
)

_Items = Tuple[Tuple[str, Any], ...]


def _freeze(params: Optional[Mapping[str, Any]]) -> _Items:
    return tuple((params or {}).items())


@dataclass(frozen=True)
class CaseSpec:
    """One declarative unit of campaign work: a single seeded run.

    Attributes:
        topology: family name — one of :data:`TOPOLOGIES`.
        side: side length ``n`` (ignored by ``hypercube``, which is
            always side 2).
        dimension: mesh dimension ``d``.
        workload: generator name — one of :data:`WORKLOADS`.
        workload_params: generator keywords (e.g. ``k`` for the
            ``random`` and ``hotspot`` workloads), as sorted-stable
            key/value pairs.
        policy: registry name (:func:`repro.algorithms.make_policy`),
            or ``"dimension-order"`` with ``engine="buffered"``.
        seed: feeds both the workload generator and the engine.
        params: extra sweep labels attached to the resulting
            :class:`~repro.campaign.results.ExperimentPoint` (``seed``,
            ``policy``, ``k``, ``n`` are filled in automatically).
        strict_validation: full validator stack vs. capacity-only
            (must be False with ``backend="soa"``).
        max_steps: step budget (None = engine default).
        engine: ``"hot-potato"`` (deflection) or ``"buffered"``.
        backend: step kernel, an execution hint rather than part of
            the case: ``"auto"`` (default) takes the array kernel
            whenever the engine allows it and the object loop
            otherwise (strict hot-potato validation, fault schedules
            and policies without an adapter keep the object loop);
            ``"object"`` and ``"soa"`` force one kernel.  Results are
            bit-identical on every kernel, so :func:`spec_key` hashes
            ``"auto"`` as ``"object"``.
        faults: path to a JSON fault schedule, resolved worker-side
            (None = fault-free run).
        priority: campaign queue priority — higher runs earlier;
            ties keep submission order.
        checkpoint_every: mid-run checkpoint interval in steps; the
            worker appends a ``case-checkpointed`` event (an engine
            snapshot, :mod:`repro.snapshot`) at every interval so a
            killed case resumes from its last checkpoint instead of
            step 0.  ``None`` (default) disables mid-run durability
            for the case.
    """

    topology: str
    workload: str
    policy: str
    seed: int
    side: int = 16
    dimension: int = 2
    workload_params: _Items = ()
    params: _Items = ()
    strict_validation: bool = True
    max_steps: Optional[int] = None
    engine: str = "hot-potato"
    backend: str = "auto"
    faults: Optional[str] = None
    priority: int = 0
    checkpoint_every: Optional[int] = None

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; "
                f"expected one of {', '.join(TOPOLOGIES)}"
            )
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; "
                f"expected one of {', '.join(WORKLOADS)}"
            )
        if self.engine not in DEFAULT_POLICIES:
            raise ValueError(
                f"unknown engine {self.engine!r}; "
                "expected 'hot-potato' or 'buffered'"
            )
        if self.backend not in ("auto", "object", "soa"):
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                "expected 'auto', 'object' or 'soa'"
            )
        if (
            self.backend == "soa"
            and self.engine == "hot-potato"
            and self.strict_validation
        ):
            raise ValueError(
                "backend='soa' runs the lean hot-potato loop; "
                "strict_validation must be False"
            )
        if self.backend == "soa" and self.faults is not None:
            raise ValueError("backend='soa' does not support fault schedules")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, "
                f"got {self.checkpoint_every}"
            )

    @property
    def shape(self) -> Tuple[str, int, int]:
        """The mesh-cache key: ``(topology, dimension, side)``."""
        # Hypercubes are fixed at side 2 regardless of the spec field,
        # so their cache key must not depend on it.
        side = 2 if self.topology == "hypercube" else self.side
        return (self.topology, self.dimension, side)

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON form (stable field order, params as dicts)."""
        return {
            "topology": self.topology,
            "side": self.side,
            "dimension": self.dimension,
            "workload": self.workload,
            "workload_params": dict(self.workload_params),
            "policy": self.policy,
            "seed": self.seed,
            "params": dict(self.params),
            "strict_validation": self.strict_validation,
            "max_steps": self.max_steps,
            "engine": self.engine,
            "backend": self.backend,
            "faults": self.faults,
            "priority": self.priority,
            "checkpoint_every": self.checkpoint_every,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CaseSpec":
        """Rebuild a spec from its canonical JSON form (validated)."""
        known = {
            "topology",
            "side",
            "dimension",
            "workload",
            "workload_params",
            "policy",
            "seed",
            "params",
            "strict_validation",
            "max_steps",
            "engine",
            "backend",
            "faults",
            "priority",
            "checkpoint_every",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown CaseSpec fields {sorted(unknown)}")
        for name in ("topology", "workload", "policy", "seed"):
            if name not in data:
                raise ValueError(f"CaseSpec missing field {name!r}")
        return cls(
            topology=str(data["topology"]),
            side=int(data.get("side", 16)),
            dimension=int(data.get("dimension", 2)),
            workload=str(data["workload"]),
            workload_params=_freeze(data.get("workload_params")),
            policy=str(data["policy"]),
            seed=int(data["seed"]),
            params=_freeze(data.get("params")),
            strict_validation=bool(data.get("strict_validation", True)),
            max_steps=(
                None
                if data.get("max_steps") is None
                else int(data["max_steps"])
            ),
            engine=str(data.get("engine", "hot-potato")),
            backend=str(data.get("backend", "auto")),
            faults=(
                None if data.get("faults") is None else str(data["faults"])
            ),
            priority=int(data.get("priority", 0)),
            checkpoint_every=(
                None
                if data.get("checkpoint_every") is None
                else int(data["checkpoint_every"])
            ),
        )


def spec_key(spec: CaseSpec) -> str:
    """Stable 16-hex-digit content identity of one campaign case.

    Two specs collide exactly when they describe the same run.  The
    key is derived from the canonical sorted-key JSON form, so it
    survives process restarts and never depends on import paths or
    object identities — the property the campaign event log relies on
    to match ``case-finished`` events back to a resumed spec list.

    ``priority`` is deliberately excluded: re-prioritizing a queue
    must not orphan the work already finished under the old priority.
    ``checkpoint_every`` likewise — it changes *how durably* a case
    runs, never its result, so retuning the interval on resume must
    keep matching the history.  ``backend="auto"`` hashes as
    ``"object"``: keys written before ``"auto"`` became the default
    keep matching the same cases.
    """
    payload = spec.to_dict()
    del payload["priority"]
    del payload["checkpoint_every"]
    if payload["backend"] == "auto":
        payload["backend"] = "object"
    material = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]
