"""Deterministic mid-run checkpointing for all four engines.

``repro.snapshot`` serializes *complete* kernel state — packets, both
RNG streams, injection-source state, fault drop history, step counter,
telemetry and recorder state — into schema-versioned JSON-safe dicts,
and restores them onto freshly constructed engines such that the
resumed run is bit-identical to the uninterrupted one (results,
telemetry, and the RNG streams themselves).

Layout:

* :mod:`repro.snapshot.registry` — the per-class field coverage
  contract shared with the ``SNP701`` lint rule;
* :mod:`repro.snapshot.state` — pure value (de)serializers for the
  kernel-level pieces;
* :mod:`repro.snapshot.engine` — engine-level capture/resume plus
  atomic snapshot files.

Entry points users actually touch: ``engine.snapshot()`` /
``engine.resume_from(snap)`` on every engine, ``checkpoint_every=`` on
engine constructors, ``repro route --checkpoint-every/--resume-from``,
and checkpointed campaign cases.  See ``docs/robustness.md``.
"""

from repro.snapshot.engine import (
    SNAPSHOT_SCHEMA_VERSION,
    engine_snapshot,
    load_snapshot,
    resume_engine,
    save_snapshot,
)
from repro.snapshot.registry import SNAPSHOT_REGISTRY, SnapshotSpec, spec_for
from repro.snapshot.state import (
    packet_from_dict,
    packet_from_row,
    packet_to_row,
    rng_state_from_json,
    rng_state_to_json,
)

__all__ = [
    "SNAPSHOT_REGISTRY",
    "SNAPSHOT_SCHEMA_VERSION",
    "SnapshotSpec",
    "engine_snapshot",
    "load_snapshot",
    "packet_from_dict",
    "packet_from_row",
    "packet_to_row",
    "resume_engine",
    "rng_state_from_json",
    "rng_state_to_json",
    "save_snapshot",
    "spec_for",
]
