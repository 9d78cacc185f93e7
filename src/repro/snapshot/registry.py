"""The snapshot field registry: which mutable state checkpoints own.

Deterministic resume is only as good as its coverage: a field of
mutable run state that the serializer silently skips resumes as its
constructor default and the run diverges *quietly* — the worst
possible failure mode for a reproduction whose claims rest on
bit-identity.  This module therefore declares, per class, exactly
which attributes carry run state that
:mod:`repro.snapshot.state` / :mod:`repro.snapshot.engine` serialize
(``fields``) and which attributes are sanctioned *not* to be
serialized because resume reconstructs them (``derived``: wiring,
configuration, caches rebuilt by ``prepare()``/first use).

Two consumers keep each other honest:

* the serializers in this package, which capture every ``fields``
  entry;
* the ``SNP701`` lint rule (:mod:`repro.lint.snapshots`), which walks
  the AST of every registered class and flags any ``self.<attr>``
  assignment naming an attribute in *neither* set.  Adding mutable
  state to a kernel/engine/recorder class without deciding its
  snapshot fate fails CI.

The registry matches classes the same way the kernel-twin specs in
:mod:`repro.lint.kernelspec` match functions: by dotted module
*suffix* plus qualname, so the rule fires identically on the shipped
tree and on the linter's fixture packages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

__all__ = ["SnapshotSpec", "SNAPSHOT_REGISTRY", "spec_for"]


@dataclass(frozen=True)
class SnapshotSpec:
    """Snapshot coverage contract for one class.

    Attributes:
        module_suffix: dotted module suffix the class lives in
            (``"core.engine"`` matches ``repro.core.engine`` and any
            fixture package's ``core/engine.py``).
        qualname: the class name.
        fields: attributes whose values are captured by snapshots
            (directly or through a nested payload).
        derived: attributes that are deliberately *not* captured —
            configuration, wiring to other registered objects, and
            caches that resume rebuilds deterministically.
    """

    module_suffix: str
    qualname: str
    fields: FrozenSet[str] = frozenset()
    derived: FrozenSet[str] = frozenset()

    @property
    def covered(self) -> FrozenSet[str]:
        """Every attribute the registry has an answer for."""
        return self.fields | self.derived


def _spec(
    module_suffix: str,
    qualname: str,
    fields: Tuple[str, ...] = (),
    derived: Tuple[str, ...] = (),
) -> SnapshotSpec:
    return SnapshotSpec(
        module_suffix=module_suffix,
        qualname=qualname,
        fields=frozenset(fields),
        derived=frozenset(derived),
    )


#: Coverage contracts for every class that carries mid-run mutable
#: state reachable from an engine snapshot.  ``fields`` must stay in
#: lockstep with the serializers in this package; ``derived`` documents
#: why an attribute may legitimately stay out of the payload.
SNAPSHOT_REGISTRY: Tuple[SnapshotSpec, ...] = (
    _spec(
        "core.kernel",
        "StepKernel",
        # Captured: the step counter, live population (+ per-packet
        # state via the packet payloads), cumulative deliveries, the
        # structured abort verdict, and the incremental distance table
        # (recomputed on resume rather than shipped).
        fields=("time", "in_flight", "delivered_total", "abort", "_dist"),
        derived=(
            "mesh",
            "policy",
            "buffered",
            "sorted_order",
            "injection",
            "set_entry_direction",
            "record_paths",
            "emit",
            "on_deliver",
            "telemetry",
            "faults",
            "watchdog",
        ),
    ),
    _spec(
        "core.chassis",
        "EngineBase",
        fields=("rng", "telemetry"),
        derived=(
            "kind",
            "buffered",
            "node_order",
            "set_entry_direction",
            "validators",
            "backend",
            "_soa_adapter",
            "backend_used",
            "mesh",
            "policy",
            "_seed",
            "observers",
            "profiler",
            "faults",
            "watchdog",
            "checkpoint_every",
            "on_checkpoint",
            "_summary_sinks",
            "_emit",
            "_started",
            "_resumed",
            "_kernel",
        ),
    ),
    _spec(
        "core.chassis",
        "BatchEngineBase",
        # Step records stay out: snapshots refuse record_steps runs.
        fields=("packets", "_metrics"),
        derived=(
            "problem",
            "validators",
            "max_steps",
            "raise_on_timeout",
            "_records",
        ),
    ),
    _spec(
        "core.engine",
        "HotPotatoEngine",
        derived=(
            "kind",
            "node_order",
            "set_entry_direction",
            "record_steps",
            "fast_path",
            "_records",
        ),
    ),
    _spec(
        "core.buffered_engine",
        "BufferedEngine",
        derived=("kind", "buffered"),
    ),
    _spec(
        "dynamic.base",
        "DynamicEngineBase",
        fields=("_stats",),
        derived=("traffic", "warmup", "_source"),
    ),
    _spec(
        "dynamic.sources",
        "CapacityLimitedInjection",
        # ``_pending`` is the backlog's length, recounted by
        # restore_state(); ``_nodes`` is rebuilt by prepare().
        fields=("backlog", "next_id", "generated_at"),
        derived=("traffic", "_mesh", "_nodes", "_pending"),
    ),
    _spec(
        "dynamic.sources",
        "ImmediateInjection",
        fields=("next_id", "generated_at"),
        derived=("traffic", "_nodes"),
    ),
    _spec(
        "dynamic.stats",
        "DynamicStats",
        fields=(
            "delivered_count",
            "latency_counts",
            "latency_sum",
            "hop_sum",
            "deflection_sum",
            "stretch_sum",
            "stretch_count",
            "in_flight_sum",
            "in_flight_samples",
            "max_backlog",
            "recent_generated",
            "horizon",
            "final_in_flight",
            "final_backlog",
            "abort",
        ),
        derived=("warmup",),
    ),
    _spec(
        "faults.state",
        "ActiveFaults",
        # Drop history is real run state; the per-regime masks and
        # caches are pure functions of (schedule, step) and rebuild on
        # the first post-resume ``advance()`` because ``_step`` starts
        # as None on a fresh instance.
        fields=("dropped_ids",),
        derived=(
            "mesh",
            "schedule",
            "view",
            "_link_events",
            "_node_events",
            "_drops_by_step",
            "_boundaries",
            "_step",
            "_mask",
            "_components",
        ),
    ),
    _spec(
        "faults.watchdog",
        "RunWatchdog",
        fields=("_last_progress", "_last_delivered", "_next_partition_check"),
        derived=("no_progress_limit", "partition_interval"),
    ),
    _spec(
        "algorithms.base",
        "GreedyMatchingPolicy",
        # The spawned policy stream: captured via getstate(), restored
        # via setstate() after prepare() re-spawns it.
        fields=("_rng",),
        derived=(
            "name",
            "declares_greedy",
            "declares_max_advance",
            "tie_break",
            "deflection",
        ),
    ),
    _spec(
        "algorithms.random_rank",
        "RandomRankPolicy",
        fields=("_ranks",),
        derived=("name",),
    ),
    _spec(
        "obs.telemetry",
        "RunTelemetry",
        fields=(
            "steps",
            "packet_steps",
            "generated",
            "injected",
            "delivered",
            "advances",
            "deflections",
            "dropped",
            "max_in_flight",
            "max_node_load",
            "max_backlog",
        ),
        derived=(),
    ),
    _spec(
        "obs.series",
        "StepSeries",
        fields=("capacity", "mode", "stride", "dropped", "columns"),
        derived=(),
    ),
    _spec(
        "obs.series",
        "SeriesRecorder",
        fields=("series",),
        derived=("needs_steps", "needs_summaries"),
    ),
    _spec(
        "obs.metrics",
        "RunMetricsRecorder",
        fields=("registry",),
        derived=(
            "needs_steps",
            "needs_summaries",
            "_steps",
            "_packet_steps",
            "_advances",
            "_deflections",
            "_delivered",
            "_injected",
            "_generated",
            "_dropped",
            "_peak_in_flight",
            "_peak_node_load",
            "_peak_backlog",
            "_load_hist",
            "_deflection_hist",
        ),
    ),
)


_INDEX: Dict[Tuple[str, str], SnapshotSpec] = {
    (spec.module_suffix, spec.qualname): spec for spec in SNAPSHOT_REGISTRY
}


def spec_for(module: str, qualname: str) -> Optional[SnapshotSpec]:
    """The registry entry for a class, matched by module suffix.

    ``module`` is a dotted module name (``repro.core.engine`` or a
    fixture package's ``dirtypkg.core.engine``); the match succeeds
    when it equals a registered suffix or ends with ``"." + suffix``.
    """
    for (suffix, name), spec in _INDEX.items():
        if name != qualname:
            continue
        if module == suffix or module.endswith("." + suffix):
            return spec
    return None
