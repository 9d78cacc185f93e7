"""Campaign orchestration: persistent pools over declarative specs.

``repro.campaign`` is the one execution harness of the experiment
stack: ``repro sweep``, ``repro campaign`` and the benchmark drivers
(the Theorem 20 grid, the scaling fit) all run their cases through
it, over one long-lived worker pool instead of paying pool spawn and
mesh pickling per sweep.  The package splits into four layers:

* :mod:`repro.campaign.spec` — the declarative
  :class:`~repro.campaign.spec.CaseSpec`: a compact JSON-serializable
  description (topology, workload, policy, seed, backend) resolved to
  live objects *inside* the worker, so a submission ships ~100 bytes
  instead of a pickled mesh;
* :mod:`repro.campaign.worker` — worker-side resolution with a
  per-process mesh/arc-table cache keyed by spec fields;
* :mod:`repro.campaign.pool` — the persistent
  :class:`~repro.campaign.pool.WorkerPool` carrying the
  retry-through-killed-workers / wedged-pool-timeout machinery;
* :mod:`repro.campaign.store` / :mod:`repro.campaign.orchestrator` —
  the event-sourced :class:`~repro.campaign.store.CampaignStore`
  (append-only JSONL: ``case-queued`` / ``case-started`` /
  ``case-finished`` / ``case-failed``) and the
  :class:`~repro.campaign.orchestrator.Campaign` front door with
  crash-safe resume;
* :mod:`repro.campaign.progress` — live progress
  (:class:`~repro.campaign.progress.CampaignProgress`, counts /
  throughput / ETA) reconstructed purely from the event log, behind
  ``repro campaign status --watch``.
"""

from repro.campaign.orchestrator import Campaign, CampaignResult
from repro.campaign.pool import WorkerPool
from repro.campaign.progress import (
    CampaignProgress,
    registry_from_state,
    watch,
)
from repro.campaign.results import CaseFailure, ExperimentPoint
from repro.campaign.spec import CaseSpec, spec_key
from repro.campaign.store import CampaignStore

__all__ = [
    "Campaign",
    "CampaignProgress",
    "CampaignResult",
    "CampaignStore",
    "CaseFailure",
    "CaseSpec",
    "ExperimentPoint",
    "WorkerPool",
    "registry_from_state",
    "spec_key",
    "watch",
]
