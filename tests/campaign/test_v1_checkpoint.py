"""A campaign resumes from a checkpoint written under snapshot schema v1.

The store holds a queued, started case whose one ``case-checkpointed``
event carries the committed v1 route snapshot (side 8, k = 40, seed
9, restricted-priority, step 10 of 13).  Resume must continue from
that payload, not from step 0, and finish on the point an
uninterrupted campaign produces.
"""

import json
import os

from repro.campaign import Campaign, CampaignStore, CaseSpec, spec_key
from repro.snapshot import load_snapshot

V1_ROUTE = os.path.join(
    os.path.dirname(__file__), "..", "snapshot", "route_v1.json"
)


def _spec():
    return CaseSpec(
        topology="mesh",
        workload="random",
        policy="restricted-priority",
        seed=9,
        side=8,
        workload_params=(("k", 40),),
        strict_validation=False,
        checkpoint_every=5,
    )


def test_v1_checkpoint_event_resumes(tmp_path):
    spec = _spec()
    with Campaign([spec]) as campaign:
        reference = campaign.run()
    payload = load_snapshot(V1_ROUTE)
    assert payload["schema_version"] == 1
    path = str(tmp_path / "v1.jsonl")
    store = CampaignStore(path)
    store.queue([(spec_key(spec), spec)])
    store.start([spec_key(spec)])
    store.checkpoint(spec_key(spec), payload)

    with Campaign([spec], store=CampaignStore(path)) as campaign:
        result = campaign.run()

    assert result.points == reference.points
    with open(path, "r", encoding="utf-8") as handle:
        events = [json.loads(line) for line in handle if line.strip()]
    # Continued from step 10: the run ends at 13, before the next
    # checkpoint boundary, so no step-5 or step-10 checkpoint repeats.
    checkpoints = [e for e in events if e["event"] == "case-checkpointed"]
    assert [e["snapshot"]["step"] for e in checkpoints] == [10]
    assert events[-1]["event"] == "case-finished"
