"""An object-era store resumes under the ``backend="auto"`` default.

Stores written while ``CaseSpec.backend`` defaulted to ``"object"``
carry that value in every ``case-queued`` spec.  ``spec_key`` hashes
``"auto"`` as ``"object"``, so a campaign driven by today's default
specs over such a store matches its history: finished cases are
restored, queued events are not re-appended, a checkpointed case
continues from its last snapshot, now on the array kernel, and the
points equal an uninterrupted object-loop campaign bit for bit.
"""

import json
import shutil

import pytest

from repro.campaign import Campaign, CampaignStore, CaseSpec, spec_key
from repro.campaign import worker

SEEDS = (0, 1, 2, 3, 4)
FINISHED = 2
CHECKPOINTED = 3
EVERY = 3


def _specs(**backend):
    """Lean restricted-priority cases; the checkpointed one last but
    one.  Without ``backend`` the spec takes the default."""
    return [
        CaseSpec(
            topology="mesh",
            workload="random",
            policy="restricted-priority",
            seed=seed,
            side=8,
            workload_params=(("k", 48),),
            strict_validation=False,
            checkpoint_every=EVERY if index == CHECKPOINTED else None,
            **backend,
        )
        for index, seed in enumerate(SEEDS)
    ]


def _events(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class _Killed(Exception):
    """Stands in for the SIGKILL that ended the object-era campaign."""


def _object_era_store(path):
    """Queued cases, FINISHED of them finished on the object loop, and
    one ``case-checkpointed`` event for a case that never finished."""
    specs = _specs(backend="object")
    store = CampaignStore(path)
    store.queue([(spec_key(spec), spec) for spec in specs])
    with Campaign(specs[:FINISHED], store=store) as campaign:
        assert len(campaign.run().points) == FINISHED
    spec = specs[CHECKPOINTED]
    store.start([spec_key(spec)])

    def first_checkpoint_then_die(snapshot):
        store.checkpoint(spec_key(spec), snapshot)
        raise _Killed

    with pytest.raises(_Killed):
        worker._run_engine(spec, on_checkpoint=first_checkpoint_then_die)
    return store


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted object-loop campaign."""
    with Campaign(_specs(backend="object")) as campaign:
        return campaign.run()


@pytest.mark.parametrize(
    "workers", [1, pytest.param(2, marks=pytest.mark.slow)]
)
def test_default_specs_resume_an_object_era_store(
    tmp_path, reference, workers
):
    source = _object_era_store(str(tmp_path / "object-era.jsonl"))
    path = str(tmp_path / f"resumed-{workers}.jsonl")
    shutil.copyfile(source.path, path)
    before = _events(path)
    specs = _specs()
    assert {spec.backend for spec in specs} == {"auto"}
    assert [spec_key(s) for s in specs] == [
        spec_key(s) for s in _specs(backend="object")
    ]

    with Campaign(
        specs, store=CampaignStore(path), workers=workers
    ) as campaign:
        result = campaign.run()

    assert result.points == reference.points
    assert result.resumed == FINISHED
    if workers > 1:
        # The pending cases really ran in the worker processes.
        assert result.chunked > 0 and not result.degraded
    new = _events(path)[len(before):]
    kinds = [event["event"] for event in new]
    # Nothing is queued again and no finished case runs again.
    assert "case-queued" not in kinds
    keys = [spec_key(spec) for spec in specs]
    started = [
        event["key"] for event in new if event["event"] == "case-started"
    ]
    assert sorted(started) == sorted(keys[FINISHED:])
    finished = [
        event["key"] for event in new if event["event"] == "case-finished"
    ]
    assert sorted(finished) == sorted(keys[FINISHED:])
    # The checkpointed case continued from its snapshot at step EVERY
    # rather than from step 0: no second checkpoint at that step.
    steps = [
        event["snapshot"]["step"]
        for event in _events(path)
        if event["event"] == "case-checkpointed"
        and event["key"] == keys[CHECKPOINTED]
    ]
    assert steps[0] == EVERY
    assert steps == sorted(set(steps))
    assert len(steps) > 1


def test_from_store_keeps_each_stored_backend(tmp_path):
    # Resuming from the log alone rebuilds the specs as queued, so an
    # object-era store stays on the object loop.
    store = _object_era_store(str(tmp_path / "object-era.jsonl"))
    with Campaign.from_store(store) as campaign:
        assert {spec.backend for spec in campaign.specs} == {"object"}
        assert campaign.keys == [spec_key(spec) for spec in _specs()]
