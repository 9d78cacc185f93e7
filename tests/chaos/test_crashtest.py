"""Crashtest drivers as pytest cases.

The quick tests run a reduced kill-and-resume matrix inline; the
``slow``-marked ones run the full drivers ``make crashtest`` and the
CI leg execute — including the real SIGKILLed campaign subprocess.
In between sits the fully *deterministic* campaign crash: instead of
racing a kill signal, the event log of a finished checkpointed
campaign is truncated at an exact event boundary (and then mid-line),
which reproduces byte-for-byte what a kill at that instant leaves on
disk.
"""

import json
import os
import time

import pytest

from repro.campaign.orchestrator import Campaign
from repro.campaign.spec import CaseSpec, spec_key
from repro.campaign.store import CampaignStore
from repro.chaos import crashtest
from repro.chaos.crashtest import (
    crashtest_campaign,
    crashtest_engine,
    crashtest_route,
    crashtest_store,
)

from ..snapshot.scenarios import make_engine


def _campaign_survivors(sid, store):
    """Pids of the live (non-zombie) processes left from a spawned
    campaign: members of its session ``sid``, or anything whose
    command line names its ``store`` (a pool worker that escaped the
    session is caught this way)."""
    if not os.path.isdir("/proc"):
        try:
            os.killpg(sid, 0)
        except ProcessLookupError:
            return []
        return [sid]
    survivors = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                argv = handle.read().split(b"\0")
        except OSError:
            continue  # exited while we looked
        # After the parenthesised command: state, ppid, pgrp, session.
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] == "Z":
            continue
        if int(fields[3]) == sid or store.encode() in argv:
            survivors.append(int(entry))
    return survivors


def _campaign_specs(checkpoint_every=4, seeds=3):
    return [
        CaseSpec(
            topology="mesh",
            workload="random",
            policy="random-rank",
            seed=seed,
            side=6,
            checkpoint_every=checkpoint_every,
        )
        for seed in range(seeds)
    ]


def _reference(specs):
    with Campaign(specs) as campaign:
        result = campaign.run()
    assert not result.failures
    return {
        spec_key(spec): point.result
        for spec, point in zip(specs, result.points)
    }


def _resume_and_compare(path, specs, reference):
    campaign = Campaign.from_store(str(path))
    try:
        result = campaign.run()
    finally:
        campaign.close()
    assert not result.failures
    for spec, point in zip(campaign.specs, result.points):
        assert point.result == reference[spec_key(spec)]


class TestEngineDriver:
    def test_every_boundary_survives(self):
        report = crashtest_engine(
            lambda every, cb: make_engine(
                "hot-potato", "object", every=every, on_checkpoint=cb
            ),
            every=3,
            scenario="unit",
        )
        assert report.boundaries > 0

    def test_divergence_is_caught(self):
        # A factory whose "fresh" resume engine differs from the
        # original must fail loudly, not return a green report.  The
        # first two calls (reference, checkpointed) agree; every later
        # call — the resume targets — carries another seed.
        calls = {"n": 0}

        def factory(every, cb):
            calls["n"] += 1
            seed = 11 if calls["n"] <= 2 else 13
            return make_engine(
                "hot-potato", "object", seed=seed, every=every, on_checkpoint=cb
            )

        with pytest.raises(ValueError, match="seed"):
            crashtest_engine(factory, every=3, scenario="unit-diverge")


class TestDeterministicCampaignCrash:
    def _truncate_after_first_checkpoint(self, path, extra_bytes=0):
        with open(path, "rb") as handle:
            raw = handle.read()
        offset = 0
        for line in raw.splitlines(keepends=True):
            offset += len(line)
            if json.loads(line)["event"] == "case-checkpointed":
                break
        else:
            pytest.fail("no case-checkpointed event in the log")
        keep = min(len(raw), offset + extra_bytes)
        with open(path, "rb+") as handle:
            handle.truncate(keep)

    @pytest.fixture()
    def finished_store(self, tmp_path):
        specs = _campaign_specs()
        reference = _reference(specs)
        path = tmp_path / "campaign.jsonl"
        with Campaign(specs, store=CampaignStore(str(path))) as campaign:
            result = campaign.run()
        assert not result.failures
        return path, specs, reference

    def test_crash_at_event_boundary_resumes_from_checkpoint(
        self, finished_store
    ):
        path, specs, reference = finished_store
        self._truncate_after_first_checkpoint(path)
        state = CampaignStore(str(path)).replay()
        assert state.checkpoints, "truncation lost the checkpoint"
        assert state.pending(), "checkpointed case must still be pending"
        assert not state.errors, "boundary truncation is not a torn line"
        _resume_and_compare(path, specs, reference)

    def test_crash_mid_line_after_checkpoint_resumes(self, finished_store):
        path, specs, reference = finished_store
        self._truncate_after_first_checkpoint(path, extra_bytes=10)
        state = CampaignStore(str(path)).replay()
        assert state.checkpoints
        assert state.errors, "the torn half-line should be reported"
        _resume_and_compare(path, specs, reference)


@pytest.mark.slow
class TestFullDrivers:
    def test_route_matrix(self):
        reports = crashtest_route(every=3)
        assert len(reports) == 4
        assert all(r.boundaries > 0 for r in reports)

    def test_store_chaos(self):
        report = crashtest_store(workers=2)
        # Three injector plans, the pooled chunk-append kill, plus
        # three byte-level tears.
        assert report.boundaries == 7
        assert any(
            detail.startswith("pooled-chunk") for detail in report.details
        )

    def test_campaign_sigkill(self, monkeypatch):
        spawned = []
        spawn = crashtest._spawn_campaign

        def recording_spawn(store, *args):
            proc = spawn(store, *args)
            spawned.append((proc.pid, store))
            return proc

        monkeypatch.setattr(crashtest, "_spawn_campaign", recording_spawn)
        report = crashtest_campaign(seeds=4, workers=2)
        assert report.boundaries == 1
        assert any("SIGKILL" in d for d in report.details)
        # The kill takes the pool workers down with the parent: within
        # a bounded wait, nothing in any spawned campaign's session
        # may survive.
        assert spawned
        deadline = time.monotonic() + 10.0
        while True:
            survivors = [
                pid
                for sid, store in spawned
                for pid in _campaign_survivors(sid, store)
            ]
            if not survivors or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        assert survivors == []
