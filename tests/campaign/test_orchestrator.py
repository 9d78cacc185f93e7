"""Campaign orchestration: run, resume, failures-as-data, identity."""

import json

import pytest

from repro.campaign import (
    Campaign,
    CampaignStore,
    CaseFailure,
    CaseSpec,
    spec_key,
)


def _specs(seeds, **overrides):
    base = dict(
        topology="mesh",
        workload="random",
        policy="restricted-priority",
        side=4,
        workload_params=(("k", 6),),
    )
    base.update(overrides)
    return [CaseSpec(seed=seed, **base) for seed in seeds]


def _events(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(l) for l in handle if l.strip()]


class TestSerialRun:
    def test_points_come_back_in_spec_order(self):
        specs = _specs([3, 1, 2])
        with Campaign(specs) as campaign:
            result = campaign.run()
        assert [p.params["seed"] for p in result.points] == [3, 1, 2]
        assert result.all_completed()
        assert result.failures == []
        assert result.resumed == 0
        assert result.chunked == 0
        assert not result.degraded

    def test_points_are_summary_level(self):
        with Campaign(_specs([0])) as campaign:
            point = campaign.run().points[0]
        assert point.result.step_metrics == []
        assert point.result.outcomes == []
        assert point.result.records is None
        assert point.result.telemetry is not None

    def test_params_carry_the_sweep_labels(self):
        specs = _specs([5], params=(("label", "demo"),))
        with Campaign(specs) as campaign:
            point = campaign.run().points[0]
        assert point.params["label"] == "demo"
        assert point.params["seed"] == 5
        assert point.params["k"] == 6
        assert point.params["n"] == 4
        assert point.params["policy"]

    def test_telemetry_aggregates_over_points(self):
        with Campaign(_specs([0, 1])) as campaign:
            result = campaign.run()
        telemetry = result.telemetry()
        assert telemetry is not None
        assert telemetry.steps == sum(
            p.result.total_steps for p in result.points
        )

    @pytest.mark.parametrize(
        "engine, policy",
        [
            ("hot-potato", "restricted-priority"),
            ("buffered", "dimension-order"),
        ],
    )
    def test_points_do_not_depend_on_the_backend(self, engine, policy):
        # k = 40 starts on the numpy step and finishes columnar.
        runs = []
        for backend in ("object", "soa", "auto"):
            specs = _specs(
                [0, 1],
                engine=engine,
                policy=policy,
                backend=backend,
                strict_validation=False,
                side=8,
                workload_params=(("k", 40),),
            )
            with Campaign(specs) as campaign:
                runs.append(campaign.run().points)
        assert runs[0] == runs[1] == runs[2]
        assert all(point.result.completed for point in runs[0])

    def test_duplicate_specs_are_rejected(self):
        specs = _specs([0]) + _specs([0])
        with pytest.raises(ValueError, match="duplicate case specs"):
            Campaign(specs)

    def test_priority_does_not_change_returned_order(self):
        prioritized = [
            _specs([0], priority=0)[0],
            _specs([1], priority=9)[0],
            _specs([2], priority=4)[0],
        ]
        with Campaign(prioritized) as campaign:
            result = campaign.run()
        assert [p.params["seed"] for p in result.points] == [0, 1, 2]


class TestStoreIntegration:
    def test_run_journals_the_full_lifecycle(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        specs = _specs([0, 1])
        with Campaign(specs, store=store) as campaign:
            campaign.run()
        kinds = [event["event"] for event in _events(store.path)]
        assert kinds.count("case-queued") == 2
        assert kinds.count("case-started") == 2
        assert kinds.count("case-finished") == 2

    def test_rerun_restores_instead_of_rerunning(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        specs = _specs([0, 1, 2])
        with Campaign(specs, store=store) as campaign:
            first = campaign.run()
        with Campaign(specs, store=store) as campaign:
            second = campaign.run()
        assert second.resumed == 3
        assert second.points == first.points
        # No queued/started/finished events were re-appended.
        kinds = [event["event"] for event in _events(store.path)]
        assert kinds.count("case-queued") == 3
        assert kinds.count("case-started") == 3
        assert kinds.count("case-finished") == 3

    def test_grown_campaign_runs_only_the_new_cases(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        with Campaign(_specs([0, 1]), store=store) as campaign:
            campaign.run()
        with Campaign(_specs([0, 1, 2, 3]), store=store) as campaign:
            grown = campaign.run()
        assert grown.resumed == 2
        assert len(grown.points) == 4
        kinds = [event["event"] for event in _events(store.path)]
        assert kinds.count("case-queued") == 4
        assert kinds.count("case-finished") == 4

    def test_from_store_rebuilds_the_campaign(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        specs = _specs([4, 5])
        with Campaign(specs, store=store) as campaign:
            first = campaign.run()
        with Campaign.from_store(store.path) as campaign:
            assert campaign.specs == specs
            second = campaign.run()
        assert second.resumed == 2
        assert second.points == first.points

    def test_priority_orders_execution_not_results(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        low = _specs([0])[0]
        high = _specs([1], priority=5)[0]
        with Campaign([low, high], store=store) as campaign:
            result = campaign.run()
        # Results stay in spec order...
        assert [p.params["seed"] for p in result.points] == [0, 1]
        # ...but the journal shows the high-priority case finishing
        # first (serial execution follows the queue order exactly).
        finished = [
            event["key"]
            for event in _events(store.path)
            if event["event"] == "case-finished"
        ]
        assert finished == [spec_key(high), spec_key(low)]

    def test_status_reflects_the_store(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        specs = _specs([0, 1])
        with Campaign(specs, store=store) as campaign:
            assert campaign.status()["queued"] == 0  # nothing queued yet
            campaign.run()
            assert campaign.status()["finished"] == 2

    def test_storeless_status_counts_specs(self):
        with Campaign(_specs([0, 1])) as campaign:
            assert campaign.status() == {
                "queued": 2,
                "started": 0,
                "finished": 0,
                "failed": 0,
            }


class TestFailuresAsData:
    def test_bad_policy_becomes_a_failure_record(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        good = _specs([0])[0]
        bad = _specs([1], policy="no-such-policy")[0]
        with Campaign([good, bad], store=store) as campaign:
            result = campaign.run()
        assert len(result.points) == 1
        assert result.points[0].params["seed"] == 0
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert isinstance(failure, CaseFailure)
        assert failure.key == spec_key(bad)
        assert not result.all_completed()
        assert store.status()["failed"] == 1

    def test_failed_cases_are_retried_on_resume(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        bad = _specs([1], policy="no-such-policy")[0]
        with Campaign([bad], store=store) as campaign:
            campaign.run()
        with Campaign([bad], store=store) as campaign:
            again = campaign.run()
        assert again.resumed == 0
        assert len(again.failures) == 1
        kinds = [event["event"] for event in _events(store.path)]
        # Re-queued never, re-started and re-failed once each.
        assert kinds.count("case-queued") == 1
        assert kinds.count("case-started") == 2
        assert kinds.count("case-failed") == 2


@pytest.mark.slow
class TestDifferentialIdentity:
    def test_pooled_run_is_bit_identical_to_serial(self):
        specs = _specs([0, 1, 2, 3, 4, 5])
        with Campaign(specs) as campaign:
            serial = campaign.run()
        with Campaign(specs, workers=2) as campaign:
            pooled = campaign.run()
        assert pooled.points == serial.points
        assert pooled.chunked > 0
        assert not pooled.degraded

    def test_shared_pool_serves_many_campaigns(self):
        from repro.campaign import WorkerPool

        specs = _specs([0, 1, 2, 3])
        with WorkerPool(workers=2) as pool:
            with Campaign(specs) as campaign:
                serial = campaign.run()
            first = Campaign(specs, pool=pool).run()
            second = Campaign(specs, pool=pool).run()
            assert pool.starts == 1
        assert first.points == serial.points
        assert second.points == serial.points


class TestFailureHistoryAcrossResume:
    def test_attempts_accumulate_and_history_grows(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        bad = _specs([1], policy="no-such-policy")[0]
        with Campaign([bad], store=store) as campaign:
            first = campaign.run().failures[0]
        assert first.attempts == 1
        assert first.history == ()
        with Campaign([bad], store=store) as campaign:
            second = campaign.run().failures[0]
        # The resumed retry knows the whole trajectory, not just the
        # latest exception.
        assert second.attempts == 2
        assert len(second.history) == 1
        assert first.error in second.history[0]
        assert first.message in second.history[0]
        # And the enriched record is what the log durably carries.
        replayed = store.replay().failures[spec_key(bad)]
        assert replayed.attempts == 2
        assert replayed.history == second.history

    def test_checkpointed_spec_round_trips_through_the_log(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        spec = _specs([0], checkpoint_every=2)[0]
        with Campaign([spec], store=store) as campaign:
            result = campaign.run()
        assert not result.failures
        state = store.replay()
        restored = state.specs[spec_key(spec)]
        assert restored.checkpoint_every == 2
        # The durability knob is not part of the case identity: the
        # same case without it resumes from the same history.
        assert spec_key(spec) == spec_key(
            _specs([0], checkpoint_every=None)[0]
        )
