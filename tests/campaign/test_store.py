"""The event-sourced campaign ledger: append, replay, recover."""

import json

from repro.campaign.orchestrator import Campaign
from repro.campaign.results import CaseFailure
from repro.campaign.spec import CaseSpec, spec_key
from repro.campaign.store import (
    EVENT_SCHEMA_VERSION,
    CampaignStore,
)
from repro.campaign.worker import execute_case
from repro.chaos.injector import ChaosPlan, durability_chaos, tear_tail


def _spec(seed, **overrides):
    base = dict(
        topology="mesh",
        workload="random",
        policy="restricted-priority",
        seed=seed,
        side=4,
        workload_params=(("k", 6),),
    )
    base.update(overrides)
    return CaseSpec(**base)


def _entries(specs):
    return [(spec_key(spec), spec) for spec in specs]


def _lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(l) for l in handle if l.strip()]


class TestAppendReplay:
    def test_queued_specs_replay_in_order(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        specs = [_spec(0), _spec(1), _spec(2)]
        store.queue(_entries(specs))
        state = store.replay()
        assert [state.specs[key] for key in state.order] == specs
        assert state.errors == []
        assert state.counts() == {
            "queued": 3,
            "started": 0,
            "finished": 0,
            "failed": 0,
        }

    def test_full_lifecycle_counts(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        specs = [_spec(0), _spec(1), _spec(2)]
        keys = [spec_key(s) for s in specs]
        store.queue(_entries(specs))
        store.start(keys)
        store.finish(keys[0], execute_case(specs[0]))
        store.fail(keys[1], CaseFailure(keys[1], "ValueError", "boom"))
        assert store.status() == {
            "queued": 0,
            "started": 1,
            "finished": 1,
            "failed": 1,
        }

    def test_finished_point_survives_the_round_trip(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        spec = _spec(3)
        key = spec_key(spec)
        point = execute_case(spec)
        store.queue(_entries([spec]))
        store.finish(key, point)
        assert store.restored_points() == {key: point}

    def test_every_line_carries_the_schema_version(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        spec = _spec(0)
        store.queue(_entries([spec]))
        store.start([spec_key(spec)])
        for line in _lines(store.path):
            assert line["schema_version"] == EVENT_SCHEMA_VERSION
            assert line["created_at"]

    def test_missing_file_replays_to_fresh_state(self, tmp_path):
        store = CampaignStore(str(tmp_path / "never.jsonl"))
        state = store.replay()
        assert state.order == []
        assert state.errors == []


class TestSettle:
    """One landed chunk's terminal events: one append, one fsync."""

    def test_settle_appends_every_outcome_with_one_fsync(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        specs = [_spec(0), _spec(1), _spec(2)]
        keys = [spec_key(s) for s in specs]
        store.queue(_entries(specs))
        points = [execute_case(specs[0]), execute_case(specs[2])]
        failure = CaseFailure(keys[1], "ValueError", "boom")
        with durability_chaos(ChaosPlan()) as log:
            store.settle(
                [(keys[0], points[0]), (keys[1], failure),
                 (keys[2], points[1])]
            )
        assert log.fsyncs == 1
        events = _lines(store.path)[3:]
        assert [(e["event"], e["key"]) for e in events] == [
            ("case-finished", keys[0]),
            ("case-failed", keys[1]),
            ("case-finished", keys[2]),
        ]
        state = store.replay()
        assert state.points == {keys[0]: points[0], keys[2]: points[1]}
        assert state.failures == {keys[1]: failure}

    def test_settle_writes_what_finish_and_fail_write(self, tmp_path):
        # Grouping changes the fsync count, not the events: the same
        # fields in the same order, byte for byte but the timestamp.
        specs = [_spec(0), _spec(1)]
        keys = [spec_key(s) for s in specs]
        point = execute_case(specs[0])
        failure = CaseFailure(keys[1], "ValueError", "boom")
        one = CampaignStore(str(tmp_path / "one.jsonl"))
        one.finish(keys[0], point)
        one.fail(keys[1], failure)
        grouped = CampaignStore(str(tmp_path / "grouped.jsonl"))
        grouped.settle([(keys[0], point), (keys[1], failure)])

        def without_stamps(path):
            with open(path, "rb") as handle:
                raw = handle.read()
            events = [json.loads(line) for line in raw.splitlines()]
            for event in events:
                del event["created_at"]
            return len(raw), [list(event.items()) for event in events]

        assert without_stamps(grouped.path) == without_stamps(one.path)


class TestFoldSemantics:
    def test_duplicate_queue_events_dedupe(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        spec = _spec(0)
        store.queue(_entries([spec]))
        store.queue(_entries([spec]))
        state = store.replay()
        assert state.order == [spec_key(spec)]

    def test_first_finished_event_wins(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        spec = _spec(0)
        key = spec_key(spec)
        point = execute_case(spec)
        store.queue(_entries([spec]))
        store.finish(key, point)
        # A crashed retry appends noise after the acknowledged result.
        store.fail(key, CaseFailure(key, "RuntimeError", "late failure"))
        store.start([key])
        state = store.replay()
        assert state.points == {key: point}
        assert state.status[key] == "finished"
        assert state.failures == {}

    def test_failed_case_counts_as_pending(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        specs = [_spec(0), _spec(1)]
        keys = [spec_key(s) for s in specs]
        store.queue(_entries(specs))
        store.finish(keys[0], execute_case(specs[0]))
        store.fail(keys[1], CaseFailure(keys[1], "ValueError", "boom"))
        assert store.replay().pending() == [keys[1]]

    def test_pending_orders_by_priority_then_submission(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        specs = [
            _spec(0, priority=0),
            _spec(1, priority=5),
            _spec(2, priority=5),
            _spec(3, priority=1),
        ]
        keys = [spec_key(s) for s in specs]
        store.queue(_entries(specs))
        assert store.replay().pending() == [
            keys[1],
            keys[2],
            keys[3],
            keys[0],
        ]

    def test_event_for_unqueued_key_is_an_error(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        store.start(["feedfacefeedface"])
        state = store.replay()
        assert state.order == []
        assert len(state.errors) == 1
        assert "unqueued" in state.errors[0]


class TestTornLineRecovery:
    def test_torn_tail_is_skipped_and_reported(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        specs = [_spec(0), _spec(1)]
        keys = [spec_key(s) for s in specs]
        store.queue(_entries(specs))
        store.finish(keys[0], execute_case(specs[0]))
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"schema_version": 1, "event": "case-fini')
        state = store.replay()
        assert len(state.errors) == 1
        assert "log.jsonl" in state.errors[0]
        # The torn event's case simply runs again.
        assert state.pending() == [keys[1]]
        assert keys[0] in state.points

    def test_append_after_a_torn_tail_starts_a_new_line(self, tmp_path):
        # A 2-spec serial campaign whose log is cut inside its last
        # case-finished, re-run with a third spec over the same store:
        # the grown campaign's case-queued must not glue onto the torn
        # line, or the third spec vanishes from the log.
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        specs = [_spec(0), _spec(1)]
        with Campaign(specs, store=store) as campaign:
            campaign.run()
        tear_tail(store.path, 17)
        grown = specs + [_spec(2)]
        with Campaign(grown, store=store) as campaign:
            result = campaign.run()
        assert len(result.points) == 3
        state = store.replay()
        assert state.order == [spec_key(spec) for spec in grown]
        assert len(state.errors) == 1  # the torn line alone
        assert set(state.points) == set(state.order)
        assert Campaign.from_store(store).keys == state.order

    def test_foreign_schema_version_is_skipped(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        spec = _spec(0)
        store.queue(_entries([spec]))
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {
                        "schema_version": 99,
                        "event": "case-started",
                        "key": spec_key(spec),
                    }
                )
                + "\n"
            )
        state = store.replay()
        assert state.status[spec_key(spec)] == "queued"
        assert any("schema_version" in error for error in state.errors)

    def test_unknown_event_kind_is_skipped(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        spec = _spec(0)
        store.queue(_entries([spec]))
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {
                        "schema_version": EVENT_SCHEMA_VERSION,
                        "event": "case-paused",
                        "key": spec_key(spec),
                    }
                )
                + "\n"
            )
        state = store.replay()
        assert any("unknown event kind" in error for error in state.errors)
        assert state.order == [spec_key(spec)]


class TestTornUtf8Recovery:
    def test_tail_torn_inside_multibyte_character(self, tmp_path):
        # Logs carry real UTF-8 (ensure_ascii=False), so a crash can
        # cut the final line mid-character; the undecodable tail must
        # land in errors, not blow up the read.
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        plain, labeled = _spec(0), _spec(1, params=(("label", "torn ✓"),))
        store.queue(_entries([plain]))
        store.finish(spec_key(plain), execute_case(plain))
        store.queue(_entries([labeled]))
        with open(store.path, "rb") as handle:
            raw = handle.read()
        mark = raw.rfind("✓".encode("utf-8"))
        assert mark >= 0
        with open(store.path, "rb+") as handle:
            handle.truncate(mark + 1)  # one byte of the 3-byte ✓
        state = store.replay()
        assert len(state.errors) == 1
        # Everything before the torn line survives; the torn queue
        # event's case is simply unknown until re-queued.
        assert spec_key(plain) in state.points
        assert spec_key(labeled) not in state.specs

    def test_multiple_torn_lines_each_reported(self, tmp_path):
        # A torn multi-event append leaves several unterminated lines;
        # every one is an error, none stops the fold.
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        spec = _spec(0)
        store.queue(_entries([spec]))
        store.finish(spec_key(spec), execute_case(spec))
        with open(store.path, "ab") as handle:
            handle.write(b'{"torn\n')
            handle.write('{"event": "case-st ✓'.encode("utf-8")[:-2] + b"\n")
        state = store.replay()
        assert len(state.errors) == 2
        assert spec_key(spec) in state.points
        assert state.pending() == []


class TestCheckpointEvents:
    def _snapshot(self, step):
        return {"schema_version": 1, "kind": "hot-potato", "step": step}

    def test_checkpoint_replays_into_state(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        spec = _spec(0)
        key = spec_key(spec)
        store.queue(_entries([spec]))
        store.start([key])
        store.checkpoint(key, self._snapshot(4))
        state = store.replay()
        assert state.checkpoints[key]["step"] == 4
        # A checkpointed case is still owed a result.
        assert state.pending() == [key]

    def test_later_checkpoint_supersedes_earlier(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        spec = _spec(0)
        key = spec_key(spec)
        store.queue(_entries([spec]))
        store.checkpoint(key, self._snapshot(4))
        store.checkpoint(key, self._snapshot(8))
        assert store.replay().checkpoints[key]["step"] == 8

    def test_finished_case_drops_its_checkpoints(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        spec = _spec(0)
        key = spec_key(spec)
        store.queue(_entries([spec]))
        store.checkpoint(key, self._snapshot(4))
        store.finish(key, execute_case(spec))
        state = store.replay()
        assert state.checkpoints == {}
        assert key in state.points

    def test_checkpoint_after_finish_is_ignored(self, tmp_path):
        # finished is sticky: a straggler checkpoint from a crashed
        # retry must not resurrect a resume seed.
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        spec = _spec(0)
        key = spec_key(spec)
        store.queue(_entries([spec]))
        store.finish(key, execute_case(spec))
        store.checkpoint(key, self._snapshot(4))
        state = store.replay()
        assert state.checkpoints == {}
        assert state.status[key] == "finished"

    def test_checkpoint_event_carries_step_and_schema(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        spec = _spec(0)
        store.queue(_entries([spec]))
        store.checkpoint(spec_key(spec), self._snapshot(12))
        event = _lines(store.path)[-1]
        assert event["event"] == "case-checkpointed"
        assert event["step"] == 12
        assert event["schema_version"] == EVENT_SCHEMA_VERSION
        assert event["snapshot"]["step"] == 12

    def test_checkpoint_without_snapshot_is_an_error(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        spec = _spec(0)
        store.queue(_entries([spec]))
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {
                        "schema_version": EVENT_SCHEMA_VERSION,
                        "event": "case-checkpointed",
                        "key": spec_key(spec),
                        "snapshot": None,
                    }
                )
                + "\n"
            )
        state = store.replay()
        assert any("snapshot" in error for error in state.errors)
        assert state.checkpoints == {}
