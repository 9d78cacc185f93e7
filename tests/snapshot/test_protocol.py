"""The resume protocol's refusal paths and the snapshot file format.

Resuming under the wrong schema, engine kind, seed, or problem would
*silently* diverge — every such mismatch must be a loud ``ValueError``
before any state is overwritten.
"""

import json
import os

import pytest

from repro.snapshot import (
    SNAPSHOT_SCHEMA_VERSION,
    engine_snapshot,
    load_snapshot,
    save_snapshot,
)

from .scenarios import drive, make_engine, roundtrip

#: The last checkpoint ``repro route --side 8 --k 40 --seed 9
#: --checkpoint-every 5 --checkpoint FILE`` left under snapshot schema
#: v1 (step 10 of 13).
ROUTE_V1_PATH = os.path.join(os.path.dirname(__file__), "route_v1.json")


def _snapshot(kind="hot-potato", backend="object", **kwargs):
    taken = []
    engine = make_engine(
        kind, backend, every=4, on_checkpoint=taken.append, **kwargs
    )
    drive(engine, kind)
    return roundtrip(taken[0])


class TestResumeRefusals:
    def test_wrong_schema_version(self):
        payload = _snapshot()
        payload["schema_version"] = SNAPSHOT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            make_engine("hot-potato", "object").resume_from(payload)

    def test_wrong_engine_kind(self):
        payload = _snapshot()
        with pytest.raises(ValueError, match="kind"):
            make_engine("buffered", "object").resume_from(payload)

    def test_wrong_seed(self):
        payload = _snapshot()
        with pytest.raises(ValueError, match="seed"):
            make_engine("hot-potato", "object", seed=12).resume_from(payload)

    def test_started_engine_refused(self):
        payload = _snapshot()
        engine = make_engine("hot-potato", "object")
        engine.run()
        with pytest.raises(ValueError, match="fresh engine"):
            engine.resume_from(payload)

    def test_wrong_problem_packets(self):
        payload = _snapshot()
        with pytest.raises(ValueError, match="packet ids"):
            make_engine("hot-potato", "object", k=31).resume_from(payload)

    def test_record_steps_runs_refuse_to_snapshot(self):
        from repro.algorithms import make_policy
        from repro.core.engine import HotPotatoEngine
        from repro.core.validation import validators_for
        from repro.mesh.topology import Mesh
        from repro.workloads import random_many_to_many

        mesh = Mesh(2, 4)
        policy = make_policy("restricted-priority")
        engine = HotPotatoEngine(
            random_many_to_many(mesh, k=6, seed=1),
            policy,
            seed=1,
            validators=validators_for(policy, strict=False),
            record_steps=True,
        )
        with pytest.raises(ValueError, match="record_steps"):
            engine_snapshot(engine)


class TestSnapshotFiles:
    def test_save_load_roundtrip(self, tmp_path):
        payload = _snapshot()
        path = str(tmp_path / "ckpt.json")
        save_snapshot(payload, path)
        assert load_snapshot(path) == payload
        # Atomic write: no tmp litter next to the snapshot.
        assert os.listdir(tmp_path) == ["ckpt.json"]

    def test_overwrite_keeps_latest(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        first = _snapshot()
        save_snapshot(first, path)
        second = dict(first, step=first["step"] + 4)
        save_snapshot(second, path)
        assert load_snapshot(path)["step"] == first["step"] + 4

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"schema_version": 99}, handle)
        with pytest.raises(ValueError, match="schema_version"):
            load_snapshot(path)

    def test_resumed_file_run_matches_uninterrupted(self, tmp_path):
        reference = make_engine("hot-potato", "object").run()
        path = str(tmp_path / "ckpt.json")
        save_snapshot(_snapshot(), path)
        engine = make_engine("hot-potato", "object")
        engine.resume_from(load_snapshot(path))
        assert engine.run() == reference

    def test_v1_route_checkpoint_resumes_through_the_cli(self, capsys):
        from repro.cli import main

        flags = ["route", "--side", "8", "--k", "40", "--seed", "9"]
        assert load_snapshot(ROUTE_V1_PATH)["schema_version"] == 1
        assert main(flags) == 0
        reference = capsys.readouterr().out
        assert main(flags + ["--resume-from", ROUTE_V1_PATH]) == 0
        resumed = capsys.readouterr().out.splitlines(keepends=True)
        note = f"resuming from {ROUTE_V1_PATH} (step 10)\n"
        assert note in resumed
        resumed.remove(note)
        assert "".join(resumed) == reference
