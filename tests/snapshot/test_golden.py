"""Golden snapshot fixtures: the schema and the streams, pinned.

``golden.json`` was captured by ``regenerate.py`` and commits, per
engine × backend, the snapshot at the first checkpoint boundary and
the final-state capture of the finished reference run.  Equality here
is *exact* — a change to the payload shape, the RNG encoding, a
packet field, or any engine behavior shows up as a diff against the
fixture, which is the point: snapshots written by one revision must
resume under the next, or the schema version must change.

``golden_v1.json`` is the same capture under snapshot schema v1 (keyed
packet dicts, per-step and per-delivery statistics rows), kept byte
for byte as that schema wrote it: its mid-run payloads must still
resume and land on the current final state.
"""

import pytest

from repro.snapshot import SNAPSHOT_SCHEMA_VERSION, engine_snapshot

from .scenarios import (
    ALL_COMBOS,
    GOLDEN_EVERY,
    GOLDEN_PATH,
    GOLDEN_V1_PATH,
    drive,
    load_golden,
    make_engine,
    roundtrip,
)

IDS = [f"{kind}-{backend}" for kind, backend in ALL_COMBOS]

#: Committed fixtures by the schema version that wrote them.
FIXTURES = {1: GOLDEN_V1_PATH, SNAPSHOT_SCHEMA_VERSION: GOLDEN_PATH}


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.fixture(scope="module")
def fixtures():
    return {
        version: load_golden(path) for version, path in FIXTURES.items()
    }


@pytest.mark.parametrize("kind,backend", ALL_COMBOS, ids=IDS)
def test_current_tree_reproduces_fixture(kind, backend, golden):
    name = f"{kind}/{backend}"
    assert name in golden, (
        f"scenario {name!r} has no fixture; run "
        "tests/snapshot/regenerate.py (only if the schema/behavior "
        "change is intended and documented)"
    )
    snapshots = []
    engine = make_engine(
        kind, backend, every=GOLDEN_EVERY, on_checkpoint=snapshots.append
    )
    drive(engine, kind)
    assert roundtrip(snapshots[0]) == golden[name]["mid"]
    assert roundtrip(engine_snapshot(engine)) == golden[name]["final"]


@pytest.mark.parametrize("kind,backend", ALL_COMBOS, ids=IDS)
def test_resume_from_committed_payload(kind, backend, fixtures, golden):
    # Snapshots written by a past revision must resume on this one:
    # the committed mid-run payload of either schema, continued to
    # completion, lands exactly on the committed current final state.
    name = f"{kind}/{backend}"
    for version, fixture in sorted(fixtures.items()):
        engine = make_engine(kind, backend)
        engine.resume_from(fixture[name]["mid"])
        drive(engine, kind)
        final = roundtrip(engine_snapshot(engine))
        assert final == golden[name]["final"], f"from v{version}"


def test_fixture_inventory(fixtures):
    for version, fixture in fixtures.items():
        assert set(fixture) == {f"{k}/{b}" for k, b in ALL_COMBOS}
        for name, payload in fixture.items():
            assert payload["mid"]["schema_version"] == version, name
            assert payload["final"]["schema_version"] == version, name
            assert payload["mid"]["step"] == GOLDEN_EVERY, name
