"""The shared run driver (:mod:`repro.core.chassis`), engine by engine.

* Checkpoints on the instrumented loop: a step-consuming observer
  forces every engine off the lean loop; its checkpoints must land at
  the lean run's steps, carry the lean run's payloads (apart from the
  observers' own state), and each must resume to the uninterrupted
  outcome.
* Engine subclasses: a trivial subclass is the engine it configures —
  it checkpoints, resumes bit-identically and is recorded in manifests
  under the base engine's kind.

Without numpy, the default backend's lean runs take the columnar loop
through the same driver.
"""

import pytest

from repro.core.events import RunObserver
from repro.obs.manifest import manifest_for_engine
from repro.snapshot import engine_snapshot
from tests.snapshot.scenarios import (
    BATCH_KINDS,
    DYNAMIC_KINDS,
    ENGINE_CLASSES,
    drive,
    make_engine,
    roundtrip,
)

KINDS = BATCH_KINDS + DYNAMIC_KINDS
EVERY = 3


def _checkpointed(kind, backend, **kwargs):
    """Run a fresh engine checkpointing every :data:`EVERY` steps;
    returns the engine, its outcome and the JSON round-tripped
    snapshots."""
    taken = []
    engine = make_engine(
        kind, backend, every=EVERY, on_checkpoint=taken.append, **kwargs
    )
    outcome = drive(engine, kind)
    return engine, outcome, [roundtrip(payload) for payload in taken]


def _without_observers(payload):
    return {key: value for key, value in payload.items() if key != "observers"}


class TestInstrumentedCheckpoints:
    @pytest.mark.parametrize("kind", KINDS)
    def test_checkpoints_match_the_lean_loop(self, kind):
        lean_engine, lean_outcome, lean = _checkpointed(kind, "object")
        engine, outcome, instrumented = _checkpointed(
            kind, "object", observers=[RunObserver()]
        )
        assert engine.backend_used == "object"
        assert outcome == lean_outcome
        assert len(instrumented) >= 2, "too few boundaries to compare"
        assert [p["step"] for p in instrumented] == [p["step"] for p in lean]
        assert all(p["step"] % EVERY == 0 for p in instrumented)
        for ours, theirs in zip(instrumented, lean):
            assert ours["observers"] == [None]
            assert theirs["observers"] == []
            assert _without_observers(ours) == _without_observers(theirs)
        final = engine_snapshot(engine)
        for payload in instrumented:
            resumed = make_engine(kind, "object", observers=[RunObserver()])
            resumed.resume_from(payload)
            assert drive(resumed, kind) == outcome
            assert engine_snapshot(resumed) == final, (
                f"state diverged after resume from step {payload['step']}"
            )


class TestEngineSubclasses:
    @pytest.mark.parametrize("kind", KINDS)
    def test_subclass_checkpoints_resumes_and_keeps_its_kind(self, kind):
        subclass = type("Traced", (ENGINE_CLASSES[kind],), {})
        base = make_engine(kind, "auto")
        reference = drive(base, kind)
        final = engine_snapshot(base)

        engine, outcome, snapshots = _checkpointed(
            kind, "auto", engine_class=subclass
        )
        assert outcome == reference
        assert snapshots, "no checkpoint boundary fired"
        assert {payload["kind"] for payload in snapshots} == {kind}
        for payload in snapshots:
            resumed = make_engine(kind, "auto", engine_class=subclass)
            resumed.resume_from(payload)
            assert drive(resumed, kind) == reference
            assert engine_snapshot(resumed) == final
        assert manifest_for_engine(engine, outcome).engine == kind
        assert manifest_for_engine(base, reference).engine == kind
