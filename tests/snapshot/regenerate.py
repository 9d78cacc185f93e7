"""Regenerate ``golden.json`` — only when a snapshot schema or engine
behavior change is intended and documented.

For every engine × backend the fixture pins two payloads from the
reference scenario: the snapshot at the first checkpoint boundary
(``mid``) and the final-state capture of the finished run (``final``).
The golden tests re-derive both on the current tree and require exact
equality, then resume from the committed ``mid`` payload and require
the continuation to land exactly on the committed ``final``.
``golden_v1.json``, the schema v1 capture of the same scenarios, is
never regenerated: it pins the v1 read path.

Run from the repo root::

    PYTHONPATH=src python tests/snapshot/regenerate.py
"""

import json

from repro.snapshot import engine_snapshot

from scenarios import (  # type: ignore[import-not-found]
    ALL_COMBOS,
    GOLDEN_EVERY,
    GOLDEN_PATH,
    drive,
    make_engine,
    roundtrip,
)


def capture(kind, backend):
    snapshots = []
    engine = make_engine(
        kind, backend, every=GOLDEN_EVERY, on_checkpoint=snapshots.append
    )
    drive(engine, kind)
    assert snapshots, f"{kind}/{backend}: no checkpoint boundary fired"
    return {
        "mid": roundtrip(snapshots[0]),
        "final": roundtrip(engine_snapshot(engine)),
    }


def main():
    fixture = {
        f"{kind}/{backend}": capture(kind, backend)
        for kind, backend in ALL_COMBOS
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(fixture, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(fixture)} scenarios to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
