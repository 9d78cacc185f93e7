"""The kernel-based engines must reproduce the legacy engines bit-for-bit.

``golden/engines.json`` was captured from the per-engine step loops
this repo shipped *before* ``repro.core.kernel`` existed (the
hand-rolled ``_start``/``_route``/``_move`` clones).  Each scenario
re-runs on the current code and must match exactly — delivery counts,
step-by-step samples, per-packet outcomes, queue maxima, packet-id
sequences.  A mismatch means the refactor changed an RNG stream, a
node visit order, or an injection order.
"""

import pytest

from .golden.scenarios import SCENARIOS, load_fixture


@pytest.fixture(scope="module")
def fixture_data():
    return load_fixture()


@pytest.mark.parametrize(
    "name,build", SCENARIOS, ids=[name for name, _ in SCENARIOS]
)
def test_scenario_matches_legacy_capture(name, build, fixture_data):
    assert name in fixture_data, (
        f"scenario {name!r} has no captured fixture; run "
        "tests/integration/golden/regenerate.py (only if the behavior "
        "change is intended and documented)"
    )
    assert build(backend="object") == fixture_data[name]


@pytest.mark.parametrize(
    "name,build", SCENARIOS, ids=[name for name, _ in SCENARIOS]
)
def test_soa_backend_matches_legacy_capture(name, build, fixture_data):
    # The structure-of-arrays kernel must reproduce the very same
    # legacy captures: identical samples, outcomes, packet-id
    # sequences and queue maxima, with no soa-specific fixtures.
    assert build(backend="soa") == fixture_data[name]


def test_fixture_has_no_orphan_scenarios(fixture_data):
    assert set(fixture_data) == {name for name, _ in SCENARIOS}
