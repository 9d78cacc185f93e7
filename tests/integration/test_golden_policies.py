"""Every greedy policy's choices, pinned bit for bit.

``golden/policies.json`` holds, for each matching-template policy in
the registry plus ``maximal-greedy``, and for every ``tie_break`` and
``deflection`` value its constructor accepts, the digests of two
seeded ``backend="object"`` runs:

* ``batch``: a side-8 k = 120 batch (per-packet outcomes and
  telemetry);
* ``dynamic``: a side-8 Bernoulli-0.1 100-step dynamic run (telemetry
  and the run's :class:`~repro.dynamic.stats.DynamicStats`);

each with the digest of the policy's final ``_rng.getstate()``.  A
change to any policy's priority order, matching, deflection step or
RNG draws changes a digest.  Regenerate (only when a behaviour change
is intended and documented)::

    PYTHONPATH=src python -m tests.integration.test_golden_policies
"""

import dataclasses
import hashlib
import inspect
import json
import os

import pytest

from repro.algorithms import available_policies, make_policy
from repro.algorithms.base import (
    DEFLECTION_RULES,
    TIE_BREAKS,
    GreedyMatchingPolicy,
)
from repro.algorithms.plain_greedy import MaximalGreedyPolicy
from repro.core.engine import HotPotatoEngine
from repro.dynamic import BernoulliTraffic, DynamicEngine
from repro.mesh.topology import Mesh
from repro.workloads import random_many_to_many

FIXTURE_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "policies.json"
)
SEED = 5


def _configurations():
    """(label, class, kwargs) for every policy and constructor value."""
    configs = []
    for name in available_policies():
        policy = make_policy(name)
        if not isinstance(policy, (GreedyMatchingPolicy, MaximalGreedyPolicy)):
            continue
        accepted = inspect.signature(type(policy)).parameters
        tie_breaks = TIE_BREAKS if "tie_break" in accepted else (None,)
        rules = DEFLECTION_RULES if "deflection" in accepted else (None,)
        for tie_break in tie_breaks:
            for rule in rules:
                kwargs = {}
                if tie_break is not None:
                    kwargs["tie_break"] = tie_break
                if rule is not None:
                    kwargs["deflection"] = rule
                label = "-".join([name] + list(kwargs.values()))
                configs.append((label, type(policy), kwargs))
    return configs


CONFIGURATIONS = _configurations()


def _digest(payload):
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _rng_digest(policy):
    return _digest(repr(policy._rng.getstate()))


def _batch(cls, kwargs):
    mesh = Mesh(2, 8)
    policy = cls(**kwargs)
    engine = HotPotatoEngine(
        random_many_to_many(mesh, k=120, seed=SEED),
        policy,
        seed=SEED,
        backend="object",
    )
    result = engine.run()
    return {
        "run": _digest(
            {
                "outcomes": [
                    dataclasses.asdict(outcome) for outcome in result.outcomes
                ],
                "telemetry": engine.telemetry.to_dict(),
                "total_steps": result.total_steps,
            }
        ),
        "rng": _rng_digest(policy),
    }


def _dynamic(cls, kwargs):
    policy = cls(**kwargs)
    engine = DynamicEngine(
        Mesh(2, 8),
        policy,
        BernoulliTraffic(0.1),
        seed=SEED,
        backend="object",
    )
    stats = engine.run(100)
    return {
        "run": _digest(
            {
                "stats": repr(stats),
                "telemetry": engine.telemetry.to_dict(),
            }
        ),
        "rng": _rng_digest(policy),
    }


def capture_all():
    return {
        label: {"batch": _batch(cls, kwargs), "dynamic": _dynamic(cls, kwargs)}
        for label, cls, kwargs in CONFIGURATIONS
    }


@pytest.fixture(scope="module")
def fixture_data():
    with open(FIXTURE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_fixture_covers_every_configuration(fixture_data):
    assert set(fixture_data) == {label for label, _, _ in CONFIGURATIONS}
    labels = set(fixture_data)
    assert "restricted-priority-random-reverse" in labels
    assert "maximal-greedy-random" in labels
    assert "random-rank-reverse" in labels


@pytest.mark.parametrize(
    "label,cls,kwargs",
    CONFIGURATIONS,
    ids=[label for label, _, _ in CONFIGURATIONS],
)
def test_batch_run_matches_capture(label, cls, kwargs, fixture_data):
    assert _batch(cls, kwargs) == fixture_data[label]["batch"]


@pytest.mark.parametrize(
    "label,cls,kwargs",
    CONFIGURATIONS,
    ids=[label for label, _, _ in CONFIGURATIONS],
)
def test_dynamic_run_matches_capture(label, cls, kwargs, fixture_data):
    assert _dynamic(cls, kwargs) == fixture_data[label]["dynamic"]


if __name__ == "__main__":
    captured = capture_all()
    with open(FIXTURE_PATH, "w", encoding="utf-8") as handle:
        json.dump(captured, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(captured)} configurations to {FIXTURE_PATH}")
