"""DynamicStats as exact sufficient statistics.

The engine's running aggregates must equal a fold of the run's rows
(captured outside the statistics by :class:`~tests.dynamic.rows.RunRows`)
and every summary must equal the list-based formula it replaced, on
both backends and both dynamic engines.  The snapshot payload carries
the aggregates exactly, and a schema v1 payload's rows fold into the
same aggregates the uninterrupted run kept.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    DimensionOrderPolicy,
    RandomizedGreedyPolicy,
    RestrictedPriorityPolicy,
)
from repro.dynamic import (
    BernoulliTraffic,
    BufferedDynamicEngine,
    DynamicEngine,
    DynamicStats,
    HotSpotTraffic,
)
from repro.mesh.topology import Mesh
from repro.mesh.torus import Torus
from repro.snapshot.state import (
    stats_from_dict,
    stats_from_v1_dict,
    stats_to_dict,
)
from tests.dynamic.rows import RunRows, assert_stats_fold_rows

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def _engines(draw):
    """A fresh dynamic engine of either kind, on either backend."""
    mesh = (Torus if draw(st.booleans()) else Mesh)(
        2, draw(st.integers(min_value=3, max_value=6))
    )
    rate = draw(st.floats(min_value=0.02, max_value=0.5))
    traffic = (
        BernoulliTraffic(rate)
        if draw(st.booleans())
        else HotSpotTraffic(min(rate, 0.3), hot_fraction=0.3)
    )
    options = dict(
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        warmup=draw(st.integers(min_value=0, max_value=30)),
        backend=draw(st.sampled_from(["object", "soa"])),
    )
    if draw(st.booleans()):
        engine = BufferedDynamicEngine(
            mesh, DimensionOrderPolicy(), traffic, **options
        )
    else:
        policy = draw(
            st.sampled_from([RestrictedPriorityPolicy, RandomizedGreedyPolicy])
        )
        engine = DynamicEngine(mesh, policy(), traffic, **options)
    return engine, draw(st.integers(min_value=1, max_value=120))


def _v1_payload(stats, rows):
    """The schema v1 ``stats`` payload of a finished run."""
    return {
        "warmup": stats.warmup,
        "samples": [list(row) for row in rows.steps],
        "deliveries": [list(row) for row in rows.counted],
        "horizon": stats.horizon,
        "final_in_flight": stats.final_in_flight,
        "final_backlog": stats.final_backlog,
        "abort": None,
    }


class TestAggregatesFoldTheRows:
    @_SETTINGS
    @given(instance=_engines())
    def test_every_summary_is_the_fold_of_the_rows(self, instance):
        engine, steps = instance
        rows = RunRows(engine)
        stats = engine.run(steps)
        assert_stats_fold_rows(stats, rows)

    @_SETTINGS
    @given(instance=_engines())
    def test_v1_rows_fold_into_the_same_stats(self, instance):
        engine, steps = instance
        rows = RunRows(engine)
        stats = engine.run(steps)
        payload = json.loads(json.dumps(_v1_payload(stats, rows)))
        assert stats_from_v1_dict(payload) == stats

    @_SETTINGS
    @given(instance=_engines())
    def test_payload_round_trips_exactly(self, instance):
        engine, steps = instance
        stats = engine.run(steps)
        payload = json.loads(json.dumps(stats_to_dict(stats)))
        restored = stats_from_dict(payload)
        assert restored == stats
        assert repr(restored.stretch_sum) == repr(stats.stretch_sum)
        assert restored.summary() == stats.summary()


class TestHistogram:
    @given(
        latencies=st.lists(st.integers(min_value=0, max_value=60)),
        q=st.floats(min_value=0, max_value=100),
    )
    def test_percentile_equals_the_sorted_list_rule(self, latencies, q):
        stats = DynamicStats()
        for latency in latencies:
            stats.record_deliveries([0], latency, [latency], [0], [latency])
        if not latencies:
            assert stats.latency_percentile(q) == 0.0
            return
        ordered = sorted(latencies)
        index = min(
            len(ordered) - 1, max(0, round(q / 100 * (len(ordered) - 1)))
        )
        assert stats.latency_percentile(q) == float(ordered[index])

    def test_warmup_deliveries_and_steps_are_not_counted(self):
        stats = DynamicStats(warmup=10)
        stats.record_deliveries([9], 20, [5], [1], [3])
        stats.record_step(9, 4, 7, 50)
        assert stats.delivered_count == 0
        assert stats.latency_counts == {}
        assert stats.in_flight_samples == 0
        assert stats.max_backlog == 0
        assert list(stats.recent_generated) == [4]

    def test_recent_window_keeps_the_last_twenty_steps(self):
        stats = DynamicStats()
        for step in range(50):
            stats.record_step(step, step, 0, 0)
        assert list(stats.recent_generated) == list(range(30, 50))
