"""Fault injection through the batch engines: equivalence, accounting,
graceful degradation, structured aborts, and livelock detection on
masked topologies."""

import pytest

from repro.algorithms import DimensionOrderPolicy, RandomRankPolicy
from repro.analysis.livelock import DetectedCycle, detect_cycle
from repro.core.buffered_engine import BufferedEngine
from repro.core.engine import HotPotatoEngine
from repro.core.events import RunObserver
from repro.core.problem import RoutingProblem
from repro.core.serialization import result_from_dict, result_to_dict
from repro.faults import FaultSchedule, RunWatchdog
from repro.faults.schedule import LinkFault, NodeFault, PacketDrop
from repro.mesh.topology import Mesh
from repro.workloads import random_permutation


def corner_cut_schedule():
    """Killing (1, 2) and (2, 1) isolates corner (1, 1) on a 3x3."""
    return FaultSchedule(
        events=(
            NodeFault(node=(1, 2), start=0),
            NodeFault(node=(2, 1), start=0),
        )
    )


class TestEmptyScheduleEquivalence:
    """An empty schedule must be bit-identical to no faults at all —
    the guard that the fault phase costs nothing when unused."""

    def test_hot_potato(self):
        problem = random_permutation(Mesh(2, 4), seed=3)
        plain = HotPotatoEngine(
            problem, RandomRankPolicy(), seed=7, backend="object"
        ).run()
        empty = HotPotatoEngine(
            problem,
            RandomRankPolicy(),
            seed=7,
            faults=FaultSchedule.empty(),
        ).run()
        assert plain == empty

    def test_buffered(self):
        problem = random_permutation(Mesh(2, 4), seed=3)
        plain = BufferedEngine(
            problem, DimensionOrderPolicy(), seed=7, backend="object"
        ).run()
        empty = BufferedEngine(
            problem,
            DimensionOrderPolicy(),
            seed=7,
            faults=FaultSchedule.empty(),
        ).run()
        assert plain == empty


class TestLeanInstrumentedParity:
    """Both kernel paths must produce the same faulted result."""

    def faulted_schedule(self):
        return FaultSchedule(
            events=(
                LinkFault(a=(2, 2), b=(2, 3), start=1, end=6),
                PacketDrop(node=(3, 3), step=2, count=1),
            )
        )

    def test_hot_potato(self):
        problem = random_permutation(Mesh(2, 4), seed=5)
        lean = HotPotatoEngine(
            problem,
            RandomRankPolicy(),
            seed=11,
            faults=self.faulted_schedule(),
            backend="object",
        ).run()
        instrumented = HotPotatoEngine(
            problem,
            RandomRankPolicy(),
            seed=11,
            faults=self.faulted_schedule(),
            backend="object",
            observers=[RunObserver()],
        ).run()
        assert lean == instrumented

    def test_buffered(self):
        problem = random_permutation(Mesh(2, 4), seed=5)
        lean = BufferedEngine(
            problem,
            DimensionOrderPolicy(),
            seed=11,
            faults=self.faulted_schedule(),
            backend="object",
        ).run()
        instrumented = BufferedEngine(
            problem,
            DimensionOrderPolicy(),
            seed=11,
            faults=self.faulted_schedule(),
            backend="object",
            observers=[RunObserver()],
        ).run()
        assert lean == instrumented


class TestDropAccounting:
    def drop_result(self):
        problem = RoutingProblem.from_pairs(
            Mesh(2, 3),
            [((1, 1), (3, 3)), ((3, 1), (1, 3))],
            name="two-packets",
        )
        schedule = FaultSchedule(
            events=(PacketDrop(node=(1, 1), step=0, count=1),)
        )
        return HotPotatoEngine(
            problem, RandomRankPolicy(), seed=1, faults=schedule
        ).run()

    def test_dropped_packet_is_stamped_and_counted(self):
        result = self.drop_result()
        assert result.total_dropped == 1
        assert result.outcomes[0].dropped_at == 0
        assert result.outcomes[0].dropped
        assert not result.outcomes[0].delivered

    def test_telemetry_agrees_with_outcomes(self):
        result = self.drop_result()
        assert result.telemetry is not None
        assert result.telemetry.dropped == result.total_dropped

    def test_survivors_still_deliver(self):
        result = self.drop_result()
        assert result.completed
        assert result.delivered == 1
        assert result.undelivered_ids == []


class TestPartitionAbort:
    def partitioned_result(self, engine_cls, policy):
        problem = RoutingProblem.from_pairs(
            Mesh(2, 3), [((1, 1), (3, 3))], name="stranded"
        )
        return engine_cls(
            problem,
            policy,
            seed=0,
            faults=corner_cut_schedule(),
            watchdog=RunWatchdog(
                no_progress_limit=None, partition_interval=1
            ),
        ).run()

    def test_hot_potato_aborts_with_structure(self):
        result = self.partitioned_result(HotPotatoEngine, RandomRankPolicy())
        assert not result.completed
        assert result.abort is not None
        assert result.abort.reason == "partition"
        assert result.abort.undelivered == (0,)
        assert result.abort.stranded == (0,)
        assert result.summary().startswith("random-rank")
        assert "PARTITION" in result.summary()

    def test_buffered_aborts_with_structure(self):
        result = self.partitioned_result(
            BufferedEngine, DimensionOrderPolicy()
        )
        assert not result.completed
        assert result.abort is not None
        assert result.abort.reason == "partition"
        assert result.abort.stranded == (0,)


class TestBufferedGracefulDegradation:
    def test_packet_waits_out_a_dead_arc(self):
        """Store-and-forward: a down first-hop link means the packet
        sits in its buffer until the window closes, then proceeds."""
        problem = RoutingProblem.from_pairs(
            Mesh(2, 4), [((1, 1), (1, 4))], name="one-line"
        )
        baseline = BufferedEngine(
            problem, DimensionOrderPolicy(), seed=0
        ).run()
        schedule = FaultSchedule(
            events=(LinkFault(a=(1, 1), b=(1, 2), start=0, end=3),)
        )
        faulted = BufferedEngine(
            problem, DimensionOrderPolicy(), seed=0, faults=schedule
        ).run()
        assert baseline.completed and faulted.completed
        assert faulted.delivered == 1
        # Three steps waiting for the link, then the baseline route.
        assert faulted.total_steps == baseline.total_steps + 3


class TestHotPotatoGracefulDegradation:
    def test_transient_outage_degrades_but_completes(self):
        """While the link is down the reduced degree forces waits and
        detours; after the window closes every packet still arrives."""
        problem = random_permutation(Mesh(2, 4), seed=9)
        baseline = HotPotatoEngine(
            problem, RandomRankPolicy(), seed=2
        ).run()
        schedule = FaultSchedule(
            events=(LinkFault(a=(2, 2), b=(3, 2), start=0, end=60),)
        )
        result = HotPotatoEngine(
            problem, RandomRankPolicy(), seed=2, faults=schedule
        ).run()
        assert result.completed
        assert result.delivered == problem.k
        assert result.total_dropped == 0
        # The outage genuinely perturbed the run.
        assert result != baseline

    def test_permanent_dead_arc_ends_in_structured_abort(self):
        """Unmasked distances can pull a packet against a permanently
        dead arc forever (the documented degradation limit); the run
        must end in a step-limit/no-progress record, not an exception."""
        problem = random_permutation(Mesh(2, 4), seed=9)
        schedule = FaultSchedule(
            events=(LinkFault(a=(2, 2), b=(3, 2), start=0, end=None),)
        )
        result = HotPotatoEngine(
            problem, RandomRankPolicy(), seed=2, faults=schedule
        ).run()
        assert not result.completed
        assert result.abort is not None
        assert result.abort.reason in ("step-limit", "no-progress")
        assert result.abort.undelivered == (13,)
        assert result.delivered == problem.k - 1


class TestSerializationWithFaultData:
    def test_abort_and_drop_stamps_round_trip(self):
        problem = RoutingProblem.from_pairs(
            Mesh(2, 3),
            [((1, 1), (3, 3)), ((3, 1), (1, 3))],
            name="round-trip",
        )
        schedule = FaultSchedule(
            events=(
                NodeFault(node=(1, 2), start=0),
                NodeFault(node=(2, 1), start=0),
                PacketDrop(node=(3, 1), step=0, count=1),
            )
        )
        result = HotPotatoEngine(
            problem,
            RandomRankPolicy(),
            seed=0,
            faults=schedule,
            watchdog=RunWatchdog(
                no_progress_limit=None, partition_interval=1
            ),
        ).run()
        assert result.abort is not None
        assert result.total_dropped == 1
        restored = result_from_dict(result_to_dict(result))
        assert restored.abort == result.abort
        assert restored.completed == result.completed
        assert restored.total_steps == result.total_steps
        assert [o.dropped_at for o in restored.outcomes] == [
            o.dropped_at for o in result.outcomes
        ]
        assert restored.telemetry == result.telemetry

    def test_faultless_payload_has_no_fault_keys(self):
        problem = random_permutation(Mesh(2, 3), seed=1)
        result = HotPotatoEngine(problem, RandomRankPolicy(), seed=1).run()
        payload = result_to_dict(result)
        assert "abort" not in payload
        assert all("dropped_at" not in o for o in payload["outcomes"])


class TestDetectCycleOnFaultedMesh:
    def test_stranded_packet_is_a_period_one_livelock(self):
        """A packet whose node lost every live arc waits forever: the
        masked topology turns greedy routing into a one-step cycle."""
        problem = RoutingProblem.from_pairs(
            Mesh(2, 3), [((1, 1), (3, 3))], name="stranded"
        )
        cycle = detect_cycle(
            problem,
            RandomRankPolicy(),
            seed=0,
            max_steps=50,
            faults=corner_cut_schedule(),
        )
        assert isinstance(cycle, DetectedCycle)
        assert cycle.period == 1

    def test_recovering_fault_reports_no_cycle(self):
        """A transient outage delays delivery but the run terminates,
        so the detector must not call the pre-recovery churn a loop."""
        problem = RoutingProblem.from_pairs(
            Mesh(2, 3), [((1, 1), (3, 3))], name="delayed"
        )
        schedule = FaultSchedule(
            events=(
                NodeFault(node=(1, 2), start=0),
                LinkFault(a=(1, 1), b=(2, 1), start=0, end=8),
            )
        )
        cycle = detect_cycle(
            problem,
            RandomRankPolicy(),
            seed=0,
            max_steps=200,
            faults=schedule,
        )
        assert cycle is None
