"""Deflection-causality tracing: lifecycle events, attribution, and
chain reconstruction against real engine runs."""

import pytest

from repro.algorithms import RestrictedPriorityPolicy
from repro.core.engine import HotPotatoEngine
from repro.dynamic import BernoulliTraffic, DynamicEngine
from repro.mesh.topology import Mesh
from repro.obs.tracing import (
    EVENT_KINDS,
    PacketTrace,
    PacketTracer,
    TraceEvent,
)
from repro.workloads import random_many_to_many, single_target


def traced_run(problem, seed=0):
    tracer = PacketTracer()
    engine = HotPotatoEngine(
        problem, RestrictedPriorityPolicy(), seed=seed, observers=[tracer]
    )
    result = engine.run()
    assert result.completed
    return engine, result, tracer.trace


class TestTraceEvent:
    def test_round_trip_with_optional_fields(self):
        event = TraceEvent(
            kind="deflect", step=3, packet=7, node=(1, 2), to=(1, 3), by=9
        )
        payload = event.to_dict()
        assert payload["node"] == [1, 2]
        assert payload["to"] == [1, 3]
        assert TraceEvent.from_dict(payload) == event

    def test_omits_absent_optionals(self):
        payload = TraceEvent(
            kind="inject", step=0, packet=1, node=(0, 0)
        ).to_dict()
        assert "to" not in payload and "by" not in payload
        rebuilt = TraceEvent.from_dict(payload)
        assert rebuilt.to is None and rebuilt.by is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown trace event kind"):
            TraceEvent.from_dict(
                {"kind": "teleport", "step": 0, "packet": 1, "node": [0, 0]}
            )


class TestChainQueries:
    def test_chain_follows_attribution_backwards(self):
        trace = PacketTrace()
        # q deflected at step 1 with no cause; p deflected by q at
        # step 3; r deflected by p at step 5.
        trace.append(
            TraceEvent(kind="deflect", step=1, packet=2, node=(0, 0))
        )
        trace.append(
            TraceEvent(kind="deflect", step=3, packet=1, node=(1, 0), by=2)
        )
        trace.append(
            TraceEvent(kind="deflect", step=5, packet=3, node=(2, 0), by=1)
        )
        chain = trace.deflection_chain(3)
        assert [(e.packet, e.step) for e in chain] == [
            (3, 5),
            (1, 3),
            (2, 1),
        ]

    def test_chain_from_specific_step(self):
        trace = PacketTrace()
        trace.append(
            TraceEvent(kind="deflect", step=1, packet=1, node=(0, 0))
        )
        trace.append(
            TraceEvent(kind="deflect", step=4, packet=1, node=(0, 1))
        )
        assert [e.step for e in trace.deflection_chain(1, step=1)] == [1]
        assert trace.deflection_chain(1, step=2) == []

    def test_deflected_by_counts(self):
        trace = PacketTrace()
        for step in (1, 3):
            trace.append(
                TraceEvent(
                    kind="deflect", step=step, packet=1, node=(0, 0), by=2
                )
            )
        assert trace.deflected_by_counts() == {(1, 2): 2}


class TestTracedBatchRun:
    def test_events_reconcile_with_telemetry(self):
        mesh = Mesh(2, 6)
        problem = random_many_to_many(mesh, k=30, seed=3)
        engine, result, trace = traced_run(problem)
        kinds = {}
        for event in trace.events:
            assert event.kind in EVENT_KINDS
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        telemetry = engine.telemetry
        assert kinds["inject"] == 30
        assert kinds["deliver"] == telemetry.delivered == 30
        assert kinds.get("advance", 0) == telemetry.advances
        assert kinds.get("deflect", 0) == telemetry.deflections

    def test_lifecycles_are_well_formed(self):
        mesh = Mesh(2, 6)
        problem = random_many_to_many(mesh, k=30, seed=3)
        _, _, trace = traced_run(problem)
        for packet in trace.packets():
            events = trace.events_for(packet)
            assert events[0].kind == "inject"
            assert events[-1].kind == "deliver"
            steps = [e.step for e in events]
            assert steps == sorted(steps)

    def test_congested_run_attributes_deflections(self):
        # A single hot target forces contention, so every deflection
        # should have a contending packet to blame.
        mesh = Mesh(2, 6)
        problem = single_target(mesh, 25, seed=2)
        _, _, trace = traced_run(problem)
        deflects = [e for e in trace.events if e.kind == "deflect"]
        assert deflects, "hot-spot workload must deflect"
        assert all(e.by is not None for e in deflects)
        victim = deflects[-1].packet
        chain = trace.deflection_chain(victim)
        assert chain[0].packet == victim
        for cause, effect in zip(chain[1:], chain):
            assert effect.by == cause.packet
            assert cause.step < effect.step

    def test_tracing_does_not_change_the_run(self):
        mesh = Mesh(2, 6)
        problem = random_many_to_many(mesh, k=30, seed=3)
        plain = HotPotatoEngine(
            problem, RestrictedPriorityPolicy(), seed=0, backend="object"
        ).run()
        _, traced, _ = traced_run(problem)
        assert traced.total_steps == plain.total_steps
        assert traced.step_metrics == plain.step_metrics
        assert traced.outcomes == plain.outcomes


class TestTracedDynamicRun:
    def test_source_injections_emit_inject_events(self):
        mesh = Mesh(2, 5)
        tracer = PacketTracer()
        engine = DynamicEngine(
            mesh,
            RestrictedPriorityPolicy(),
            BernoulliTraffic(0.1),
            seed=4,
            observers=[tracer],
        )
        engine.run(80)
        injects = [e for e in tracer.trace.events if e.kind == "inject"]
        assert len(injects) == engine.telemetry.injected > 0
