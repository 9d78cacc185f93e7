"""Kill-and-resume drivers: the executable proof behind checkpointing.

A checkpoint you have never resumed from is a wish, not a feature.
These drivers manufacture the crashes:

* :func:`crashtest_engine` / :func:`crashtest_route` — run a scenario
  uninterrupted for reference, then *for every checkpoint boundary*
  pretend the process died right after the snapshot landed: build a
  fresh engine, resume from that snapshot alone, run to completion,
  and require the :class:`~repro.core.metrics.RunResult` to be
  bit-identical to the reference.  Every boundary, not a sampled one —
  the failure mode worth catching is the boundary where some state
  escaped the snapshot.
* :func:`crashtest_store` — feed a campaign store every infrastructure
  insult the injector knows (fsync ``EIO``, ``ENOSPC`` short write,
  mid-write kill, a kill inside a pooled campaign's chunk append,
  byte-level torn tails across a multi-byte UTF-8 character) and
  require replay to stay readable and a resumed campaign to finish
  with reference-identical points.
* :func:`crashtest_campaign` — the real thing: a 2-worker ``repro
  campaign run --checkpoint-every`` subprocess, SIGKILLed the moment
  its store shows a live mid-run checkpoint, then resumed over the
  surviving log; points must match an uninterrupted campaign exactly.

``python -m repro.chaos.crashtest`` runs all three (CI's crashtest
leg and ``make crashtest``).  Everything is deterministic except the
SIGKILL timing, which retries until the kill genuinely lands mid-case.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.chaos.injector import (
    ChaosPlan,
    ProcessKilled,
    durability_chaos,
    tear_tail,
)
from repro.obs.clock import sleep_for

__all__ = [
    "CrashtestReport",
    "crashtest_campaign",
    "crashtest_engine",
    "crashtest_route",
    "crashtest_store",
    "main",
]

EngineFactory = Callable[
    [Optional[int], Optional[Callable[[Dict[str, Any]], None]]], Any
]


@dataclass
class CrashtestReport:
    """What one driver exercised (drivers raise on any mismatch)."""

    scenario: str
    boundaries: int = 0
    details: List[str] = field(default_factory=list)

    def line(self) -> str:
        extra = f" ({'; '.join(self.details)})" if self.details else ""
        return (
            f"crashtest {self.scenario}: {self.boundaries} "
            f"kill points survived{extra}"
        )


def crashtest_engine(
    factory: EngineFactory, every: int, scenario: str = "engine"
) -> CrashtestReport:
    """Kill-and-resume at *every* checkpoint boundary of one scenario.

    ``factory(checkpoint_every, on_checkpoint)`` must build a fresh,
    identically configured engine each call.  Raises ``AssertionError``
    on the first divergence.
    """
    reference = factory(None, None).run()
    snapshots: List[Dict[str, Any]] = []
    checkpointed = factory(every, snapshots.append).run()
    assert checkpointed == reference, (
        f"{scenario}: checkpointing changed the run itself"
    )
    if not snapshots:
        raise AssertionError(
            f"{scenario}: no checkpoints emitted at every={every}"
        )
    for snapshot in snapshots:
        # Serialize through JSON exactly like the store and the
        # snapshot file do — resuming from the in-memory dict would
        # hide round-trip bugs.
        payload = json.loads(json.dumps(snapshot))
        engine = factory(None, None)
        engine.resume_from(payload)
        resumed = engine.run()
        assert resumed == reference, (
            f"{scenario}: resume from step {snapshot['step']} diverged"
        )
    return CrashtestReport(scenario=scenario, boundaries=len(snapshots))


def _route_factory(backend: str, engine: str) -> EngineFactory:
    from repro.mesh.topology import Mesh
    from repro.workloads import random_many_to_many

    mesh = Mesh(2, 8)
    problem = random_many_to_many(mesh, k=40, seed=7)

    def build(
        every: Optional[int],
        on_checkpoint: Optional[Callable[[Dict[str, Any]], None]],
    ) -> Any:
        if engine == "buffered":
            from repro.algorithms.dimension_order import DimensionOrderPolicy
            from repro.core.buffered_engine import BufferedEngine

            return BufferedEngine(
                problem,
                DimensionOrderPolicy(),
                seed=7,
                backend=backend,
                checkpoint_every=every,
                on_checkpoint=on_checkpoint,
            )
        from repro.algorithms import make_policy
        from repro.core.engine import HotPotatoEngine
        from repro.core.validation import validators_for

        policy = make_policy("restricted-priority")
        return HotPotatoEngine(
            problem,
            policy,
            seed=7,
            validators=validators_for(policy, strict=False),
            backend=backend,
            checkpoint_every=every,
            on_checkpoint=on_checkpoint,
        )

    return build


def crashtest_route(every: int = 3) -> List[CrashtestReport]:
    """Every-boundary kill-and-resume over the batch engine matrix."""
    reports = []
    for engine, backend in (
        ("hot-potato", "object"),
        ("hot-potato", "soa"),
        ("buffered", "object"),
        ("buffered", "soa"),
    ):
        reports.append(
            crashtest_engine(
                _route_factory(backend, engine),
                every,
                scenario=f"route {engine}/{backend}",
            )
        )
    return reports


def _campaign_specs(
    seeds: int, *, side: int = 6, checkpoint_every: Optional[int] = None
) -> List[Any]:
    from repro.campaign.spec import CaseSpec

    return [
        CaseSpec(
            topology="mesh",
            workload="random",
            policy="random-rank",
            seed=seed,
            side=side,
            checkpoint_every=checkpoint_every,
        )
        for seed in range(seeds)
    ]


def _reference_points(specs: Sequence[Any]) -> Dict[str, Any]:
    from repro.campaign.orchestrator import Campaign
    from repro.campaign.spec import spec_key

    with Campaign(specs) as campaign:
        result = campaign.run()
    assert not result.failures, result.failures
    return {
        spec_key(spec): point.result
        for spec, point in zip(specs, result.points)
    }


def _assert_matches_reference(
    store_path: str, reference: Dict[str, Any], scenario: str
) -> None:
    from repro.campaign.orchestrator import Campaign
    from repro.campaign.spec import spec_key

    campaign = Campaign.from_store(store_path)
    try:
        result = campaign.run()
    finally:
        campaign.close()
    assert not result.failures, f"{scenario}: {result.failures}"
    assert len(result.points) == len(reference), (
        f"{scenario}: {len(result.points)} points, "
        f"expected {len(reference)}"
    )
    for spec, point in zip(campaign.specs, result.points):
        key = spec_key(spec)
        assert point.result == reference[key], (
            f"{scenario}: resumed case {key} diverged"
        )


def _crashtest_chunk_append(folder: str, workers: int) -> str:
    """Kill a pooled campaign's parent inside its second chunk append.

    The specs checkpoint nothing, so the workers write nothing and the
    parent's appends are the queue, the start, then one per landed
    chunk: write 4 is the second chunk's, torn after 300 bytes (inside
    its first event).  Replay must show that one torn line and exactly
    the first landed chunk finished, all of it; the resume must match
    the serial reference with one ``case-finished`` per key.
    """
    from repro.campaign.orchestrator import Campaign
    from repro.campaign.pool import WorkerPool
    from repro.campaign.spec import spec_key
    from repro.campaign.store import CampaignStore

    specs = _campaign_specs(20)
    keys = [spec_key(spec) for spec in specs]
    reference = _reference_points(specs)
    path = os.path.join(folder, "pooled-chunk.jsonl")
    pool = WorkerPool(workers)
    try:
        # Started outside the chaos scope: the workers fork with the
        # real syscall seams.
        pool.start()
        with durability_chaos(
            ChaosPlan(kill_at_write=4, short_bytes=300)
        ) as log:
            try:
                Campaign(specs, store=CampaignStore(path), pool=pool).run()
            except ProcessKilled:
                pass
    finally:
        pool.close()
    assert log.injected, "pooled-chunk: chaos never fired"
    state = CampaignStore(path).replay()
    assert len(state.errors) == 1, f"pooled-chunk: {state.errors}"
    chunks = [
        {keys[index] for index in chunk}
        for chunk in pool._chunks(range(len(keys)))
    ]
    assert len(chunks) > 2, "pooled-chunk: the batch was not chunked"
    assert set(state.points) in chunks, (
        f"pooled-chunk: {len(state.points)} finished cases are not one "
        "landed chunk"
    )
    _assert_matches_reference(path, reference, "store/pooled-chunk")
    finished: Counter[str] = Counter()
    with open(path, "rb") as handle:
        for raw in handle:
            try:
                event = json.loads(raw)
            except ValueError:
                continue  # the torn line
            if event["event"] == "case-finished":
                finished[event["key"]] += 1
    assert finished == Counter(keys), (
        "pooled-chunk: a case finished twice or never"
    )
    return (
        f"pooled-chunk at write {log.writes}: "
        f"{len(state.points)}/{len(keys)} acknowledged"
    )


def crashtest_store(workers: int = 2) -> CrashtestReport:
    """Chaos-inject the campaign store's durability layer and resume.

    Serial campaigns face the syscall-seam injector (fsync ``EIO``,
    ``ENOSPC`` short write, simulated mid-write SIGKILL); a
    ``workers``-wide campaign is killed inside a chunk append; a
    ``workers``-wide campaign's finished log is then torn at byte
    granularity — including mid-way through a multi-byte UTF-8
    character — before resuming over the damage.
    """
    import tempfile

    from repro.campaign.orchestrator import Campaign
    from repro.campaign.store import CampaignStore

    specs = _campaign_specs(3, checkpoint_every=4)
    reference = _reference_points(specs)
    report = CrashtestReport(scenario="store")

    with tempfile.TemporaryDirectory() as tmp:
        plans = (
            ("fsync-eio", ChaosPlan(fail_fsync_at=4)),
            ("enospc", ChaosPlan(enospc_at_write=4)),
            ("kill-mid-write", ChaosPlan(kill_at_write=4, short_bytes=9)),
        )
        for name, plan in plans:
            path = os.path.join(tmp, f"{name}.jsonl")
            try:
                with durability_chaos(plan) as log:
                    with Campaign(specs, store=CampaignStore(path)) as c:
                        c.run()
            except (OSError, ProcessKilled):
                pass
            assert log.injected, f"{name}: chaos never fired"
            state = CampaignStore(path).replay()
            assert state.order, f"{name}: store lost its queue"
            _assert_matches_reference(path, reference, f"store/{name}")
            report.boundaries += 1
            report.details.append(f"{name} at write {log.writes}")

        report.details.append(_crashtest_chunk_append(tmp, workers))
        report.boundaries += 1

        # Byte-level tears over a pooled (concurrent-append) log.  The
        # sentinel params value ends in U+2713 (3 UTF-8 bytes), so the
        # 1- and 2-byte tears split a character, not just a line.
        from repro.campaign.spec import CaseSpec

        torn_specs = [
            CaseSpec(
                topology="mesh",
                workload="random",
                policy="random-rank",
                seed=seed,
                side=6,
                params=(("label", "torn ✓"),),
                checkpoint_every=4,
            )
            for seed in range(4)
        ]
        torn_reference = _reference_points(torn_specs)
        check = "\N{CHECK MARK}".encode("utf-8")  # 3 bytes: e2 9c 93
        for label, keep_char_bytes in (
            ("mid-utf8-1", 1),
            ("mid-utf8-2", 2),
            ("mid-json", None),
        ):
            path = os.path.join(tmp, f"torn-{label}.jsonl")
            with Campaign(
                torn_specs, store=CampaignStore(path), workers=workers
            ) as c:
                c.run()
            size = os.path.getsize(path)
            if keep_char_bytes is None:
                drop = 17
            else:
                # Truncate inside the last ✓: keep 1 or 2 of its 3
                # bytes so the tail ends mid-character, not mid-line.
                with open(path, "rb") as handle:
                    mark = handle.read().rfind(check)
                assert mark >= 0, f"{label}: sentinel character missing"
                drop = size - (mark + keep_char_bytes)
            tear_tail(path, drop)
            state = CampaignStore(path).replay()
            assert state.errors, f"{label}: tear went unnoticed"
            _assert_matches_reference(
                path, torn_reference, f"store/{label}"
            )
            report.boundaries += 1
            report.details.append(f"{label} -{drop}B")
    return report


def _spawn_campaign(store: str, seeds: int, workers: int) -> Any:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "campaign",
            "run",
            "--topology",
            "mesh",
            "--side",
            "12",
            "--workload",
            "random",
            "--policy",
            "random-rank",
            "--seeds",
            str(seeds),
            "--checkpoint-every",
            "1",
            "--store",
            store,
            "--workers",
            str(workers),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        # A session (and process group) of its own, so one killpg
        # reaches the WorkerPool children along with the parent.
        start_new_session=True,
    )


def crashtest_campaign(
    seeds: int = 4, workers: int = 2, attempts: int = 8
) -> CrashtestReport:
    """SIGKILL a checkpointed campaign subprocess mid-case and resume.

    Polls the store until replay shows a *live* checkpoint (a case
    that has snapshotted but not finished), SIGKILLs the campaign's
    whole process group (the parent and its pool workers), then
    resumes over the surviving log and requires every point to match
    an uninterrupted run bit-for-bit.  The kill race is the one
    nondeterministic ingredient, so it retries with a fresh store
    until a kill genuinely lands mid-case.
    """
    import tempfile

    from repro.campaign.store import CampaignStore

    specs = _campaign_specs(seeds, side=12, checkpoint_every=1)
    reference = _reference_points(specs)

    with tempfile.TemporaryDirectory() as tmp:
        for attempt in range(attempts):
            store = os.path.join(tmp, f"campaign-{attempt}.jsonl")
            proc = _spawn_campaign(store, seeds, workers)
            try:
                caught = False
                for _ in range(2000):
                    if proc.poll() is not None:
                        break
                    if os.path.exists(store):
                        state = CampaignStore(store).replay()
                        if state.checkpoints:
                            caught = True
                            break
                    sleep_for(0.001)
                if not caught:
                    continue
                os.killpg(proc.pid, signal.SIGKILL)
            finally:
                proc.wait()
            state = CampaignStore(store).replay()
            if not state.checkpoints or not state.pending():
                # The checkpointed case slipped through to finished
                # between the poll and the kill; try again.
                continue
            resumed_from = {
                key: payload["step"]
                for key, payload in state.checkpoints.items()
            }
            _assert_matches_reference(store, reference, "campaign")
            report = CrashtestReport(scenario="campaign", boundaries=1)
            report.details.append(
                "SIGKILL mid-case; resumed from step(s) "
                + ", ".join(
                    str(step) for step in sorted(resumed_from.values())
                )
            )
            return report
    raise AssertionError(
        f"campaign crashtest never caught a mid-case kill in "
        f"{attempts} attempts"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.chaos.crashtest",
        description="kill-and-resume proof drivers for checkpointing "
        "and the campaign store",
    )
    parser.add_argument(
        "target",
        nargs="?",
        choices=("route", "store", "campaign", "all"),
        default="all",
    )
    parser.add_argument(
        "--every",
        type=int,
        default=3,
        help="checkpoint interval for the route drivers (default 3)",
    )
    args = parser.parse_args(argv)
    reports: List[CrashtestReport] = []
    if args.target in ("route", "all"):
        reports.extend(crashtest_route(every=args.every))
    if args.target in ("store", "all"):
        reports.append(crashtest_store())
    if args.target in ("campaign", "all"):
        reports.append(crashtest_campaign())
    for report in reports:
        print(report.line())
    print(f"crashtest: {len(reports)} scenarios OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
