"""Host-speed calibration for the end-to-end metrics.

The benchmark host is a 2-vCPU VM on a shared machine.  Its speed moves
by up to 2.4x, in stretches from seconds to an hour, with little CPU
steal to show for it, so wall-clock throughput read in two sets of runs
of the same code differs by more than any bound worth keeping.

A run therefore also measures the host.  After each unit (and at
dynamic_observed's checkpoints) it pauses to run a fixed calibration
kernel, written here and depending on nothing in ``src/``, for a set
share of the workload time since the last pause, so the kernel samples
the host's fast and slow stretches in about the same proportions as
the workload.  ``speed`` is the kernel's rate over the run divided by a
fixed reference rate; throughputs are divided by it and set-up times
multiplied by it.  A change to the simulator leaves the kernel's rate
alone, so it moves the reported figures by the same share as it moves
the wall-clock ones.  The raw wall-clock figures stay in the run's info
line.

Two kernels, chosen per workload for what its step loop spends time
on.  ``python`` is interpreter-bound (object attributes, dict and list
traffic, small sorts), like the scalar step loops.  ``mixed`` adds to
that a numpy round that sorts, gathers and scatters columns outgrowing
a 2 MiB L2, about half its time each, like the soa vectorized step,
whose per-node conflict resolution runs in Python between the column
operations.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import time
from typing import Callable, Dict, List, Tuple

#: Rounds per second of each kernel on the 2-vCPU benchmark VM, near
#: the middle of what it gave while the bounds were set.  Only a scale:
#: a host speed of 1.0 means the kernel ran at this rate.
REFERENCE_ROUNDS_PER_S = {"python": 400.0, "mixed": 21.5}

#: Calibration time per second of workload time.
SHARE = 0.25


class _Packet:
    __slots__ = ("node", "dest", "hops")

    def __init__(self, node: int, dest: int) -> None:
        self.node = node
        self.dest = dest
        self.hops = 0


def python_round(side: int = 24, packets: int = 300, steps: int = 6) -> int:
    """A toy greedy router: the same interpreter work every call."""
    rng = random.Random(11)
    nodes = side * side
    flock = [
        _Packet(rng.randrange(nodes), rng.randrange(nodes))
        for _ in range(packets)
    ]
    moved = 0
    for _ in range(steps):
        queues: Dict[int, List[Tuple[int, int, _Packet]]] = {}
        for number, packet in enumerate(flock):
            x, y = divmod(packet.node, side)
            dx, dy = divmod(packet.dest, side)
            distance = abs(x - dx) + abs(y - dy)
            queues.setdefault(packet.node, []).append(
                (distance, number, packet)
            )
        for node, queue in queues.items():
            queue.sort()
            x, y = divmod(node, side)
            for rank, (distance, _, packet) in enumerate(queue):
                if distance == 0:
                    packet.dest = (packet.dest * 31 + 17) % nodes
                    continue
                dx, dy = divmod(packet.dest, side)
                if (rank % 2 == 0 and x != dx) or y == dy:
                    x2, y2 = x + (1 if dx > x else -1), y
                else:
                    x2, y2 = x, y + (1 if dy > y else -1)
                packet.node = x2 * side + y2
                packet.hops += 1
                moved += 1
    return moved


class _MixedRound:
    """Python rounds, then a sort, gather and scatter over 2^16-row
    columns (1.5 MiB of int64, about 3.5 MiB with the temporaries)."""

    #: python_round calls per numpy pass: about equal time for each.
    PYTHON_ROUNDS = 10

    def __init__(self) -> None:
        import numpy

        self.np = numpy
        generator = numpy.random.default_rng(11)
        rows = 1 << 16
        self.key = generator.integers(0, 1 << 20, rows)
        self.node = generator.integers(0, 1 << 12, rows)
        self.order = generator.permutation(rows)

    def __call__(self) -> int:
        moved_packets = sum(
            python_round() for _ in range(self.PYTHON_ROUNDS)
        )
        np = self.np
        ranked = np.lexsort((self.key, self.node))
        gathered = self.key[ranked][self.order]
        load = np.bincount(self.node[self.order], minlength=1 << 12)
        moved = self.key.copy()
        moved[self.order[::2]] += 1
        return moved_packets + int(
            gathered[::97].sum() + load.max() + moved[::89].sum()
        )


def _kernel(kind: str) -> Callable[[], int]:
    if kind == "mixed":
        return _MixedRound()
    if kind == "python":
        return python_round
    raise ValueError(f"unknown calibration kernel {kind!r}")


def timed_rounds(kind: str, budget_s: float) -> Tuple[int, float]:
    """Run whole rounds of one kernel for at least ``budget_s`` seconds
    (at least one round); returns (rounds, seconds taken)."""
    run = _kernel(kind)
    collecting = gc.isenabled()
    gc.disable()  # collector pauses would only add noise to the rate
    try:
        rounds = 0
        start = time.perf_counter()
        spent = 0.0
        while spent < budget_s or rounds == 0:
            run()
            rounds += 1
            spent = time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()
    return rounds, spent


class Calibrator:
    """Runs one kernel between a run's units and keeps its total rate.

    The kernel runs in ``processes`` child processes at once (this
    script, reading budgets on stdin), so it never shares an interpreter
    with the simulator.  Two processes stand for a workload that keeps
    two CPUs busy (campaign_durable's pool): a one-CPU kernel would miss
    how the host treats two busy vCPUs.
    """

    def __init__(
        self, kind: str, share: float = SHARE, processes: int = 1
    ) -> None:
        if kind not in REFERENCE_ROUNDS_PER_S:
            raise ValueError(f"unknown calibration kernel {kind!r}")
        self.kind = kind
        self.share = share
        self.rounds = 0
        self.seconds = 0.0
        #: Wall seconds spent inside pause(), IPC included.
        self.paused_s = 0.0
        self._children: List[subprocess.Popen] = []
        try:
            for _ in range(processes):
                self._children.append(
                    subprocess.Popen(
                        [sys.executable, os.path.abspath(__file__), kind],
                        stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE,
                        text=True,
                    )
                )
            self._ask(0.0)  # each child has started and run one round
        except BaseException:
            self.close()
            raise
        self._mark = time.perf_counter()

    def _ask(self, budget_s: float) -> List[Tuple[int, float]]:
        for child in self._children:
            assert child.stdin is not None
            child.stdin.write(f"{budget_s!r}\n")
            child.stdin.flush()
        replies = []
        for child in self._children:
            assert child.stdout is not None
            line = child.stdout.readline().split()
            if len(line) != 2:
                raise RuntimeError(f"calibration process {child.pid} died")
            replies.append((int(line[0]), float(line[1])))
        return replies

    def follow(self, busy_s: float) -> None:
        """Run the kernel for about ``share`` x ``busy_s`` seconds."""
        for rounds, spent in self._ask(self.share * busy_s):
            self.rounds += rounds
            self.seconds += spent

    def pause(self) -> float:
        """Follow the workload time since the last pause (or since this
        calibrator started); returns the wall seconds the pause took,
        for the caller to leave out of its own timings."""
        began = time.perf_counter()
        self.follow(began - self._mark)
        self._mark = time.perf_counter()
        self.paused_s += self._mark - began
        return self._mark - began

    @property
    def speed(self) -> float:
        """The host's speed over the sampled time, relative to the
        reference rate (1.0 reads as the reference host)."""
        if not self.seconds:
            raise ValueError("no calibration rounds were run")
        rate = self.rounds / self.seconds
        return rate / REFERENCE_ROUNDS_PER_S[self.kind]

    def close(self) -> None:
        """End the kernel processes and wait for each."""
        children, self._children = self._children, []
        for child in children:
            if child.stdin is not None:
                child.stdin.close()  # end of input ends the child
        for child in children:
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
            if child.stdout is not None:
                child.stdout.close()


def serve(kind: str) -> None:
    """A kernel process: one budget per input line, one
    ``rounds seconds`` reply per line, until end of input."""
    for line in sys.stdin:
        rounds, spent = timed_rounds(kind, float(line))
        sys.stdout.write(f"{rounds} {spent!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve(sys.argv[1])
