"""Kernel-twin module: the silent KER301 vectors (never run).

This module's dotted name ends in ``core.kernel``, so the phase
contract declared in ``repro.lint.kernelspec`` binds its ``StepKernel``
twins exactly as it binds the real one.  Both obey it: one is clean,
the other only because its breach is suppressed.  The firing KER301
and KER302 vectors live in ``dirtypkg.legacy.core.kernel``.
"""

pending = {}


def decide(view):
    return view


class StepKernel:
    def _admit(self, now):
        return now

    def _apply_faults(self, now):
        return now

    def _move_instrumented(self, infos):
        return infos

    def run_lean(self, steps, packet):
        # Clean twin: the full contract in declared order.
        for now in range(steps):
            self._apply_faults(now)
            self._admit(now)
            assignment = decide(now)
            pending[now] = assignment
            packet.hops += 1
            packet.delivered_at = now
        return packet

    def step_instrumented(self, now, packet):
        # Rank runs after arc assignment, but suppressed — the KER301
        # pair's silent half.
        self._apply_faults(now)
        self._admit(now)
        pending[now] = packet
        assignment = decide(now)  # repro: noqa[KER301]
        return self._move_instrumented(assignment)
