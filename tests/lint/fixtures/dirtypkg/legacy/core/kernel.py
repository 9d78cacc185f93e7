"""Dirty kernel-twin module, second copy: KER301/KER302 vectors (never
run).

A stale copy of the kernel left under ``legacy``: its dotted name still
ends in ``core.kernel``, so the phase contract declared in
``repro.lint.kernelspec`` binds its ``StepKernel`` twins too.  Both
breach it — ``run_lean`` ranks behind arc assignment and
``step_instrumented`` drops delivery.  The clean and the suppressed
twins live in ``dirtypkg.core.kernel``.
"""

pending = {}


def decide(view):
    return view


class StepKernel:
    def _admit(self, now):
        return now

    def _apply_faults(self, now):
        return now

    def run_lean(self, steps, packet):
        # KER301 fire: rank runs after arc assignment — the stored
        # direction cannot have come from this step's decision.
        for now in range(steps):
            self._apply_faults(now)
            self._admit(now)
            pending[now] = packet
            assignment = decide(now)
            packet.hops += 1
            packet.delivered_at = now
        return assignment

    def step_instrumented(self, now, packet):
        # KER302 fire: no delivery bookkeeping in this twin.
        self._admit(now)
        assignment = decide(now)
        pending[now] = assignment
        packet.hops += 1
        return packet
