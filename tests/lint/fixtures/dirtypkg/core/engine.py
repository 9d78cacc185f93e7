"""Dirty engine module: SNP701 vectors (never run).

The module path ``dirtypkg/core/engine.py`` resolves to
``dirtypkg.core.engine``, which matches the snapshot registry's
``core.engine`` suffix — so the ``HotPotatoEngine`` class below is
held to the same snapshot-coverage contract as the real one, without
this file ever being imported.
"""


class HotPotatoEngine:
    # SNP701 fire: a class-level mutable declaration the snapshot
    # registry has no verdict for — a resumed run silently resets it.
    retry_budget: int = 3

    # Clean: upper-case class constants are code, not state.
    MAX_WARMUP = 16

    def __init__(self, problem, policy):
        # Clean: both appear in the registry (record_steps and
        # fast_path in derived).
        self.record_steps = False
        self.fast_path = None
        # SNP701 fire: mutable run state assigned in __init__ but
        # absent from both the fields and the derived sets.
        self._mystery_cache = {}
        # SNP701 suppressed twin: same construct, reviewed and waived.
        self._audited_cache = {}  # repro: noqa[SNP701]

    def step(self):
        # SNP701 fire: state can appear first via augmented
        # assignment deep inside a method, not just in __init__.
        self._drift_total += 1


class UnregisteredHelper:
    # Clean: the registry has no spec for this class, so SNP701 has
    # no contract to enforce here.
    def __init__(self):
        self.scratch = []
