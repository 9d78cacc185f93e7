"""Structure-of-arrays step kernel (``backend="soa"``).

A flat-column twin of :meth:`repro.core.kernel.StepKernel.run_lean`:
packet state lives in one table of integer columns
(:class:`PacketColumns`), *rank* is one stable
16-bit radix order of the rows by node and priority, *arc_assign* is
batched good-direction selection over precomputed arc-index tables.
Proven bit-identical to the object kernel (same summaries, telemetry,
packet outcomes, RNG stream) by the golden fixtures and the soa
differential suite.

The engines run it by default (``backend="auto"``) whenever a run
takes the lean loop and :func:`select_adapter` finds an adapter for
its policy; request it explicitly, with errors instead of a fallback,
through the engine façades::

    HotPotatoEngine(problem, policy, backend="soa")
    BufferedEngine(problem, policy, backend="soa")
    DynamicEngine(mesh, policy, traffic, backend="soa")

numpy accelerates the kernel when importable; without it a columnar
pure-Python fallback runs the same loop (see :mod:`._compat`).
"""

from repro.core.soa._compat import numpy_available
from repro.core.soa.adapters import (
    PolicyAdapter,
    adapter_for,
    select_adapter,
)
from repro.core.soa.columns import PacketColumns
from repro.core.soa.kernel import SoaKernel

__all__ = [
    "PacketColumns",
    "PolicyAdapter",
    "SoaKernel",
    "adapter_for",
    "numpy_available",
    "select_adapter",
]
