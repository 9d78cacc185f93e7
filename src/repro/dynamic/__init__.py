"""Dynamic (continuous-injection) hot-potato routing.

The batch model of the paper, extended to the continuous-traffic
operating mode of its motivating systems (multihop lightwave networks,
deflection multiprocessor interconnects): Bernoulli/hot-spot traffic
models, an injection-capable engine reusing the batch policies, and
steady-state statistics (latency percentiles, throughput, deflection
rate, source backlog).
"""

from repro.dynamic.buffered import BufferedDynamicEngine
from repro.dynamic.engine import DynamicEngine
from repro.dynamic.injection import (
    BernoulliTraffic,
    HotSpotTraffic,
    IndexedTraffic,
    ScriptedTraffic,
    TrafficModel,
)
from repro.dynamic.sources import CapacityLimitedInjection, ImmediateInjection
from repro.dynamic.stats import DynamicStats

__all__ = [
    "BernoulliTraffic",
    "BufferedDynamicEngine",
    "CapacityLimitedInjection",
    "DynamicEngine",
    "DynamicStats",
    "HotSpotTraffic",
    "ImmediateInjection",
    "IndexedTraffic",
    "ScriptedTraffic",
    "TrafficModel",
]
