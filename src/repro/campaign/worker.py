"""Worker-side spec resolution with per-process caching.

This module is the *receiving* end of the declarative dispatch
contract: the parent ships ~100-byte :class:`~repro.campaign.spec.CaseSpec`
values, and every live object — mesh, workload, policy, engine — is
built here, inside the worker process.  Meshes (and, through
:func:`~repro.mesh.tables.arc_tables_for`, their arc tables) are
cached per process keyed by the spec's ``shape``, so a worker that
runs fifty cases on the same 16×16 mesh builds it once.  That cache is
what a persistent pool buys over the per-sweep pools it replaced:
measured on the 8-seed reference sweep, per-chunk mesh unpickling and
table rebuilds were the entire parallel overhead.  A cached mesh holds
at most one arc table per node and nothing per (node, destination)
pair, so however many cases a worker runs on it, it stays bounded.

Everything here also runs unchanged in the parent process — the
serial execution path of :class:`~repro.campaign.pool.WorkerPool`
calls the same :func:`execute_chunk`, which is how serial and pooled
campaign runs stay bit-identical.

Determinism: this module never touches RNG or the wall clock.  Seeds
flow as integers from the spec into the workload generators and
engines, which construct their streams through ``repro.core.rng``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.campaign.results import (
    CaseFailure,
    ExperimentPoint,
    summary_result,
)
from repro.campaign.spec import CaseSpec, spec_key
from repro.core.buffered_engine import BufferedEngine
from repro.core.engine import HotPotatoEngine
from repro.core.metrics import RunResult
from repro.core.policy import RoutingPolicy
from repro.core.problem import RoutingProblem
from repro.mesh.hypercube import Hypercube
from repro.mesh.tables import arc_tables_for
from repro.mesh.topology import Mesh
from repro.mesh.torus import Torus
from repro.workloads import (
    corner_storm,
    quadrant_flood,
    random_many_to_many,
    random_permutation,
    reversal,
    single_target,
    transpose,
)

__all__ = [
    "MESH_CACHE_LIMIT",
    "execute_case",
    "execute_chunk",
    "initialize_worker",
    "mesh_for",
    "resolve_policy",
    "resolve_workload",
]

#: Shapes a single worker keeps alive.  Campaign queues sort same-shape
#: cases together, so in practice a worker cycles through a handful of
#: shapes; 8 bounds the worst case without evicting mid-campaign.
MESH_CACHE_LIMIT = 8

_MESH_CACHE: "OrderedDict[Tuple[str, int, int], Mesh]" = OrderedDict()


def _build_mesh(shape: Tuple[str, int, int]) -> Mesh:
    topology, dimension, side = shape
    if topology == "mesh":
        return Mesh(dimension, side)
    if topology == "torus":
        return Torus(dimension, side)
    if topology == "hypercube":
        return Hypercube(dimension)
    raise ValueError(f"unknown topology {topology!r}")


def mesh_for(spec: CaseSpec) -> Mesh:
    """The worker's cached mesh for a spec's shape (LRU-bounded)."""
    shape = spec.shape
    mesh = _MESH_CACHE.get(shape)
    if mesh is None:
        mesh = _build_mesh(shape)
        _MESH_CACHE[shape] = mesh
    else:
        _MESH_CACHE.move_to_end(shape)
    while len(_MESH_CACHE) > MESH_CACHE_LIMIT:
        _MESH_CACHE.popitem(last=False)
    return mesh


def initialize_worker(
    shapes: Sequence[Tuple[str, int, int]] = (),
) -> None:
    """Pool initializer: pre-warm meshes and arc tables per worker.

    Runs once when a pool process starts, before any chunk arrives, so
    the first case of a campaign pays no cold-build cost inside its
    timed region.  ``shapes`` is the distinct ``CaseSpec.shape`` set of
    the campaign (the parent computes it when starting the pool).
    """
    for shape in shapes:
        mesh = _MESH_CACHE.get(shape)
        if mesh is None:
            mesh = _build_mesh(shape)
            _MESH_CACHE[shape] = mesh
        arc_tables_for(mesh)
    while len(_MESH_CACHE) > MESH_CACHE_LIMIT:
        _MESH_CACHE.popitem(last=False)


def resolve_workload(mesh: Mesh, spec: CaseSpec) -> RoutingProblem:
    """Build the spec's routing problem on a resolved mesh.

    ``k`` defaults to half the node count for the batch-size-taking
    generators, and the spec seed feeds problem generation.  The CLI
    resolves its workloads here too.
    """
    params = dict(spec.workload_params)
    name = spec.workload
    if name == "random":
        k = int(params.get("k", mesh.num_nodes // 2))
        return random_many_to_many(mesh, k=k, seed=spec.seed)
    if name == "permutation":
        return random_permutation(mesh, seed=spec.seed)
    if name == "transpose":
        return transpose(mesh)
    if name == "reversal":
        return reversal(mesh)
    if name == "hotspot":
        k = int(params.get("k", mesh.num_nodes // 2))
        return single_target(mesh, k=k, seed=spec.seed)
    if name == "flood":
        return quadrant_flood(mesh, seed=spec.seed)
    if name == "corners":
        return corner_storm(mesh)
    raise ValueError(f"unknown workload {name!r}")


def resolve_policy(spec: CaseSpec) -> RoutingPolicy:
    """Instantiate the spec's policy (fresh instance per case).

    The hot-potato registry and the buffered policies are disjoint
    interfaces (total assignments vs. partial forwarding), so
    resolution branches on the spec's engine.

    Raises:
        ValueError: a buffered engine with a policy other than
            dimension-order.
        KeyError: a hot-potato policy name the registry lacks.
    """
    if spec.engine == "buffered":
        from repro.algorithms.dimension_order import DimensionOrderPolicy

        if spec.policy != "dimension-order":
            raise ValueError(
                f"policy {spec.policy!r} is not a buffered policy; "
                "engine='buffered' supports: dimension-order"
            )
        return DimensionOrderPolicy()
    from repro.algorithms import make_policy

    return make_policy(spec.policy)


def _run_engine(
    spec: CaseSpec,
    checkpoint: Optional[Mapping[str, Any]] = None,
    on_checkpoint: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Tuple[RunResult, RoutingPolicy, int]:
    from repro.core.validation import validators_for

    mesh = mesh_for(spec)
    problem = resolve_workload(mesh, spec)
    policy = resolve_policy(spec)
    faults = None
    if spec.faults is not None:
        from repro.faults import FaultSchedule

        faults = FaultSchedule.load(spec.faults)
        faults.check(mesh)
    checkpoint_every = spec.checkpoint_every if on_checkpoint else None
    if spec.engine == "buffered":
        engine: Union[BufferedEngine, HotPotatoEngine] = BufferedEngine(
            problem,
            policy,
            seed=spec.seed,
            max_steps=spec.max_steps,
            backend=spec.backend,
            faults=faults,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
        )
    else:
        engine = HotPotatoEngine(
            problem,
            policy,
            seed=spec.seed,
            validators=validators_for(policy, strict=spec.strict_validation),
            max_steps=spec.max_steps,
            backend=spec.backend,
            faults=faults,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
        )
    if checkpoint is not None:
        # The spec rebuilds the identical problem/policy/seed, so the
        # snapshot restores cleanly and the remaining steps reproduce
        # the uninterrupted run bit-identically.
        engine.resume_from(dict(checkpoint))
    result = engine.run()
    return result, policy, problem.k


def execute_case(
    spec: CaseSpec,
    *,
    checkpoint: Optional[Mapping[str, Any]] = None,
    store_path: Optional[str] = None,
) -> ExperimentPoint:
    """Resolve and run one spec; returns a summary-level point.

    The point's params are the spec's sweep labels with ``seed`` /
    ``policy`` / ``k`` / ``n`` filled in, and the result is stripped
    to summary level —
    the representation that crosses process boundaries and lands in
    the event log.

    With ``store_path`` set and a spec that carries
    ``checkpoint_every``, the run appends a ``case-checkpointed``
    event to the campaign store at every interval (each append is one
    fsynced ``O_APPEND`` write, so concurrent workers interleave whole
    events, never bytes).  ``checkpoint`` is a previously stored
    snapshot to resume from instead of step 0.
    """
    on_checkpoint: Optional[Callable[[Dict[str, Any]], None]] = None
    if store_path is not None and spec.checkpoint_every is not None:
        from repro.campaign.store import CampaignStore

        store = CampaignStore(store_path)
        key = spec_key(spec)

        def _append_checkpoint(snapshot: Dict[str, Any]) -> None:
            store.checkpoint(key, snapshot)

        on_checkpoint = _append_checkpoint
    result, policy, k = _run_engine(
        spec, checkpoint=checkpoint, on_checkpoint=on_checkpoint
    )
    params: Dict[str, object] = dict(spec.params)
    params.setdefault("seed", spec.seed)
    params.setdefault("policy", policy.name)
    params.setdefault("k", k)
    params.setdefault("n", result.side)
    return ExperimentPoint(params=params, result=summary_result(result))


def execute_chunk(
    specs: Sequence[CaseSpec],
    *,
    checkpoints: Optional[Mapping[str, Mapping[str, Any]]] = None,
    store_path: Optional[str] = None,
) -> List[Union[ExperimentPoint, CaseFailure]]:
    """Run a contiguous slice of specs inside one worker process.

    One submission per chunk amortizes pickling and IPC over the whole
    slice.  A case that raises becomes a :class:`CaseFailure` record
    instead of poisoning its siblings: deterministic failures repeat
    on retry, so surfacing them as data (keyed for the event log) is
    the only outcome that lets a large campaign finish.

    ``checkpoints`` maps spec keys to stored snapshots (cases present
    resume mid-run); ``store_path`` enables ``case-checkpointed``
    appends for specs that carry ``checkpoint_every``.  The orchestrator
    binds both via ``functools.partial``, which keeps the chunk
    payload itself pure data (PAR5xx).
    """
    out: List[Union[ExperimentPoint, CaseFailure]] = []
    for spec in specs:
        key = spec_key(spec)
        try:
            out.append(
                execute_case(
                    spec,
                    checkpoint=(
                        checkpoints.get(key)
                        if checkpoints is not None
                        else None
                    ),
                    store_path=store_path,
                )
            )
        except Exception as problem:
            out.append(
                CaseFailure(
                    key=key,
                    error=type(problem).__name__,
                    message=str(problem),
                )
            )
    return out
