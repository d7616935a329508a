"""Core synthesis algorithms: the paper's contribution and baselines.

The cache service tier (:mod:`~repro.core.cache_store`,
:mod:`~repro.core.cache_server`, :mod:`~repro.core.shard`,
:mod:`~repro.core.wire`) and Monte Carlo validation
(:mod:`~repro.core.montecarlo`, the only user of numpy) load on first
access, so a local synthesis imports none of them.
"""

from repro.core.baseline import baseline_design
from repro.core.combined import combined_design
from repro.core.design import DesignResult
from repro.core.engine import (
    EngineStats,
    EvaluationEngine,
    RemoteCacheBackend,
    allocation_signature,
    default_engine,
    set_default_engine,
)
from repro.core.evaluate import (
    SCHEDULER_IMPLS,
    evaluate_allocation,
    evaluate_allocations,
    min_latency,
)
from repro.core.explore import (
    METHODS,
    SweepPoint,
    pareto_frontier,
    reliability_vs_area,
    reliability_vs_latency,
    sweep_bounds,
    synthesize,
)
from repro.core.find_design import find_design, uniform_allocations
from repro.core.objectives import minimize_area, minimize_latency
from repro.core.optimal import optimal_design
from repro.core.redundancy import apply_greedy_redundancy, best_upgrade
from repro.core.selfrecover import (
    SelfRecoveryDesign,
    duplication_overhead,
    self_recovery_design,
)

__all__ = [
    "DesignResult",
    "EvaluationEngine",
    "EngineStats",
    "EngineSnapshot",
    "CompactionStats",
    "RemoteCacheBackend",
    "CacheClient",
    "CacheServer",
    "ShardRing",
    "ShardRingHandle",
    "ShardedCacheClient",
    "start_shard_ring",
    "cache_store",
    "cache_server",
    "shard",
    "wire",
    "attach_engine",
    "detach_engine",
    "synthesize_remote",
    "evaluate_batch_remote",
    "snapshot_engine",
    "merge_snapshot",
    "compact_snapshot",
    "allocation_signature",
    "default_engine",
    "set_default_engine",
    "find_design",
    "baseline_design",
    "combined_design",
    "apply_greedy_redundancy",
    "best_upgrade",
    "evaluate_allocation",
    "evaluate_allocations",
    "min_latency",
    "SCHEDULER_IMPLS",
    "uniform_allocations",
    "minimize_area",
    "minimize_latency",
    "optimal_design",
    "simulate_design",
    "simulate_designs",
    "MonteCarloReport",
    "self_recovery_design",
    "SelfRecoveryDesign",
    "duplication_overhead",
    "sweep_bounds",
    "synthesize",
    "SweepPoint",
    "pareto_frontier",
    "reliability_vs_latency",
    "reliability_vs_area",
    "METHODS",
]

#: Lazily loaded submodules and the names re-exported from each.
_LAZY_EXPORTS = {
    "cache_store": ("CompactionStats", "EngineSnapshot", "compact_snapshot",
                    "merge_snapshot", "snapshot_engine"),
    "cache_server": ("CacheClient", "CacheServer", "attach_engine",
                     "detach_engine", "evaluate_batch_remote",
                     "synthesize_remote"),
    "shard": ("ShardedCacheClient", "ShardRing", "ShardRingHandle",
              "start_shard_ring"),
    "wire": (),
    "montecarlo": ("MonteCarloReport", "simulate_design",
                   "simulate_designs"),
}
_LAZY = {name: module for module, names in _LAZY_EXPORTS.items()
         for name in (module, *names)}


def __getattr__(name):
    # PEP 562: import an optional subsystem on first access
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value
