"""Design-space exploration: bound sweeps and Pareto analysis.

These drivers generate the paper's Figure 8 trade-off curves and
Table 2 grids, and additionally expose a three-dimensional
(latency, area, reliability) Pareto frontier over swept bounds.

Sweeps share one :class:`~repro.core.engine.EvaluationEngine` across
all grid points by default, so a realization computed for one (Ld, Ad)
pair is reused by every other pair that revisits the allocation.  Pass
``workers=N`` to :func:`sweep_bounds` to fan the grid out across
processes; workers pre-warm from a snapshot of the shared engine's
caches and merge their own caches back on join
(:mod:`repro.core.cache_store`), so parallel sweeps no longer re-warm
every cache per worker — or pass ``share_caches="live"`` to attach the
workers to a shared cache server (:mod:`repro.core.cache_server`) so
overlapping grid points hit each other's results mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.dfg.graph import DataFlowGraph
from repro.errors import NoSolutionError, ReproError
from repro.hls.metrics import AREA_INSTANCES
from repro.library.library import ResourceLibrary
from repro.core.baseline import baseline_design
from repro.core.combined import combined_design
from repro.core.design import DesignResult
from repro.core.engine import EvaluationEngine, default_engine
from repro.core.find_design import find_design

METHODS: Dict[str, Callable] = {
    "ours": find_design,
    "baseline": baseline_design,
    "combined": combined_design,
}


@dataclass
class SweepPoint:
    """One (latency bound, area bound) synthesis outcome."""

    latency_bound: int
    area_bound: int
    result: Optional[DesignResult]  # None when infeasible

    @property
    def reliability(self) -> Optional[float]:
        return self.result.reliability if self.result else None


def synthesize(method: str, graph: DataFlowGraph, library: ResourceLibrary,
               latency_bound: int, area_bound: int,
               **kwargs) -> DesignResult:
    """Dispatch to one of the three approaches by name."""
    try:
        func = METHODS[method]
    except KeyError:
        raise NoSolutionError(
            f"unknown method {method!r}; use one of {sorted(METHODS)}"
        ) from None
    return func(graph, library, latency_bound, area_bound, **kwargs)


def uses_workers(workers: Optional[int], points: int) -> bool:
    """Whether a sweep of *points* grid points with this *workers*
    setting fans out to worker processes (the single source of truth
    for :func:`sweep_bounds` and the CLI's ``--stats`` gating)."""
    return workers is not None and workers > 1 and points > 1


def _sweep_point(task) -> Optional[DesignResult]:
    """One grid point; module-level so process pools can pickle it."""
    method, graph, library, latency_bound, area_bound, area_model, \
        kwargs = task
    try:
        return synthesize(method, graph, library, latency_bound, area_bound,
                          area_model=area_model, **kwargs)
    except NoSolutionError:
        return None


def sweep_bounds(graph: DataFlowGraph,
                 library: ResourceLibrary,
                 latency_bounds: Sequence[int],
                 area_bounds: Sequence[int],
                 method: str = "ours",
                 area_model: str = AREA_INSTANCES,
                 workers: Optional[int] = None,
                 engine: Optional[EvaluationEngine] = None,
                 share_caches=True,
                 cache_server: Optional[str] = None,
                 cache_token: Optional[str] = None,
                 **kwargs) -> List[SweepPoint]:
    """Synthesize at every (Ld, Ad) pair; infeasible points yield None.

    Each grid point's search realizes its candidates one
    :meth:`EvaluationEngine.evaluate` call at a time (see
    :mod:`repro.core.find_design`); the shared engine answers the
    allocations that grid points revisit from its caches.

    Parameters
    ----------
    workers:
        Fan the grid out over this many worker processes.  ``None``/
        ``0``/``1`` runs serially through a single shared engine — the
        right choice for small grids, where cache reuse beats process
        startup.
    engine:
        Engine for the serial path (default: the process-wide one).
        With *workers* parallelism it becomes the cache-sharing hub:
        its caches seed every worker, and what the grid computed lands
        back in it on join — so a later sweep (or a ``--cache-dir``
        save) starts from everything the grid computed.
    share_caches:
        How workers exchange cache entries.  ``True``/``"snapshot"``
        pre-warms workers from a snapshot of *engine* and merges their
        caches back on join; ``"live"`` attaches the workers to a
        shared cache server (:mod:`repro.core.cache_server`) so
        overlapping grid points hit each other's results *mid-run*;
        ``False`` runs workers fully cold and discards their caches.
        Results are identical in every mode — only wall clock differs.
    cache_server:
        Address of an already-running cache tier to share through
        (implies ``"live"``): an AF_UNIX socket path, a
        ``tcp://host:port`` URL, or a comma-separated shard-ring
        spec (every worker routes keys per shard).  Without it, live
        mode spawns an ephemeral server for the duration of the
        sweep.
    cache_token:
        Shared secret for a TCP *cache_server*; ignored for AF_UNIX
        sockets.
    """
    pairs = [(latency_bound, area_bound)
             for latency_bound in latency_bounds
             for area_bound in area_bounds]
    if uses_workers(workers, len(pairs)):
        from repro.parallel import run_tasks

        engine = engine if engine is not None else default_engine()
        if cache_server is not None and share_caches is True:
            share_caches = "live"
        if share_caches is True or share_caches == "snapshot":
            share, mode = engine, "snapshot"
        elif share_caches == "live":
            share, mode = engine, "live"
        elif share_caches is False or share_caches is None:
            share, mode = None, "snapshot"
        else:
            raise ReproError(
                f"unknown share_caches setting {share_caches!r}; "
                f"use True, False, 'snapshot' or 'live'")
        tasks = [(_sweep_point,
                  ((method, graph, library, latency_bound, area_bound,
                    area_model, kwargs),), {})
                 for latency_bound, area_bound in pairs]
        results = run_tasks(tasks, workers=workers, share_engine=share,
                            share_mode=mode, server_address=cache_server,
                            server_token=cache_token)
        return [SweepPoint(latency_bound, area_bound, result)
                for (latency_bound, area_bound), result in zip(pairs, results)]

    engine = engine if engine is not None else default_engine()
    points = []
    for latency_bound, area_bound in pairs:
        try:
            result = synthesize(method, graph, library, latency_bound,
                                area_bound, area_model=area_model,
                                engine=engine, **kwargs)
        except NoSolutionError:
            result = None
        points.append(SweepPoint(latency_bound, area_bound, result))
    return points


def reliability_vs_latency(graph: DataFlowGraph, library: ResourceLibrary,
                           latency_bounds: Sequence[int], area_bound: int,
                           method: str = "ours",
                           **kwargs) -> List[Tuple[int, Optional[float]]]:
    """The paper's Figure 8(a): reliability as the latency bound varies."""
    points = sweep_bounds(graph, library, latency_bounds, [area_bound],
                          method, **kwargs)
    return [(p.latency_bound, p.reliability) for p in points]


def reliability_vs_area(graph: DataFlowGraph, library: ResourceLibrary,
                        latency_bound: int, area_bounds: Sequence[int],
                        method: str = "ours",
                        **kwargs) -> List[Tuple[int, Optional[float]]]:
    """The paper's Figure 8(b): reliability as the area bound varies."""
    points = sweep_bounds(graph, library, [latency_bound], area_bounds,
                          method, **kwargs)
    return [(p.area_bound, p.reliability) for p in points]


def pareto_frontier(points: Iterable[SweepPoint]) -> List[SweepPoint]:
    """Non-dominated feasible points in (latency, area, −reliability).

    A point dominates another when it is no worse on all three axes
    (realized latency, realized area, reliability) and strictly better
    on at least one.
    """
    feasible = [p for p in points if p.result is not None]

    def dominates(a: SweepPoint, b: SweepPoint) -> bool:
        ra, rb = a.result, b.result
        no_worse = (ra.latency <= rb.latency and ra.area <= rb.area
                    and ra.reliability >= rb.reliability)
        strictly = (ra.latency < rb.latency or ra.area < rb.area
                    or ra.reliability > rb.reliability)
        return no_worse and strictly

    return [p for p in feasible
            if not any(dominates(q, p) for q in feasible if q is not p)]
