"""Allocation evaluation: schedule + bind + measure under bounds.

Given a complete allocation (operation → version), the concrete
schedule and binding determine the design's latency and area.  Because
the paper's density scheduler is time-constrained, stretching the
schedule toward the latency bound can reduce peak concurrency and thus
area (the paper's Figure 6, lines 15–21, exploits exactly this slack).
:func:`evaluate_allocation` scans the feasible latency range and keeps
the smallest-area realization.

The realization algorithms themselves live in
:mod:`repro.core.engine`, which memoizes them across searches and
sweeps; this module keeps the historical call surface
(:func:`evaluate_allocation` delegates to the process-wide default
engine, or to an explicit ``engine=``; :func:`evaluate_allocations` is
its list form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.dfg.graph import DataFlowGraph
from repro.hls.binding import Binding
from repro.hls.metrics import AREA_INSTANCES
from repro.hls.schedule import Schedule
from repro.hls.timing import asap_latency
from repro.library.version import ResourceVersion

SCHEDULERS = ("auto", "density", "list")

#: Scheduling-core implementations: ``"fast"`` is the compiled
#: index-based core (:mod:`repro.hls.fastsched`), ``"reference"`` the
#: original dict-based kernels.  Both produce identical schedules; the
#: switch exists so the reference can serve as an equivalence oracle.
SCHEDULER_IMPLS = ("fast", "reference")


@dataclass
class Evaluation:
    """One realized allocation: schedule, binding and measurements."""

    schedule: Schedule
    binding: Binding
    latency: int
    area: int


def delays_of(allocation: Mapping[str, ResourceVersion]) -> Dict[str, int]:
    """Per-operation delays implied by an allocation."""
    return {op_id: version.delay for op_id, version in allocation.items()}


def min_latency(graph: DataFlowGraph,
                allocation: Mapping[str, ResourceVersion]) -> int:
    """Critical-path latency of *graph* under *allocation*."""
    return asap_latency(graph, delays_of(allocation))


def _count_lower_bounds(graph: DataFlowGraph,
                        allocation: Mapping[str, ResourceVersion],
                        latency_bound: int) -> Dict[str, int]:
    """Work-conservation lower bound on instances per version."""
    busy: Dict[str, int] = {}
    for op in graph:
        version = allocation[op.op_id]
        busy[version.name] = busy.get(version.name, 0) + version.delay
    return {name: max(1, math.ceil(cycles / latency_bound))
            for name, cycles in busy.items()}


def evaluate_allocation(graph: DataFlowGraph,
                        allocation: Mapping[str, ResourceVersion],
                        latency_bound: int,
                        area_model: str = AREA_INSTANCES,
                        stop_at_area: Optional[int] = None,
                        scheduler: str = "auto",
                        scheduler_impl: Optional[str] = None,
                        engine=None) -> Optional[Evaluation]:
    """Best (minimum-area) realization of an allocation within a bound.

    Returns ``None`` when even the critical path exceeds the bound.

    Parameters
    ----------
    scheduler:
        ``"density"`` — the paper's partition-density scheduler,
        scanning latencies from the critical path to the bound;
        ``"list"`` — count-driven list scheduling, growing instance
        budgets from the work-conservation lower bound;
        ``"auto"`` (default) — run both and keep the smaller area
        (ties: the density result, matching the paper's flow).
    scheduler_impl:
        ``"fast"`` (compiled array core) or ``"reference"`` (the
        original kernels); ``None`` keeps the engine's default.  The
        two produce identical schedules, so cached results are shared
        freely between them.
    stop_at_area:
        Optional early-exit threshold for the density latency scan.
    engine:
        The :class:`~repro.core.engine.EvaluationEngine` answering the
        request; defaults to the process-wide shared engine.
    """
    from repro.core.engine import default_engine

    engine = engine if engine is not None else default_engine()
    return engine.evaluate(graph, allocation, latency_bound,
                           area_model=area_model, stop_at_area=stop_at_area,
                           scheduler=scheduler,
                           scheduler_impl=scheduler_impl)


def evaluate_allocations(graph: DataFlowGraph,
                         allocations: Sequence[Mapping[str,
                                                       ResourceVersion]],
                         latency_bound: int,
                         area_model: str = AREA_INSTANCES,
                         scheduler: str = "auto",
                         scheduler_impl: Optional[str] = None,
                         engine=None) -> List[Optional[Evaluation]]:
    """:func:`evaluate_allocation` over many candidate allocations of
    one graph, in order
    (:meth:`repro.core.engine.EvaluationEngine.evaluate_batch`)."""
    from repro.core.engine import default_engine

    engine = engine if engine is not None else default_engine()
    return engine.evaluate_batch(graph, allocations, latency_bound,
                                 area_model=area_model,
                                 scheduler=scheduler,
                                 scheduler_impl=scheduler_impl)
