"""Structural and timing analysis of data-flow graphs.

These helpers answer the questions the synthesis algorithms ask:
what is the critical path under a given delay assignment, how deep is
the graph, and how parallel is it at best.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.dfg.graph import DataFlowGraph
from repro.errors import DFGError


def unit_delays(graph: DataFlowGraph) -> Dict[str, int]:
    """A delay map assigning one cycle to every operation."""
    return {op.op_id: 1 for op in graph}


def _check_delays(graph: DataFlowGraph, delays: Mapping[str, int]) -> None:
    for op in graph:
        delay = delays.get(op.op_id)
        if delay is None:
            raise DFGError(f"no delay for operation {op.op_id!r}")
        if delay < 1:
            raise DFGError(
                f"operation {op.op_id!r} has non-positive delay {delay}")


def earliest_starts(graph: DataFlowGraph,
                    delays: Mapping[str, int]) -> Dict[str, int]:
    """ASAP start step (0-based) for every operation under *delays*."""
    _check_delays(graph, delays)
    start: Dict[str, int] = {}
    for op_id in graph.topological_order():
        start[op_id] = max(
            (start[p] + delays[p] for p in graph.predecessors(op_id)),
            default=0,
        )
    return start


def critical_path(graph: DataFlowGraph,
                  delays: Mapping[str, int]) -> Tuple[int, List[str]]:
    """Length (cycles) and one witness path of the longest delay path.

    Returns ``(length, path)`` where *length* is the minimum possible
    latency of any schedule under *delays* and *path* lists the ids on
    a longest path, source to sink.
    """
    start = earliest_starts(graph, delays)
    finish = {op_id: start[op_id] + delays[op_id] for op_id in start}
    if not finish:
        raise DFGError("critical path of an empty graph")
    end_id = max(finish, key=lambda op_id: (finish[op_id], op_id))
    length = finish[end_id]

    path = [end_id]
    current = end_id
    while True:
        preds = graph.predecessors(current)
        on_path = [p for p in preds if start[p] + delays[p] == start[current]]
        if not on_path:
            break
        current = min(on_path)
        path.append(current)
    path.reverse()
    return length, path


def critical_path_length(graph: DataFlowGraph,
                         delays: Mapping[str, int]) -> int:
    """Just the length of the critical path (minimum feasible latency)."""
    return critical_path(graph, delays)[0]


def depth(graph: DataFlowGraph) -> int:
    """Number of operations on the longest dependency chain."""
    return critical_path_length(graph, unit_delays(graph))


def width_profile(graph: DataFlowGraph,
                  delays: Mapping[str, int]) -> Dict[int, Dict[str, int]]:
    """Per-step, per-rtype busy-operation counts of the ASAP schedule.

    Useful as a quick lower-bound estimate of resource pressure: step
    ``s`` maps to ``{rtype: count}`` of operations executing at ``s``
    when everything starts as soon as possible.
    """
    start = earliest_starts(graph, delays)
    profile: Dict[int, Dict[str, int]] = {}
    for op in graph:
        for step in range(start[op.op_id], start[op.op_id] + delays[op.op_id]):
            per_type = profile.setdefault(step, {})
            per_type[op.rtype] = per_type.get(op.rtype, 0) + 1
    return profile


def max_parallelism(graph: DataFlowGraph,
                    delays: Mapping[str, int]) -> Dict[str, int]:
    """Peak per-rtype concurrency of the ASAP schedule."""
    peaks: Dict[str, int] = {}
    for per_type in width_profile(graph, delays).values():
        for rtype, count in per_type.items():
            peaks[rtype] = max(peaks.get(rtype, 0), count)
    return peaks


def is_connected(graph: DataFlowGraph) -> bool:
    """True when the undirected skeleton of the DFG is one component."""
    ids = graph.op_ids()
    if not ids:
        return False
    seen = {ids[0]}
    stack = [ids[0]]
    while stack:
        node = stack.pop()
        for nbr in graph.successors(node) + graph.predecessors(node):
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return len(seen) == len(ids)


def summarize(graph: DataFlowGraph) -> Dict[str, object]:
    """A small structural report used by the CLI and examples."""
    return {
        "name": graph.name,
        "operations": len(graph),
        "edges": len(graph.edges()),
        "by_rtype": graph.counts_by_rtype(),
        "depth": depth(graph),
        "sources": len(graph.sources()),
        "sinks": len(graph.sinks()),
        "connected": is_connected(graph),
    }
