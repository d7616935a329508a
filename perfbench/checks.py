"""Output checks that do not trust the code under test.

Every returned design is re-validated from its parts with plain
arithmetic: the schedule against the graph's edges and the allocated
versions' delays, the area against the bound instances and their
replica counts, the reliability against a product recomputed with
:mod:`math`.  Infeasible verdicts are checked where a closed-form floor
decides them.  Each check returns a list of problems; empty means pass.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Optional

REL_TOL = 1e-9


def load_golden(root: str) -> dict:
    """The paper's pinned reliability cells (read only)."""
    with open(os.path.join(root, "tests", "data", "golden_values.json")) as fh:
        return json.load(fh)


def golden_cells(golden: dict) -> Dict[tuple, Optional[float]]:
    """(workload key) -> expected reliability (``None`` = infeasible).

    Keys are ``(method, benchmark, Ld, Ad)`` for Table 2 and
    ``("fig8", "fir", Ld, Ad)`` for the Figure 8 points.
    """
    from repro.experiments import paper_data

    cells: Dict[tuple, Optional[float]] = {}
    for bench, rows in golden["table2"].items():
        for ld, ad, ref3, ours, comb in rows:
            cells[("baseline", bench, ld, ad)] = ref3
            cells[("find", bench, ld, ad)] = ours
            cells[("combined", bench, ld, ad)] = comb
    for ld, value in golden["fig8"]["a"]:
        cells[("fig8", "fir", ld, paper_data.FIG8A_AREA_BOUND)] = value
    for ad, value in golden["fig8"]["b"]:
        cells[("fig8", "fir", paper_data.FIG8B_LATENCY_BOUND, ad)] = value
    return cells


def _group_reliability(r: float, copies: int) -> float:
    """Replica-group reliability: bare, duplex-style for even counts,
    majority voting for odd counts (the paper's Section 5 rules)."""
    if copies == 1:
        return r
    if copies % 2 == 0:
        return 1.0 - (1.0 - r) ** copies
    k = (copies + 1) // 2
    return math.fsum(math.comb(copies, i) * r ** i * (1.0 - r) ** (copies - i)
                     for i in range(k, copies + 1))


def critical_path(graph, delays: Dict[str, int]) -> int:
    """Longest delay-weighted path, by a plain topological relaxation."""
    preds = {op.op_id: [] for op in graph}
    indegree = {op.op_id: 0 for op in graph}
    succs = {op.op_id: [] for op in graph}
    for u, v in graph.edges():
        preds[v].append(u)
        succs[u].append(v)
        indegree[v] += 1
    ready = [op_id for op_id, deg in indegree.items() if deg == 0]
    finish: Dict[str, int] = {}
    while ready:
        op_id = ready.pop()
        start = max((finish[p] for p in preds[op_id]), default=0)
        finish[op_id] = start + delays[op_id]
        for s in succs[op_id]:
            indegree[s] -= 1
            if indegree[s] == 0:
                ready.append(s)
    if len(finish) != len(indegree):
        raise ValueError(f"graph {graph.name!r} has a cycle")
    return max(finish.values(), default=0)


def fastest_critical_path(graph, library) -> int:
    fastest = {op.rtype: min(v.delay for v in library.versions_of(op.rtype))
               for op in graph}
    return critical_path(graph, {op.op_id: fastest[op.rtype]
                                 for op in graph})


def area_floor(graph, library) -> int:
    """Least area of any design: one instance of the cheapest version of
    every resource type the graph uses."""
    return sum(min(v.area for v in library.versions_of(rtype))
               for rtype in {op.rtype for op in graph})


def check_design(design, graph, latency_bound: int, area_bound: int
                 ) -> List[str]:
    """Validate one design from its parts."""
    problems = []
    alloc = design.allocation
    missing = [op.op_id for op in graph if op.op_id not in alloc]
    if missing:
        return [f"operations without a version: {missing[:5]}"]
    for op in graph:
        if alloc[op.op_id].rtype != op.rtype:
            problems.append(f"{op.op_id} runs on a {alloc[op.op_id].rtype} "
                            f"version")
    starts = {op.op_id: design.schedule.start(op.op_id) for op in graph}
    delay = {op_id: alloc[op_id].delay for op_id in starts}
    latency = max(starts[o] + delay[o] for o in starts)
    if latency > latency_bound:
        problems.append(f"latency {latency} exceeds bound {latency_bound}")
    if min(starts.values()) < 0:
        problems.append("an operation starts before step 0")
    for u, v in graph.edges():
        if starts[v] < starts[u] + delay[u]:
            problems.append(f"{v} starts at {starts[v]} before its "
                            f"predecessor {u} finishes at "
                            f"{starts[u] + delay[u]}")
    copies = design.instance_copies
    area = 0
    bound_ops = {}
    for inst in design.binding.instances:
        area += inst.version.area * copies.get(inst.name, 1)
        busy = sorted((starts[o], starts[o] + delay[o]) for o in inst.ops)
        for (_, f0), (s1, _) in zip(busy, busy[1:]):
            if s1 < f0:
                problems.append(f"instance {inst.name} runs two "
                                f"operations at once")
        for o in inst.ops:
            bound_ops[o] = inst
            if alloc[o] != inst.version:
                problems.append(f"{o} is bound to a {inst.version.name} "
                                f"instance but allocated {alloc[o].name}")
    if set(bound_ops) != set(starts):
        problems.append("binding does not cover every operation exactly")
    if area > area_bound:
        problems.append(f"area {area} exceeds bound {area_bound}")
    expected = math.prod(
        _group_reliability(alloc[o].reliability,
                           copies.get(bound_ops[o].name, 1))
        for o in starts if o in bound_ops)
    if not math.isclose(design.reliability, expected, rel_tol=REL_TOL):
        problems.append(f"reliability {design.reliability!r} differs from "
                        f"the recomputed product {expected!r}")
    return problems


def decided_infeasible(graph, library, latency_bound: int,
                       area_bound: int) -> bool:
    """True when a closed-form floor proves the bounds infeasible."""
    return (area_floor(graph, library) > area_bound
            or fastest_critical_path(graph, library) > latency_bound)


def check_golden(value: Optional[float], expected: Optional[float]
                 ) -> List[str]:
    if expected is None:
        return [] if value is None else [f"expected infeasible, got {value}"]
    if value is None:
        return [f"expected {expected}, got infeasible"]
    if not math.isclose(value, expected, rel_tol=REL_TOL):
        return [f"reliability {value!r} != golden {expected!r}"]
    return []


def fingerprint(design) -> tuple:
    """Everything a caller sees of a design, in comparable form."""
    return (design.method, design.latency, design.area,
            design.reliability,
            tuple(sorted((o, v.name) for o, v in design.allocation.items())),
            tuple(sorted((o, design.schedule.start(o))
                         for o in design.allocation)),
            tuple(sorted(design.binding.op_to_instance.items())),
            tuple(sorted(design.instance_copies.items())))
