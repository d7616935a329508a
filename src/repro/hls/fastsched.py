"""Index-based scheduling core: fast ASAP/ALAP, incremental density,
event-driven list scheduling.

The reference kernels (:mod:`repro.hls.timing`,
:mod:`repro.hls.density`, :mod:`repro.hls.listsched`) are written for
clarity: string-keyed dicts, and a *full* ASAP+ALAP recompute — each
re-deriving the topological order — after every single placement.  On
cold evaluations (fresh graphs, first `explore`/`experiment` runs) that
inner loop dominates wall clock, and no cache layer can help a
workload the engine has never seen.  This module reimplements the same
algorithms over the integer-indexed tuples of
:class:`repro.dfg.compiled.CompiledGraph`, with three structural
speedups:

``base timing``
    ASAP starts and *tails* (longest path from an operation through
    its own delay to the end) come from one forward and one reverse
    walk in topological order, and are memoized per (graph, delays).
    Because ``alap(L) = L - tail``, the time frames at *any* latency
    bound follow in O(1) from one base pass — this is what lets
    :meth:`EvaluationEngine._density_best`'s latency-range scan
    warm-start bound ``L+1`` from bound ``L`` instead of paying a fresh
    ASAP/ALAP per bound.
``incremental density``
    After each placement the scheduler updates only the affected
    descendants' ASAP values and ancestors' ALAP values (a rank-ordered
    worklist over the compiled adjacency), and patches one per-rtype
    occupancy row in place for exactly the operations whose frames
    changed, instead of rebuilding the distribution from scratch.
``event-driven list scheduling``
    Ready sets are maintained with predecessor counters and per-version
    free-lane heaps; empty steps are skipped entirely.

The spec is **exact-rational least density**, and the reference
schedulers are its oracles; equivalence is exact, not approximate:

* Time frames are integer fixpoints — the incremental updates compute
  the same numbers as a full recompute, provably.
* An operation with start window ``w`` contributes probability ``1/w``
  per feasible start, so every density is a sum of unit fractions.
  Windows only tighten, so every window an operation can ever have
  divides ``S = lcm(1..w0)``, ``w0`` the widest initial window.  Each
  rtype keeps one occupancy row of Python integers holding ``S`` times
  its density; an operation adds ``(S // w) * coverage`` to it.
  Patching such a row is lossless and candidate costs compare as exact
  integers at any window width — there is no float tolerance and no
  fallback path.
* Tie-breaks are replicated literally: most-constrained-first with
  topological-order ties for placement, earliest-start on cost ties,
  ``(-priority, op id)`` ready order for list scheduling.

``tests/test_fastsched.py`` asserts start-step-identical schedules
against the reference kernels over randomized graphs, delays and
bounds, and the golden paper values pin the end-to-end results.

There is one density solver and it schedules one (delays, latency)
request at a time; :func:`batched_timing` and
:func:`batched_density_schedules` are plain list forms of
:func:`base_timing` and :func:`fast_density_schedule`.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.dfg.compiled import CompiledGraph, compile_graph
from repro.dfg.graph import DataFlowGraph
from repro.errors import SchedulingError
from repro.hls.schedule import Schedule, schedule_from_starts

#: Entries kept in each compiled graph's delays-keyed base-timing memo.
TIMING_MEMO_ENTRIES = 128


class _BaseTiming:
    """ASAP starts and tails for one (graph, delays) pair."""

    __slots__ = ("asap", "tail", "critical")

    def __init__(self, asap: List[int], tail: List[int], critical: int):
        self.asap = asap
        self.tail = tail
        self.critical = critical


def _compute_base_timing(cg: CompiledGraph,
                         d: Sequence[int]) -> _BaseTiming:
    """ASAP starts by one walk in topological order, tails by one walk
    in reverse."""
    preds, succs, topo = cg.preds, cg.succs, cg.topo
    asap = [0] * cg.n_ops
    finish = list(d)  # asap + delay, maintained alongside
    for i in topo:
        earliest = 0
        for p in preds[i]:
            if finish[p] > earliest:
                earliest = finish[p]
        asap[i] = earliest
        finish[i] += earliest
    tail = list(d)  # delay + longest successor tail
    for i in reversed(topo):
        longest = 0
        for s in succs[i]:
            if tail[s] > longest:
                longest = tail[s]
        tail[i] += longest
    return _BaseTiming(asap, tail, max(finish, default=0))


def base_timing(graph: DataFlowGraph,
                delays: Mapping[str, int]) -> _BaseTiming:
    """Memoized ASAP/tail/critical for *graph* under *delays*.

    The memo lives on the compiled graph (one per graph object), so a
    latency-range scan — and every other evaluation sharing the delay
    vector — pays the propagation exactly once.
    """
    cg = compile_graph(graph)
    d = cg.delays_array(delays)
    memo = cg._timing_cache
    cached = memo.get(d)
    if cached is not None:
        return cached
    if len(memo) >= TIMING_MEMO_ENTRIES:
        memo.clear()
    timing = _compute_base_timing(cg, d)
    memo[d] = timing
    return timing


# ----------------------------------------------------------------------
# drop-in timing queries (dict-in, dict-out)
# ----------------------------------------------------------------------
def fast_asap_starts(graph: DataFlowGraph,
                     delays: Mapping[str, int],
                     fixed: Optional[Mapping[str, int]] = None
                     ) -> Dict[str, int]:
    """Index-based :func:`repro.hls.timing.asap_starts` equivalent."""
    cg = compile_graph(graph)
    if not fixed:
        starts = base_timing(graph, delays).asap
    else:
        starts = _asap_with_fixed(cg, cg.delays_array(delays), fixed)
    # key order matches the reference (built along the topo walk)
    ids = cg.op_ids
    return {ids[i]: starts[i] for i in cg.topo}


def fast_asap_latency(graph: DataFlowGraph,
                      delays: Mapping[str, int]) -> int:
    """Index-based :func:`repro.hls.timing.asap_latency` equivalent."""
    if len(graph) == 0:
        # mirror the reference: max() over an empty schedule
        raise ValueError("max() arg is an empty sequence")
    return base_timing(graph, delays).critical


def fast_alap_starts(graph: DataFlowGraph,
                     delays: Mapping[str, int],
                     latency: int,
                     fixed: Optional[Mapping[str, int]] = None
                     ) -> Dict[str, int]:
    """Index-based :func:`repro.hls.timing.alap_starts` equivalent."""
    cg = compile_graph(graph)
    if not fixed:
        tail = base_timing(graph, delays).tail
        starts = [latency - t for t in tail]
        _check_alap(cg, starts, latency)
    else:
        starts = _alap_with_fixed(cg, cg.delays_array(delays), latency,
                                  fixed)
    # key order matches the reference (built along the reversed walk)
    ids = cg.op_ids
    return {ids[i]: starts[i] for i in reversed(cg.topo)}


def fast_time_frames(graph: DataFlowGraph,
                     delays: Mapping[str, int],
                     latency: int,
                     fixed: Optional[Mapping[str, int]] = None
                     ) -> Dict[str, Tuple[int, int]]:
    """Index-based :func:`repro.hls.timing.time_frames` equivalent."""
    cg = compile_graph(graph)
    if not fixed:
        timing = base_timing(graph, delays)
        asap, tail = timing.asap, timing.tail
        alap = [latency - t for t in tail]
        _check_alap(cg, alap, latency)
    else:
        d = cg.delays_array(delays)
        asap = _asap_with_fixed(cg, d, fixed)
        alap = _alap_with_fixed(cg, d, latency, fixed)
    frames: Dict[str, Tuple[int, int]] = {}
    ids = cg.op_ids
    for i in cg.topo:  # first empty frame in topo order wins
        if asap[i] > alap[i]:
            raise SchedulingError(
                f"operation {ids[i]!r} has an empty time frame "
                f"[{asap[i]}, {alap[i]}] at latency {latency}")
        frames[ids[i]] = (asap[i], alap[i])
    return frames


def _asap_with_fixed(cg: CompiledGraph, d: Sequence[int],
                     fixed: Mapping[str, int]) -> List[int]:
    """ASAP honouring fixed placements; reference-identical errors."""
    n = cg.n_ops
    starts = [0] * n
    preds = cg.preds
    fixed_idx: Dict[int, int] = {cg.index[op]: s for op, s in fixed.items()
                                 if op in cg.index}
    violator = None
    rank = cg.topo_rank
    for i in cg.topo:
        earliest = 0
        for p in preds[i]:
            finish = starts[p] + d[p]
            if finish > earliest:
                earliest = finish
        pinned = fixed_idx.get(i)
        if pinned is not None:
            if pinned < earliest and (violator is None
                                      or rank[i] < rank[violator[0]]):
                violator = (i, earliest)
            starts[i] = pinned
        else:
            starts[i] = earliest
    if violator is not None:
        i, earliest = violator
        raise SchedulingError(
            f"fixed start {fixed_idx[i]} of {cg.op_ids[i]!r} violates a "
            f"dependency (earliest feasible is {earliest})")
    return starts


def _alap_with_fixed(cg: CompiledGraph, d: Sequence[int], latency: int,
                     fixed: Mapping[str, int]) -> List[int]:
    """ALAP honouring fixed placements; reference-identical errors."""
    n = cg.n_ops
    starts = [0] * n
    succs = cg.succs
    fixed_idx: Dict[int, int] = {cg.index[op]: s for op, s in fixed.items()
                                 if op in cg.index}
    # the reference walks reversed(topo) and raises at the *first*
    # violation it meets — i.e. the violator with the highest rank
    violator = None
    rank = cg.topo_rank
    for i in reversed(cg.topo):
        latest = latency
        for s in succs[i]:
            if starts[s] < latest:
                latest = starts[s]
        latest -= d[i]
        pinned = fixed_idx.get(i)
        if pinned is not None:
            if pinned > latest and (violator is None
                                    or rank[i] > rank[violator[0]]):
                violator = (i, "fixed", latest)
            starts[i] = pinned
        else:
            starts[i] = latest
        if starts[i] < 0 and (violator is None
                              or rank[i] > rank[violator[0]]):
            violator = (i, "negative", starts[i])
    if violator is not None:
        i, kind, value = violator
        if kind == "fixed":
            raise SchedulingError(
                f"fixed start {fixed_idx[i]} of {cg.op_ids[i]!r} exceeds "
                f"the latest feasible step {value} for latency {latency}")
        raise SchedulingError(
            f"latency {latency} is infeasible: operation "
            f"{cg.op_ids[i]!r} would need to start at step {value}")
    return starts


def _check_alap(cg: CompiledGraph, alap: List[int], latency: int) -> None:
    """Negative-start check for the no-fixed ALAP fast path."""
    violator = None
    rank = cg.topo_rank
    for i, start in enumerate(alap):
        if start < 0 and (violator is None or rank[i] > rank[violator]):
            violator = i
    if violator is not None:
        raise SchedulingError(
            f"latency {latency} is infeasible: operation "
            f"{cg.op_ids[violator]!r} would need to start at step "
            f"{alap[violator]}")


# ----------------------------------------------------------------------
# incremental density scheduling
# ----------------------------------------------------------------------
def fast_density_schedule(graph: DataFlowGraph,
                          delays: Mapping[str, int],
                          latency: Optional[int] = None) -> Schedule:
    """Drop-in, schedule-identical :func:`repro.hls.density.
    density_schedule` over the compiled graph."""
    if len(graph) == 0:
        raise SchedulingError("cannot schedule an empty graph")
    cg = compile_graph(graph)
    timing = base_timing(graph, delays)
    minimum = timing.critical
    if latency is None:
        latency = minimum
    if latency < minimum:
        raise SchedulingError(
            f"latency {latency} is below the critical path length {minimum}")
    d = [delays[op_id] for op_id in cg.op_ids]
    return schedule_from_starts(graph, _solve_density(cg, d, timing, latency),
                                delays)


def density_schedule_range(graph: DataFlowGraph,
                           delays: Mapping[str, int],
                           latencies) -> Dict[int, Schedule]:
    """Density schedules at several latency bounds, sharing one base
    timing pass (every bound's frames derive from the same ASAP/tail
    lists — the warm start across adjacent bounds)."""
    return {latency: fast_density_schedule(graph, delays, latency)
            for latency in latencies}


def _window_scale(timing: _BaseTiming, latency: int) -> int:
    """``lcm(1..w0)`` for the widest initial start window ``w0``: frames
    only tighten, so every window an operation can have divides it."""
    widest = latency - min(a + t for a, t in zip(timing.asap, timing.tail))
    return math.lcm(*range(1, widest + 2))


def _patch(row: List[int], lo: int, hi: int, d: int, unit: int) -> None:
    """Add *unit* times the coverage of start window ``[lo, hi]`` and
    delay *d* to *row*: step ``lo + k - 1`` is busy under
    ``min(k, m, w + d - k)`` of the ``w`` starts, ``m = min(w, d)`` — a
    ramp up, a plateau of ``m`` and a ramp down."""
    if d == 0:
        return
    m = min(hi - lo + 1, d)
    end = hi + d
    for k in range(1, m):
        row[lo + k - 1] += unit * k
        row[end - k] += unit * k
    flat = unit * m
    row[lo + m - 1:end - m + 1] = [x + flat
                                   for x in row[lo + m - 1:end - m + 1]]


def _least_dense_start(row: List[int], lo: int, hi: int, d: int) -> int:
    """Earliest start in ``[lo, hi]`` minimizing the occupancy summed
    over the operation's busy steps, by one sliding window sum."""
    if hi == lo or d == 0:
        # a single candidate, or zero-delay costs are all zero
        return lo
    costs = list(itertools.accumulate(
        map(operator.sub, row[lo + d:hi + d], row[lo:hi]),
        initial=sum(row[lo:lo + d])))
    return lo + costs.index(min(costs))  # first occurrence: earliest


def _tighten(i: int, lo: List[int], hi: List[int], pinned: List[bool],
             d: List[int], latency: int, preds, succs,
             rank: Sequence[int]) -> Dict[int, Tuple[int, int]]:
    """Propagate the pin of operation *i* through its unpinned
    relatives' frames in place and return ``{op: (old lo, old hi)}``
    for every frame that moved.

    Frames can only tighten: descendants' ASAP rises, ancestors' ALAP
    falls.  Rank-ordered worklists make one recompute per affected node
    exact.
    """
    changed: Dict[int, Tuple[int, int]] = {}
    heap = [(rank[j], j) for j in succs[i]]
    heapq.heapify(heap)
    seen = set()
    while heap:
        _, j = heapq.heappop(heap)
        if j in seen or pinned[j]:
            continue
        seen.add(j)
        new_lo = 0
        for p in preds[j]:
            finish = lo[p] + d[p]
            if finish > new_lo:
                new_lo = finish
        if new_lo != lo[j]:
            changed.setdefault(j, (lo[j], hi[j]))
            lo[j] = new_lo
            for s in succs[j]:
                heapq.heappush(heap, (rank[s], s))
    heap = [(-rank[j], j) for j in preds[i]]
    heapq.heapify(heap)
    seen = set()
    while heap:
        _, j = heapq.heappop(heap)
        if j in seen or pinned[j]:
            continue
        seen.add(j)
        new_hi = latency
        for s in succs[j]:
            if hi[s] < new_hi:
                new_hi = hi[s]
        new_hi -= d[j]
        if new_hi != hi[j]:
            changed.setdefault(j, (lo[j], hi[j]))
            hi[j] = new_hi
            for p in preds[j]:
                heapq.heappush(heap, (-rank[p], p))
    return changed


def _solve_density(cg: CompiledGraph, d: List[int], timing: _BaseTiming,
                   latency: int) -> Dict[str, int]:
    """The placement loop; returns start steps in placement order."""
    n = cg.n_ops
    rank = cg.topo_rank
    rcode = cg.rtype_codes
    lo = list(timing.asap)
    hi = [latency - t for t in timing.tail]
    pinned = [False] * n
    # rows[r][t] is scale times the density of rtype r at step t
    scale = _window_scale(timing, latency)
    rows = [[0] * latency for _ in cg.rtype_names]
    for i in range(n):
        _patch(rows[rcode[i]], lo[i], hi[i], d[i],
               scale // (hi[i] - lo[i] + 1))

    remaining = list(range(n))
    fixed: Dict[str, int] = {}
    while remaining:
        # most-constrained first, topological order breaking ties
        best_pos = 0
        best_key = None
        for pos, i in enumerate(remaining):
            key = (hi[i] - lo[i], rank[i])
            if best_key is None or key < best_key:
                best_key = key
                best_pos = pos
        i = remaining[best_pos]
        remaining[best_pos] = remaining[-1]
        remaining.pop()

        lo_i, hi_i, d_i, row = lo[i], hi[i], d[i], rows[rcode[i]]
        start = _least_dense_start(row, lo_i, hi_i, d_i)
        fixed[cg.op_ids[i]] = start
        _patch(row, lo_i, hi_i, d_i, -(scale // (hi_i - lo_i + 1)))
        _patch(row, start, start, d_i, scale)
        lo[i] = hi[i] = start
        pinned[i] = True

        moved = _tighten(i, lo, hi, pinned, d, latency, cg.preds, cg.succs,
                         rank)
        for j, (old_lo, old_hi) in moved.items():
            row = rows[rcode[j]]
            _patch(row, old_lo, old_hi, d[j],
                   -(scale // (old_hi - old_lo + 1)))
            _patch(row, lo[j], hi[j], d[j], scale // (hi[j] - lo[j] + 1))
    return fixed


# ----------------------------------------------------------------------
# event-driven list scheduling
# ----------------------------------------------------------------------
def fast_list_schedule(graph: DataFlowGraph, allocation,
                       instance_counts: Mapping[str, int],
                       max_steps: int = 100_000) -> Schedule:
    """Drop-in, schedule-identical :func:`repro.hls.listsched.
    list_schedule` over the compiled graph.

    Same greedy, same ``(-priority, op id)`` ready order, same lane
    budgets — but readiness is event-driven (predecessor counters plus
    per-version free-lane heaps) and idle steps are skipped, so the
    cost scales with placements rather than with the latency horizon.
    """
    delays: Dict[str, int] = {}
    for op in graph:
        version = allocation.get(op.op_id)
        if version is None:
            raise SchedulingError(f"operation {op.op_id!r} has no allocation")
        count = instance_counts.get(version.name, 0)
        if count < 1:
            raise SchedulingError(
                f"no instances budgeted for version {version.name!r}")
        delays[op.op_id] = version.delay

    cg = compile_graph(graph)
    n = cg.n_ops
    d = [delays[op_id] for op_id in cg.op_ids]
    # the list-scheduling priority — delay plus longest downstream
    # path — is exactly the base-timing tail
    priority = base_timing(graph, delays).tail
    vname = [allocation[op_id].name for op_id in cg.op_ids]

    free: Dict[str, List[int]] = {name: [0] * count
                                  for name, count in instance_counts.items()}
    pending = [len(cg.preds[i]) for i in range(n)]
    ready_at = [0] * n
    arrivals: Dict[int, List[int]] = {0: [i for i in range(n)
                                          if pending[i] == 0]}
    ready: List[Tuple[int, str, int]] = []
    placed: List[Tuple[str, int]] = []
    succs = cg.succs
    op_ids = cg.op_ids

    step = 0
    while len(placed) < n:
        if step > max_steps:
            raise SchedulingError(
                f"list scheduler exceeded {max_steps} steps; "
                "instance budget is likely malformed")
        for i in arrivals.pop(step, ()):
            heapq.heappush(ready, (-priority[i], op_ids[i], i))
        deferred = []
        while ready:
            item = heapq.heappop(ready)
            i = item[2]
            lanes = free[vname[i]]
            if lanes[0] <= step:
                heapq.heapreplace(lanes, step + d[i])
                placed.append((op_ids[i], step))
                # a successor is observably ready once every producer
                # has finished *and* the current step has passed (the
                # reference recomputes readiness at the top of each
                # step, so a zero-delay producer placed this step
                # unblocks its consumers next step at the earliest)
                ripe = step + (d[i] if d[i] > 0 else 1)
                for j in succs[i]:
                    if ripe > ready_at[j]:
                        ready_at[j] = ripe
                    pending[j] -= 1
                    if pending[j] == 0:
                        arrivals.setdefault(ready_at[j], []).append(j)
            else:
                deferred.append(item)
        for item in deferred:
            heapq.heappush(ready, item)
        if len(placed) == n:
            break
        horizon = []
        if arrivals:
            horizon.append(min(arrivals))
        for item in deferred:
            horizon.append(free[vname[item[2]]][0])
        if not horizon:  # unreachable with validated budgets
            raise SchedulingError(
                "list scheduler stalled with work outstanding")
        step = max(step + 1, min(horizon))

    starts = dict(placed)  # placement order, as the reference builds it
    return schedule_from_starts(graph, starts, delays)


# ----------------------------------------------------------------------
# list forms over many requests
# ----------------------------------------------------------------------
def batched_timing(graph: DataFlowGraph,
                   delays_list: List[Mapping[str, int]]
                   ) -> List[_BaseTiming]:
    """``[base_timing(graph, d) for d in delays_list]``."""
    return [base_timing(graph, delays) for delays in delays_list]


def batched_density_schedules(graph: DataFlowGraph,
                              requests: List[Tuple[Mapping[str, int],
                                                   Optional[int]]]
                              ) -> List[Schedule]:
    """``[fast_density_schedule(graph, d, L) for d, L in requests]``;
    the first failing request raises."""
    return [fast_density_schedule(graph, delays, latency)
            for delays, latency in requests]
