"""Compiled, integer-indexed view of a data-flow graph.

Scheduler passes that walk string-keyed adjacency dicts and re-derive
the topological order on every call spend their time on *graph
bookkeeping*, not arithmetic.  A :class:`CompiledGraph` pays those
costs exactly once per graph: the node set is flattened into dense
integer indices (insertion order), adjacency into CSR arrays, the
deterministic topological order into a permutation array, and resource
types into small integer codes.  Structural *levels* (longest-path
depth in edge count, forward and reverse) are precomputed so timing
passes can propagate level-by-level with NumPy gather/``reduceat``
kernels instead of per-node Python (:mod:`repro.hls.fastsched` builds
on exactly these arrays).

Compilation is cached on the graph object itself (invalidated when the
operation or edge count changes), so every evaluation of a graph —
including the thousands a single sweep performs — shares one compiled
form.  The compiled form is faithful: :meth:`CompiledGraph.to_graph`
reconstructs an equivalent :class:`~repro.dfg.graph.DataFlowGraph`
(same ids, kinds, rtypes, labels and edge order), and the topological
order comes from the same sort as
:meth:`DataFlowGraph.topological_order` (smallest insertion index
among ready nodes, :func:`repro.dfg.graph.lexicographic_topo`), so
array-based and reference algorithms traverse nodes in the same
sequence.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dfg.graph import DataFlowGraph, lexicographic_topo
from repro.dfg.node import Operation
from repro.errors import DFGError

#: Attribute used to cache the compiled form on the graph object.
_CACHE_ATTR = "_compiled_graph_cache"
#: pickles must strip the cache (workers recompile in O(V+E)); the
#: stripping happens by name in DataFlowGraph.__getstate__
assert _CACHE_ATTR in DataFlowGraph._TRANSIENT_ATTRS


class CompiledGraph:
    """Integer-indexed arrays describing one :class:`DataFlowGraph`.

    Operations are numbered ``0..n_ops-1`` in graph insertion order.
    All arrays are read-only views of the graph at compile time; use
    :func:`compile_graph` (which re-compiles when the graph grew) to
    obtain one.
    """

    __slots__ = (
        "name", "n_ops", "n_edges",
        "op_ids", "index", "kinds", "rtypes_per_op", "labels",
        "rtype_names", "rtype_codes",
        "edge_list",
        "pred_ptr", "pred_idx", "succ_ptr", "succ_idx",
        "preds", "succs",
        "topo", "topo_rank",
        "fwd_levels", "rev_levels", "source_idx", "sink_idx",
        "_timing_cache",
    )

    def __init__(self, graph: DataFlowGraph):
        self.name = graph.name
        op_ids = graph.op_ids()
        n = len(op_ids)
        self.n_ops = n
        self.op_ids: Tuple[str, ...] = tuple(op_ids)
        self.index: Dict[str, int] = {op_id: i
                                      for i, op_id in enumerate(op_ids)}
        ops = graph.operations()
        self.kinds: Tuple[str, ...] = tuple(op.kind for op in ops)
        self.rtypes_per_op: Tuple[str, ...] = tuple(op.rtype for op in ops)
        self.labels: Tuple[Optional[str], ...] = tuple(op.label for op in ops)

        self.rtype_names: Tuple[str, ...] = tuple(
            sorted(set(self.rtypes_per_op)))
        code_of = {name: c for c, name in enumerate(self.rtype_names)}
        self.rtype_codes = np.fromiter(
            (code_of[r] for r in self.rtypes_per_op),
            dtype=np.int32, count=n)

        edges = graph.edges()
        self.n_edges = len(edges)
        index = self.index
        self.edge_list: Tuple[Tuple[int, int], ...] = tuple(
            (index[u], index[v]) for u, v in edges)

        preds: List[List[int]] = [[] for _ in range(n)]
        succs: List[List[int]] = [[] for _ in range(n)]
        for u, v in self.edge_list:
            preds[v].append(u)
            succs[u].append(v)
        self.preds: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(p) for p in preds)
        self.succs: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(s) for s in succs)
        self.pred_ptr, self.pred_idx = _to_csr(preds)
        self.succ_ptr, self.succ_idx = _to_csr(succs)

        topo_list = lexicographic_topo([len(p) for p in preds], succs,
                                       self.name)
        self.topo = np.asarray(topo_list, dtype=np.int32)
        self.topo_rank = np.empty(n, dtype=np.int32)
        self.topo_rank[self.topo] = np.arange(n, dtype=np.int32)

        self.fwd_levels = _levels(n, self.preds, topo_list)
        self.rev_levels = _levels(n, self.succs, topo_list[::-1])
        self.source_idx = np.fromiter(
            (i for i in range(n) if not preds[i]), dtype=np.int32)
        self.sink_idx = np.fromiter(
            (i for i in range(n) if not succs[i]), dtype=np.int32)
        # delays-keyed ASAP/tail memo used by repro.hls.fastsched
        self._timing_cache: Dict[tuple, object] = {}

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n_ops

    def topo_ids(self) -> List[str]:
        """Operation ids in topological order (== the graph's)."""
        return [self.op_ids[i] for i in self.topo]

    def delays_array(self, delays) -> np.ndarray:
        """Per-index delay vector from an op-id keyed mapping."""
        return np.fromiter((delays[op_id] for op_id in self.op_ids),
                           dtype=np.int64, count=self.n_ops)

    def rtype_of(self, i: int) -> str:
        """Resource-type name of operation index *i*."""
        return self.rtype_names[self.rtype_codes[i]]

    # ------------------------------------------------------------------
    # round trip
    # ------------------------------------------------------------------
    def to_graph(self) -> DataFlowGraph:
        """Reconstruct an equivalent :class:`DataFlowGraph`.

        Ids, kinds, rtypes, labels and the edge insertion order are
        preserved, so ``compile_graph(cg.to_graph())`` yields identical
        arrays.
        """
        graph = DataFlowGraph(self.name)
        for i, op_id in enumerate(self.op_ids):
            graph.add_operation(Operation(op_id, self.kinds[i],
                                          self.rtypes_per_op[i],
                                          self.labels[i]))
        for u, v in self.edge_list:
            graph.add_edge(self.op_ids[u], self.op_ids[v])
        return graph

    def __repr__(self) -> str:
        return (f"CompiledGraph(name={self.name!r}, ops={self.n_ops}, "
                f"edges={self.n_edges}, rtypes={self.rtype_names})")


def _to_csr(adjacency: List[List[int]]
            ) -> Tuple[np.ndarray, np.ndarray]:
    """(ptr, idx) CSR arrays for a list-of-lists adjacency."""
    ptr = np.zeros(len(adjacency) + 1, dtype=np.int64)
    for i, neighbours in enumerate(adjacency):
        ptr[i + 1] = ptr[i] + len(neighbours)
    idx = np.fromiter((j for neighbours in adjacency for j in neighbours),
                      dtype=np.int32, count=int(ptr[-1]))
    return ptr, idx


def _levels(n: int, preds, order
            ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Structural levels for vectorized propagation along *preds*.

    *order* must be a valid processing sequence for the *preds*
    direction (the topological order, or its reverse for successor
    adjacency).  Returns, for every depth ``>= 1`` (depth 0 nodes have
    no predecessors and need no propagation), a tuple ``(nodes,
    gather_idx, seg_ptr)``: the member nodes in insertion order, their
    concatenated predecessor indices, and ``reduceat`` segment offsets
    — ``np.maximum.reduceat(values[gather_idx], seg_ptr)`` yields the
    per-node max over predecessors in one call.
    """
    depth = [0] * n
    for i in order:
        if preds[i]:
            depth[i] = 1 + max(depth[p] for p in preds[i])
    by_depth: Dict[int, List[int]] = {}
    for i in range(n):
        by_depth.setdefault(depth[i], []).append(i)
    levels = []
    for d in sorted(by_depth):
        if d == 0:
            continue
        nodes = by_depth[d]
        gather: List[int] = []
        seg_ptr: List[int] = []
        for node in nodes:
            seg_ptr.append(len(gather))
            gather.extend(preds[node])
        levels.append((np.asarray(nodes, dtype=np.int32),
                       np.asarray(gather, dtype=np.int32),
                       np.asarray(seg_ptr, dtype=np.int64)))
    return levels


class BatchedDelays:
    """B delay assignments for one :class:`CompiledGraph`, stacked.

    The matrix is ``(B, n_ops)`` int64, one row per assignment, columns
    in graph insertion order — exactly B copies of
    :meth:`CompiledGraph.delays_array` laid out so the batched timing
    kernels of :mod:`repro.hls.fastsched` can propagate every row in
    one ``reduceat`` pass per level.  :meth:`key` returns the same
    per-row ``tobytes`` key the per-item base-timing memo uses, so a
    batched pass and the per-item path land on the same memo entries.
    """

    __slots__ = ("compiled", "matrix")

    def __init__(self, compiled: CompiledGraph, matrix: np.ndarray):
        matrix = np.ascontiguousarray(matrix, dtype=np.int64)
        if matrix.ndim != 2 or matrix.shape[1] != compiled.n_ops:
            raise DFGError(
                f"delay matrix of shape {matrix.shape} does not match "
                f"{compiled.n_ops} operations")
        self.compiled = compiled
        self.matrix = matrix

    @classmethod
    def from_mappings(cls, graph: DataFlowGraph, delays_list
                      ) -> "BatchedDelays":
        """Stack op-id keyed delay mappings into one batch."""
        compiled = compile_graph(graph)
        rows = [compiled.delays_array(delays) for delays in delays_list]
        if rows:
            matrix = np.stack(rows)
        else:
            matrix = np.empty((0, compiled.n_ops), dtype=np.int64)
        return cls(compiled, matrix)

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def row(self, b: int) -> np.ndarray:
        """Delay vector of assignment *b* (graph insertion order)."""
        return self.matrix[b]

    def key(self, b: int) -> bytes:
        """Memo key of row *b* — identical to the per-item path's."""
        return self.matrix[b].tobytes()


class GraphBatch:
    """A disjoint union of several graphs compiled as one structure.

    The random-DFG suites time many *different* graphs under one delay
    assignment each; stacking them as a block-diagonal union graph
    level-aligns their operations (depth-``k`` nodes of every member
    share the union's depth-``k`` level), so a single level pass of the
    batched timing kernels propagates all members at once.  Member op
    ids are prefixed ``"b<k>|"`` to keep the union's id space disjoint;
    :meth:`union_delays` lifts per-member delay mappings onto it and
    :meth:`split` projects union-keyed results back per member.

    Density scheduling is deliberately *not* offered on the union: the
    occupancy distribution couples operations of one resource type
    across members, so a union schedule would differ from per-member
    schedules.  Timing (ASAP/tails/criticals) decomposes exactly.
    """

    __slots__ = ("graphs", "union", "_prefixes")

    def __init__(self, graphs):
        self.graphs = list(graphs)
        if not self.graphs:
            raise DFGError("cannot batch zero graphs")
        self._prefixes = [f"b{k}|" for k in range(len(self.graphs))]
        union = DataFlowGraph("+".join(g.name for g in self.graphs))
        for prefix, graph in zip(self._prefixes, self.graphs):
            for op in graph:
                union.add_operation(Operation(prefix + op.op_id, op.kind,
                                              op.rtype, op.label))
            for u, v in graph.edges():
                union.add_edge(prefix + u, prefix + v)
        self.union = union

    def __len__(self) -> int:
        return len(self.graphs)

    def union_delays(self, delays_list) -> Dict[str, int]:
        """One union-keyed delay mapping from per-member mappings."""
        if len(delays_list) != len(self.graphs):
            raise DFGError(
                f"expected {len(self.graphs)} delay mappings, "
                f"got {len(delays_list)}")
        merged: Dict[str, int] = {}
        for prefix, graph, delays in zip(self._prefixes, self.graphs,
                                         delays_list):
            for op in graph:
                merged[prefix + op.op_id] = delays[op.op_id]
        return merged

    def split(self, union_values) -> List[Dict[str, int]]:
        """Project a union-keyed mapping back to per-member mappings."""
        return [{op.op_id: union_values[prefix + op.op_id] for op in graph}
                for prefix, graph in zip(self._prefixes, self.graphs)]


class MergedBatch:
    """Merge several per-request item lists into one deduplicated work
    list, then split flat results back per request.

    The windowed evaluation service aggregates ``evaluate_batch``
    requests from many connections into one engine call; this helper
    owns the index bookkeeping that makes the merge lossless.  Items
    are deduplicated by a caller-supplied key (the engine uses the
    allocation signature), so an allocation submitted by several fleet
    clients in the same window is *computed once* and fanned back out
    to every requester — the cross-request analogue of the duplicate
    collapsing :class:`BatchedDelays`-backed kernels already perform
    within one request.

    >>> merged = MergedBatch()
    >>> merged.add_request(["a", "b"], keys=["a", "b"])
    0
    >>> merged.add_request(["b", "c"], keys=["b", "c"])
    1
    >>> merged.items
    ['a', 'b', 'c']
    >>> merged.split([1, 2, 3])
    [[1, 2], [2, 3]]
    """

    __slots__ = ("items", "_slot_of", "_requests")

    def __init__(self):
        #: Unique items in first-seen order — the merged work list.
        self.items: List[object] = []
        self._slot_of: Dict[object, int] = {}
        self._requests: List[List[int]] = []

    def add_request(self, items, keys=None) -> int:
        """Append one request's *items*; returns its request index.

        *keys* (default: the items themselves) must be hashable and
        equal exactly when two items may share one computation.
        """
        items = list(items)
        keys = items if keys is None else list(keys)
        if len(keys) != len(items):
            raise DFGError(
                f"{len(items)} items but {len(keys)} merge keys")
        slots = []
        for item, key in zip(items, keys):
            slot = self._slot_of.get(key)
            if slot is None:
                slot = len(self.items)
                self._slot_of[key] = slot
                self.items.append(item)
            slots.append(slot)
        self._requests.append(slots)
        return len(self._requests) - 1

    def __len__(self) -> int:
        return len(self._requests)

    @property
    def merged_items(self) -> int:
        """Total items submitted across every request."""
        return sum(len(slots) for slots in self._requests)

    @property
    def unique_items(self) -> int:
        """Items surviving deduplication (== ``len(self.items)``)."""
        return len(self.items)

    def split(self, results) -> List[list]:
        """Fan per-unique-item *results* back out, one list per request
        in :meth:`add_request` order."""
        results = list(results)
        if len(results) != len(self.items):
            raise DFGError(
                f"{len(self.items)} merged items but {len(results)} "
                f"results")
        return [[results[slot] for slot in slots]
                for slots in self._requests]


def compile_graph(graph: DataFlowGraph) -> CompiledGraph:
    """The cached compiled form of *graph*.

    The compiled arrays are stored on the graph object and rebuilt when
    the operation or edge count changes (the same invalidation contract
    the evaluation engine's graph registry uses); callers therefore
    treat this as O(1) after the first evaluation of a graph.
    """
    cached = graph.__dict__.get(_CACHE_ATTR)
    if cached is not None:
        n_ops, n_edges, compiled = cached
        if n_ops == len(graph) and n_edges == graph.edge_count():
            return compiled
    compiled = CompiledGraph(graph)
    graph.__dict__[_CACHE_ATTR] = (compiled.n_ops, compiled.n_edges,
                                   compiled)
    return compiled
