"""Compiled, integer-indexed view of a data-flow graph.

Scheduler passes that walk string-keyed adjacency dicts and re-derive
the topological order on every call spend their time on *graph
bookkeeping*, not arithmetic.  A :class:`CompiledGraph` pays those
costs exactly once per graph: the node set is flattened into dense
integer indices (insertion order), adjacency into per-index tuples of
predecessor and successor indices, the deterministic topological order
into an index tuple (and its inverse, the rank of each index), and
resource types into small integer codes.  Everything is a plain
tuple, so the scheduling core (:mod:`repro.hls.fastsched`) needs
nothing beyond the standard library.

Compilation is cached on the graph object itself (invalidated when the
operation or edge count changes), so every evaluation of a graph —
including the thousands a single sweep performs — shares one compiled
form.  The compiled form is faithful: :meth:`CompiledGraph.to_graph`
reconstructs an equivalent :class:`~repro.dfg.graph.DataFlowGraph`
(same ids, kinds, rtypes, labels and edge order), and the topological
order comes from the same sort as
:meth:`DataFlowGraph.topological_order` (smallest insertion index
among ready nodes, :func:`repro.dfg.graph.lexicographic_topo`), so
index-based and reference algorithms traverse nodes in the same
sequence.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dfg.graph import DataFlowGraph, lexicographic_topo
from repro.dfg.node import Operation
from repro.errors import DFGError

#: Attribute used to cache the compiled form on the graph object.
_CACHE_ATTR = "_compiled_graph_cache"
#: pickles must strip the cache (workers recompile in O(V+E)); the
#: stripping happens by name in DataFlowGraph.__getstate__
assert _CACHE_ATTR in DataFlowGraph._TRANSIENT_ATTRS


class CompiledGraph:
    """Integer-indexed tuples describing one :class:`DataFlowGraph`.

    Operations are numbered ``0..n_ops-1`` in graph insertion order.
    All fields are read-only views of the graph at compile time; use
    :func:`compile_graph` (which re-compiles when the graph grew) to
    obtain one.
    """

    __slots__ = (
        "name", "n_ops", "n_edges",
        "op_ids", "index", "kinds", "rtypes_per_op", "labels",
        "rtype_names", "rtype_codes",
        "edge_list", "preds", "succs", "topo", "topo_rank",
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
        self.rtype_codes: Tuple[int, ...] = tuple(
            code_of[r] for r in self.rtypes_per_op)

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

        topo = lexicographic_topo([len(p) for p in preds], succs,
                                  self.name)
        self.topo: Tuple[int, ...] = tuple(topo)
        rank = [0] * n
        for position, i in enumerate(topo):
            rank[i] = position
        self.topo_rank: Tuple[int, ...] = tuple(rank)
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

    def delays_array(self, delays) -> Tuple[int, ...]:
        """Per-index delay tuple from an op-id keyed mapping (hashable,
        so it doubles as the timing-memo key)."""
        return tuple([delays[op_id] for op_id in self.op_ids])

    def rtype_of(self, i: int) -> str:
        """Resource-type name of operation index *i*."""
        return self.rtype_names[self.rtype_codes[i]]

    # ------------------------------------------------------------------
    # round trip
    # ------------------------------------------------------------------
    def to_graph(self) -> DataFlowGraph:
        """Reconstruct an equivalent :class:`DataFlowGraph`.

        Ids, kinds, rtypes, labels and the edge insertion order are
        preserved, so ``compile_graph(cg.to_graph())`` yields an
        identical compiled form.
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


class MergedBatch:
    """Merge several per-request item lists into one deduplicated work
    list, then split flat results back per request.

    The windowed evaluation service aggregates ``evaluate_batch``
    requests from many connections into one engine call; this helper
    owns the index bookkeeping that makes the merge lossless.  Items
    are deduplicated by a caller-supplied key (the engine uses the
    allocation signature), so an allocation submitted by several fleet
    clients in the same window is *computed once* and fanned back out
    to every requester.

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

    The compiled form is stored on the graph object and rebuilt when
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
