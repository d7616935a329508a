"""Unit tests for repro.dfg.compiled: the integer-indexed graph core."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dfg import (
    CompiledGraph,
    DataFlowGraph,
    DFGBuilder,
    compile_graph,
    random_dag,
)
from repro.errors import DFGError

graph_params = st.tuples(st.integers(1, 40), st.integers(0, 5_000))


def diamond() -> DataFlowGraph:
    g = DataFlowGraph("diamond")
    g.add("a", "add")
    g.add("b", "mul", deps=["a"])
    g.add("c", "add", deps=["a"])
    g.add("d", "add", deps=["b", "c"])
    return g


class TestCompilation:
    def test_indices_follow_insertion_order(self):
        cg = compile_graph(diamond())
        assert cg.op_ids == ("a", "b", "c", "d")
        assert cg.index == {"a": 0, "b": 1, "c": 2, "d": 3}

    def test_adjacency_matches_graph(self):
        g = diamond()
        cg = compile_graph(g)
        for i, op_id in enumerate(cg.op_ids):
            assert [cg.op_ids[p] for p in cg.preds[i]] == \
                g.predecessors(op_id)
            assert [cg.op_ids[s] for s in cg.succs[i]] == \
                g.successors(op_id)

    def test_rtype_codes(self):
        cg = compile_graph(diamond())
        assert cg.rtype_names == ("add", "mul")
        assert [cg.rtype_of(i) for i in range(4)] == \
            ["add", "mul", "add", "add"]

    def test_topo_rank_inverts_topo(self):
        cg = compile_graph(random_dag(30, seed=7))
        assert sorted(cg.topo) == list(range(cg.n_ops))
        assert [cg.topo_rank[i] for i in cg.topo] == list(range(cg.n_ops))

    @given(graph_params)
    @settings(max_examples=60, deadline=None)
    def test_topo_matches_reference_order(self, params):
        size, seed = params
        g = random_dag(size, seed=seed)
        assert compile_graph(g).topo_ids() == g.topological_order()

    def test_single_node(self):
        g = DataFlowGraph("one")
        g.add("x", "mul")
        cg = compile_graph(g)
        assert cg.n_ops == 1 and cg.n_edges == 0
        assert cg.topo_ids() == ["x"]
        assert cg.preds == ((),) and cg.succs == ((),)
        assert cg.edge_list == ()

    def test_disconnected_components(self):
        g = DataFlowGraph("parts")
        g.add("a", "add")
        g.add("b", "mul", deps=["a"])
        g.add("x", "add")  # isolated
        g.add("y", "mul")
        g.add("z", "add", deps=["y"])
        cg = compile_graph(g)
        assert cg.topo_ids() == g.topological_order()
        sources = [cg.op_ids[i] for i in range(cg.n_ops) if not cg.preds[i]]
        sinks = [cg.op_ids[i] for i in range(cg.n_ops) if not cg.succs[i]]
        assert sources == ["a", "x", "y"]
        assert sinks == ["b", "x", "z"]


class TestRoundTrip:
    def test_diamond_round_trips(self):
        g = diamond()
        rebuilt = compile_graph(g).to_graph()
        assert rebuilt.to_dict() == g.to_dict()

    def test_labels_and_kinds_survive(self):
        builder = DFGBuilder("labelled")
        a = builder.adder(label="alpha")
        builder.mul(deps=[a], label="beta")
        g = builder.build()
        rebuilt = compile_graph(g).to_graph()
        assert rebuilt.to_dict() == g.to_dict()

    @given(graph_params)
    @settings(max_examples=60, deadline=None)
    def test_random_graphs_round_trip(self, params):
        size, seed = params
        g = random_dag(size, seed=seed)
        rebuilt = compile_graph(g).to_graph()
        assert rebuilt.to_dict() == g.to_dict()
        # recompiling the rebuilt graph yields identical structure
        cg, cg2 = compile_graph(g), compile_graph(rebuilt)
        assert cg.op_ids == cg2.op_ids
        assert cg.edge_list == cg2.edge_list
        assert cg.topo == cg2.topo

    def test_single_node_round_trip(self):
        g = DataFlowGraph("one")
        g.add("x", "cmp")
        assert compile_graph(g).to_graph().to_dict() == g.to_dict()

    def test_disconnected_round_trip(self):
        g = DataFlowGraph("parts")
        g.add("x", "add")
        g.add("y", "mul")
        assert compile_graph(g).to_graph().to_dict() == g.to_dict()


class TestCaching:
    def test_compile_is_cached_per_object(self):
        g = diamond()
        assert compile_graph(g) is compile_graph(g)

    def test_cache_invalidated_by_growth(self):
        g = diamond()
        first = compile_graph(g)
        g.add("e", "mul", deps=["d"])
        second = compile_graph(g)
        assert second is not first
        assert second.n_ops == 5
        assert compile_graph(g) is second

    def test_cache_invalidated_by_new_edge(self):
        g = diamond()
        first = compile_graph(g)
        g.add_edge("a", "d")
        second = compile_graph(g)
        assert second is not first
        assert second.n_edges == first.n_edges + 1

    def test_copies_compile_independently(self):
        g = diamond()
        clone = g.copy()
        assert compile_graph(g) is not compile_graph(clone)

    def test_edge_count_is_tracked(self):
        g = diamond()
        assert g.edge_count() == len(g.edges()) == 4
        g.add("e", "mul", deps=["d", "a"])
        assert g.edge_count() == len(g.edges()) == 6
        with pytest.raises(DFGError):
            g.add_edge("e", "a")  # cycle: rolled back, count untouched
        assert g.edge_count() == 6


class TestPickling:
    def test_compiled_cache_is_stripped_from_pickles(self):
        import pickle

        g = diamond()
        compile_graph(g)  # attach the transient cache
        payload = pickle.dumps(g)
        assert b"CompiledGraph" not in payload
        restored = pickle.loads(payload)
        assert "_compiled_graph_cache" not in restored.__dict__
        assert restored.to_dict() == g.to_dict()
        assert restored.edge_count() == g.edge_count()
        # and the restored graph compiles fresh, identically
        assert compile_graph(restored).topo_ids() == \
            compile_graph(g).topo_ids()

    def test_pickle_without_edge_counter_is_backfilled(self):
        import pickle

        g = diamond()
        state = g.__getstate__()
        del state["_n_edges"]  # a pickle from before the counter
        restored = DataFlowGraph.__new__(DataFlowGraph)
        restored.__setstate__(state)
        assert restored.edge_count() == 4


class TestConstruction:
    def test_direct_constructor_matches_helper(self):
        g = diamond()
        direct = CompiledGraph(g)
        assert direct.op_ids == compile_graph(g).op_ids
        assert direct.edge_list == compile_graph(g).edge_list
