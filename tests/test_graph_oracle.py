"""networkx as a test oracle for the dependency-free graph core.

:class:`~repro.dfg.graph.DataFlowGraph` keeps its own insertion-ordered
adjacency and never imports networkx at runtime.  These properties
replay the same construction calls — duplicate edges and cycle-closing
edges included — on a :class:`networkx.DiGraph` and require identical
answers: edge and neighbour order (engine content keys are built from
``edges()``), the lexicographic topological order, cycle rejection,
``validate()``, weak connectivity and the compiled topological order.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.dfg import DataFlowGraph, compile_graph, is_connected
from repro.errors import DFGError

nx = pytest.importorskip("networkx")


@st.composite
def graph_calls(draw):
    """Distinct op ids in arbitrary (non-sorted) order plus a sequence
    of edge calls between them, self-loops and repeats allowed."""
    ids = draw(st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=3),
                        unique=True, max_size=12))
    if not ids:
        return ids, []
    index = st.integers(0, len(ids) - 1)
    calls = draw(st.lists(st.tuples(index, index), max_size=40))
    return ids, calls


def build_both(ids, calls):
    """Apply the calls to a DataFlowGraph and to networkx, checking that
    exactly the cycle-closing and self edges are rejected."""
    graph = DataFlowGraph("oracle")
    ref = nx.DiGraph()
    for op_id in ids:
        graph.add(op_id, "add")
        ref.add_node(op_id)
    for i, j in calls:
        u, v = ids[i], ids[j]
        if u == v:
            with pytest.raises(DFGError, match="self-dependency"):
                graph.add_edge(u, v)
            continue
        ref.add_edge(u, v)
        if nx.is_directed_acyclic_graph(ref):
            graph.add_edge(u, v)
        else:
            ref.remove_edge(u, v)
            with pytest.raises(DFGError, match="would create a cycle"):
                graph.add_edge(u, v)
    return graph, ref


class TestAgainstNetworkx:
    @given(graph_calls())
    @settings(max_examples=200, deadline=None)
    def test_structure_and_order(self, case):
        ids, calls = case
        graph, ref = build_both(ids, calls)
        assert graph.edges() == list(ref.edges())
        assert graph.edge_count() == ref.number_of_edges()
        for op_id in ids:
            assert graph.predecessors(op_id) == list(ref.predecessors(op_id))
            assert graph.successors(op_id) == list(ref.successors(op_id))
        position = {op_id: k for k, op_id in enumerate(ids)}
        expected = list(nx.lexicographical_topological_sort(
            ref, key=position.__getitem__))
        assert graph.topological_order() == expected
        assert compile_graph(graph).topo_ids() == expected
        assert is_connected(graph) == (bool(ids)
                                       and nx.is_weakly_connected(ref))
        exported = graph.nx_graph()
        assert list(exported.nodes()) == list(ref.nodes())
        assert list(exported.edges()) == list(ref.edges())

    @given(graph_calls())
    @settings(max_examples=100, deadline=None)
    def test_copies_match_networkx_rebuilt_from_edges(self, case):
        # copy() replays edges() in order, like a networkx copy built
        # edge by edge, so predecessor order follows edges() order
        graph, ref = build_both(*case)
        rebuilt = nx.DiGraph()
        rebuilt.add_nodes_from(ref.nodes())
        rebuilt.add_edges_from(ref.edges())
        for clone in (graph.copy(), graph.relabeled("").copy()):
            assert clone.edges() == list(rebuilt.edges())
            for op_id in case[0]:
                assert clone.predecessors(op_id) == \
                    list(rebuilt.predecessors(op_id))

    @given(graph_calls(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_validate(self, case, data):
        ids, calls = case
        graph, ref = build_both(ids, calls)
        if not ids:
            with pytest.raises(DFGError, match="no operations"):
                graph.validate()
            return
        graph.validate()
        # plant an unchecked edge: validate() must flag exactly the
        # graphs networkx finds cyclic
        index = st.integers(0, len(ids) - 1)
        i, j = data.draw(index), data.draw(index)
        if i == j:
            return
        graph._link(ids[i], ids[j])
        ref.add_edge(ids[i], ids[j])
        if nx.is_directed_acyclic_graph(ref):
            graph.validate()
        else:
            with pytest.raises(DFGError, match="contains a cycle"):
                graph.validate()


class TestNoNetworkxAtRuntime:
    """networkx is a test dependency only: neither importing the
    package nor a full CLI synthesis may load it."""

    @staticmethod
    def _run(code):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_import_leaves_networkx_unloaded(self):
        proc = self._run("import sys, repro, repro.cli\n"
                         "assert 'networkx' not in sys.modules\n")
        assert proc.returncode == 0, proc.stderr

    def test_cli_synth_leaves_networkx_unloaded(self):
        proc = self._run(
            "import runpy, sys\n"
            "sys.argv = ['repro', 'synth', 'fir', '-l', '10', '-a', '9']\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "assert 'networkx' not in sys.modules\n")
        assert proc.returncode == 0, proc.stderr
        assert "reliability : 0.59998" in proc.stdout


class TestStdlibColdStart:
    """A local synthesis runs on the standard library alone: numpy is
    needed only by Monte Carlo, and the cache service tier and the
    process pool load only when a run asks for them."""

    #: modules a local ``synth`` must never import
    OPTIONAL = ("numpy", "multiprocessing", "concurrent.futures",
                "repro.parallel", "repro.core.cache_server",
                "repro.core.shard", "repro.core.wire")

    @staticmethod
    def _synth(*args):
        """Run ``repro synth fir -l 10 -a 9 ARGS`` in a fresh
        interpreter; its last stdout line lists the loaded OPTIONAL
        modules."""
        code = (
            "import runpy, sys\n"
            f"sys.argv = ['repro', 'synth', 'fir', '-l', '10', '-a', '9',"
            f" *{list(args)!r}]\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            f"print([m for m in {TestStdlibColdStart.OPTIONAL!r}"
            " if m in sys.modules])\n")
        proc = TestNoNetworkxAtRuntime._run(code)
        assert proc.returncode == 0, proc.stderr
        assert "reliability : 0.59998" in proc.stdout
        return proc.stdout.strip().splitlines()[-1]

    def test_cold_synth_loads_no_optional_module(self):
        assert self._synth() == "[]"

    def test_cache_dir_synth_loads_no_optional_module(self, tmp_path):
        cache_dir = str(tmp_path)
        assert self._synth("--cache-dir", cache_dir) == "[]"
        # the warm run loads the snapshot it just wrote
        assert os.path.exists(os.path.join(cache_dir, "engine-cache.bin"))
        assert self._synth("--cache-dir", cache_dir) == "[]"

    def test_cache_server_auto_loads_the_service_tier(self):
        loaded = self._synth("--cache-server", "auto")
        assert "repro.core.cache_server" in loaded
        assert "repro.core.wire" in loaded

    def test_every_core_export_resolves(self):
        proc = TestNoNetworkxAtRuntime._run(
            "import repro.core as core\n"
            "missing = [n for n in core.__all__ if not hasattr(core, n)]\n"
            "assert not missing, missing\n"
            "namespace = {}\n"
            "exec('from repro.core import *', namespace)\n"
            "assert set(core.__all__) <= set(namespace)\n"
            "from repro.core import CacheClient, cache_server\n"
            "assert CacheClient is cache_server.CacheClient\n"
            "assert core.synthesize_remote is \\\n"
            "    cache_server.synthesize_remote\n")
        assert proc.returncode == 0, proc.stderr
