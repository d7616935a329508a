"""Property-based equivalence: compiled scheduling core ≡ reference.

The contract of :mod:`repro.hls.fastsched` is not "approximately as
good" but **identical output**: same start steps, same tie-breaks, same
errors.  These tests drive randomized graphs, delay vectors, fixed
placements and latency bounds through both implementations and assert
exact agreement — the property that lets the engine share every cache
layer, snapshot and golden value between the two cores.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dfg import layered_dag, random_dag
from repro.errors import SchedulingError
from repro.hls import (
    alap_starts,
    asap_latency,
    asap_starts,
    density_schedule,
    fast_alap_starts,
    fast_asap_latency,
    fast_asap_starts,
    fast_density_schedule,
    fast_list_schedule,
    fast_time_frames,
    list_schedule,
    time_frames,
)
from repro.hls import fastsched
from repro.library import paper_library

graph_params = st.tuples(st.integers(1, 30), st.integers(0, 5_000))


def build(params):
    size, seed = params
    return random_dag(size, seed=seed)


def random_delays(graph, seed, high=4):
    rng = random.Random(seed)
    return {op.op_id: rng.randint(1, high) for op in graph}


def random_allocation(graph, seed):
    library = paper_library()
    rng = random.Random(seed)
    return {op.op_id: rng.choice(library.versions_of(op.rtype))
            for op in graph}


class TestTimingEquivalence:
    @given(graph_params, st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_asap_alap_frames_match(self, params, slack):
        graph = build(params)
        delays = random_delays(graph, params[1])
        latency = asap_latency(graph, delays) + slack
        assert fast_asap_latency(graph, delays) == \
            asap_latency(graph, delays)
        ref = asap_starts(graph, delays)
        fast = fast_asap_starts(graph, delays)
        assert fast == ref and list(fast) == list(ref)
        ref = alap_starts(graph, delays, latency)
        fast = fast_alap_starts(graph, delays, latency)
        assert fast == ref and list(fast) == list(ref)
        ref = time_frames(graph, delays, latency)
        fast = fast_time_frames(graph, delays, latency)
        assert fast == ref and list(fast) == list(ref)

    @given(graph_params, st.integers(0, 4), st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_fixed_placements_and_errors_match(self, params, slack, pick):
        graph = build(params)
        delays = random_delays(graph, params[1])
        latency = asap_latency(graph, delays) + slack
        rng = random.Random(pick)
        ops = graph.op_ids()
        fixed = {rng.choice(ops): rng.randint(0, latency)
                 for _ in range(1 + pick % 3)}
        for reference, fast, args in (
            (asap_starts, fast_asap_starts, (graph, delays)),
            (alap_starts, fast_alap_starts, (graph, delays, latency)),
            (time_frames, fast_time_frames, (graph, delays, latency)),
        ):
            try:
                expected, expected_error = reference(*args, fixed=fixed), None
            except SchedulingError as exc:
                expected, expected_error = None, str(exc)
            try:
                got, got_error = fast(*args, fixed=fixed), None
            except SchedulingError as exc:
                got, got_error = None, str(exc)
            # same outcome, same values, same message, same key order
            assert got_error == expected_error
            assert got == expected
            if expected is not None:
                assert list(got) == list(expected)

    def test_infeasible_latency_raises_in_both(self):
        graph = random_dag(12, seed=5)
        delays = random_delays(graph, 5)
        latency = asap_latency(graph, delays) - 1
        with pytest.raises(SchedulingError):
            alap_starts(graph, delays, latency)
        with pytest.raises(SchedulingError):
            fast_alap_starts(graph, delays, latency)


class TestBaseTimingWalk:
    """The topological-order walk behind :func:`fastsched.base_timing`
    against the reference ASAP/ALAP passes: ``asap`` is the ASAP
    start, ``alap(L) = L - tail`` and ``critical`` is the ASAP
    latency."""

    @staticmethod
    def check(graph, delays):
        timing = fastsched.base_timing(graph, delays)
        ids = list(fastsched.compile_graph(graph).op_ids)
        critical = asap_latency(graph, delays)
        assert timing.critical == critical
        asap = asap_starts(graph, delays)
        assert timing.asap == [asap[op] for op in ids]
        for latency in (critical, critical + 3):
            alap = alap_starts(graph, delays, latency)
            assert [latency - t for t in timing.tail] == \
                [alap[op] for op in ids]

    @given(graph_params, st.integers(0, 5_000))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_with_zero_delays(self, params, seed):
        graph = build(params)
        rng = random.Random(seed)
        self.check(graph, {op.op_id: rng.randint(0, 3) for op in graph})

    def test_all_zero_delays(self):
        graph = random_dag(20, seed=2)
        self.check(graph, {op.op_id: 0 for op in graph})
        assert fastsched.base_timing(
            graph, {op.op_id: 0 for op in graph}).critical == 0

    def test_empty_graph(self):
        from repro.dfg import DataFlowGraph

        timing = fastsched.base_timing(DataFlowGraph("empty"), {})
        assert (timing.asap, timing.tail, timing.critical) == ([], [], 0)

    def test_wide_build_size(self):
        graph = random_dag(800, seed=1)
        self.check(graph, random_delays(graph, 1))


class TestDensityEquivalence:
    @given(graph_params, st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_identical_start_steps(self, params, slack):
        graph = build(params)
        delays = random_delays(graph, params[1])
        latency = asap_latency(graph, delays) + slack
        reference = density_schedule(graph, delays, latency)
        fast = fast_density_schedule(graph, delays, latency)
        assert fast.starts == reference.starts
        assert fast.delays == reference.delays
        assert list(fast.starts) == list(reference.starts)

    @given(st.integers(2, 5), st.integers(2, 6), st.integers(0, 1_000),
           st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_layered_graphs_match(self, layers, width, seed, slack):
        graph = layered_dag(layers, width, seed=seed)
        delays = random_delays(graph, seed)
        latency = asap_latency(graph, delays) + slack
        reference = density_schedule(graph, delays, latency)
        fast = fast_density_schedule(graph, delays, latency)
        assert fast.starts == reference.starts

    def test_default_latency_is_critical_path(self):
        graph = random_dag(15, seed=11)
        delays = random_delays(graph, 11)
        assert fast_density_schedule(graph, delays).starts == \
            density_schedule(graph, delays).starts

    def test_below_critical_path_raises(self):
        graph = random_dag(10, seed=2)
        delays = random_delays(graph, 2)
        latency = asap_latency(graph, delays)
        with pytest.raises(SchedulingError):
            fast_density_schedule(graph, delays, latency - 1)

    def test_empty_graph_raises(self):
        from repro.dfg import DataFlowGraph

        with pytest.raises(SchedulingError):
            fast_density_schedule(DataFlowGraph("empty"), {})

    def test_zero_delay_operations_match_reference(self):
        from repro.dfg import DataFlowGraph

        g = DataFlowGraph("zd")
        g.add("a", "add")
        g.add("b", "add", deps=["a"])
        g.add("c", "add", deps=["a"])
        delays = {"a": 1, "b": 0, "c": 1}
        for latency in (2, 3, 4):
            assert fast_density_schedule(g, delays, latency).starts == \
                density_schedule(g, delays, latency).starts

    @given(graph_params, st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_delays_with_zeros_match(self, params, slack):
        graph = build(params)
        rng = random.Random(params[1])
        delays = {op.op_id: rng.randint(0, 3) for op in graph}
        latency = asap_latency(graph, delays) + slack
        assert fast_density_schedule(graph, delays, latency).starts == \
            density_schedule(graph, delays, latency).starts

    def test_wide_windows_never_call_the_oracle(self, monkeypatch):
        """Exact integer costs hold at any window width: the fast path
        has no fallback to the reference scheduler."""
        from repro.hls import density

        graph = random_dag(20, seed=9)
        delays = random_delays(graph, 9)
        latency = asap_latency(graph, delays) + 60
        expected = density_schedule(graph, delays, latency)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return expected

        monkeypatch.setattr(density, "density_schedule", spy)
        got = fast_density_schedule(graph, delays, latency)
        batched = fastsched.batched_density_schedules(
            graph, [(delays, latency), (delays, latency - 30)])
        assert calls == []
        assert got.starts == expected.starts
        assert batched[0].starts == expected.starts

    @given(st.tuples(st.integers(1, 14), st.integers(0, 5_000)),
           st.integers(0, 60), st.integers(0, 99))
    @settings(max_examples=25, deadline=None)
    def test_fast_and_oracle_agree_at_any_slack(self, params, slack, seed):
        graph = build(params)
        for k in range(3):
            delays = random_delays(graph, seed + k)
            latency = asap_latency(graph, delays) + slack * k // 2
            oracle = density_schedule(graph, delays, latency)
            got = fast_density_schedule(graph, delays, latency)
            assert got.starts == oracle.starts
            assert list(got.starts) == list(oracle.starts)

    def test_schedule_range_shares_base_timing(self):
        graph = random_dag(18, seed=4)
        delays = random_delays(graph, 4)
        critical = asap_latency(graph, delays)
        bounds = range(critical, critical + 5)
        ranged = fastsched.density_schedule_range(graph, delays, bounds)
        for latency in bounds:
            assert ranged[latency].starts == \
                density_schedule(graph, delays, latency).starts


class TestListEquivalence:
    @given(graph_params, st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_identical_schedules(self, params, adders, mults):
        graph = build(params)
        allocation = random_allocation(graph, params[1])
        counts = {version.name: (adders if version.rtype == "add"
                                 else mults)
                  for version in allocation.values()}
        reference = list_schedule(graph, allocation, counts)
        fast = fast_list_schedule(graph, allocation, counts)
        assert fast.starts == reference.starts
        assert list(fast.starts) == list(reference.starts)
        assert fast.delays == reference.delays

    def test_missing_allocation_raises(self):
        graph = random_dag(5, seed=1)
        allocation = random_allocation(graph, 1)
        removed = graph.op_ids()[0]
        del allocation[removed]
        counts = {version.name: 1 for version in allocation.values()}
        with pytest.raises(SchedulingError):
            fast_list_schedule(graph, allocation, counts)

    def test_zero_budget_raises(self):
        graph = random_dag(5, seed=1)
        allocation = random_allocation(graph, 1)
        with pytest.raises(SchedulingError):
            fast_list_schedule(graph, allocation, {})

    def test_max_steps_exceeded_raises(self):
        graph = random_dag(8, seed=3)
        allocation = random_allocation(graph, 3)
        counts = {version.name: 1 for version in allocation.values()}
        with pytest.raises(SchedulingError):
            fast_list_schedule(graph, allocation, counts, max_steps=0)


class TestEngineImplEquivalence:
    """One engine per implementation, identical evaluations."""

    @given(graph_params, st.integers(0, 5), st.integers(0, 99))
    @settings(max_examples=25, deadline=None)
    def test_evaluations_identical(self, params, slack, seed):
        from repro.core import EvaluationEngine, min_latency

        graph = build(params)
        allocation = random_allocation(graph, seed)
        bound = min_latency(graph, allocation) + slack
        fast = EvaluationEngine(scheduler_impl="fast")
        reference = EvaluationEngine(scheduler_impl="reference")
        got = fast.evaluate(graph, allocation, bound)
        expected = reference.evaluate(graph, allocation, bound)
        if expected is None:
            assert got is None
            return
        assert got.schedule.starts == expected.schedule.starts
        assert got.latency == expected.latency
        assert got.area == expected.area
        assert got.binding.instance_counts() == \
            expected.binding.instance_counts()

    def test_impl_validated(self):
        from repro.core import EvaluationEngine

        from repro.errors import ReproError

        with pytest.raises(ReproError):
            EvaluationEngine(scheduler_impl="warp")
        engine = EvaluationEngine()
        graph = random_dag(4, seed=0)
        allocation = random_allocation(graph, 0)
        with pytest.raises(ReproError):
            engine.evaluate(graph, allocation, 10, scheduler_impl="warp")

    def test_env_var_selects_default(self, monkeypatch):
        from repro.core import EvaluationEngine

        monkeypatch.setenv("REPRO_SCHEDULER_IMPL", "reference")
        assert EvaluationEngine().scheduler_impl == "reference"
        monkeypatch.delenv("REPRO_SCHEDULER_IMPL")
        assert EvaluationEngine().scheduler_impl == "fast"

    def test_per_call_reference_override_avoids_the_fast_core(self,
                                                              monkeypatch):
        from repro.core import EvaluationEngine

        graph = random_dag(10, seed=8)
        allocation = random_allocation(graph, 8)
        engine = EvaluationEngine()  # fast default

        def forbidden(*args, **kwargs):
            raise AssertionError("fast core ran under a reference "
                                 "override")

        monkeypatch.setattr(fastsched, "base_timing", forbidden)
        monkeypatch.setattr(fastsched, "fast_density_schedule", forbidden)
        monkeypatch.setattr(fastsched, "fast_list_schedule", forbidden)
        result = engine.evaluate(graph, allocation, 40,
                                 scheduler_impl="reference")
        assert result is not None

    def test_per_call_override_shares_caches(self):
        from repro.core import EvaluationEngine

        graph = random_dag(12, seed=6)
        allocation = random_allocation(graph, 6)
        engine = EvaluationEngine()  # fast by default
        bound = 40
        first = engine.evaluate(graph, allocation, bound)
        # the reference override lands on the same memo entries
        hits_before = engine.stats.hits
        second = engine.evaluate(graph, allocation, bound,
                                 scheduler_impl="reference")
        assert engine.stats.hits == hits_before + 1
        assert second is first


class TestBatchedTimingMemoOverflow:
    def test_capacity_clear_mid_batch_keeps_hit_rows(self, monkeypatch):
        """Regression: a batch mixing memo *hits* with enough misses to
        trip the capacity clear used to lose the hit rows — the final
        gather read the freshly cleared memo and raised KeyError."""
        graph = random_dag(10, seed=11)
        delays_list = [random_delays(graph, seed) for seed in range(12)]
        expected = [
            (tuple(timing.asap), tuple(timing.tail), timing.critical)
            for timing in fastsched.batched_timing(graph, delays_list)
        ]
        fastsched.compile_graph(graph)._timing_cache.clear()
        monkeypatch.setattr(fastsched, "TIMING_MEMO_ENTRIES", 4)
        # warm a few rows so the next batch sees genuine memo hits...
        fastsched.batched_timing(graph, delays_list[:3])
        # ...then resolve hits and misses together: the misses overflow
        # the 4-entry memo and clear it mid-call
        batched = fastsched.batched_timing(graph, delays_list)
        assert [(tuple(t.asap), tuple(t.tail), t.critical)
                for t in batched] == expected
