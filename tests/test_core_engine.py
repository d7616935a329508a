"""Correctness tests for the shared evaluation engine.

The engine's contract is *behavioural transparency*: with the cache
enabled it must produce results byte-identical to the uncached
algorithms, across benchmarks, bounds, and schedulers — while doing
strictly less scheduling work.
"""

import pytest

from repro.bench import diffeq, ewf, fir16
from repro.dfg import DFGBuilder
from repro.errors import ReproError
from repro.library import ResourceLibrary, ResourceVersion, paper_library
from repro.core import EvaluationEngine, find_design, sweep_bounds
from repro.core.engine import allocation_signature


@pytest.fixture(scope="module")
def lib():
    return paper_library()


def result_fingerprint(result):
    """Every observable field of a DesignResult, comparably encoded."""
    return {
        "allocation": {op: v.name for op, v in result.allocation.items()},
        "starts": dict(result.schedule.starts),
        "delays": dict(result.schedule.delays),
        "instances": [(i.name, i.version.name, i.ops)
                      for i in result.binding.instances],
        "op_to_instance": dict(result.binding.op_to_instance),
        "copies": dict(result.instance_copies),
        "latency": result.latency,
        "area": result.area,
        "reliability": result.reliability,
    }


BOUND_GRID = [
    (fir16, 10, 9),
    (fir16, 11, 11),
    (fir16, 12, 8),
    (ewf, 14, 9),
    (ewf, 16, 11),
    (diffeq, 5, 12),
    (diffeq, 6, 11),
]


class TestEngineTransparency:
    @pytest.mark.parametrize("make,latency_bound,area_bound", BOUND_GRID,
                             ids=lambda v: getattr(v, "__name__", str(v)))
    def test_cache_on_equals_cache_off(self, lib, make, latency_bound,
                                       area_bound):
        cached = find_design(make(), lib, latency_bound, area_bound,
                             engine=EvaluationEngine())
        reference = find_design(make(), lib, latency_bound, area_bound,
                                engine=EvaluationEngine(cache=False))
        assert result_fingerprint(cached) == result_fingerprint(reference)

    def test_shared_engine_across_sweep_matches_cold_engines(self, lib):
        shared = EvaluationEngine()
        warm = sweep_bounds(fir16(), lib, [10, 11], [8, 9], engine=shared)
        cold = [find_design(fir16(), lib, lb, ab,
                            engine=EvaluationEngine(cache=False))
                for lb in (10, 11) for ab in (8, 9)]
        for point, reference in zip(warm, cold):
            assert result_fingerprint(point.result) == \
                result_fingerprint(reference)

    def test_evaluate_matches_all_schedulers(self, lib):
        graph = diffeq()
        allocation = {op.op_id: lib.fastest_smallest(op.rtype)
                      for op in graph}
        for scheduler in ("auto", "density", "list"):
            on = EvaluationEngine()
            off = EvaluationEngine(cache=False)
            # evaluate twice on the warm engine: the second answer must
            # come from the memo and still equal the reference
            first = on.evaluate(graph, allocation, 7, scheduler=scheduler)
            again = on.evaluate(graph, allocation, 7, scheduler=scheduler)
            reference = off.evaluate(graph, allocation, 7,
                                     scheduler=scheduler)
            assert on.stats.hits == 1
            assert again is first
            assert first.area == reference.area
            assert first.latency == reference.latency
            assert first.schedule.starts == reference.schedule.starts
            assert first.binding.op_to_instance == \
                reference.binding.op_to_instance


class TestCacheBehaviour:
    def test_find_design_populates_and_hits_the_cache(self, lib):
        engine = EvaluationEngine()
        find_design(fir16(), lib, 10, 9, engine=engine)
        stats = engine.stats
        assert stats.requests > 0
        # within one search, dominance pruning now skips the duplicate
        # evaluations that used to produce memo hits — but the caches
        # must be populated: a second identical search answers from them
        assert stats.list_probe_hits > 0
        assert stats.timing_hits > 0
        assert stats.incremental_timings > 0
        requests_first = stats.requests
        find_design(fir16(), lib, 10, 9, engine=engine)
        assert stats.hits > 0
        assert stats.hit_rate > 0.1
        assert stats.requests <= 2 * requests_first
        # caching must strictly reduce scheduler executions: even two
        # cached searches run fewer schedules than one uncached search
        reference = EvaluationEngine(cache=False)
        find_design(fir16(), lib, 10, 9, engine=reference)
        assert stats.schedules_run < reference.stats.schedules_run

    def test_bound_aware_density_reuse(self, lib):
        graph = fir16()
        allocation = {op.op_id: lib.fastest_smallest(op.rtype)
                      for op in graph}
        engine = EvaluationEngine(scheduler="density")
        loose = engine.evaluate(graph, allocation, 14)
        schedules_after_loose = engine.stats.density_schedules
        tight = engine.evaluate(graph, allocation, 11)
        # the tighter scan is a prefix of the looser one: every density
        # point is served from the cache, no new schedules run
        assert engine.stats.density_schedules == schedules_after_loose
        reference = EvaluationEngine(cache=False, scheduler="density")
        expected = reference.evaluate(graph, allocation, 11)
        assert tight.area == expected.area
        assert tight.latency == expected.latency
        assert loose.area <= tight.area

    def test_content_addressed_graph_identity(self, lib):
        # rebuilding the same benchmark must hit the cache built by the
        # first object
        engine = EvaluationEngine()
        allocation_of = lambda g: {op.op_id: lib.fastest_smallest(op.rtype)
                                   for op in g}
        first = fir16()
        second = fir16()
        assert first is not second
        engine.evaluate(first, allocation_of(first), 10)
        before = engine.stats.schedules_run
        engine.evaluate(second, allocation_of(second), 10)
        assert engine.stats.hits == 1
        assert engine.stats.schedules_run == before

    def test_same_version_names_from_other_library_do_not_alias(self):
        # two libraries reusing a version name with different numbers
        # must not share cache entries
        graph = DFGBuilder("alias")
        a = graph.adder(op_id="+a")
        graph.adder(deps=[a], op_id="+b")
        graph = graph.build()

        def library_with(delay):
            return ResourceLibrary([
                ResourceVersion("add", "adder1", area=1, delay=delay,
                                reliability=0.99),
            ])

        engine = EvaluationEngine()
        slow = library_with(2)
        fast = library_with(1)
        first = engine.evaluate(
            graph, {op.op_id: slow.version("adder1") for op in graph}, 6)
        second = engine.evaluate(
            graph, {op.op_id: fast.version("adder1") for op in graph}, 6)
        assert first.latency == 4
        assert second.latency == 2
        assert engine.stats.hits == 0

    def test_in_place_graph_mutation_invalidates_the_record(self, lib):
        # adding an edge keeps the op count but changes the structure;
        # the engine must notice and not serve stale timings
        builder = DFGBuilder("mutating")
        builder.adder(op_id="+x")
        builder.adder(op_id="+y")
        graph = builder.build()
        allocation = {op.op_id: lib.version("adder1") for op in graph}
        engine = EvaluationEngine()
        assert engine.min_latency(graph, allocation) == 2  # parallel
        graph.add_edge("+x", "+y")
        assert engine.min_latency(graph, allocation) == 4  # now a chain

    def test_clear_and_eviction(self, lib):
        # eviction is now per-layer LRU, not clear-all: a tiny budget
        # keeps every layer at its (1-entry) bound instead of nuking
        # the whole cache, and evicted entries are simply recomputed
        engine = EvaluationEngine(max_entries=1)
        graph = diffeq()
        allocation = {op.op_id: lib.fastest_smallest(op.rtype)
                      for op in graph}
        first = engine.evaluate(graph, allocation, 7)
        assert engine.stats.evictions > 0
        for name, size in engine.layer_sizes().items():
            assert size <= engine.layer_capacities[name], name
        # and a post-eviction evaluation still answers correctly
        second = engine.evaluate(graph, allocation, 7)
        assert second.area == first.area
        assert second.schedule.starts == first.schedule.starts
        # clear() still empties everything on demand
        engine.clear()
        assert engine.cache_size() == 0

    def test_rejects_unknown_scheduler_and_area_model(self, lib):
        graph = diffeq()
        allocation = {op.op_id: lib.fastest_smallest(op.rtype)
                      for op in graph}
        engine = EvaluationEngine()
        with pytest.raises(ReproError):
            engine.evaluate(graph, allocation, 7, scheduler="magic")
        with pytest.raises(ReproError):
            EvaluationEngine(scheduler="magic")
        with pytest.raises(ReproError):
            EvaluationEngine(area_model="magic")


class TestIncrementalTiming:
    def test_latency_with_delay_matches_full_asap(self, lib):
        from repro.hls.timing import asap_latency

        graph = ewf()
        allocation = {op.op_id: lib.most_reliable(op.rtype) for op in graph}
        delays = {op_id: v.delay for op_id, v in allocation.items()}
        engine = EvaluationEngine()
        for op in graph:
            for new_delay in (1, 2, 3):
                incremental = engine.latency_with_delay(
                    graph, delays, op.op_id, new_delay)
                trial = dict(delays)
                trial[op.op_id] = new_delay
                assert incremental == asap_latency(graph, trial), \
                    f"mismatch for {op.op_id} -> {new_delay}"


class TestListTieBreak:
    """The count-increment loop breaks probe ties by
    ``(latency, unit area, version name)`` — deterministically."""

    @staticmethod
    def _symmetric_case():
        """Two mirror-image subgraphs whose versions tie on delay and
        area: the first increment must go to the alphabetically
        smaller version name."""
        builder = DFGBuilder("tie")
        source_a = builder.adder(op_id="sa")
        for index in range(3):
            builder.adder(deps=[source_a], op_id=f"a{index}")
        source_b = builder.mul(op_id="sb")
        for index in range(3):
            builder.mul(deps=[source_b], op_id=f"b{index}")
        graph = builder.build()
        library = ResourceLibrary([
            ResourceVersion("add", "va", area=2, delay=1, reliability=0.99),
            ResourceVersion("mul", "vb", area=2, delay=1, reliability=0.99),
        ])
        allocation = {op.op_id: library.version("va" if op.rtype == "add"
                                                else "vb")
                      for op in graph}
        return graph, allocation

    def test_first_increment_goes_to_smaller_name(self):
        graph, allocation = self._symmetric_case()

        class RecordingEngine(EvaluationEngine):
            def __init__(self):
                super().__init__()
                self.probed = []

            def _list_probe(self, graph, record, signature, allocation,
                            counts, impl):
                self.probed.append(dict(counts))
                return super()._list_probe(graph, record, signature,
                                           allocation, counts, impl)

        engine = RecordingEngine()
        evaluation = engine.evaluate(graph, allocation, 2, scheduler="list")
        assert evaluation is not None
        # both sides are equally over-subscribed (probing either side
        # leaves latency 3 > bound 2) and tie on unit area, so the
        # first increment lands on 'va' < 'vb'
        increments = [counts for counts in engine.probed
                      if sum(counts.values()) == 5]
        assert increments[-1] == {"va": 3, "vb": 2}
        assert evaluation.binding.instance_counts() == {"va": 3, "vb": 3}

    def test_allocation_order_does_not_matter(self):
        graph, allocation = self._symmetric_case()
        forward = dict(sorted(allocation.items()))
        backward = dict(sorted(allocation.items(), reverse=True))
        assert list(forward) != list(backward)
        results = [
            EvaluationEngine().evaluate(graph, order, 2, scheduler="list")
            for order in (forward, backward)
        ]
        assert results[0].schedule.starts == results[1].schedule.starts
        assert results[0].binding.op_to_instance == \
            results[1].binding.op_to_instance
        assert allocation_signature(forward) == \
            allocation_signature(backward)


class TestParallelSweep:
    def test_workers_match_serial(self, lib):
        serial = sweep_bounds(fir16(), lib, [10, 11], [8, 9],
                              engine=EvaluationEngine())
        parallel = sweep_bounds(fir16(), lib, [10, 11], [8, 9], workers=2)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert (a.latency_bound, a.area_bound) == \
                (b.latency_bound, b.area_bound)
            assert result_fingerprint(a.result) == result_fingerprint(b.result)


class _DictClient:
    """Minimal in-process cache client: serves and stores a dict."""

    def __init__(self):
        self.store = {}

    def get(self, layer, key):
        try:
            return True, self.store[(layer, key)]
        except KeyError:
            return False, None

    def get_many(self, layer, keys):
        return {key: self.store[(layer, key)] for key in keys
                if (layer, key) in self.store}

    def put_many(self, entries):
        for layer, key, value in entries:
            self.store[(layer, key)] = value
        return len(entries)

    def close(self):
        pass


class TestEngineLifetime:
    """A dropped engine is freed by reference counting alone: no
    reference cycle may tie it (and every cached schedule it holds) to
    the next full garbage collection."""

    @staticmethod
    def _freed_without_gc(lib, attach):
        import gc
        import weakref

        from repro.core.engine import RemoteCacheBackend

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            engine = EvaluationEngine(max_entries=64)  # force evictions
            if attach:
                engine.attach_backend(RemoteCacheBackend(_DictClient()))
            find_design(fir16(), lib, 10, 9, engine=engine)
            if attach:
                engine.detach_backend()
            assert engine.stats.evictions > 0
            ref = weakref.ref(engine)
            del engine
            return ref() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_fresh_engine_is_freed_without_gc(self, lib):
        assert self._freed_without_gc(lib, attach=False)

    def test_detached_engine_is_freed_without_gc(self, lib):
        assert self._freed_without_gc(lib, attach=True)
