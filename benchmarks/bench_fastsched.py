"""Benchmark: the compiled scheduling core on cold Table 2 sweeps.

The caches of PRs 1-3 made *repeated* evaluations cheap; this
benchmark measures the complementary claim of the compiled index-based
scheduling core (``dfg/compiled.py`` + ``hls/fastsched.py``): *cold*
evaluations — workloads the engine has never seen — are fast too.

Per Table 2 benchmark it runs the full (Ld, Ad) sweep three ways:

* ``reference``: a fresh engine forced onto the original dict-based
  kernels (``scheduler_impl="reference"``),
* ``fast``: a fresh engine on the compiled core (the default),
* ``warm``: the fast engine run again, answering from its caches.

It asserts the reference and fast paths produce **identical designs**
(start steps, areas, reliabilities) — the correctness gate — and that
the fast path clears a wall-clock speedup floor (``FASTSCHED_MIN_
SPEEDUP``; relaxed under ``CI`` where clocks are noisy, and the
equivalence assertions carry the claim).  Results are written to
``BENCH_fastsched.json`` (schema in README.md).

Run with ``-s`` to see the table:

    PYTHONPATH=src python -m pytest -s benchmarks/bench_fastsched.py

or standalone (the CI perf-smoke job does), where ``--quick`` trims
the grids and only the equivalence assertions can fail:

    PYTHONPATH=src python benchmarks/bench_fastsched.py --quick
"""

import os
import time

from repro.bench import get_benchmark
from repro.core import EvaluationEngine, sweep_bounds
from repro.experiments import ExperimentTable, paper_data
from repro.library import paper_library

from benchjson import write_bench_json

WORKLOADS = ("fir", "ew", "diffeq")


def _grid(benchmark: str, quick: bool = False):
    grid = paper_data.table2_grid(benchmark)
    latencies = sorted({latency for latency, _ in grid})
    areas = sorted({area for _, area in grid})
    if quick:
        latencies, areas = latencies[:2], areas[:2]
    return latencies, areas


def _run(benchmark: str, engine: EvaluationEngine, quick: bool = False):
    latencies, areas = _grid(benchmark, quick)
    graph = get_benchmark(benchmark)
    library = paper_library()
    started = time.perf_counter()
    points = sweep_bounds(graph, library, latencies, areas, engine=engine)
    return points, time.perf_counter() - started


def assert_identical_points(reference, fast, context: str) -> None:
    """The hard gate: the two scheduler cores must agree exactly."""
    assert len(reference) == len(fast), context
    for ref, fst in zip(reference, fast):
        where = (context, ref.latency_bound, ref.area_bound)
        assert (ref.latency_bound, ref.area_bound) == \
            (fst.latency_bound, fst.area_bound), where
        if ref.result is None:
            assert fst.result is None, where
            continue
        assert fst.result is not None, where
        assert ref.result.schedule.starts == fst.result.schedule.starts, where
        assert ref.result.area == fst.result.area, where
        assert ref.result.latency == fst.result.latency, where
        assert ref.result.reliability == fst.result.reliability, where


def measure(quick: bool = False):
    rows = {}
    for benchmark in WORKLOADS:
        reference = EvaluationEngine(scheduler_impl="reference")
        fast = EvaluationEngine(scheduler_impl="fast")
        ref_points, ref_time = _run(benchmark, reference, quick)
        fast_points, fast_time = _run(benchmark, fast, quick)
        _, warm_time = _run(benchmark, fast, quick)
        assert_identical_points(ref_points, fast_points, benchmark)
        rows[benchmark] = {
            "grid_points": len(fast_points),
            "reference_cold_s": ref_time,
            "fast_cold_s": fast_time,
            "fast_warm_s": warm_time,
            "cold_speedup": ref_time / fast_time,
            "warm_speedup_over_cold_fast": fast_time / warm_time,
            "fast_density_schedules": fast.stats.density_schedules,
            "fast_list_schedules": fast.stats.list_schedules,
        }
    return rows


def report(rows, floor=None):
    table = ExperimentTable(
        title="Compiled scheduling core on cold Table 2 sweep grids",
        headers=("benchmark", "grid", "reference s", "fast s", "speedup",
                 "warm s", "warm/fast-cold"),
    )
    total_ref = total_fast = 0.0
    for benchmark, row in rows.items():
        total_ref += row["reference_cold_s"]
        total_fast += row["fast_cold_s"]
        table.add_row(
            benchmark,
            row["grid_points"],
            round(row["reference_cold_s"], 3),
            round(row["fast_cold_s"], 3),
            round(row["cold_speedup"], 2),
            round(row["fast_warm_s"], 3),
            round(row["warm_speedup_over_cold_fast"], 2),
        )
    overall = total_ref / total_fast
    table.add_note(f"overall cold speedup {overall:.2f}x "
                   f"({total_ref:.2f}s -> {total_fast:.2f}s)")
    if floor is not None:
        table.add_note(f"asserted floor: {floor}x")
    path = write_bench_json("fastsched", {
        "workloads": rows,
        "overall_cold_speedup": overall,
        "reference_total_s": total_ref,
        "fast_total_s": total_fast,
    })
    print("\n" + table.as_text())
    print(f"\nresults written to {path}")
    return overall


def test_fastsched_cold_speedup():
    rows = measure()
    # equivalence (asserted inside measure) is the hard gate; the
    # wall-clock floor documents the perf claim on a quiet machine and
    # is deliberately loose on shared CI runners
    floor = float(os.environ.get(
        "FASTSCHED_MIN_SPEEDUP", "1.2" if os.environ.get("CI") else "5.0"))
    overall = report(rows, floor)
    assert overall >= floor, \
        f"expected >= {floor}x cold speedup, measured {overall:.2f}x"
    for benchmark, row in rows.items():
        assert row["fast_warm_s"] <= row["fast_cold_s"], benchmark


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="trim the grids (CI smoke); only scheduler "
                             "mismatches fail, never timing noise")
    args = parser.parse_args()
    if args.quick:
        report(measure(quick=True))
        print("fast == reference on the quick grids: ok")
    else:
        test_fastsched_cold_speedup()
