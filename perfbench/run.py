"""End-to-end benchmark of the reliability-centric HLS flow.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half
the time untraced and half with span wrappers installed, reports the
per-layer metrics and writes a Chrome trace-event file under
``.perfbench-out/``.  ``--workload all`` runs every workload in its own
process.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-up rounds per run; ``setup_s`` is their median.
SETUP_ROUNDS = 3

#: Workload names (``--workload all`` runs each in turn).
WORKLOAD_NAMES = ("paper", "wide", "cli", "remote_unix", "remote_tcp")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "req_p50_ms": "ms",
             "peak_rss_mb": "MB", "child_peak_rss_mb": "MB"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _check_checkout() -> None:
    """The benchmark measures the program in this checkout, nothing else."""
    needed = [os.path.join(ROOT, "src", "repro", "__init__.py"),
              os.path.join(ROOT, "tests", "data", "golden_values.json")]
    missing = [path for path in needed if not os.path.isfile(path)]
    if missing:
        sys.exit(f"perfbench: not a repository checkout, missing "
                 f"{', '.join(os.path.relpath(p, ROOT) for p in missing)}")


def _environment(seed: int) -> dict:
    import networkx
    import numpy

    return {"seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "networkx": networkx.__version__,
            "machine": platform.machine()}


def _passes(workload, run, budget: float) -> tuple:
    """Whole passes until *budget* seconds have gone (at least
    ``workload.min_passes``); returns each pass's reference seconds and
    raw seconds."""
    walls, raw = [], []
    start = time.perf_counter()
    while len(walls) < workload.min_passes \
            or time.perf_counter() - start < budget:
        workload.before_pass()
        _, seconds, factor = run.speed.around(workload.run_pass)
        run.end_pass()
        walls.append(seconds * factor)
        raw.append(seconds)
        workload.after_pass()
    return walls, raw


def _layer_metrics(run, passes: int, overhead: float, imports: dict) -> dict:
    """Per-layer numbers from the traced passes, per pass."""
    tracer, engine, extra = run.tracer, run.engine, run.extra
    from tracer import SERVICE_OPS

    def per_pass(value):
        return value / passes

    density_calls = tracer.calls("hls", "density")
    search_calls = sum(n for (layer, _), (n, _) in tracer.totals.items()
                       if layer == "search")
    m = {
        "cli.import_ms": (imports["cli.import_ms"], "ms"),
        "cli.import_networkx_ms": (imports["cli.import_networkx_ms"], "ms"),
        "cli.import_numpy_ms": (imports["cli.import_numpy_ms"], "ms"),
        "dfg.build_ms": (per_pass(tracer.ms("dfg", "build")), "ms"),
        "dfg.build_calls": (per_pass(tracer.calls("dfg", "build")), "count"),
        "dfg.compile_ms": (per_pass(tracer.ms("dfg", "compile")), "ms"),
        "dfg.compile_calls": (per_pass(tracer.calls("dfg", "compile")),
                              "count"),
        "hls.timing_ms": (per_pass(tracer.ms("hls", "timing")), "ms"),
        "hls.timing_calls": (per_pass(tracer.calls("hls", "timing")),
                             "count"),
        "hls.density_ms": (per_pass(tracer.ms("hls", "density")), "ms"),
        "hls.density_calls": (per_pass(density_calls), "count"),
        "hls.density_reference_ms": (
            per_pass(tracer.ms("hls", "density_reference")), "ms"),
        "hls.density_reference_calls": (
            per_pass(tracer.calls("hls", "density_reference")), "count"),
        "hls.density_fallback_ratio": (
            tracer.calls("hls", "density_reference") / density_calls
            if density_calls else 0.0, "ratio"),
        "hls.list_ms": (per_pass(tracer.ms("hls", "list")), "ms"),
        "hls.list_calls": (per_pass(tracer.calls("hls", "list")), "count"),
        "hls.bind_ms": (per_pass(tracer.ms("hls", "bind")), "ms"),
        "hls.bind_calls": (per_pass(tracer.calls("hls", "bind")), "count"),
        "hls.self_ms": (per_pass(tracer.layer_self_ms("hls")), "ms"),
        "reliability.compose_ms": (
            per_pass(tracer.ms("reliability", "compose")), "ms"),
        "reliability.compose_calls": (
            per_pass(tracer.calls("reliability", "compose")), "count"),
        "search.self_ms": (per_pass(tracer.layer_self_ms("search")), "ms"),
        "search.evals_per_request": (
            engine["requests"] / search_calls if search_calls else 0.0,
            "count"),
        "engine.evaluate_ms": (per_pass(tracer.ms("engine", "evaluate")),
                               "ms"),
        "engine.self_ms": (per_pass(tracer.layer_self_ms("engine")), "ms"),
        "engine.requests": (per_pass(engine["requests"]), "count"),
        "engine.hit_rate": (engine["hits"] / engine["requests"]
                            if engine["requests"] else 0.0, "ratio"),
        "engine.batch_fill": (engine["batched_evals"] / engine["batch_items"]
                              if engine["batch_items"] else 0.0, "ratio"),
        "engine.schedules_run": (per_pass(engine["density_schedules"]
                                          + engine["list_schedules"]),
                                 "count"),
        "engine.evictions": (per_pass(engine["evictions"]), "count"),
        "cache_store.load_ms": (per_pass(tracer.ms("cache_store", "load")),
                                "ms"),
        "cache_store.save_ms": (per_pass(tracer.ms("cache_store", "save")),
                                "ms"),
        "cache_store.snapshot_bytes": (
            extra.get("cache_store.snapshot_bytes", 0), "bytes"),
        "wire.encode_ms": (per_pass(tracer.ms("wire", "encode")), "ms"),
        "wire.decode_ms": (per_pass(tracer.ms("wire", "decode")), "ms"),
        "wire.frames": (per_pass(tracer.counters.get("wire.frames", 0)),
                        "count"),
        "wire.bytes": (per_pass(tracer.counters.get("wire.bytes", 0)),
                       "bytes"),
        "service.rpc_ms": (per_pass(tracer.ms("service", *SERVICE_OPS)),
                           "ms"),
        "service.rpc_calls": (per_pass(tracer.calls("service", *SERVICE_OPS)),
                              "count"),
        "service.wait_ms": (per_pass(tracer.layer_self_ms("service")), "ms"),
        "service.server_requests": (per_pass(extra.get("server_requests", 0)),
                                    "count"),
        "service.server_jobs": (per_pass(extra.get("server_jobs", 0)),
                                "count"),
        "service.server_hit_rate": (
            extra["server_hits"] / extra["server_gets"]
            if extra.get("server_gets") else 0.0, "ratio"),
        "service.server_job_errors": (
            per_pass(extra.get("server_job_errors", 0)), "count"),
        "other.self_ms": (per_pass(tracer.layer_self_ms("request")), "ms"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    for op in SERVICE_OPS:
        m[f"service.{op}_ms"] = (per_pass(tracer.ms("service", op)), "ms")
        m[f"service.{op}_calls"] = (per_pass(tracer.calls("service", op)),
                                    "count")
    return m


def run_one(args) -> int:
    _check_checkout()
    os.environ.pop("REPRO_SCHEDULER_IMPL", None)
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from harness import (OUT_DIR, REFERENCE_CALIBRATION_S, Run,
                         central_median, import_breakdown, quantile)
    from tracer import Tracer, install

    os.chdir(ROOT)
    os.makedirs(os.path.join(OUT_DIR, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(ROOT, OUT_DIR, "tmp")
    # byte-compile once, untimed, so no run pays it inside set-up
    import compileall

    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=2)

    import repro

    if not os.path.abspath(repro.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from this checkout")
    from workloads import WORKLOADS

    tracer = Tracer()
    run = Run(ROOT, args.seed, tracer)
    env = _environment(args.seed)
    workload = WORKLOADS[args.workload](run)
    try:
        raw_setup = []
        for _ in range(SETUP_ROUNDS):
            seconds, _elapsed, factor = run.speed.around(
                workload.setup_round)
            raw_setup.append(seconds)
            run.setup_s.append(seconds * factor)
        workload.prepare()
        budget = args.seconds / 2 if args.trace else args.seconds
        walls, raw_walls = _passes(workload, run, budget)
        if args.trace:
            uninstall = install(tracer)
            try:
                traced, _ = _passes(workload, run, budget)
            finally:
                uninstall()
            imports = import_breakdown(run)
    finally:
        try:
            workload.close()
        finally:
            run.stop_children()

    if args.trace:
        overhead = statistics.median(traced) / statistics.median(walls)
        layers = _layer_metrics(run, len(traced), overhead, imports)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}
        trace_path = os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write_chrome_trace(trace_path, {
            "workload": args.workload, "environment": env,
            "top_importers": imports["top_importers"],
            "traced_passes": len(traced)})
        print(f"trace: {trace_path} ({len(tracer.spans)} spans)")
        print("top importers: " + ", ".join(
            f"{t['module']} {t['cumulative_ms']:.1f} ms"
            for t in imports["top_importers"]))
    else:
        self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {
            "setup_s": statistics.median(run.setup_s),
            "wall_s": statistics.median(walls),
            "req_p50_ms": central_median(
                [statistics.median(samples)
                 for samples in run.latencies.values()]) * 1000.0,
            "peak_rss_mb": self_rss / 1024.0,
            "child_peak_rss_mb": child_rss / 1024.0,
        }
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in values.items()}
    latencies = [x for samples in run.latencies.values() for x in samples]
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"host speed: calibration loop median "
          f"{statistics.median(run.speed.samples) * 1000:.1f} ms "
          f"(reference {REFERENCE_CALIBRATION_S * 1000:.0f} ms); "
          f"unscaled setup_s {statistics.median(raw_setup):.4g} s, "
          f"wall_s {statistics.median(raw_walls):.4g} s")
    print(f"workload {args.workload}: {len(walls)} untraced passes, "
          f"{len(latencies)} untraced requests, "
          f"{run.attempted} attempted, {run.failed} failed "
          f"(fail_ratio {run.failed / max(run.attempted, 1):.4f})")
    if len(latencies) >= 100:
        print(f"  req_p90_ms: {quantile(latencies, 0.9) * 1000.0:.3f} ms")
    else:
        print(f"  req_p90_ms: not reported ({len(latencies)} requests; "
              f"a p90 needs 100)")
    for name, entry in metrics.items():
        print(f"  {name}: {entry['value']:.6g} {entry['unit']}")
    for problem in run.problems:
        print(f"  FAILED {problem}")
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {done.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        _check_checkout()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
