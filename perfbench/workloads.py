"""The benchmark's workloads.

Every workload is a closed loop: one request at a time, each a single
public call (or one CLI process) ending in a design or a
``NoSolutionError`` verdict.  A workload supplies:

``setup_round()``
    One fresh set-up, timed: what a user pays before the first request.
    Run several times; the run reports the median.
``prepare()``
    Untimed: inputs from the seed and the reference answers.
``before_pass()`` / ``run_pass()`` / ``after_pass()``
    One pass over the request list; only ``run_pass`` is timed.

Calls into the program go through module attributes (``core.find_design``
rather than a name bound at import) so the traced run's wrappers see
them.
"""

from __future__ import annotations

import json
import os
import random
import secrets
import shutil
import subprocess
import time

import checks
from harness import FAILED, OUT_DIR, Run
from repro import bench, core, paper_library
from repro.core import cache_server
from repro.dfg import compiled as dfg_compiled
from repro.dfg import random_dag
from repro.errors import NoSolutionError
from repro.experiments import paper_data

HERE = os.path.dirname(os.path.abspath(__file__))

#: The modules a fresh in-process run imports before its first request.
IMPORT_PROBE = ("import repro.core, repro.bench, repro.dfg, "
                "repro.experiments.paper_data; "
                "from repro import paper_library; paper_library()")

TABLE2_BENCHMARKS = ("fir", "ew", "diffeq")


def table2_cells():
    return [(name, ld, ad) for name in TABLE2_BENCHMARKS
            for ld, ad in paper_data.table2_grid(name)]


class Workload:
    min_passes = 1

    def __init__(self, run: Run):
        self.run = run
        self.library = paper_library()

    def setup_round(self) -> float:
        return self.run.timed_call(self.run.python("-c", IMPORT_PROBE),
                                   "import probe")

    def prepare(self) -> None:
        pass

    def before_pass(self) -> None:
        pass

    def run_pass(self) -> None:
        raise NotImplementedError

    def after_pass(self) -> None:
        pass

    def close(self) -> None:
        pass

    def _check_result(self, outcome, graph_of, ld: int, ad: int,
                      expect_feasible=None) -> list:
        """Problems with one search outcome; *graph_of* maps the
        returned value to ``(graph, design)``."""
        if isinstance(outcome, NoSolutionError):
            return (["infeasible verdict for feasible bounds"]
                    if expect_feasible else [])
        graph, design = graph_of(outcome)
        problems = checks.check_design(design, graph, ld, ad)
        if expect_feasible is False:
            problems.append("design returned for provably infeasible bounds")
        return problems


# ----------------------------------------------------------------------
class Paper(Workload):
    """Every Table 2 cell under the three methods plus the Figure 8
    points, on one fresh engine per pass, checked against the golden
    values."""

    METHODS = {"baseline": "baseline_design", "find": "find_design",
               "combined": "combined_design", "fig8": "find_design"}

    def prepare(self) -> None:
        self.golden = checks.golden_cells(checks.load_golden(self.run.root))
        self.cells = [(method, name, ld, ad)
                      for name, ld, ad in table2_cells()
                      for method in ("baseline", "find", "combined")]
        self.cells += [("fig8", "fir", ld, paper_data.FIG8A_AREA_BOUND)
                       for ld in paper_data.FIG8A_LATENCIES]
        self.cells += [("fig8", "fir", paper_data.FIG8B_LATENCY_BOUND, ad)
                       for ad in paper_data.FIG8B_AREAS]

    def run_pass(self) -> None:
        run, library = self.run, self.library
        engine = core.EvaluationEngine()
        for key in self.cells:
            method, name, ld, ad = key
            search = self.METHODS[method]

            def call():
                graph = bench.get_benchmark(name)
                return graph, getattr(core, search)(graph, library, ld, ad,
                                                    engine=engine)

            label = f"{method} {name} {ld}/{ad}"
            outcome = run.request(label, call, (NoSolutionError,))
            if outcome is FAILED:
                continue
            value = None if isinstance(outcome, NoSolutionError) \
                else outcome[1].reliability
            run.judge(label, checks.check_golden(value, self.golden[key])
                      + self._check_result(outcome, lambda o: o, ld, ad))
        run.add_engine_stats(engine.stats.as_dict())


# ----------------------------------------------------------------------
class Wide(Workload):
    """Loose and large requests: the density fallback cliff, infeasible
    bounds and graph construction at size."""

    #: Paper benchmarks at latency bounds far beyond their critical
    #: paths: wide time frames, where the density scheduler falls back
    #: to its reference.  fir16 at area 2 is below the area floor.
    LOOSE = [("fir", 50, 2), ("fir", 60, 6), ("ew", 60, 4), ("fir", 40, 4),
             ("ew", 40, 6)]
    RANDOM_OPS = 50
    RANDOM_AREA = 20
    BUILD_OPS = 800

    def prepare(self) -> None:
        library, seed = self.library, self.run.seed
        self.requests = []
        for name, ld, ad in self.LOOSE:
            graph = bench.get_benchmark(name)
            self.requests.append((name, graph, ld, ad, self._expect(
                graph, ld, ad, feasible=ad > 2)))
        graph = random_dag(self.RANDOM_OPS, seed=seed)
        ld = checks.fastest_critical_path(graph, library) + 2
        self.requests.append((graph.name, graph, ld, self.RANDOM_AREA,
                              self._expect(graph, ld, self.RANDOM_AREA,
                                           None)))

    def _expect(self, graph, ld, ad, feasible):
        """False where a floor proves the bounds infeasible, else
        *feasible* (``None``: either verdict is acceptable)."""
        if checks.decided_infeasible(graph, self.library, ld, ad):
            return False
        return feasible

    def run_pass(self) -> None:
        run, library = self.run, self.library
        for name, graph, ld, ad, expect in self.requests:
            # independent requests: each search starts on a fresh engine
            engine = core.EvaluationEngine()
            label = f"find {name} {ld}/{ad}"
            outcome = run.request(
                label, lambda: core.find_design(graph, library, ld, ad,
                                                engine=engine),
                (NoSolutionError,))
            if outcome is not FAILED:
                run.judge(label, self._check_result(
                    outcome, lambda design: (graph, design), ld, ad, expect))
            run.add_engine_stats(engine.stats.as_dict())

        def build():
            with run.tracer.span("dfg", "build"):
                graph = random_dag(self.BUILD_OPS, seed=run.seed + 1)
            return graph, dfg_compiled.compile_graph(graph)

        label = f"build random_dag({self.BUILD_OPS}) + compile"
        outcome = run.request(label, build)
        if outcome is not FAILED:
            graph, compiled = outcome
            problems = []
            if self.BUILD_OPS != compiled.n_ops \
                    or self.BUILD_OPS != len(graph):
                problems.append(f"{compiled.n_ops} compiled operations")
            if compiled.n_edges != graph.edge_count():
                problems.append(f"{compiled.n_edges} compiled edges of "
                                f"{graph.edge_count()}")
            run.judge(label, problems)


# ----------------------------------------------------------------------
class Cli(Workload):
    """Cold ``python -m repro synth`` processes, half with a warm
    ``--cache-dir`` snapshot."""

    ANCHOR = ("fir", 10, 9)
    CELLS_PER_PASS = 4

    def __init__(self, run: Run):
        super().__init__(run)
        self.cache_dir = os.path.join(OUT_DIR, "cli-cache")
        self.spans_file = os.path.join(OUT_DIR,
                                       f"cli-spans-{os.getpid()}.json")

    def setup_round(self) -> float:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        return self.run.timed_call(
            self.run.python("-m", "repro", "experiment", "all",
                            "--cache-dir", self.cache_dir),
            "snapshot warm-up")

    def prepare(self) -> None:
        from repro.core import cache_store

        self.golden = checks.golden_cells(checks.load_golden(self.run.root))
        pool = [cell for cell in table2_cells() if cell != self.ANCHOR]
        random.Random(self.run.seed).shuffle(pool)
        self.pool, self.next_cell = pool, 0
        snapshot = cache_store.snapshot_path(self.cache_dir)
        self.run.extra["cache_store.snapshot_bytes"] = os.path.getsize(
            os.path.join(self.run.root, snapshot))

    def run_pass(self) -> None:
        cells = [self.ANCHOR]
        for _ in range(self.CELLS_PER_PASS - 1):
            cells.append(self.pool[self.next_cell % len(self.pool)])
            self.next_cell += 1
        for name, ld, ad in cells:
            outputs = []
            for warm in (False, True):
                args = ["synth", name, "-l", str(ld), "-a", str(ad), "--json"]
                if warm:
                    args += ["--cache-dir", self.cache_dir]
                label = f"{'warm' if warm else 'cold'} synth {name} {ld}/{ad}"
                done = self.run.request(label, lambda: self._invoke(args))
                if done is FAILED:
                    continue
                problems = self._check_output(done, name, ld, ad)
                outputs.append(done.stdout)
                if len(outputs) == 2 and outputs[0] != outputs[1]:
                    problems.append("warm-cache output differs from cold")
                self.run.judge(label, problems)

    def _invoke(self, args) -> subprocess.CompletedProcess:
        run = self.run
        if not run.tracer.enabled:
            return run.call(run.python("-m", "repro", *args))
        driver = os.path.join(HERE, "cli_driver.py")
        spans = os.path.join(run.root, self.spans_file)
        if os.path.exists(spans):
            os.remove(spans)
        done = run.call(run.python(driver, self.spans_file, "--", *args))
        with open(spans) as fh:
            data = json.load(fh)
        os.remove(spans)
        covered = run.tracer.merge_child(data, run.tracer.current_id())
        run.tracer.add_child_time(covered)
        run.add_engine_stats(data["engine"])
        return done

    def _check_output(self, done, name, ld, ad) -> list:
        expected = self.golden[("find", name, ld, ad)]
        if done.returncode == 2 and "no solution" in done.stderr:
            return checks.check_golden(None, expected)
        if done.returncode != 0:
            return [f"exit code {done.returncode}: {done.stderr[-300:]}"]
        try:
            summary = json.loads(done.stdout)
        except ValueError:
            return [f"unparseable output {done.stdout[:200]!r}"]
        problems = checks.check_golden(summary["reliability"], expected)
        if summary["latency"] > ld:
            problems.append(f"latency {summary['latency']} exceeds {ld}")
        if summary["area"] > ad:
            problems.append(f"area {summary['area']} exceeds {ad}")
        if (name, ld, ad) == self.ANCHOR \
                and f"{summary['reliability']:.5f}" != "0.59998":
            problems.append(f"anchor cell reports "
                            f"{summary['reliability']:.5f}, not 0.59998")
        return problems


# ----------------------------------------------------------------------
class Remote(Workload):
    """A ``cache-serve`` child: remote synthesis on a cold then a warm
    server, then a cold-L1 engine attached to it sweeping a fir16 grid."""

    min_passes = 2
    SWEEP = [(ld, ad) for ld in (10, 12, 14) for ad in (8, 10, 12)]

    def __init__(self, run: Run, transport: str):
        super().__init__(run)
        self.transport = transport
        self.token = secrets.token_hex(16) if transport == "tcp" else None
        self.spawned = 0
        self.server = None

    # -- server lifecycle ----------------------------------------------
    def _start_server(self):
        run = self.run
        self.spawned += 1
        if self.transport == "tcp":
            address, extra = "tcp://127.0.0.1:0", ["--auth-token", self.token]
        else:
            address = os.path.join(
                OUT_DIR, f"srv-{os.getpid()}-{self.spawned}.sock")
            extra = []
        proc = run.spawn(run.python("-m", "repro", "cache-serve",
                                    "--address", address, *extra),
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
        line = proc.stdout.readline()
        prefix = "cache server listening on "
        if not line.startswith(prefix):
            run.reap(proc, timeout=1.0)
            raise RuntimeError(f"cache-serve did not start: {line!r}")
        address = line[len(prefix):].strip()
        monitor = cache_server.CacheClient(address, auth_token=self.token)
        monitor.ping()
        return proc, address, monitor

    def _stop_server(self, server) -> None:
        proc, address, monitor = server
        try:
            monitor.shutdown()
        finally:
            monitor.close()
            proc.stdout.close()
            self.run.reap(proc)
            if self.transport == "unix" and os.path.exists(address):
                os.remove(address)

    def setup_round(self) -> float:
        t0 = time.perf_counter()
        server = self._start_server()
        elapsed = time.perf_counter() - t0
        self._stop_server(server)
        return elapsed

    def close(self) -> None:
        if self.server is not None:
            self._stop_server(self.server)
            self.server = None

    # -- passes --------------------------------------------------------
    def prepare(self) -> None:
        library = self.library
        engine = core.EvaluationEngine()
        self.cells = table2_cells()
        self.reference = {}
        for name, ld, ad in self.cells:
            self.reference[("synth", name, ld, ad)] = self._local(
                name, ld, ad, engine)
        for ld, ad in self.SWEEP:
            self.reference[("sweep", "fir", ld, ad)] = self._local(
                "fir", ld, ad, engine)
        self.fir = bench.get_benchmark("fir")

    def _local(self, name, ld, ad, engine):
        try:
            return checks.fingerprint(core.find_design(
                bench.get_benchmark(name), self.library, ld, ad,
                engine=engine))
        except NoSolutionError:
            return None

    def _server_stats(self) -> dict:
        with self.run.tracer.paused():
            self.monitor_calls += 1
            return self.server[2].stats()

    def before_pass(self) -> None:
        self.server = self._start_server()
        self.monitor_calls = 1  # the readiness ping

    def after_pass(self) -> None:
        if self.run.tracer.enabled:
            stats = self._server_stats()
            extra = self.run.extra
            polls = self.monitor_calls
            for key, value in (
                    ("server_requests", stats["requests"] - polls),
                    ("server_jobs", stats["jobs"]),
                    ("server_gets", stats["gets"]),
                    ("server_hits", stats["hits"]),
                    ("server_job_errors", stats["job_errors"])):
                extra[key] = extra.get(key, 0) + value
        self.close()

    def _compare(self, key, outcome, before, after, jobs: int) -> list:
        problems = []
        if after["jobs"] - before["jobs"] != jobs:
            problems.append(f"server ran {after['jobs'] - before['jobs']} "
                            f"jobs, expected {jobs} (fail-open?)")
        for counter in ("job_errors", "bad_frames"):
            if after[counter] != before[counter]:
                problems.append(f"server {counter} rose")
        got = None if isinstance(outcome, NoSolutionError) \
            else checks.fingerprint(outcome)
        if got != self.reference[key]:
            problems.append("differs from the same request computed locally")
        return problems

    def run_pass(self) -> None:
        run, library = self.run, self.library
        address = self.server[1]
        for phase in ("cold", "warm"):
            for name, ld, ad in self.cells:
                label = f"{phase} synthesize_remote {name} {ld}/{ad}"
                before = self._server_stats()
                outcome = run.request(label, lambda: core.synthesize_remote(
                    bench.get_benchmark(name), library, ld, ad,
                    address=address, auth_token=self.token),
                    (NoSolutionError,))
                if outcome is FAILED:
                    continue
                problems = self._compare(("synth", name, ld, ad), outcome,
                                         before, self._server_stats(), 1)
                if not isinstance(outcome, NoSolutionError):
                    problems += checks.check_design(
                        outcome, outcome.graph, ld, ad)
                run.judge(label, problems)

        engine = core.EvaluationEngine()
        with run.tracer.paused():
            attached = core.attach_engine(engine, address,
                                          auth_token=self.token)
        if not attached:
            run.judge("attach_engine", ["could not attach to the server"])
        for ld, ad in self.SWEEP:
            label = f"attached find_design fir {ld}/{ad}"
            before = self._server_stats()
            fallbacks = engine.stats.remote_fallbacks
            outcome = run.request(label, lambda: core.find_design(
                self.fir, library, ld, ad, engine=engine), (NoSolutionError,))
            if outcome is FAILED:
                continue
            problems = self._compare(("sweep", "fir", ld, ad), outcome,
                                     before, self._server_stats(), 0)
            if engine.stats.remote_fallbacks != fallbacks:
                problems.append("engine fell back to local caches")
            if not isinstance(outcome, NoSolutionError):
                problems += checks.check_design(outcome, self.fir, ld, ad)
            run.judge(label, problems)
        core.detach_engine(engine)
        run.add_engine_stats(engine.stats.as_dict())


WORKLOADS = {
    "paper": Paper,
    "wide": Wide,
    "cli": Cli,
    "remote_unix": lambda run: Remote(run, "unix"),
    "remote_tcp": lambda run: Remote(run, "tcp"),
}
