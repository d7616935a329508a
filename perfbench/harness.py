"""Request timing, failure accounting and child-process handling."""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

from tracer import Tracer

#: Where runs put sockets, cache dirs, span files and traces (ignored
#: by git; inside the checkout the benchmark runs from).
OUT_DIR = ".perfbench-out"

#: Engine counters summed over traced passes.
ENGINE_COUNTERS = ("requests", "hits", "batch_items", "batched_evals",
                   "density_schedules", "list_schedules", "evictions",
                   "remote_fallbacks")

_MAX_PROBLEMS = 20

#: What :meth:`Run.request` returns for a request that raised
#: something other than its expected verdict.
FAILED = object()

#: Seconds the calibration loop takes at the reference speed.
REFERENCE_CALIBRATION_S = 0.030
_CALIBRATION_ITERATIONS = 300_000


class Speed:
    """Host speed, sampled with a fixed pure-Python loop.

    Shared hosts drift: on a 2-vCPU VM a fixed loop's time ranged from
    160 ms to 250 ms within a minute, and wall and CPU time moved
    together.  Program time moves with it, so every reported time is
    multiplied by ``REFERENCE_CALIBRATION_S`` over the loop's median
    time around that work: the seconds the work would have taken at the
    reference speed.  Samples are taken between requests, at most every
    :attr:`INTERVAL` seconds, and their own time is never counted.
    """

    INTERVAL = 0.5

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0
        self._last = -math.inf

    def sample(self) -> None:
        t0 = time.perf_counter()
        total = 0
        for i in range(_CALIBRATION_ITERATIONS):
            total += i * i % 7
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self._last = t1

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.INTERVAL:
            self.sample()

    def factor(self, first: int, end: Optional[int] = None) -> float:
        """Scale for work timed between samples *first* and *end*."""
        return REFERENCE_CALIBRATION_S / statistics.median(
            self.samples[first:end])

    def around(self, work: Callable) -> tuple:
        """Run ``work()`` between two samples: ``(its result, seconds it
        took without the samples taken inside, scale factor)``."""
        first = len(self.samples)
        self.sample()
        spent = self.spent
        t0 = time.perf_counter()
        result = work()
        elapsed = time.perf_counter() - t0 - (self.spent - spent)
        self.sample()
        return result, elapsed, self.factor(first)


class Run:
    """Everything one benchmark run measures."""

    def __init__(self, root: str, seed: int, tracer: Tracer):
        self.root = root
        self.seed = seed
        self.tracer = tracer
        self.env = child_env(root)
        self.speed = Speed()
        # request label -> reference seconds, untraced requests only
        self.latencies: Dict[str, List[float]] = {}
        self._pass_latencies: List[tuple] = []
        self.setup_s: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.engine: Dict[str, float] = {k: 0 for k in ENGINE_COUNTERS}
        self.extra: Dict[str, float] = {}    # per-layer values a workload sets
        self.children: List[subprocess.Popen] = []

    # -- requests ------------------------------------------------------
    def request(self, label: str, call: Callable, expected=()):
        """Time one request; returns its result, the *expected*
        exception it raised, or :data:`FAILED` after any other error
        (which fails the request)."""
        self.speed.maybe_sample()
        tracer = self.tracer
        tracer.request_id += 1
        frame = tracer.begin("request", label)
        error = None
        t0 = time.perf_counter()
        try:
            outcome = call()
        except expected as exc:
            outcome = exc
        except Exception as exc:  # any other error fails the request
            outcome, error = FAILED, f"raised {type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - t0
            tracer.end(frame)
        if not tracer.enabled:
            self._pass_latencies.append(
                (label, elapsed, len(self.speed.samples) - 1))
        self.attempted += 1
        if error:
            self.judge(label, [error])
        return outcome

    def end_pass(self) -> None:
        """File the pass's request latencies, each scaled by the two
        speed samples on either side of it."""
        for label, elapsed, before in self._pass_latencies:
            factor = self.speed.factor(max(0, before - 1), before + 3)
            self.latencies.setdefault(label, []).append(elapsed * factor)
        self._pass_latencies = []

    def judge(self, label: str, problems: List[str]) -> None:
        """Record the checks of the request just made."""
        if problems:
            self.failed += 1
            if len(self.problems) < _MAX_PROBLEMS:
                self.problems.append(f"{label}: {'; '.join(problems)}")

    def add_engine_stats(self, stats: Dict[str, float]) -> None:
        if self.tracer.enabled:
            for key in ENGINE_COUNTERS:
                self.engine[key] += stats.get(key, 0)

    # -- child processes -----------------------------------------------
    def python(self, *args: str) -> List[str]:
        return [sys.executable, *args]

    def spawn(self, argv: List[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, **kwargs)
        self.children.append(proc)
        return proc

    def call(self, argv: List[str], timeout: float = 120.0
             ) -> subprocess.CompletedProcess:
        """Run a child to completion, capturing its output."""
        proc = self.spawn(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        finally:
            self.reap(proc)
        return subprocess.CompletedProcess(argv, proc.returncode, out, err)

    def reap(self, proc: subprocess.Popen, timeout: float = 10.0) -> None:
        """Wait for *proc*, killing it if it does not end in time."""
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if proc in self.children:
            self.children.remove(proc)

    def stop_children(self) -> None:
        for proc in list(self.children):
            if proc.poll() is None:
                proc.kill()
            self.reap(proc)

    def timed_call(self, argv: List[str], what: str) -> float:
        """Seconds one child takes to run *argv*; a failure is fatal."""
        t0 = time.perf_counter()
        done = self.call(argv)
        elapsed = time.perf_counter() - t0
        if done.returncode != 0:
            raise RuntimeError(f"{what} failed ({done.returncode}): "
                               f"{done.stderr.strip()[-400:]}")
        return elapsed


def child_env(root: str) -> Dict[str, str]:
    """The pinned environment every child runs in."""
    env = dict(os.environ)
    env.pop("REPRO_SCHEDULER_IMPL", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["TMPDIR"] = os.path.join(root, OUT_DIR, "tmp")
    return env


def import_breakdown(run: Run) -> Dict[str, object]:
    """``-X importtime`` of ``import repro.cli`` in a fresh interpreter:
    cumulative milliseconds for repro.cli, networkx and numpy, plus the
    five largest cumulative importers."""
    done = run.call(run.python("-X", "importtime", "-c", "import repro.cli"))
    if done.returncode != 0:
        raise RuntimeError(f"import probe failed: {done.stderr[-400:]}")
    cumulative: Dict[str, float] = {}
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue  # the column header
        cumulative[name.strip()] = int(cum) / 1000.0
    top = sorted(cumulative.items(), key=lambda kv: -kv[1])[:5]
    return {"cli.import_ms": cumulative.get("repro.cli", 0.0),
            "cli.import_networkx_ms": cumulative.get("networkx", 0.0),
            "cli.import_numpy_ms": cumulative.get("numpy", 0.0),
            "top_importers": [{"module": m, "cumulative_ms": ms}
                              for m, ms in top]}


def quantile(values: List[float], q: float) -> Optional[float]:
    """Nearest-rank quantile; ``None`` for no samples."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered), max(1, math.ceil(q * len(ordered)))) - 1]


def central_median(values: List[float]) -> float:
    """The median, smoothed: the mean of the 40th-60th percentile band.

    Request latencies cluster by request type, and the plain median of
    a mix can sit in a gap between two clusters, where swapping one
    pair of ranks moves it by the whole gap.  Averaging the central
    band keeps the estimate where the median is while a single rank
    swap moves it by only the gap divided by the band's size.
    """
    ordered = sorted(values)
    lo = int(0.4 * len(ordered))
    hi = max(lo + 1, math.ceil(0.6 * len(ordered)))
    band = ordered[lo:hi]
    return sum(band) / len(band)
