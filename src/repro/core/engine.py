"""Shared evaluation engine: memoized scheduling and incremental timing.

Every synthesis entry point in this package bottoms out in the same
question — "schedule + bind + measure this allocation under this
latency bound" — and the searches ask it with massive redundancy: the
latency-sweep horizons of :func:`repro.core.find_design.find_design`
replay near-identical greedy trajectories, the refinement hill climb
re-realizes neighbouring allocations, and a
:func:`repro.core.explore.sweep_bounds` grid revisits the same
allocations at bound after bound.  The :class:`EvaluationEngine`
centralizes that question behind content-addressed caches so repeated
work is answered from memory, while staying *behaviourally identical*
to the uncached algorithms (the test suite asserts byte-identical
``DesignResult``\\ s with the cache on and off).  There is one
evaluation path, :meth:`EvaluationEngine.evaluate`;
:meth:`~EvaluationEngine.evaluate_batch` is its list form.

Cache layers, from coarse to fine:

``evaluation``
    ``(graph, allocation, bound, area model, scheduler, stop_at_area)``
    → the final :class:`~repro.core.evaluate.Evaluation`.  Exact-key
    memo; hits skip all scheduling.
``density point``
    ``(graph, allocation, latency)`` → one density schedule + binding.
    The density realization at bound ``L`` is the min-area point of the
    scan over ``[critical, L]``.  The scan costs latencies by lane
    count without binding, stops at the allocation's area floor, and
    binds and stores only its winner — which any tighter bound it fits
    reuses, since the tighter scan is a prefix of the looser one.
``schedule point``
    ``(graph, delays, latency)`` → one density schedule.  Schedules
    depend only on the per-operation delays, so allocations that differ
    only in area or reliability share them; each point also remembers
    its latest binding, and an allocation one operation away from it is
    re-bound *incrementally* — only the affected version pools are
    re-packed (:func:`repro.hls.binding.rebind_versions`).
``list realization / probe``
    ``(graph, allocation, bound)`` → the count-driven list realization,
    and ``(graph, allocation, counts)`` → one list-schedule probe.  The
    count-increment loop re-probes overlapping count vectors constantly
    (the winning probe of one round *is* the schedule of the next); the
    probe cache makes both the intra- and inter-call repeats free.
``timing``
    ``(graph, delays)`` → ASAP starts and the critical-path latency,
    plus :meth:`EvaluationEngine.latency_with_delay`, an incremental
    single-op re-timing that only relaxes the changed operation's
    descendants instead of re-running a full ASAP pass (victim
    selection probes every critical operation this way).

Graphs are identified by *content* (name, operations, edges in
insertion order), not object identity, so rebuilding a benchmark graph
— as every experiment driver does — still hits the cache.  Allocation
signatures embed the full :class:`~repro.library.version.ResourceVersion`
(not just its name), so same-named versions from different libraries
never collide.  Versions are interned and hash by identity, so those
keys hash at C speed however many versions they hold.

Every layer is an independent :class:`LRUCache`: filling one layer
evicts only that layer's least-recently-used entries, so a probe-heavy
search can no longer wipe the exact memo (the old behaviour was a
clear-all).  Caches are also *portable*: :meth:`~EvaluationEngine.
export_cache_state` / :meth:`~EvaluationEngine.merge_cache_state`
re-key every entry by graph content, and :mod:`repro.core.cache_store`
wraps them in a versioned, digest-checked snapshot file — worker
processes pre-warm from a parent snapshot, and CLI runs persist caches
across invocations (``--cache-dir``).

Beyond snapshots, the layers can be served *live*: :meth:`~
EvaluationEngine.attach_backend` puts a :class:`RemoteCacheBackend`
behind every layer, keeping the local LRUs as read-through L1s while
L1 misses consult (and fresh results feed, write-behind) a shared
cache server (:mod:`repro.core.cache_server`) — so concurrent
processes hit each other's results mid-run instead of at fork/join or
snapshot boundaries.  The backend is fail-open: any transport error
detaches it logically and the engine continues local-only with
identical results.

A module-level default engine backs the
:func:`repro.core.evaluate.evaluate_allocation` compatibility wrapper;
pass ``engine=`` to any synthesis entry point to use a private one
(e.g. per worker process, or with ``cache=False`` for the reference
behaviour).
"""

from __future__ import annotations

import heapq
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.dfg.compiled import MergedBatch, compile_graph
from repro.dfg.graph import DataFlowGraph
from repro.errors import BindingError, ReproError, SchedulingError
from repro.hls import fastsched
from repro.hls.binding import Binding, left_edge_bind, rebind_versions
from repro.hls.density import density_schedule
from repro.hls.listsched import list_schedule
from repro.hls.metrics import AREA_INSTANCES, AREA_VERSIONS, total_area
from repro.hls.schedule import Schedule
from repro.hls.timing import asap_starts
from repro.library.version import ResourceVersion
from repro.core.design import check_area_model
from repro.core.evaluate import (
    SCHEDULER_IMPLS,
    SCHEDULERS,
    Evaluation,
    _count_lower_bounds,
)

AllocationSignature = Tuple[Tuple[str, ResourceVersion], ...]


def allocation_signature(allocation: Mapping[str, ResourceVersion]
                         ) -> AllocationSignature:
    """Canonical, hashable identity of an allocation.

    Includes the full version objects (area, delay, reliability), so
    two libraries that reuse a version name cannot alias each other.
    """
    return tuple(sorted(allocation.items()))


def _area_floor(signature: AllocationSignature) -> int:
    """A lower bound on the area of every binding of the allocation,
    under both area models.

    Each version pool holding an operation of non-zero delay occupies
    at least one instance.  Pools are keyed by version name, as the
    binder keys them, and priced at their cheapest member.
    """
    cheapest: Dict[str, int] = {}
    timed = set()
    for _, version in signature:
        name = version.name
        if cheapest.get(name, version.area) >= version.area:
            cheapest[name] = version.area
        if version.delay > 0:
            timed.add(name)
    return sum(cheapest[name] for name in timed)


def _scan_area(schedule: Schedule,
               allocation: Mapping[str, ResourceVersion],
               area_model: str) -> Optional[int]:
    """``total_area(left_edge_bind(schedule, allocation), area_model)``
    without running the binder.

    Left-edge packing is lane-minimal on interval graphs, so under the
    instance model each version pool occupies exactly (max step
    overlap) instances.  That identity needs every interval non-empty:
    a zero-delay operation's empty interval may or may not open a lane
    depending on pack order, so its presence returns ``None`` and the
    caller binds for real.  The version model is schedule-independent
    (distinct versions used) and always answered.

    The density scan uses this to cost its non-winning latencies in
    O(pool size) instead of running a full binding per latency.
    """
    pools: Dict[str, List[str]] = {}
    versions: Dict[str, ResourceVersion] = {}
    for op in schedule.graph:
        version = allocation.get(op.op_id)
        if version is None:
            raise BindingError(f"operation {op.op_id!r} has no allocation")
        pools.setdefault(version.name, []).append(op.op_id)
        versions[version.name] = version
    if area_model == AREA_VERSIONS:
        return sum(version.area for version in versions.values())
    area = 0
    for name, ops in pools.items():
        events = []
        for op_id in ops:
            start = schedule.start(op_id)
            delay = schedule.delays[op_id]
            if delay == 0:
                return None
            events.append((start, 1))
            events.append((start + delay, -1))
        events.sort()  # at equal steps, departures (-1) precede arrivals
        lanes = running = 0
        for _, change in events:
            running += change
            if running > lanes:
                lanes = running
        area += lanes * versions[name].area
    return area


@dataclass
class EngineStats:
    """Counters accumulated by one :class:`EvaluationEngine`."""

    requests: int = 0             # evaluate() calls
    hits: int = 0                 # exact evaluation-memo hits
    density_points: int = 0       # density latencies examined
    density_hits: int = 0         # ... served from the point cache
    density_schedules: int = 0    # density_schedule executions
    schedule_reuses: int = 0      # density schedules shared via delays key
    list_realizations: int = 0    # list realizations requested
    list_hits: int = 0            # ... served from the realization cache
    list_schedules: int = 0       # list_schedule executions
    list_probe_hits: int = 0      # probes served from the probe cache
    bindings: int = 0             # left_edge_bind executions
    incremental_rebinds: int = 0  # single-pool partial re-bindings
    timing_requests: int = 0      # critical-path latency queries
    timing_hits: int = 0          # ... served from the timing cache
    incremental_timings: int = 0  # single-op partial re-timings
    evictions: int = 0            # LRU entries dropped across all layers
    remote_hits: int = 0          # L1 misses answered by a cache server
    remote_negative_hits: int = 0  # round trips skipped by absent markers
    remote_fallbacks: int = 0     # times the remote backend was abandoned
    remote_replica_hits: int = 0  # ring hits served by a non-primary copy
    remote_read_repairs: int = 0  # primaries re-warmed after replica hits
    wall_time: float = 0.0        # seconds spent inside evaluate()

    @property
    def schedules_run(self) -> int:
        """Total scheduler executions (density + list)."""
        return self.density_schedules + self.list_schedules

    @property
    def hit_rate(self) -> float:
        """Fraction of evaluate() calls answered from the exact memo."""
        return self.hits / self.requests if self.requests else 0.0

    @property
    def evaluations_per_second(self) -> float:
        """Evaluation throughput over the accumulated wall time."""
        return self.requests / self.wall_time if self.wall_time else 0.0

    def reset(self) -> None:
        """Zero every counter."""
        for name in self.__dataclass_fields__:
            setattr(self, name, type(getattr(self, name))())

    def as_dict(self) -> Dict[str, float]:
        """JSON-friendly snapshot including the derived rates."""
        snapshot: Dict[str, float] = {
            name: getattr(self, name) for name in self.__dataclass_fields__
        }
        snapshot["schedules_run"] = self.schedules_run
        snapshot["hit_rate"] = self.hit_rate
        snapshot["evaluations_per_second"] = self.evaluations_per_second
        return snapshot

    def as_text(self) -> str:
        """Multi-line human-readable report (the CLI's ``--stats``)."""
        return "\n".join([
            "engine statistics:",
            f"  evaluations requested : {self.requests}"
            f" (memo hits {self.hits}, hit rate {self.hit_rate:.1%})",
            f"  schedules run         : {self.schedules_run}"
            f" (density {self.density_schedules}, list {self.list_schedules})",
            f"  density points        : {self.density_points}"
            f" (cache hits {self.density_hits})",
            f"  list probes cached    : {self.list_probe_hits} hits;"
            f" realizations {self.list_realizations}"
            f" (cache hits {self.list_hits})",
            f"  bindings run          : {self.bindings}"
            f" (incremental {self.incremental_rebinds},"
            f" schedules shared {self.schedule_reuses})",
            f"  timing queries        : {self.timing_requests}"
            f" (cache hits {self.timing_hits},"
            f" incremental {self.incremental_timings})",
            f"  lru evictions         : {self.evictions}",
            f"  remote cache          : {self.remote_hits} hits"
            f" (negative hits {self.remote_negative_hits},"
            f" fallbacks {self.remote_fallbacks})",
            f"  ring replication      : {self.remote_replica_hits}"
            f" replica hits"
            f" (read repairs {self.remote_read_repairs})",
            f"  evaluation wall time  : {self.wall_time:.3f}s"
            f" ({self.evaluations_per_second:.0f} evaluations/s)",
        ])


_MISSING = object()


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    Lookups and inserts refresh an entry's recency; inserts beyond
    *capacity* silently drop the stalest entries (reporting each drop
    through *on_evict*).  Because every engine layer is a pure memo,
    eviction can never change results — only future hit rates.
    """

    __slots__ = ("capacity", "evictions", "_data", "_on_evict")

    def __init__(self, capacity: int,
                 on_evict: Optional[Callable[[], None]] = None):
        if capacity < 1:
            raise ReproError(
                f"LRU capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.evictions = 0
        self._data: OrderedDict = OrderedDict()
        self._on_evict = on_evict

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key, default=None):
        """Value for *key* (refreshing its recency), else *default*."""
        try:
            self._data.move_to_end(key)
        except KeyError:
            return default
        return self._data[key]

    def put(self, key, value) -> None:
        """Insert/overwrite *key*, evicting the stalest entries if full."""
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        while len(data) > self.capacity:
            data.popitem(last=False)
            self.evictions += 1
            if self._on_evict is not None:
                self._on_evict()

    def items(self) -> Iterator[Tuple[object, object]]:
        """Entries from least- to most-recently used."""
        return iter(self._data.items())

    def clear(self) -> None:
        self._data.clear()

    def prefetch(self, keys) -> None:
        """No-op; remote layers override to batch upcoming lookups."""

    def get_local(self, key, default=None):
        """Same as :meth:`get`; remote layers override to skip the
        server (used right after a :meth:`prefetch` of the same keys,
        when a second remote miss would be a wasted round trip)."""
        return self.get(key, default)


class EvictionCounter:
    """An :class:`LRUCache` ``on_evict`` hook bumping ``stats.evictions``.

    It holds only the stats object: a bound method of the cache's owner
    would close a reference cycle (owner → layer → method → owner), so
    every dropped engine, with all its cached schedules, would wait for
    a full garbage collection instead of being freed at once.
    """

    __slots__ = ("stats",)

    def __init__(self, stats):
        self.stats = stats

    def __call__(self) -> None:
        self.stats.evictions += 1


class _SchedulePoint:
    """One delays-keyed density schedule plus its latest binding.

    The density schedule at a latency depends only on the per-operation
    *delays*, not on which versions induced them — so allocations that
    differ only in area/reliability share the schedule.  The point also
    remembers the last allocation bound onto the schedule; a request
    whose allocation differs from it by a single operation is re-bound
    incrementally (only the affected version pools are re-packed).
    ``schedule`` is ``None`` when the latency is infeasible.
    """

    __slots__ = ("schedule", "signature", "binding")

    def __init__(self, schedule: Optional[Schedule],
                 signature: Optional[AllocationSignature] = None,
                 binding: Optional[Binding] = None):
        self.schedule = schedule
        self.signature = signature
        self.binding = binding


def _signature_delta(old: AllocationSignature, new: AllocationSignature
                     ) -> Optional[Tuple[int, set]]:
    """Difference between two allocation signatures over one op set.

    Returns ``(changed op count, version names involved)``, or ``None``
    when the signatures cover different operations entirely.
    """
    if len(old) != len(new):
        return None
    changed = 0
    names: set = set()
    for (op_a, version_a), (op_b, version_b) in zip(old, new):
        if op_a != op_b:
            return None
        if version_a != version_b:
            changed += 1
            names.add(version_a.name)
            names.add(version_b.name)
    return changed, names


class _GraphRecord:
    """Cached structural view of one live DataFlowGraph object.

    Built from the graph's :class:`~repro.dfg.compiled.CompiledGraph`,
    so the engine, the fast scheduling core and every other consumer
    share one flattening (topological order, adjacency) per graph.
    """

    __slots__ = ("graph", "compiled", "n_ops", "n_edges", "key")

    def __init__(self, graph: DataFlowGraph, key: int):
        self.graph = graph
        compiled = compile_graph(graph)
        self.compiled = compiled
        self.n_ops = compiled.n_ops
        self.n_edges = compiled.n_edges
        self.key = key


class RemoteCacheBackend:
    """Bridge between engine cache layers and a live cache service.

    The backend sits *behind* the layer interface: an attached engine
    keeps every layer's :class:`LRUCache` as a read-through L1, and the
    backend only sees L1 misses (fetches) and fresh results (stores).
    Keys cross the wire content-addressed — the process-local graph id
    is replaced by the graph's content tuple, exactly as in snapshot
    files — so any number of independent processes land on the same
    server entries.

    Stores are write-behind: they buffer locally and ship in
    ``put_many`` batches, so the hot path pays at most one round trip
    per L1 miss.  Every failure mode — connect refused, timeout, a
    corrupt frame, the server dying mid-run — flips :attr:`alive` off
    and the backend goes silent: fetches miss, stores drop, and the
    engine continues on its local caches with identical results (the
    layers are pure memos; the server is a hit-rate amplifier, never a
    correctness dependency).

    Remote *misses* are remembered too: a key the server did not have
    is marked absent, and repeat lookups inside that window answer
    locally instead of re-asking the server
    (``EngineStats.remote_negative_hits`` counts the skipped round
    trips).  The window length is the *server's*: protocol-3 ``get``
    replies carry an authoritative per-miss negative window
    (registered server-side once per fleet), which this client simply
    honours; a client-local :attr:`negative_ttl` remains as the
    default for duck-typed clients that do not report windows, and
    ``negative_ttl=0`` disables marking entirely.  Markers are cleared
    the moment this client stores the key itself, and expire quickly
    otherwise so results computed by *other* clients are only briefly
    invisible — a hit-rate trade-off, never a correctness one, since a
    masked remote hit just means computing locally.

    *client* is duck-typed (see :class:`repro.core.cache_server.
    CacheClient`): ``get(layer, key) -> (found, value[, window])``,
    ``get_many(layer, keys) -> {key: value}`` or ``({key: value},
    {key: window})``, ``put_many(entries)``, and ``close()``, all
    raising :class:`~repro.errors.CacheError` on any transport
    problem.  :class:`~repro.core.shard.ShardedCacheClient` speaks the
    same surface, so a backend over a shard ring behaves identically —
    including per-shard fail-open: a dead shard only mutes its own
    keys, and the client raises (flipping this backend local-only)
    only when every shard is gone.
    """

    #: buffered stores shipped per ``put_many`` round trip.
    PUT_BATCH = 32

    #: seconds a remote miss is remembered before the key is re-asked.
    NEGATIVE_TTL = 5.0

    #: absent-marker table bound; expired markers are pruned first.
    MAX_NEGATIVE = 16_384

    def __init__(self, client, *, batch_size: int = PUT_BATCH,
                 negative_ttl: float = NEGATIVE_TTL):
        if batch_size < 1:
            raise ReproError(
                f"put batch size must be positive, got {batch_size}")
        if negative_ttl < 0:
            raise ReproError(
                f"negative TTL must be >= 0, got {negative_ttl}")
        self.client = client
        self.batch_size = batch_size
        self.negative_ttl = negative_ttl
        self.alive = True
        self.stats: Optional[EngineStats] = None  # set by attach_backend
        self._pending: List[Tuple[str, tuple, object]] = []
        self._negative: Dict[Tuple[str, tuple], float] = {}
        self._counter_marks: Dict[str, int] = {}
        self._owner_pid = os.getpid()

    def _fail(self) -> None:
        """Abandon the server: drop buffers, go local-only for good."""
        if self.alive and self.stats is not None:
            self.stats.remote_fallbacks += 1
        self.alive = False
        self._pending.clear()
        self._negative.clear()

    def _usable(self) -> bool:
        """Alive, *and* still in the process that opened the socket.

        A forked worker inherits the parent's backend (and its
        connection file descriptor); writing on it would interleave
        frames with the parent's own requests.  The child silently
        goes local-only instead — it re-attaches with a fresh client
        if live sharing is wanted (``repro.parallel``'s live
        initializer does exactly that).
        """
        if not self.alive:
            return False
        if os.getpid() != self._owner_pid:
            self.alive = False  # inherited via fork: never touch it
            self._pending.clear()
            self._negative.clear()
            return False
        return True

    def _marked_absent(self, layer: str, key: tuple) -> bool:
        """True while a recent remote miss for the key is still fresh."""
        deadline = self._negative.get((layer, key))
        if deadline is None:
            return False
        if time.monotonic() >= deadline:
            del self._negative[(layer, key)]
            return False
        return True

    def _mark_absent(self, layer: str, key: tuple,
                     window: Optional[float] = None) -> None:
        """Remember a remote miss for *window* seconds (the server's
        authoritative negative window when reported, else this
        client's :attr:`negative_ttl`); ``negative_ttl=0`` disables
        marking entirely."""
        if not self.negative_ttl:
            return
        if window is None:
            window = self.negative_ttl
        else:
            try:
                window = float(window)
            except (TypeError, ValueError):
                window = self.negative_ttl
        if window <= 0:
            return
        now = time.monotonic()
        negative = self._negative
        if len(negative) >= self.MAX_NEGATIVE:
            fresh = {k: deadline for k, deadline in negative.items()
                     if deadline > now}
            if len(fresh) >= self.MAX_NEGATIVE:
                fresh.clear()  # markers are an optimization; drop them
            self._negative = negative = fresh
        negative[(layer, key)] = now + window

    def fetch(self, layer: str, key: tuple) -> Tuple[bool, object]:
        """One remote lookup; ``(False, None)`` on miss or any failure."""
        if not self._usable():
            return False, None
        if self._marked_absent(layer, key):
            if self.stats is not None:
                self.stats.remote_negative_hits += 1
            return False, None
        try:
            reply = self.client.get(layer, key)
        except ReproError:
            self._fail()
            return False, None
        # protocol 3 replies are (found, value, window); duck-typed
        # clients may still answer the legacy (found, value)
        found, value = reply[0], reply[1]
        if not found:
            self._mark_absent(layer, key,
                              reply[2] if len(reply) > 2 else None)
        return found, value

    def fetch_many(self, layer: str, keys: Sequence[tuple]
                   ) -> Dict[tuple, object]:
        """Batched lookup of *keys*; absent keys are simply missing."""
        if not keys or not self._usable():
            return {}
        wanted = []
        skipped = 0
        for key in keys:
            if self._marked_absent(layer, key):
                skipped += 1
            else:
                wanted.append(key)
        if skipped and self.stats is not None:
            self.stats.remote_negative_hits += skipped
        if not wanted:
            return {}
        try:
            reply = self.client.get_many(layer, wanted)
        except ReproError:
            self._fail()
            return {}
        # protocol 3 replies are (found, windows); duck-typed clients
        # may still answer the legacy plain dict
        if isinstance(reply, tuple) and len(reply) == 2 \
                and isinstance(reply[0], dict):
            found, windows = reply
            if not isinstance(windows, dict):
                windows = {}
        else:
            found, windows = reply, {}
        for key in wanted:
            if key not in found:
                self._mark_absent(layer, key, windows.get(key))
        return found

    def store(self, layer: str, key: tuple, value: object) -> None:
        """Buffer one entry for the server (write-behind)."""
        if not self._usable():
            return
        self._negative.pop((layer, key), None)
        self._pending.append((layer, key, value))
        if len(self._pending) >= self.batch_size:
            self.flush()

    def _sync_client_counters(self) -> None:
        """Adopt replication telemetry from a ring client.

        :class:`~repro.core.shard.ShardedCacheClient` keeps cumulative
        ``counters`` (replica hits, read repairs); the deltas since the
        last sync surface as engine stats so ``--stats`` shows when a
        sweep was served by replication.  Duck-typed clients without
        counters are simply skipped.
        """
        counters = getattr(self.client, "counters", None)
        if not isinstance(counters, dict) or self.stats is None:
            return
        for name, field in (("replica_hits", "remote_replica_hits"),
                            ("read_repairs", "remote_read_repairs")):
            total = counters.get(name, 0)
            if not isinstance(total, int):
                continue
            seen = self._counter_marks.get(name, 0)
            if total > seen:
                setattr(self.stats, field,
                        getattr(self.stats, field) + total - seen)
                self._counter_marks[name] = total

    def flush(self) -> None:
        """Ship every buffered store to the server."""
        self._sync_client_counters()
        if not self._pending or not self._usable():
            return
        pending, self._pending = self._pending, []
        try:
            self.client.put_many(pending)
        except ReproError:
            self._fail()

    def close(self) -> None:
        """Flush buffers and release the transport."""
        self.flush()
        self._sync_client_counters()
        try:
            self.client.close()
        except ReproError:
            pass

    def __getstate__(self):
        """Pickle (e.g. into a forked ``parallel`` worker) without the
        per-process state: buffered puts belong to the connection that
        opened them, and ``_negative`` holds ``time.monotonic()``
        deadlines — meaningless under another process's monotonic
        epoch, where a stale marker could mask the server for
        arbitrarily long (or never expire at all)."""
        state = self.__dict__.copy()
        state["_pending"] = []
        state["_negative"] = {}
        state["_counter_marks"] = {}
        return state


class _RemoteLayer:
    """One engine cache layer backed by a local L1 plus a remote server.

    Duck-type compatible with :class:`LRUCache` (``get``/``put``/
    ``items``/``clear``/``len``), so the engine's hot paths are
    oblivious to whether a layer is local or server-backed.  Lookups
    read through: L1 first, then one remote fetch whose result is
    adopted into L1.  Inserts write to L1 and buffer a write-behind
    store.  Keys are translated local→content at the boundary; the
    ``schedules`` layer's :class:`_SchedulePoint` values travel as
    plain tuples, exactly as in snapshot files.
    """

    __slots__ = ("name", "local", "backend", "engine")

    def __init__(self, name: str, local: LRUCache,
                 backend: RemoteCacheBackend, engine: "EvaluationEngine"):
        self.name = name
        self.local = local
        self.backend = backend
        self.engine = engine

    def __len__(self) -> int:
        return len(self.local)

    def _encode(self, value):
        if self.name == "schedules":
            return (value.schedule, value.signature, value.binding)
        return value

    def _decode(self, value):
        if self.name == "schedules":
            return _SchedulePoint(*value)
        return value

    def get(self, key, default=None):
        value = self.local.get(key, _MISSING)
        if value is not _MISSING:
            return value
        content = self.engine._content_key(key)
        if content is None:
            return default
        found, value = self.backend.fetch(self.name, content)
        if not found:
            return default
        value = self._decode(value)
        self.local.put(key, value)
        self.engine.stats.remote_hits += 1
        return value

    def put(self, key, value) -> None:
        self.local.put(key, value)
        content = self.engine._content_key(key)
        if content is not None:
            self.backend.store(self.name, content, self._encode(value))

    def get_local(self, key, default=None):
        """L1-only lookup — never consults the server."""
        return self.local.get(key, default)

    def prefetch(self, keys) -> None:
        """Adopt a batch of upcoming keys in one round trip (L1 misses
        only); the density scan uses this to fetch a whole latency
        range at once instead of paying one round trip per point."""
        wanted = {}
        for key in keys:
            if self.local.get(key, _MISSING) is _MISSING:
                content = self.engine._content_key(key)
                if content is not None:
                    wanted[content] = key
        if not wanted:
            return
        for content, value in self.backend.fetch_many(
                self.name, list(wanted)).items():
            self.local.put(wanted[content], self._decode(value))
            self.engine.stats.remote_hits += 1

    def items(self):
        return self.local.items()

    def clear(self) -> None:
        self.local.clear()


class EvaluationEngine:
    """Memoized allocation evaluation shared across searches and sweeps.

    Parameters
    ----------
    area_model:
        Default area accounting for :meth:`evaluate` (overridable per
        call).
    scheduler:
        Default realization scheduler (``"auto"``, ``"density"`` or
        ``"list"``); overridable per call.
    scheduler_impl:
        Which scheduling *core* runs on cache misses: ``"fast"`` (the
        default) is the compiled index-based implementation
        (:mod:`repro.hls.fastsched` over
        :class:`~repro.dfg.compiled.CompiledGraph`), ``"reference"``
        the original dict-based kernels.  The two produce identical
        schedules — asserted property-based in
        ``tests/test_fastsched.py`` — so every cache layer, snapshot
        and server entry is shared freely between them, and the memo
        keys deliberately do *not* include the implementation.  The
        ``REPRO_SCHEDULER_IMPL`` environment variable overrides the
        built-in default; overridable per call too.
    cache:
        Disable to force every request through the full algorithms —
        the reference behaviour the cached path must reproduce exactly.
        Unless ``scheduler_impl`` is given explicitly, a cache-disabled
        engine also runs the *reference* kernels, making it a fully
        independent oracle (no engine memo, no compiled-core memo).
    max_entries:
        Soft bound on the total number of cached entries, split across
        the cache layers by :attr:`LAYER_SHARES`.  Each layer is an
        independent LRU: filling one layer evicts only that layer's
        stalest entries (statistics and the other layers are
        untouched).
    layer_capacities:
        Optional per-layer overrides, e.g. ``{"density": 64}``; layers
        not named keep their ``max_entries`` share.
    """

    #: Fraction of ``max_entries`` each LRU layer receives by default.
    LAYER_SHARES: Dict[str, float] = {
        "evaluations": 0.15,   # exact evaluate() memo
        "density": 0.25,       # per-(allocation, latency) density points
        "schedules": 0.10,     # delays-keyed density schedules
        "list": 0.10,          # count-driven list realizations
        "probes": 0.30,        # list-schedule probes
        "timing": 0.10,        # ASAP starts / critical-path latencies
    }

    def __init__(self, *, area_model: str = AREA_INSTANCES,
                 scheduler: str = "auto",
                 scheduler_impl: Optional[str] = None,
                 cache: bool = True,
                 max_entries: int = 200_000,
                 layer_capacities: Optional[Mapping[str, int]] = None):
        check_area_model(area_model)
        if scheduler not in SCHEDULERS:
            raise ReproError(
                f"unknown scheduler {scheduler!r}; use one of {SCHEDULERS}")
        if scheduler_impl is None:
            # a cache-disabled engine is the independence oracle the
            # equivalence suites compare against, so unless told
            # otherwise it also runs the reference kernels — "every
            # request through the full (seed) algorithms" stays true
            scheduler_impl = os.environ.get(
                "REPRO_SCHEDULER_IMPL", "fast" if cache else "reference")
        if scheduler_impl not in SCHEDULER_IMPLS:
            raise ReproError(
                f"unknown scheduler implementation {scheduler_impl!r}; "
                f"use one of {SCHEDULER_IMPLS}")
        overrides = dict(layer_capacities or {})
        unknown = sorted(set(overrides) - set(self.LAYER_SHARES))
        if unknown:
            raise ReproError(
                f"unknown cache layers {unknown}; "
                f"use one of {sorted(self.LAYER_SHARES)}")
        self.area_model = area_model
        self.scheduler = scheduler
        self.scheduler_impl = scheduler_impl
        self.cache_enabled = cache
        self.max_entries = max_entries
        self.layer_capacities = {
            name: int(overrides.get(name, max(1, int(max_entries * share))))
            for name, share in self.LAYER_SHARES.items()
        }
        self.stats = EngineStats()
        # derived probe tables (rebuildable from the timing cache):
        # bounded like a layer but invisible to snapshots and stats
        self._timing_order = LRUCache(self.layer_capacities["timing"])
        self._graphs: Dict[int, _GraphRecord] = {}
        self._graph_keys: Dict[tuple, int] = {}
        self._graph_contents: Dict[int, tuple] = {}  # inverse of the above
        self._backend: Optional[RemoteCacheBackend] = None
        # stats is reset in place, never replaced, so the hook stays valid
        on_evict = EvictionCounter(self.stats)
        self._layers: Dict[str, LRUCache] = {
            name: LRUCache(capacity, on_evict)
            for name, capacity in self.layer_capacities.items()
        }
        self._bind_layers(self._layers)

    #: hot-path attribute → layer name, used to (re)bind the layer views
    #: when a remote backend is attached or detached.
    _LAYER_ATTRS = {
        "_evaluations": "evaluations",
        "_density": "density",
        "_schedules": "schedules",
        "_list_results": "list",
        "_list_probes": "probes",
        "_timing_cache": "timing",
    }

    def _bind_layers(self, views: Mapping[str, object]) -> None:
        for attr, name in self._LAYER_ATTRS.items():
            setattr(self, attr, views[name])

    # ------------------------------------------------------------------
    # live cache service attachment
    # ------------------------------------------------------------------
    def attach_backend(self, backend: RemoteCacheBackend) -> None:
        """Serve every cache layer read-through from *backend*.

        The local LRUs stay in place as L1s — hot lookups never leave
        the process — and only L1 misses and fresh results reach the
        server.  Attaching is behaviourally transparent: results are
        identical with or without the backend, and the backend going
        dark mid-run silently reverts the engine to local-only
        operation.
        """
        if not self.cache_enabled:
            raise ReproError(
                "cannot attach a cache server to a cache-disabled engine")
        if self._backend is not None:
            self.detach_backend()
        backend.stats = self.stats
        self._backend = backend
        self._bind_layers({
            name: _RemoteLayer(name, self._layers[name], backend, self)
            for name in self._layers
        })

    def detach_backend(self) -> Optional[RemoteCacheBackend]:
        """Restore local-only layers; returns the flushed backend."""
        backend = self._backend
        if backend is None:
            return None
        self._backend = None
        self._bind_layers(self._layers)
        backend.flush()
        return backend

    @property
    def backend(self) -> Optional[RemoteCacheBackend]:
        """The attached remote backend, if any."""
        return self._backend

    def _content_key(self, key: tuple) -> Optional[tuple]:
        """Translate a process-local layer key to its content-addressed
        form (the graph id becomes the graph's content tuple), or
        ``None`` when the graph registry no longer knows the id."""
        content = self._graph_contents.get(key[0])
        if content is None:
            return None
        return (content,) + tuple(key[1:])

    # ------------------------------------------------------------------
    # graph identity
    # ------------------------------------------------------------------
    #: soft bound on live graph-object records; records are cheap to
    #: rebuild, so the registry is simply dropped when it fills up
    #: (e.g. a long-lived service constructing a fresh graph per call).
    MAX_GRAPH_RECORDS = 4096

    def _record(self, graph: DataFlowGraph) -> _GraphRecord:
        record = self._graphs.get(id(graph))
        if (record is not None and record.graph is graph
                and record.n_ops == len(graph)
                and record.n_edges == graph.edge_count()):
            return record
        if len(self._graphs) >= self.MAX_GRAPH_RECORDS:
            self._graphs.clear()
        if len(self._graph_keys) > self.max_entries:
            self.clear()  # keys must stay consistent with cache entries
        content = (graph.name,
                   tuple((op.op_id, op.rtype) for op in graph),
                   tuple(graph.edges()))
        key = self._graph_keys.setdefault(content, len(self._graph_keys))
        self._graph_contents[key] = content
        record = _GraphRecord(graph, key)
        self._graphs[id(graph)] = record
        return record

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------
    def _timing(self, graph: DataFlowGraph, delays: Mapping[str, int]
                ) -> Tuple[Dict[str, int], int]:
        """Cached ASAP starts and critical-path latency for *delays*."""
        record = self._record(graph)
        key = (record.key, tuple(sorted(delays.items())))
        return self._timing_for(graph, record, key, delays)

    def _timing_for(self, graph, record, key, delays, impl=None
                    ) -> Tuple[Dict[str, int], int]:
        impl = impl if impl is not None else self.scheduler_impl
        self.stats.timing_requests += 1
        cached = self._timing_cache.get(key, _MISSING)
        if cached is not _MISSING:
            self.stats.timing_hits += 1
            return cached
        # a cache-disabled engine is the reference oracle: it must not
        # read fastsched's per-graph base-timing memo either, or a
        # keying bug there would corrupt both sides of an equivalence
        # comparison identically
        if impl == "fast" and self.cache_enabled and len(graph):
            timing = fastsched.base_timing(graph, delays)
            ids = record.compiled.op_ids
            starts = dict(zip(ids, timing.asap))
            latency = timing.critical
        else:
            starts = asap_starts(graph, delays)
            latency = max(starts[op] + delays[op] for op in starts)
        if self.cache_enabled:
            self._timing_cache.put(key, (starts, latency))
        return starts, latency

    def latency(self, graph: DataFlowGraph,
                delays: Mapping[str, int]) -> int:
        """Critical-path (ASAP) latency of *graph* under *delays*."""
        return self._timing(graph, delays)[1]

    def min_latency(self, graph: DataFlowGraph,
                    allocation: Mapping[str, ResourceVersion]) -> int:
        """Critical-path latency of *graph* under *allocation*."""
        return self.latency(
            graph, {op_id: v.delay for op_id, v in allocation.items()})

    def latency_with_delay(self, graph: DataFlowGraph,
                           delays: Mapping[str, int],
                           op_id: str, new_delay: int) -> int:
        """Critical-path latency if *op_id* took *new_delay* cycles.

        A probe is O(1): the answer decomposes as ``max(longest path
        avoiding the operation, longest path through it shifted by the
        delay change)``, and both per-operation maxima come from tables
        built once per delays vector (:meth:`_probe_tables`).  Exact —
        it returns precisely
        ``asap_latency(graph, delays | {op_id: new_delay})``.
        """
        record = self._record(graph)
        key = (record.key, tuple(sorted(delays.items())))
        starts, base_latency = self._timing_for(graph, record, key, delays)
        if new_delay == delays[op_id]:
            return base_latency
        self.stats.incremental_timings += 1
        tail, avoid = self._probe_tables(record, key, starts, delays)
        i = record.compiled.index[op_id]
        through = starts[op_id] + new_delay + (tail[i] - delays[op_id])
        return max(avoid[i], through)

    def latencies_with_delays(self, graph: DataFlowGraph,
                              delays: Mapping[str, int],
                              probes: Sequence[Tuple[str, int]]
                              ) -> List[int]:
        """Batched :meth:`latency_with_delay`: the critical-path
        latency for each ``(op_id, new_delay)`` probe.

        Equivalent to probing one at a time, but the shared base
        timing and the ``(tail, avoid)`` probe tables are resolved once
        for the whole batch — the shape victim selection asks in
        (candidates-per-round) bursts.
        """
        record = self._record(graph)
        key = (record.key, tuple(sorted(delays.items())))
        starts, base_latency = self._timing_for(graph, record, key, delays)
        tables = None
        index = record.compiled.index
        out = []
        for op_id, new_delay in probes:
            if new_delay == delays[op_id]:
                out.append(base_latency)
                continue
            self.stats.incremental_timings += 1
            if tables is None:
                tables = self._probe_tables(record, key, starts, delays)
            tail, avoid = tables
            i = index[op_id]
            through = starts[op_id] + new_delay + (tail[i] - delays[op_id])
            out.append(max(avoid[i], through))
        return out

    def _probe_tables(self, record, key, starts, delays
                      ) -> Tuple[list, list]:
        """Per-op ``(tail, avoid)`` tables for one delays vector.

        ``tail[i]`` is the longest path from operation *i* through its
        own delay to the end; ``avoid[i]`` the longest source-to-sink
        path that skips operation *i* entirely.  Any maximal path
        skipping *i* either ends at a sink before *i* in topological
        rank, starts at a source after it, or crosses its rank through
        an edge spanning it — three maxima resolved by a prefix sweep,
        a suffix sweep, and a lazy-deletion heap over the spanning
        edges.  Derived data (rebuildable from the timing cache), so it
        lives outside the snapshot-visible layers.
        """
        cached = self._timing_order.get(key) if self.cache_enabled else None
        if cached is not None:
            return cached
        compiled = record.compiled
        ids = compiled.op_ids
        n = compiled.n_ops
        succs = compiled.succs
        d = [delays[op] for op in ids]
        s = [starts[op] for op in ids]
        rank = compiled.topo_rank
        topo = compiled.topo
        if self.cache_enabled and self.scheduler_impl == "fast":
            # base_timing already computed (and memoized) the tails
            tail = fastsched.base_timing(record.graph, delays).tail
        else:
            tail = d[:]
            for i in reversed(topo):
                best = 0
                for j in succs[i]:
                    if tail[j] > best:
                        best = tail[j]
                tail[i] += best
        # paths ending at a sink of lower rank: exclusive prefix maxima
        before = [-1] * n
        running = -1
        for pos, i in enumerate(topo):
            before[pos] = running
            if not succs[i] and s[i] + d[i] > running:
                running = s[i] + d[i]
        # paths starting at a source of higher rank: exclusive suffix
        after = [-1] * n
        running = -1
        for pos in range(n - 1, -1, -1):
            i = topo[pos]
            after[pos] = running
            if not compiled.preds[i] and tail[i] > running:
                running = tail[i]
        # paths crossing the rank through a spanning edge (a, b): the
        # longest is (finish of a) + (tail of b); sweep ranks with a
        # lazy-deletion max-heap of the edges currently spanning
        spanning = sorted(
            (rank[a], rank[b], s[a] + d[a] + tail[b])
            for a, b in compiled.edge_list)
        heap: list = []
        edge_at = 0
        avoid = [0] * n
        for pos in range(n):
            while edge_at < len(spanning) and spanning[edge_at][0] < pos:
                _, rank_b, value = spanning[edge_at]
                if rank_b > pos:
                    heapq.heappush(heap, (-value, rank_b))
                edge_at += 1
            while heap and heap[0][1] <= pos:
                heapq.heappop(heap)
            best = before[pos] if before[pos] > after[pos] else after[pos]
            if heap and -heap[0][0] > best:
                best = -heap[0][0]
            avoid[topo[pos]] = best if best > 0 else 0
        tables = (tail, avoid)
        if self.cache_enabled:
            self._timing_order.put(key, tables)
        return tables

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, graph: DataFlowGraph,
                 allocation: Mapping[str, ResourceVersion],
                 latency_bound: int,
                 area_model: Optional[str] = None,
                 stop_at_area: Optional[int] = None,
                 scheduler: Optional[str] = None,
                 scheduler_impl: Optional[str] = None):
        """Best (minimum-area) realization of an allocation within a bound.

        Drop-in equivalent of the historical
        :func:`repro.core.evaluate.evaluate_allocation`; returns an
        :class:`~repro.core.evaluate.Evaluation` or ``None`` when even
        the critical path exceeds the bound.
        """
        area_model = area_model if area_model is not None else self.area_model
        scheduler = scheduler if scheduler is not None else self.scheduler
        impl = scheduler_impl if scheduler_impl is not None \
            else self.scheduler_impl
        if scheduler not in SCHEDULERS:
            raise ReproError(
                f"unknown scheduler {scheduler!r}; use one of {SCHEDULERS}")
        if impl not in SCHEDULER_IMPLS:
            raise ReproError(
                f"unknown scheduler implementation {impl!r}; "
                f"use one of {SCHEDULER_IMPLS}")
        started = time.perf_counter()
        self.stats.requests += 1
        try:
            return self._evaluate(graph, allocation, latency_bound,
                                  area_model, stop_at_area, scheduler, impl)
        finally:
            self.stats.wall_time += time.perf_counter() - started

    def _evaluate(self, graph, allocation, latency_bound, area_model,
                  stop_at_area, scheduler, impl):
        delays = {op_id: v.delay for op_id, v in allocation.items()}
        record = self._record(graph)
        delays_key = tuple(sorted(delays.items()))
        _, critical = self._timing_for(graph, record,
                                       (record.key, delays_key), delays,
                                       impl)
        if critical > latency_bound:
            return None
        signature = allocation_signature(allocation)
        # the implementation is deliberately absent from the memo key:
        # fast and reference schedules are identical, so either may
        # serve (and populate) the same entries
        memo_key = (record.key, signature, latency_bound, area_model,
                    scheduler, stop_at_area)
        if self.cache_enabled:
            memoized = self._evaluations.get(memo_key, _MISSING)
            if memoized is not _MISSING:
                self.stats.hits += 1
                return memoized

        candidates = []
        if scheduler in ("auto", "density"):
            candidates.append(self._density_best(
                graph, record, signature, allocation, delays, delays_key,
                critical, latency_bound, area_model, stop_at_area, impl))
        if scheduler in ("auto", "list"):
            candidates.append(self._list_best(
                graph, record, signature, allocation, latency_bound,
                area_model, impl))
        feasible = [c for c in candidates if c is not None]
        result = min(feasible, key=lambda e: e.area) if feasible else None
        if self.cache_enabled:
            self._evaluations.put(memo_key, result)
        return result

    # ------------------------------------------------------------------
    # batches (the service's RPC shapes)
    # ------------------------------------------------------------------
    def evaluate_batch(self, graph: DataFlowGraph,
                       allocations: Sequence[Mapping[str, ResourceVersion]],
                       latency_bound: int,
                       area_model: Optional[str] = None,
                       stop_at_area: Optional[int] = None,
                       scheduler: Optional[str] = None,
                       scheduler_impl: Optional[str] = None
                       ) -> List[Optional["Evaluation"]]:
        """``[self.evaluate(graph, a, latency_bound, ...) for a in
        allocations]`` — the shape of the service's ``evaluate_batch``
        RPC and of its batch window (:meth:`evaluate_batch_grouped`).
        """
        return [self.evaluate(graph, allocation, latency_bound,
                              area_model=area_model,
                              stop_at_area=stop_at_area,
                              scheduler=scheduler,
                              scheduler_impl=scheduler_impl)
                for allocation in allocations]

    def evaluate_batch_grouped(
            self, requests: Sequence[tuple]
            ) -> List[Tuple[str, object]]:
        """Evaluate several :meth:`evaluate_batch` requests as merged
        groups — the engine half of the service's RPC batch window.

        *requests* is a sequence of ``(graph, allocations,
        latency_bound, options)`` tuples, *options* a mapping of
        :meth:`evaluate_batch` keyword arguments.  Returns one outcome
        per request, in order: ``("ok", evaluations)`` with exactly the
        list the request's own :meth:`evaluate_batch` call would
        return, or ``("error", exception)`` with exactly the
        :class:`~repro.errors.ReproError` it would raise — one
        request's failure never contaminates another's results
        (per-request error parity).

        Requests sharing a group key — identical graph content,
        latency bound and options — are merged into a *single*
        :meth:`evaluate_batch` call, with identical allocations
        deduplicated across requests first
        (:class:`~repro.dfg.compiled.MergedBatch` keyed on the
        allocation signature), so a duplicate submitted by several
        fleet clients in one window is computed once.  If a merged
        call raises, the group falls back to evaluating each request
        separately, which restores the exact per-request error the
        sequential path would have surfaced.
        """
        outcomes: List[Optional[Tuple[str, object]]] = \
            [None] * len(requests)
        groups: Dict[tuple, List[int]] = {}
        group_keys: List[Optional[tuple]] = []
        for index, request in enumerate(requests):
            try:
                graph, allocations, latency_bound, options = request
                options = dict(options or {})
                key = (self._record(graph).key, int(latency_bound),
                       tuple(sorted(options.items())))
            except (TypeError, ValueError, ReproError) as exc:
                outcomes[index] = ("error", exc if isinstance(
                    exc, ReproError) else ReproError(
                        f"malformed evaluate_batch request: {exc}"))
                group_keys.append(None)
                continue
            group_keys.append(key)
            groups.setdefault(key, []).append(index)
        for members in groups.values():
            if len(members) == 1:
                index = members[0]
                graph, allocations, latency_bound, options = \
                    requests[index]
                outcomes[index] = self._grouped_one(
                    graph, allocations, latency_bound, options)
                continue
            merged = MergedBatch()
            merged_members = []
            for index in members:
                graph, allocations, latency_bound, options = \
                    requests[index]
                allocations = list(allocations)
                try:
                    keys = [allocation_signature(a) for a in allocations]
                except Exception:
                    # a malformed allocation fails its own request with
                    # the exact per-item exception, nobody else's
                    outcomes[index] = self._grouped_one(
                        graph, allocations, latency_bound, options)
                    continue
                merged.add_request(allocations, keys=keys)
                merged_members.append(index)
            members = merged_members
            if not members:
                continue
            graph, _, latency_bound, options = requests[members[0]]
            try:
                flat = self.evaluate_batch(graph, merged.items,
                                           int(latency_bound),
                                           **dict(options or {}))
                per_request = merged.split(flat)
            except Exception:
                # restore exact per-request error attribution: each
                # member re-runs alone and owns whatever it raises
                for index in members:
                    graph, allocations, latency_bound, options = \
                        requests[index]
                    outcomes[index] = self._grouped_one(
                        graph, allocations, latency_bound, options)
                continue
            for index, evals in zip(members, per_request):
                outcomes[index] = ("ok", evals)
        assert all(outcome is not None for outcome in outcomes)
        return outcomes

    def _grouped_one(self, graph, allocations, latency_bound, options
                     ) -> Tuple[str, object]:
        """One request of :meth:`evaluate_batch_grouped`, alone."""
        try:
            return ("ok", self.evaluate_batch(graph, list(allocations),
                                              int(latency_bound),
                                              **dict(options or {})))
        except Exception as exc:  # the request owns its own failure
            return ("error", exc)

    # -- density -------------------------------------------------------
    def _density_best(self, graph, record, signature, allocation, delays,
                      delays_key, critical, latency_bound, area_model,
                      stop_at_area, impl):
        """The min-area density realization over ``[critical,
        latency_bound]``, earliest latency on ties, stopping at the
        first area at or below *stop_at_area* (the paper's Figure 6,
        lines 15–21).

        A cache-disabled engine binds every latency it scans: it is the
        oracle.  A caching engine does the same scan with two savings
        that cannot change the result:

        * a latency without a cached density point is costed by lane
          count (:func:`_scan_area`), and only the winning latency is
          bound and stored in the ``density`` layer;
        * the scan also stops at the allocation's area floor
          (:func:`_area_floor`), which no latency can undercut, so the
          first point there is the earliest minimum.
        """
        cached = self.cache_enabled
        stop = stop_at_area
        if cached:
            floor = _area_floor(signature)
            if stop is None or stop < floor:
                stop = floor
        latencies = range(critical, latency_bound + 1)
        if self._backend is not None and cached:
            # one round trip for the whole latency range instead of one
            # per point; local-only engines skip even building the keys
            self._density.prefetch([(record.key, signature, latency)
                                    for latency in latencies])
        best = None  # (area, latency, (schedule, binding) or point)
        for latency in latencies:
            self.stats.density_points += 1
            key = (record.key, signature, latency)
            # L1-only: the range was prefetched above
            found = self._density.get_local(key, _MISSING) if cached \
                else _MISSING
            if found is not _MISSING:
                self.stats.density_hits += 1
                if found is None:
                    continue  # an infeasible point
                area = total_area(found[1], area_model)
            else:
                found = self._schedule_point(graph, record, delays,
                                             delays_key, latency, impl)
                if found.schedule is None:
                    continue
                area = _scan_area(found.schedule, allocation, area_model) \
                    if cached else None
                if area is None:
                    found = (found.schedule,
                             self._bind_point(found, allocation, signature))
                    if cached:
                        self._density.put(key, found)
                    area = total_area(found[1], area_model)
            if best is None or area < best[0]:
                best = (area, latency, found)
            if stop is not None and area <= stop:
                break
        if best is None:
            return None
        area, latency, found = best
        if isinstance(found, _SchedulePoint):
            # the winner's real binding: lane-minimal, so its area is
            # exactly the lane count it was costed at
            found = (found.schedule,
                     self._bind_point(found, allocation, signature))
            self._density.put((record.key, signature, latency), found)
        schedule, binding = found
        return Evaluation(schedule, binding, schedule.latency, area)

    def _schedule_point(self, graph, record, delays, delays_key, latency,
                        impl) -> _SchedulePoint:
        """The delays-keyed density schedule at *latency* (memoized).

        With the fast implementation the latency-range scan warm-starts
        across bounds for free: every bound's frames derive from one
        memoized ASAP/tail pass (:func:`repro.hls.fastsched.
        base_timing`), so only the placement loop runs per latency.
        """
        key = (record.key, delays_key, latency)
        if self.cache_enabled:
            cached = self._schedules.get(key, _MISSING)
            if cached is not _MISSING:
                self.stats.schedule_reuses += 1
                return cached
        try:
            self.stats.density_schedules += 1
            if impl == "fast":
                schedule: Optional[Schedule] = \
                    fastsched.fast_density_schedule(graph, delays, latency)
            else:
                schedule = density_schedule(graph, delays, latency)
        except SchedulingError:
            schedule = None
        point = _SchedulePoint(schedule)
        if self.cache_enabled:
            self._schedules.put(key, point)
        return point

    def _bind_point(self, point: _SchedulePoint, allocation,
                    signature: AllocationSignature) -> Binding:
        """Bind *allocation* onto the point's schedule.

        When the point's previous binding covers an allocation that
        differs by exactly one operation, only the affected version
        pools are re-packed (:func:`repro.hls.binding.rebind_versions`,
        provably identical to a full left-edge bind); otherwise a full
        bind runs.  Either way the point remembers this binding for the
        next single-op delta.
        """
        if point.signature == signature and point.binding is not None:
            return point.binding
        binding: Optional[Binding] = None
        if point.binding is not None and point.signature is not None:
            delta = _signature_delta(point.signature, signature)
            if delta is not None and delta[0] == 1:
                self.stats.incremental_rebinds += 1
                binding = rebind_versions(point.schedule, allocation,
                                          point.binding, delta[1])
        if binding is None:
            self.stats.bindings += 1
            binding = left_edge_bind(point.schedule, allocation)
        if self.cache_enabled:
            point.signature = signature
            point.binding = binding
        return binding

    # -- list ----------------------------------------------------------
    def _list_best(self, graph, record, signature, allocation, latency_bound,
                   area_model, impl):
        self.stats.list_realizations += 1
        key = (record.key, signature, latency_bound)
        pair = self._list_results.get(key, _MISSING) \
            if self.cache_enabled else _MISSING
        if pair is not _MISSING:
            self.stats.list_hits += 1
        else:
            pair = self._run_list_realization(graph, record, signature,
                                              allocation, latency_bound,
                                              impl)
            if self.cache_enabled:
                self._list_results.put(key, pair)
        if pair is None:
            return None
        schedule, binding = pair
        return Evaluation(schedule, binding, schedule.latency,
                          total_area(binding, area_model))

    def _run_list_realization(self, graph, record, signature, allocation,
                              latency_bound, impl):
        """Count-driven list realization (see evaluate.py's docstring),
        with every list-schedule probe served through the probe cache."""
        unit_area = {allocation[op.op_id].name: allocation[op.op_id].area
                     for op in graph}
        counts = _count_lower_bounds(graph, allocation, latency_bound)
        max_rounds = sum(counts.values()) + len(graph)
        for _ in range(max_rounds):
            schedule = self._list_probe(graph, record, signature, allocation,
                                        counts, impl)
            if schedule.latency <= latency_bound:
                self.stats.bindings += 1
                binding = left_edge_bind(schedule, allocation)
                return (schedule, binding)
            best_name = None
            best_key = None
            for name in counts:
                trial = dict(counts)
                trial[name] += 1
                latency = self._list_probe(graph, record, signature,
                                           allocation, trial, impl).latency
                key = (latency, unit_area[name], name)
                if best_key is None or key < best_key:
                    best_key = key
                    best_name = name
            counts[best_name] += 1
        return None

    def _list_probe(self, graph, record, signature, allocation,
                    counts, impl) -> Schedule:
        key = (record.key, signature, tuple(sorted(counts.items())))
        if self.cache_enabled:
            cached = self._list_probes.get(key, _MISSING)
            if cached is not _MISSING:
                self.stats.list_probe_hits += 1
                return cached
        self.stats.list_schedules += 1
        if impl == "fast":
            schedule = fastsched.fast_list_schedule(graph, allocation,
                                                    counts)
        else:
            schedule = list_schedule(graph, allocation, counts)
        if self.cache_enabled:
            self._list_probes.put(key, schedule)
        return schedule

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def cache_size(self) -> int:
        """Number of cached entries across all layers."""
        return sum(len(layer) for layer in self._layers.values())

    def layer_sizes(self) -> Dict[str, int]:
        """Current entry count of each LRU layer."""
        return {name: len(layer) for name, layer in self._layers.items()}

    def clear(self) -> None:
        """Drop every cached entry (statistics are preserved).

        Also releases the graph registry, so long-lived processes that
        churn through many graph objects do not pin them in memory.
        """
        for layer in self._layers.values():
            layer.clear()
        self._timing_order.clear()
        self._graphs.clear()
        self._graph_keys.clear()
        self._graph_contents.clear()

    # ------------------------------------------------------------------
    # persistence (see repro.core.cache_store for the on-disk format)
    # ------------------------------------------------------------------
    def export_cache_state(self) -> Dict[str, list]:
        """Content-addressed snapshot of every cache layer.

        Each entry's graph key (a process-local integer) is replaced by
        the graph's *content* tuple, so a snapshot merged into another
        engine — a worker process, or a later CLI invocation — lands on
        the same logical entries.  Entries are listed from least- to
        most-recently used, preserving recency across a merge.
        """
        inverse = self._graph_contents
        layers: Dict[str, list] = {}
        for name, cache in self._layers.items():
            entries = []
            for key, value in cache.items():
                content = inverse.get(key[0])
                if content is None:
                    continue  # the graph registry was cleared under it
                if name == "schedules":
                    value = (value.schedule, value.signature, value.binding)
                entries.append(((content,) + tuple(key[1:]), value))
            layers[name] = entries
        return layers

    def merge_cache_state(self, layers: Mapping[str, list]) -> int:
        """Merge an :meth:`export_cache_state` snapshot into this engine.

        Entries already present locally win (their schedules reference
        live graph objects); unknown layer names are skipped, so
        snapshots remain forward-compatible within a format version.
        Returns the number of entries adopted.  No-op when caching is
        disabled.
        """
        if not self.cache_enabled:
            return 0
        merged = 0
        for name, entries in layers.items():
            cache = self._layers.get(name)
            if cache is None:
                continue
            for key, value in entries:
                content = key[0]
                local = self._graph_keys.setdefault(content,
                                                    len(self._graph_keys))
                self._graph_contents[local] = content
                local_key = (local,) + tuple(key[1:])
                if cache.get(local_key, _MISSING) is _MISSING:
                    if name == "schedules":
                        value = _SchedulePoint(*value)
                    cache.put(local_key, value)
                    merged += 1
        return merged


_default_engine: Optional[EvaluationEngine] = None


def default_engine() -> EvaluationEngine:
    """The process-wide engine backing ``evaluate_allocation``."""
    global _default_engine
    if _default_engine is None:
        _default_engine = EvaluationEngine()
    return _default_engine


def set_default_engine(engine: Optional[EvaluationEngine]
                       ) -> Optional[EvaluationEngine]:
    """Replace the process-wide engine; returns the previous one.

    Pass ``None`` to reset (a fresh default is created lazily).
    """
    global _default_engine
    previous = _default_engine
    _default_engine = engine
    return previous
