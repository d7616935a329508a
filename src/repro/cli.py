"""Command-line interface: ``python -m repro`` / ``repro-hls``.

Subcommands::

    synth BENCH --latency L --area A [--method ...]   synthesize a design
    bench [NAME]                                      list / inspect benchmarks
    characterize [--bits N]                           regenerate Table 1
    experiment NAME [--workers N]                     regenerate a table/figure
    explore BENCH --latencies .. --areas ..           Pareto sweep
    cache-serve [--address PATH] [--cache-dir DIR]    run a live cache server
    cache-stats [--address PATH | --cache-dir DIR]    query a running server
    cache-ring status|join|leave --address SPEC       reshape a live shard ring

``synth`` and ``explore`` accept ``--stats`` to print the evaluation
engine's cache statistics (evaluations requested, memo hits, schedules
run, wall time) after the result; ``explore`` and ``experiment``
accept ``--workers N`` to fan independent grid points / tables out
across processes.  ``synth``, ``explore`` and ``experiment`` accept
``--cache-dir DIR`` to persist the evaluation engine's caches across
invocations: the run pre-warms from ``DIR``'s snapshot (if any) and
saves the merged caches back on exit (``experiment all`` flushes after
*every* table/figure, so a crash keeps the earlier tables' work).  A
stale, corrupted, or version-mismatched snapshot is reported and
ignored — the run simply starts cold.

The same three commands accept ``--cache-server auto|ADDR`` to share
caches *live* across concurrent processes through a cache server
(:mod:`repro.core.cache_server`): ``ADDR`` attaches to an
already-running ``cache-serve`` process — a unix-domain socket path,
a ``tcp://host:port`` URL (pass the server's shared secret with
``--cache-token``), or a comma-separated shard ring
(``a.sock,b.sock`` / attaching to any single ring member discovers
the rest) — while ``auto`` attaches to (or spawns, for the run's
duration) a server at the default socket path — inside ``--cache-dir``
when given, so several simultaneous invocations against one cache dir
serve each other mid-run.  Sharing is best-effort and behaviourally
transparent: an unreachable or dying server — or single shard — is
reported and the run continues on local caches with identical
results.

``synth --remote ADDR`` goes one step further and submits the whole
search to the server's ``synthesize`` RPC, which executes it on the
server's warm caches and streams improving designs back; if the
server is unreachable the search runs locally with identical results.

``cache-serve --address tcp://host:port`` exposes the server over
TCP using the versioned JSON wire encoding (pickle never crosses a
TCP socket); ``--auth-token`` sets the shared secret clients must
present (one is generated and printed when omitted).
``unix-abstract://NAME`` listens in the abstract ``AF_UNIX``
namespace — local-only like a socket file, but with no file to
reclaim (it carries the TCP trust rules: json only, optional auth).
``cache-serve --shards N`` runs N servers as one consistent-hash
ring — each shard owns its slice of the key space with its own LRU
budget and write-behind snapshot — and prints the comma-separated
ring spec clients attach with.  Rings replicate every entry on two
members (RF=2): clients write both copies, fail over reads to the
replica, and read-repair the primary — so a dead shard's warm keys
are recovered, not recomputed.

``cache-stats`` queries a running server's telemetry (requests,
hit rate, entries per layer, flushes, replica hits) as text or
``--json`` — point it at ``--address`` or at the default socket
inside a ``--cache-dir``; unreachable ring members are reported, not
fatal.

``cache-ring`` inspects or reshapes a *running* ring: ``status``
prints the versioned ``(members, epoch)`` map; ``join`` adds an
already-listening server (warm-pulling its key ranges from the
previous owners before the epoch-bumped map is broadcast, so it
starts serving warm — also the re-admission path for a restarted
member); ``leave`` removes one.  Live clients adopt the new map
mid-sweep; nothing restarts.

The scheduling kernels themselves come in two interchangeable
implementations (``REPRO_SCHEDULER_IMPL=fast|reference``, default
``fast`` — the compiled array core; see the README's Performance
section).  Both produce identical designs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import NoSolutionError, ReproError

EXPERIMENTS = ("table1", "fig5", "fig7", "fig8", "fig9",
               "table2a", "table2b", "table2c", "ablations",
               "extensions", "all")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hls",
        description="Reliability-centric high-level synthesis "
                    "(Tosun et al., DATE 2005 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize one design")
    synth.add_argument("benchmark", help="benchmark name or .dfg/.json path")
    synth.add_argument("--latency", "-l", type=int, required=True,
                       help="latency bound Ld (clock cycles)")
    synth.add_argument("--area", "-a", type=int, required=True,
                       help="area bound Ad (units)")
    synth.add_argument("--method", "-m", default="ours",
                       choices=("ours", "baseline", "combined"))
    synth.add_argument("--area-model", default="instances",
                       choices=("instances", "versions"))
    synth.add_argument("--library", help="JSON library file "
                                         "(default: paper Table 1)")
    synth.add_argument("--schedule", action="store_true",
                       help="also print the step-by-step schedule")
    synth.add_argument("--json", action="store_true",
                       help="emit the result summary as JSON")
    synth.add_argument("--stats", action="store_true",
                       help="print evaluation-engine statistics afterwards")
    synth.add_argument("--cache-dir",
                       help="persist/reload engine caches in this directory")
    synth.add_argument("--cache-server", metavar="auto|ADDR",
                       help="share engine caches live through a cache "
                            "server (socket path, tcp://host:port, "
                            "or a comma-separated shard ring)")
    synth.add_argument("--cache-token",
                       help="shared secret for a tcp:// cache server")
    synth.add_argument("--remote", metavar="ADDR",
                       help="submit the search to the synthesize RPC of "
                            "the cache server at ADDR (socket path or "
                            "tcp://host:port); falls back to local "
                            "compute if unreachable")

    bench = sub.add_parser("bench", help="list or inspect benchmarks")
    bench.add_argument("name", nargs="?", help="benchmark to inspect")

    character = sub.add_parser("characterize",
                               help="regenerate Table 1 from netlists")
    character.add_argument("--bits", type=int, default=8,
                           help="datapath width of the netlists")
    character.add_argument("--calibrated-only", action="store_true",
                           help="only run the paper-anchored chain")

    experiment = sub.add_parser("experiment",
                                help="regenerate a paper table/figure")
    experiment.add_argument("name", choices=EXPERIMENTS)
    experiment.add_argument("--area-model", default="instances",
                            choices=("instances", "versions"))
    experiment.add_argument("--workers", type=int, default=None,
                            help="run independent tables across N processes")
    experiment.add_argument("--cache-dir",
                            help="persist/reload engine caches in this "
                                 "directory")
    experiment.add_argument("--cache-server", metavar="auto|ADDR",
                            help="share engine caches live through a "
                                 "cache server (socket path, "
                                 "tcp://host:port, or a comma-separated "
                                 "shard ring)")
    experiment.add_argument("--cache-token",
                            help="shared secret for a tcp:// cache server")

    explore = sub.add_parser("explore", help="Pareto sweep over bounds")
    explore.add_argument("benchmark")
    explore.add_argument("--latencies", type=int, nargs="+", required=True)
    explore.add_argument("--areas", type=int, nargs="+", required=True)
    explore.add_argument("--method", default="ours",
                         choices=("ours", "baseline", "combined"))
    explore.add_argument("--workers", type=int, default=None,
                         help="fan grid points out across N processes")
    explore.add_argument("--stats", action="store_true",
                         help="print evaluation-engine statistics afterwards")
    explore.add_argument("--cache-dir",
                         help="persist/reload engine caches in this directory")
    explore.add_argument("--cache-server", metavar="auto|ADDR",
                         help="share engine caches live through a cache "
                              "server (socket path, tcp://host:port, "
                              "or a comma-separated shard ring)")
    explore.add_argument("--cache-token",
                         help="shared secret for a tcp:// cache server")

    serve = sub.add_parser("cache-serve",
                           help="run a live shared-cache server")
    serve.add_argument("--address",
                       help="unix socket path, tcp://host:port, or "
                            "unix-abstract://name to listen on "
                            "(default: inside --cache-dir, else a "
                            "fresh temp dir)")
    serve.add_argument("--shards", type=int, default=1,
                       help="run N servers as one consistent-hash ring "
                            "(unix path P becomes P.shard0..N-1; a tcp "
                            "port p becomes p..p+N-1); clients attach "
                            "with the printed comma-separated spec or "
                            "any single member (default: 1)")
    serve.add_argument("--auth-token",
                       help="shared secret TCP clients must present "
                            "(generated and printed when omitted)")
    serve.add_argument("--cache-dir",
                       help="seed from and write-behind flush to this "
                            "directory's snapshot")
    serve.add_argument("--flush-interval", type=float, default=30.0,
                       help="seconds between write-behind snapshot "
                            "flushes (default: 30)")
    serve.add_argument("--max-snapshot-kib", type=int, default=None,
                       help="cap the flushed snapshot file size "
                            "(stalest entries are dropped first)")
    serve.add_argument("--batch-window", type=float, default=0.0,
                       metavar="MS",
                       help="aggregate evaluate_batch RPCs arriving "
                            "within this many milliseconds into one "
                            "merged engine call (0 disables windowing; "
                            "an idle server still dispatches "
                            "immediately)")

    stats = sub.add_parser("cache-stats",
                           help="query a running cache server's telemetry")
    stats.add_argument("--address",
                       help="unix socket path or tcp://host:port of the "
                            "server, or a comma-separated shard ring "
                            "(default: the socket inside --cache-dir)")
    stats.add_argument("--auth-token",
                       help="shared secret for a tcp:// server")
    stats.add_argument("--cache-dir",
                       help="cache directory whose default server socket "
                            "to query")
    stats.add_argument("--json", action="store_true",
                       help="emit the telemetry as JSON")

    ring_cmd = sub.add_parser(
        "cache-ring",
        help="inspect or reshape a running shard ring")
    ring_cmd.add_argument("action", choices=("status", "join", "leave"),
                          help="status: print the versioned member "
                               "map; join: add --member (warm-pulls "
                               "its key ranges first); leave: remove "
                               "--member")
    ring_cmd.add_argument("--address", required=True,
                          help="any reachable ring member, or the "
                               "comma-separated ring spec")
    ring_cmd.add_argument("--member",
                          help="the server address joining or leaving "
                               "(join: it must already be listening)")
    ring_cmd.add_argument("--replication", type=int, default=2,
                          help="copies per key to warm-pull for a "
                               "joining member (default: 2)")
    ring_cmd.add_argument("--auth-token",
                          help="shared secret for tcp:// members")
    ring_cmd.add_argument("--json", action="store_true",
                          help="emit the ring map as JSON")
    return parser


def _print_engine_stats() -> None:
    from repro.core import default_engine

    print(file=sys.stderr)
    print(default_engine().stats.as_text(), file=sys.stderr)


def _load_engine_cache(cache_dir: Optional[str]) -> None:
    """Pre-warm the default engine from *cache_dir*'s snapshot, if any.

    Unreadable snapshots (corruption, a future format version) are
    reported on stderr and skipped — a stale cache never fails a run.
    """
    if not cache_dir:
        return
    import os

    from repro.core import cache_store, default_engine, merge_snapshot

    path = cache_store.snapshot_path(cache_dir)
    if not os.path.exists(path):
        return
    try:
        merge_snapshot(default_engine(), cache_store.load(path))
    except ReproError as exc:
        print(f"warning: ignoring engine cache {path}: {exc}",
              file=sys.stderr)


def _save_engine_cache(cache_dir: Optional[str]) -> None:
    """Persist the default engine's caches into *cache_dir*.

    The snapshot is compacted first — bound-dominated density entries
    are pruned — which only affects file size and future hit rates,
    never results (``tests/test_property_engine.py`` pins
    cold ≡ warm ≡ compacted).
    """
    if not cache_dir:
        return
    from repro.core import (cache_store, compact_snapshot, default_engine,
                            snapshot_engine)

    path = cache_store.snapshot_path(cache_dir)
    snapshot, _ = compact_snapshot(snapshot_engine(default_engine()))
    try:
        cache_store.save(snapshot, path)
    except OSError as exc:
        print(f"warning: could not save engine cache {path}: {exc}",
              file=sys.stderr)


def _attach_cache_server(args):
    """Resolve ``--cache-server`` and attach the default engine.

    Returns ``(server, address)``: *server* is an ephemeral in-process
    :class:`~repro.core.cache_server.CacheServer` that ``auto`` mode
    spawned (``None`` when attaching to an external one), *address* is
    the attached socket path (``None`` when no sharing is active —
    unreachable servers are reported and the run continues with local
    caches only, producing identical results).
    """
    spec = getattr(args, "cache_server", None)
    if not spec:
        return None, None
    from repro.core import cache_server, default_engine

    engine = default_engine()
    token = getattr(args, "cache_token", None)
    if spec != "auto":
        if cache_server.attach_engine(engine, spec, auth_token=token):
            return None, spec
        print(f"warning: cache server at {spec!r} is unreachable; "
              f"running with local caches only", file=sys.stderr)
        return None, None
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir:
        address = cache_server.default_address(cache_dir)
        # another invocation may already be serving this cache dir —
        # share its server instead of spawning one
        if cache_server.attach_engine(engine, address):
            return None, address
    else:
        address = None  # the server owns (and cleans up) a temp dir
    try:
        server = cache_server.CacheServer(address).start()
        address = server.address
    except ReproError as exc:
        print(f"warning: cannot start a cache server: "
              f"{exc}; running with local caches only", file=sys.stderr)
        return None, None
    server.seed(engine.export_cache_state())
    if not cache_server.attach_engine(engine, address):
        server.stop()
        print(f"warning: cannot attach to own cache server at "
              f"{address!r}; running with local caches only",
              file=sys.stderr)
        return None, None
    return server, address


def _release_cache_server(server, address) -> None:
    """Detach the default engine; absorb and stop an ephemeral server.

    A no-op when :func:`_attach_cache_server` attached nothing, so a
    local run never imports the service tier.
    """
    if address is None:
        return
    from repro.core import cache_server, default_engine

    engine = default_engine()
    cache_server.detach_engine(engine)
    if server is not None:
        try:
            engine.merge_cache_state(server.export_layers())
        finally:
            server.stop()


def _load_graph(spec: str):
    from repro.bench import get_benchmark
    from repro.dfg import textio

    if spec.endswith((".dfg", ".json")):
        return textio.load(spec)
    return get_benchmark(spec)


def _load_library(path: Optional[str]):
    from repro.library import paper_library
    from repro.library import io as library_io

    if path:
        return library_io.load(path)
    return paper_library()


def _cmd_synth(args) -> int:
    from repro.core import synthesize

    if args.remote and args.method != "ours":
        print("error: --remote submits the paper's search (method "
              "'ours'); other methods run locally", file=sys.stderr)
        return 2
    graph = _load_graph(args.benchmark)
    library = _load_library(args.library)
    _load_engine_cache(args.cache_dir)
    server, address = _attach_cache_server(args)
    try:
        try:
            if args.remote:
                from repro.core import synthesize_remote

                result = synthesize_remote(
                    graph, library, args.latency, args.area,
                    address=args.remote,
                    auth_token=getattr(args, "cache_token", None),
                    area_model=args.area_model)
            else:
                result = synthesize(args.method, graph, library,
                                    args.latency, args.area,
                                    area_model=args.area_model)
        except NoSolutionError as exc:
            print(f"no solution: {exc}", file=sys.stderr)
            return 2
    finally:
        # the exploration is worth keeping even when the search failed
        _release_cache_server(server, address)
        _save_engine_cache(args.cache_dir)
    if args.json:
        print(json.dumps(result.summary(), indent=2))
    else:
        print(result.as_text())
        if args.schedule:
            print("\nschedule:")
            print(result.schedule.as_text())
    if args.stats:
        _print_engine_stats()
    return 0


def _cmd_bench(args) -> int:
    from repro.bench import benchmark_names, get_benchmark
    from repro.dfg import summarize

    if args.name:
        report = summarize(get_benchmark(args.name))
        for key, value in report.items():
            print(f"{key}: {value}")
    else:
        for name in benchmark_names():
            graph = get_benchmark(name)
            print(f"{name:<8} {len(graph):>3} ops  {graph.counts_by_rtype()}")
    return 0


def _cmd_characterize(args) -> int:
    from repro.experiments import (
        run_table1_calibrated,
        run_table1_characterized,
    )

    print(run_table1_calibrated().as_text())
    if not args.calibrated_only:
        print()
        print(run_table1_characterized(bits=args.bits).as_text())
    return 0


def _cmd_experiment(args) -> int:
    from repro import experiments
    from repro.core import default_engine
    from repro.experiments import run_suites

    _load_engine_cache(args.cache_dir)
    server, address = _attach_cache_server(args)
    model = args.area_model
    runs = {
        "table1": [(experiments.run_table1_calibrated, (), {}),
                   (experiments.run_table1_characterized, (), {})],
        "fig5": [(experiments.run_fig5, (), {})],
        "fig7": [(experiments.run_fig7, (), {})],
        "fig8": [(experiments.run_fig8a, (model,), {}),
                 (experiments.run_fig8b, (model,), {})],
        "fig9": [(experiments.run_fig9, (model,), {})],
        "table2a": [(experiments.run_table2, ("fir",),
                     {"area_model": model})],
        "table2b": [(experiments.run_table2, ("ew",),
                     {"area_model": model})],
        "table2c": [(experiments.run_table2, ("diffeq",),
                     {"area_model": model})],
        "ablations": [(experiments.run_repair_ablation, (), {}),
                      (experiments.run_refine_ablation, (), {}),
                      (experiments.run_sweep_ablation, (), {}),
                      (experiments.run_scheduler_ablation, (), {}),
                      (experiments.run_baseline_ablation, (), {})],
        "extensions": [(experiments.run_pipeline_tradeoff, (), {}),
                       (experiments.run_self_recovery_comparison, (), {}),
                       (experiments.run_voter_sensitivity, (), {}),
                       (experiments.run_extra_benchmarks, (), {}),
                       (experiments.run_montecarlo_validation, (), {})],
    }
    names = list(runs) if args.name == "all" else [args.name]
    state = {"unsaved": True}

    def _checkpoint(_name: str) -> None:
        # flush the cache dir after every table/figure so a crash mid-
        # `experiment all` keeps everything the earlier tables computed
        if server is not None and args.cache_dir:
            default_engine().merge_cache_state(server.export_layers())
        _save_engine_cache(args.cache_dir)
        state["unsaved"] = False

    suites = run_suites(
        runs, names, workers=args.workers,
        share_engine=default_engine(),
        share_mode="live" if address else "snapshot",
        server_address=address,
        server_token=getattr(args, "cache_token", None),
        checkpoint=_checkpoint)
    try:
        for index, (_name, tables) in enumerate(suites):
            state["unsaved"] = True
            if index:
                print()
            for table in tables:
                print(table.as_text())
                print()
    finally:
        _release_cache_server(server, address)
        if state["unsaved"]:  # a clean run already saved at the last
            _save_engine_cache(args.cache_dir)  # checkpoint
    return 0


def _cmd_explore(args) -> int:
    from repro.core import pareto_frontier, sweep_bounds

    graph = _load_graph(args.benchmark)
    library = _load_library(None)
    _load_engine_cache(args.cache_dir)
    server, address = _attach_cache_server(args)
    try:
        points = sweep_bounds(graph, library, args.latencies, args.areas,
                              args.method, workers=args.workers,
                              cache_server=address,
                              cache_token=getattr(args, "cache_token",
                                                  None))
    finally:
        _release_cache_server(server, address)
    _save_engine_cache(args.cache_dir)
    print(f"{'Ld':>4} {'Ad':>4} {'latency':>8} {'area':>5} {'reliability':>12}")
    for point in points:
        if point.result is None:
            print(f"{point.latency_bound:>4} {point.area_bound:>4} "
                  f"{'-':>8} {'-':>5} {'infeasible':>12}")
        else:
            result = point.result
            print(f"{point.latency_bound:>4} {point.area_bound:>4} "
                  f"{result.latency:>8} {result.area:>5} "
                  f"{result.reliability:>12.5f}")
    frontier = pareto_frontier(points)
    print(f"\nPareto frontier ({len(frontier)} points):")
    for point in sorted(frontier, key=lambda p: p.result.latency):
        result = point.result
        print(f"  latency {result.latency}  area {result.area}  "
              f"reliability {result.reliability:.5f}")
    if args.stats:
        from repro.core.explore import uses_workers

        if uses_workers(args.workers, len(args.latencies) * len(args.areas)):
            print("\nengine statistics: unavailable with --workers "
                  "(each worker process keeps its own engine)",
                  file=sys.stderr)
        else:
            _print_engine_stats()
    return 0


def _cmd_cache_serve(args) -> int:
    import os

    from repro.core import cache_server, cache_store

    address = args.address
    snapshot_file = None
    if args.cache_dir:
        snapshot_file = cache_store.snapshot_path(args.cache_dir)
        if address is None:
            address = cache_server.default_address(args.cache_dir)
    auth_token = args.auth_token
    if auth_token is None and address \
            and cache_server.parse_address(address)[0] == "tcp":
        import secrets

        auth_token = secrets.token_hex(16)
        print(f"auth token (pass to clients as --cache-token / "
              f"--auth-token): {auth_token}", file=sys.stderr)
    max_snapshot_bytes = (args.max_snapshot_kib * 1024
                          if args.max_snapshot_kib else None)
    if args.shards > 1:
        return _serve_shard_ring(args, address, auth_token,
                                 snapshot_file, max_snapshot_bytes)
    server = cache_server.CacheServer(
        address,  # None → the server owns (and cleans up) a temp dir
        auth_token=auth_token,
        snapshot_path=snapshot_file,
        flush_interval=args.flush_interval,
        max_snapshot_bytes=max_snapshot_bytes,
        batch_window=args.batch_window / 1000.0)
    if snapshot_file and os.path.exists(snapshot_file):
        try:
            adopted = server.seed(cache_store.load(snapshot_file).layers)
            print(f"seeded {adopted} entries from {snapshot_file}",
                  file=sys.stderr)
        except ReproError as exc:
            print(f"warning: ignoring engine cache {snapshot_file}: {exc}",
                  file=sys.stderr)
    server.start()
    print(f"cache server listening on {server.address}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
    stats = server.stats
    print(f"served {stats.requests} requests "
          f"({stats.hits}/{stats.gets} hits, {stats.adopted} entries "
          f"adopted, {stats.flushes} flushes)", file=sys.stderr)
    return 0


def _serve_shard_ring(args, address, auth_token, snapshot_file,
                      max_snapshot_bytes) -> int:
    """``cache-serve --shards N``: one local consistent-hash ring.

    Each shard keeps its own LRU budget and write-behind snapshot
    (``<snapshot>.shard<i>``).  Shards are re-seeded from their own
    snapshot when one exists, else from the shared single-server
    snapshot — partitioned, so every entry lands only on the shard
    clients will actually ask.
    """
    import os

    from repro.core import cache_store, shard

    ring = shard.start_shard_ring(
        args.shards, address=address, auth_token=auth_token,
        snapshot_dir=args.cache_dir,
        flush_interval=args.flush_interval,
        max_snapshot_bytes=max_snapshot_bytes,
        batch_window=args.batch_window / 1000.0)
    base = None
    if snapshot_file and os.path.exists(snapshot_file):
        try:
            base = cache_store.load(snapshot_file)
        except ReproError as exc:
            print(f"warning: ignoring engine cache {snapshot_file}: "
                  f"{exc}", file=sys.stderr)
    hash_ring = ring.ring()
    adopted = 0
    for index, server in enumerate(ring.servers):
        own = server.snapshot_path
        if own and os.path.exists(own):
            try:
                adopted += server.seed(cache_store.load(own).layers)
                continue
            except ReproError as exc:
                print(f"warning: ignoring engine cache {own}: {exc}",
                      file=sys.stderr)
        if base is not None:
            adopted += server.seed(shard.partition_layers(
                base.layers, hash_ring, index))
    if adopted:
        print(f"seeded {adopted} entries across {args.shards} shards",
              file=sys.stderr)
    for index, server in enumerate(ring.servers):
        print(f"cache shard {index} listening on {server.address}",
              flush=True)
    print(f"cache ring: {ring.address}", flush=True)
    try:
        ring.serve_forever()
    except KeyboardInterrupt:
        ring.stop()
    for index, server in enumerate(ring.servers):
        stats = server.stats
        print(f"shard {index} served {stats.requests} requests "
              f"({stats.hits}/{stats.gets} hits, {stats.adopted} "
              f"entries adopted, {stats.flushes} flushes)",
              file=sys.stderr)
    return 0


def _cmd_cache_stats(args) -> int:
    from repro.core import cache_server

    if args.address:
        address = args.address
    elif args.cache_dir:
        address = cache_server.default_address(args.cache_dir)
    else:
        print("error: pass --address or --cache-dir to locate the server",
              file=sys.stderr)
        return 2
    from repro.core.shard import parse_ring

    members = parse_ring(address)
    if len(members) > 1:
        from repro.errors import CacheError

        gathered = {}
        for member in members:
            try:
                with cache_server.CacheClient(
                        member, auth_token=args.auth_token) as client:
                    client.ping()
                    gathered[member] = client.stats()
            except CacheError:
                # a dead member is telemetry, not a query failure
                gathered[member] = None
        if all(stats is None for stats in gathered.values()):
            print(f"error: no member of {address} is reachable",
                  file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(gathered, indent=2, sort_keys=True))
            return 0
        for member, stats in gathered.items():
            if stats is None:
                print(f"{member}: unreachable")
                continue
            shard_index = stats.get("shard_index")
            label = f"shard {shard_index} at {member}" \
                if shard_index is not None else member
            print(f"{label}: {stats['gets']} lookups "
                  f"(hit rate {stats['hit_rate']:.1%}, "
                  f"negative hits {stats.get('negative_hits', 0)}, "
                  f"replica hits {stats.get('replica_hits', 0)}), "
                  f"{stats['entries']} entries, "
                  f"{stats['connections']} connections, "
                  f"ring epoch {stats.get('ring_epoch', 0)}")
        return 0
    with cache_server.CacheClient(address,
                                  auth_token=args.auth_token) as client:
        client.ping()
        stats = client.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    layer_sizes = stats.get("layer_sizes", {})
    print(f"cache server at {address}:")
    print(f"  requests    : {stats['requests']} over "
          f"{stats['connections']} connections")
    print(f"  lookups     : {stats['gets']} "
          f"(hits {stats['hits']}, hit rate {stats['hit_rate']:.1%})")
    print(f"  stores      : {stats['puts']} "
          f"(new entries {stats['adopted']})")
    print(f"  entries     : {stats['entries']} "
          f"(evictions {stats['evictions']})")
    print(f"  flushes     : {stats['flushes']} "
          f"(errors {stats['flush_errors']}, "
          f"bad frames {stats['bad_frames']})")
    print(f"  hardening   : negative hits {stats.get('negative_hits', 0)}, "
          f"accept errors {stats.get('accept_errors', 0)}, "
          f"backpressure drops "
          f"{stats.get('backpressure_disconnects', 0)}")
    print(f"  ring        : epoch {stats.get('ring_epoch', 0)}, "
          f"replica hits {stats.get('replica_hits', 0)}, "
          f"ring updates {stats.get('ring_updates', 0)}")
    if layer_sizes:
        rendered = ", ".join(f"{name}={size}"
                             for name, size in sorted(layer_sizes.items()))
        print(f"  layer sizes : {rendered}")
    return 0


def _cmd_cache_ring(args) -> int:
    from repro.core import shard

    kwargs = {}
    if args.auth_token:
        kwargs["auth_token"] = args.auth_token
    if args.action in ("join", "leave") and not args.member:
        print(f"error: cache-ring {args.action} needs --member",
              file=sys.stderr)
        return 2
    pulled = None
    if args.action == "status":
        members, epoch = shard.ring_status(args.address, **kwargs)
    elif args.action == "join":
        members, epoch, pulled = shard.join_member(
            args.address, args.member,
            replication=args.replication, **kwargs)
    else:
        members, epoch = shard.leave_member(args.address, args.member,
                                            **kwargs)
    if args.json:
        print(json.dumps({"members": list(members), "epoch": epoch,
                          "pulled": pulled}))
        return 0
    print(f"ring epoch {epoch}: {shard.format_ring(members)}")
    if pulled is not None:
        print(f"warm-pulled {pulled} entries into {args.member}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "synth": _cmd_synth,
        "bench": _cmd_bench,
        "characterize": _cmd_characterize,
        "experiment": _cmd_experiment,
        "explore": _cmd_explore,
        "cache-serve": _cmd_cache_serve,
        "cache-stats": _cmd_cache_stats,
        "cache-ring": _cmd_cache_ring,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
