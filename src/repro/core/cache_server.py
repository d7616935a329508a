"""Network evaluation service: shared caches + remote synthesis jobs.

Snapshots (:mod:`repro.core.cache_store`) let engine caches outlive a
process, but concurrent long-lived processes — parallel ``experiment``
runs, several CLI invocations pointed at one ``--cache-dir``,
cross-host client fleets — still only exchange results at fork/join or
snapshot boundaries.  This module closes that gap with a *cache and
evaluation server*: one process owns the content-addressed cache
layers and serves ``get`` / ``put`` / ``multi-get`` — plus whole
``synthesize`` and ``evaluate_batch`` jobs — to any number of client
engines over a unix-domain or TCP socket.

Pieces, bottom to top:

``frames``
    Length-prefixed payloads (a 4-byte big-endian length, then the
    payload) in one of two :mod:`repro.core.wire` codecs.  A frame
    that is oversized, truncated, or undecodable raises a clean
    :class:`~repro.errors.CacheError` on whichever side reads it —
    never a hang (both sides run on bounded clocks) and never a crash.
``CacheClient``
    A blocking request/response client over one connection.  Every
    transport failure surfaces as :class:`CacheError`; the connection
    is re-established after a failure or across ``fork()`` (an
    inherited socket is never written — the child reconnects).
``CacheServer``
    A single-threaded :mod:`selectors` event loop owning every
    connection (one process sustains thousands of idle clients without
    a thread apiece), with the same per-layer LRU caches as an
    :class:`~repro.core.engine.EvaluationEngine` — eviction is
    enforced server-side, so a runaway client cannot balloon the
    service.  Blocking work (snapshot flushes, synthesis jobs) runs on
    a small thread pool; replies are queued back through the loop.  An
    optional *write-behind flusher* persists the layers to a snapshot
    file every ``flush_interval`` seconds (only when dirty),
    compacting bound-dominated density entries first, so a server
    crash loses at most one interval of cache warmth — never
    correctness.
``synthesize`` / ``evaluate_batch`` jobs
    Remote clients submit whole :func:`~repro.core.find_design.
    find_design` searches and :meth:`~repro.core.engine.
    EvaluationEngine.evaluate_batch` calls that execute server-side on
    the compiled batched core, reading and writing the server's own
    cache layers.  ``synthesize`` streams every improving design back
    (``("design", result)`` frames) before the final reply, so a
    latency-bounded caller always holds the best design found so far.
RPC batch window (``batch_window`` / ``--batch-window``)
    With a window configured, ``evaluate_batch`` jobs arriving within
    it aggregate into *one* merged engine call per flush —
    :meth:`EvaluationEngine.evaluate_batch_grouped` deduplicates
    identical (graph, allocation, latency-bound) work across requests
    so a fleet-wide duplicate computes once — and the per-item
    results (including each request's own error, never a window
    mate's) are demultiplexed back to every connection.  The window
    flushes at its deadline, when ``batch_max_items`` allocation items
    are pending (overflow splits into several merged calls), and
    immediately while no flush is in flight, so an idle server adds
    no latency.  Results are byte-identical to unwindowed and local
    evaluation; only throughput changes.
``attach_engine`` / ``detach_engine``
    Put a :class:`~repro.core.engine.RemoteCacheBackend` speaking this
    protocol behind an engine's cache layers (local LRUs stay as
    read-through L1s).  Attachment is best-effort and fail-open: an
    unreachable or dying server leaves the engine computing locally
    with identical results.  :func:`synthesize_remote` and
    :func:`evaluate_batch_remote` extend the same contract to job
    submission — a dead server means the job runs locally, with
    identical results.
sharding (:mod:`repro.core.shard`)
    The cache tier scales horizontally: the content-addressed layers
    are partitioned by key hash across a consistent-hash ring of
    server processes.  Each shard carries the ring membership in its
    ``hello`` ack (and the ``shard_map`` request), so attaching to any
    one member discovers the ring; ``attach_engine`` and the
    ``*_remote`` helpers accept a comma-separated ring spec directly.
    Misses are answered with authoritative server-side *negative
    windows* — ``get`` returns ``(found, value, window)`` — so an
    absent key is asked once per window fleet-wide, not once per
    client.

Transports, encodings and trust:

* ``AF_UNIX`` (a filesystem path): filesystem permissions gate access
  — the same trust boundary as a ``--cache-dir``.  Both wire codecs
  are allowed; legacy clients that speak pickle without a handshake
  keep working (the server sniffs the first frame).
* Abstract-namespace ``AF_UNIX`` (``unix-abstract://name``, or a raw
  leading-``\\0`` address): local-only like a path socket, but the
  kernel owns the name — no socket file to reclaim after a SIGKILL,
  and no filesystem permissions either, so the TCP trust rules apply
  on the wire: json only (pickle refused), with the auth token
  enforced whenever the server carries one.
* TCP (``tcp://host:port``): crosses the local trust domain, so the
  pickle codec is refused outright — unpickling attacker-controlled
  bytes executes arbitrary code, and no pickle bytes ever cross a TCP
  socket in either direction.  Every TCP connection must open with a
  ``hello`` handshake carrying :data:`PROTOCOL_VERSION`, the ``json``
  encoding, and the server's shared-secret auth token; anything else
  is rejected with a clean error and a closed connection.

Wire values use the same encoding as snapshot files (content-tuple
graph keys; ``schedules`` entries as plain tuples), so the server's
layers can be seeded from an engine export and merged back verbatim.
"""

from __future__ import annotations

import errno
import hmac
import os
import selectors
import socket
import stat
import struct
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import CacheError, CacheTimeoutError, NoSolutionError, \
    ProtocolError, ReproError
from repro.core import cache_store, wire
from repro.core.design import DesignResult
from repro.core.engine import (
    EvaluationEngine,
    EvictionCounter,
    LRUCache,
    RemoteCacheBackend,
)
from repro.dfg.graph import DataFlowGraph
from repro.library.library import ResourceLibrary

#: Bumped whenever request/response shapes change; a client refuses to
#: attach to a server speaking a different version.  Version 2 added
#: the ``hello`` handshake, the json codec and the job operations.
#: Version 3 added the shard map to the hello ack (plus the
#: ``shard_map`` request) and authoritative server-side negative
#: windows: ``get`` replies are ``(found, value, window)`` and
#: ``get_many`` replies are ``(found, windows)``.  Version 4 added
#: ring epochs — the hello ack gains the epoch, plus the ``ring``,
#: ``ring_update`` and ``pull_owned`` operations behind live ring
#: membership — and replication-aware telemetry (``replica_hits``).
PROTOCOL_VERSION = 4

#: Versions this server still serves.  Version-3 peers negotiated the
#: same op set minus the ring-membership extensions, so they are
#: served unchanged: their hello ack keeps the version-3 4-tuple shape
#: (no epoch field) and their pongs echo version 3.
SUPPORTED_VERSIONS = (3, 4)

#: Hard ceiling on a single frame; anything larger is rejected with
#: :class:`CacheError` before its payload is read.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Default client-side timeout for connect and each request round trip.
CLIENT_TIMEOUT = 10.0

#: Default client-side timeout for a whole server-side job (synthesize
#: / evaluate_batch); streamed design frames reset the clock.
JOB_TIMEOUT = 600.0

#: Default server-side idle limit: a connection with no traffic (and
#: no job in flight) for this long is dropped.
SERVER_TIMEOUT = 60.0

#: Default write-behind flush period, seconds.
DEFAULT_FLUSH_INTERVAL = 30.0

#: Socket file name used for ``auto`` addresses inside a directory.
SOCKET_BASENAME = "cache-server.sock"

#: Server-side total entry budget, split across layers by the engine's
#: :attr:`~repro.core.engine.EvaluationEngine.LAYER_SHARES`.
SERVER_MAX_ENTRIES = 1_000_000

#: Worker threads executing synthesize/evaluate_batch/flush jobs.
JOB_WORKERS = 4

#: Server-side negative window, seconds: a miss is answered with an
#: authoritative "absent for this long" that every client in the fleet
#: honours locally, so one miss is asked once — not once per client.
NEGATIVE_WINDOW = 5.0

#: Bound on the server's negative-window table (stale windows are
#: pruned first; a full table of live windows is cleared outright).
MAX_NEGATIVE_WINDOWS = 65536

#: Hard per-connection reply-buffer cap: a client that stops draining
#: past this many buffered bytes is disconnected with a clean
#: ``error`` frame instead of growing server memory without bound.
MAX_OUTBUF_BYTES = 32 * 1024 * 1024

#: Soft per-connection cap for *optional* frames: streamed
#: ``synthesize`` improvement designs are dropped (never the final
#: reply) while a client's buffered replies exceed this.
STREAM_OUTBUF_BYTES = 1024 * 1024

#: How long the listener stays paused after ``accept()`` fails on a
#: resource error (EMFILE/ENFILE/ENOBUFS/ENOMEM); pausing stops the
#: still-readable listener from spinning the selector hot.
ACCEPT_RETRY_DELAY = 0.5

#: Default server-side RPC batch window, seconds (0 = disabled):
#: ``evaluate_batch`` jobs arriving within one window are merged into
#: a single engine call on the warm shared layers.
DEFAULT_BATCH_WINDOW = 0.0

#: Cap on allocation items aggregated into one window flush; a window
#: holding more splits into several merged calls.
BATCH_WINDOW_MAX_ITEMS = 4096

#: Bound on the rolling window-wait sample set behind
#: :attr:`ServerStats.window_wait_p99`.
WINDOW_WAIT_SAMPLES = 4096

#: Options a remote ``synthesize`` job may carry.
SYNTH_OPTIONS = ("area_model", "repair", "refine", "fallback",
                 "latency_sweep")

#: Options a remote ``evaluate_batch`` job may carry.
BATCH_OPTIONS = ("area_model", "scheduler")

_LEN = struct.Struct("!I")
_MISSING = object()


def default_address(base_dir: Optional[str] = None) -> str:
    """A socket path for ``auto`` mode.

    Inside *base_dir* when given (so a cache dir and its server socket
    live together), else inside a fresh private temp directory — unix
    socket paths are length-limited (~100 bytes), so the path stays
    short.
    """
    if base_dir:
        return os.path.join(base_dir, SOCKET_BASENAME)
    return os.path.join(tempfile.mkdtemp(prefix="repro-cache-"),
                        SOCKET_BASENAME)


def parse_address(address: str) -> tuple:
    """``("tcp", host, port)`` for ``tcp://host:port``,
    ``("abstract", "\\0name")`` for ``unix-abstract://name`` (or a raw
    leading-``\\0`` address), else ``("unix", path)``;
    :class:`CacheError` on a malformed tcp or abstract form.

    Abstract-namespace ``AF_UNIX`` sockets live in a kernel namespace,
    not the filesystem: no socket file to reclaim or unlink, but also
    no filesystem permissions gating access — so they carry the TCP
    trust rules (json only, optional auth) over a local-only
    transport.
    """
    if address.startswith("unix-abstract://"):
        name = address[len("unix-abstract://"):]
        if not name:
            raise CacheError(
                f"malformed abstract address {address!r}; use "
                f"unix-abstract://name")
        return ("abstract", "\0" + name)
    if address.startswith("\0"):
        if len(address) < 2:
            raise CacheError("malformed abstract address: empty name")
        return ("abstract", address)
    if not address.startswith("tcp://"):
        return ("unix", address)
    rest = address[len("tcp://"):]
    host, sep, port = rest.rpartition(":")
    if not sep or not port.isdigit():
        raise CacheError(
            f"malformed tcp address {address!r}; use tcp://host:port")
    return ("tcp", host or "127.0.0.1", int(port))


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def _send_frame(sock: socket.socket, message: tuple,
                max_bytes: int = MAX_FRAME_BYTES,
                encoding: str = "pickle") -> None:
    """Encode *message* with *encoding* and send it length-prefixed."""
    payload = wire.encode(message, encoding)
    if len(payload) > max_bytes:
        raise CacheError(
            f"cache frame of {len(payload)} bytes exceeds the "
            f"{max_bytes}-byte limit")
    try:
        sock.sendall(_LEN.pack(len(payload)) + payload)
    except socket.timeout as exc:
        raise CacheTimeoutError("cache connection timed out while "
                                "sending") from exc
    except OSError as exc:
        raise CacheError(f"cache connection failed: {exc}") from exc


def _recv_exact(sock: socket.socket, n: int,
                allow_eof: bool = False) -> Optional[bytes]:
    """Read exactly *n* bytes.

    ``None`` on a clean EOF before the first byte when *allow_eof*
    (the peer simply closed between frames); :class:`CacheError` on a
    timeout, a transport error, or a mid-frame EOF (truncation).
    """
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except socket.timeout as exc:
            raise CacheTimeoutError("cache connection timed out while "
                                    "receiving") from exc
        except OSError as exc:
            raise CacheError(f"cache connection failed: {exc}") from exc
        if not chunk:
            if allow_eof and remaining == n:
                return None
            raise CacheError("cache frame is truncated "
                             "(connection closed mid-frame)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket,
                max_bytes: int = MAX_FRAME_BYTES,
                encoding: str = "pickle") -> Optional[tuple]:
    """Read one frame; ``None`` on clean EOF, :class:`CacheError` on
    anything malformed (oversized, truncated, undecodable)."""
    header = _recv_exact(sock, _LEN.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > max_bytes:
        raise CacheError(
            f"cache frame of {length} bytes exceeds the "
            f"{max_bytes}-byte limit")
    payload = _recv_exact(sock, length)
    message = wire.decode(payload, encoding)
    if not isinstance(message, tuple) or not message \
            or not isinstance(message[0], str):
        raise CacheError("malformed cache frame "
                         "(expected an operation tuple)")
    return message


# ----------------------------------------------------------------------
# client
# ----------------------------------------------------------------------
class CacheClient:
    """Blocking request/response client for one :class:`CacheServer`.

    Thread-safe (one lock per client, requests are serialized on the
    single connection) and fork-safe: a socket inherited across
    ``fork()`` is never written — the child drops it and reconnects on
    its own (writing on the shared descriptor would interleave frames
    with the parent's requests).  Every transport problem — refused
    connection, timeout, oversized or corrupt frame, a handshake
    rejection, a server-reported error — raises
    :class:`~repro.errors.CacheError`; after a transport failure the
    connection is dropped and the next request reconnects.

    Parameters
    ----------
    address:
        ``tcp://host:port`` or a unix socket path.
    encoding:
        Wire codec (:data:`repro.core.wire.ENCODINGS`).  Defaults to
        ``"json"`` on tcp (where pickle is refused) and the legacy
        ``"pickle"`` on unix sockets.  A json client opens every
        connection with the versioned ``hello`` handshake.
    auth_token:
        Shared secret presented in the handshake; required by TCP
        servers.
    job_timeout:
        Per-reply timeout while a server-side job is in flight.
    """

    def __init__(self, address: str, timeout: float = CLIENT_TIMEOUT,
                 max_frame_bytes: int = MAX_FRAME_BYTES, *,
                 encoding: Optional[str] = None,
                 auth_token: Optional[str] = None,
                 job_timeout: float = JOB_TIMEOUT):
        self.address = address
        self.transport = parse_address(address)[0]
        if encoding is None:
            encoding = "pickle" if self.transport == "unix" else "json"
        wire.check_encoding(encoding)
        if self.transport != "unix" and encoding != "json":
            raise ProtocolError(
                f"the pickle encoding is not allowed on "
                f"{self.transport} transports; use encoding='json'")
        self.encoding = encoding
        self.auth_token = auth_token
        self.timeout = timeout
        self.job_timeout = job_timeout
        self.max_frame_bytes = max_frame_bytes
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()
        self._owner_pid = os.getpid()
        #: Ring membership learned from the hello ack (``None`` for an
        #: unsharded server or before the first handshake).
        self.server_shard_map: Optional[Tuple[str, ...]] = None
        #: Ring epoch learned from the hello ack (0 before it).
        self.server_ring_epoch: int = 0

    def _connect(self) -> socket.socket:
        parsed = parse_address(self.address)
        if parsed[0] == "tcp":
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            target: object = (parsed[1], parsed[2])
        else:
            # "unix" and "abstract" both dial AF_UNIX; the abstract
            # target is the parsed leading-\0 name
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            target = parsed[1]
        sock.settimeout(self.timeout)
        try:
            sock.connect(target)
        except OSError as exc:
            sock.close()
            raise CacheError(
                f"cannot reach cache server at {self.address!r}: "
                f"{exc}") from exc
        if self.encoding == "json":
            try:
                self._handshake(sock)
            except CacheError:
                sock.close()
                raise
        return sock

    def _handshake(self, sock: socket.socket) -> None:
        """Negotiate version + encoding + auth (always json-encoded)."""
        _send_frame(sock, ("hello", PROTOCOL_VERSION, self.encoding,
                           self.auth_token or ""),
                    self.max_frame_bytes, encoding="json")
        reply = _recv_frame(sock, self.max_frame_bytes, encoding="json")
        if reply is None:
            raise ProtocolError(
                "cache server closed the connection during the handshake")
        if reply[0] == "error":
            detail = reply[1] if len(reply) > 1 else "unspecified"
            raise ProtocolError(
                f"cache server rejected the handshake: {detail}")
        if reply[0] != "ok" or len(reply) != 2:
            raise ProtocolError(
                "cache server sent a malformed handshake reply")
        ack = reply[1]
        if not isinstance(ack, tuple) or len(ack) != 5 \
                or ack[0] != "hello":
            raise ProtocolError(
                "cache server sent a malformed handshake reply")
        if ack[1] != PROTOCOL_VERSION:
            raise ProtocolError(
                f"cache server speaks protocol {ack[1]!r}, this build "
                f"speaks {PROTOCOL_VERSION}")
        if ack[2] != self.encoding:
            raise ProtocolError(
                f"cache server switched to encoding {ack[2]!r}, "
                f"{self.encoding!r} was requested")
        self.server_shard_map = self._check_shard_map(ack[3])
        if not isinstance(ack[4], int) or ack[4] < 0:
            raise ProtocolError(
                "cache server sent a malformed ring epoch")
        self.server_ring_epoch = ack[4]

    def __getstate__(self):
        """Pickle (into a ``parallel`` worker, or inside a pickled
        :class:`~repro.core.engine.RemoteCacheBackend`) without the
        per-process transport: the socket and lock belong to the
        process that made them.  The copy reconnects lazily on first
        use, exactly like a freshly constructed client."""
        state = self.__dict__.copy()
        state["_sock"] = None
        state["_lock"] = None
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._owner_pid = os.getpid()

    @staticmethod
    def _check_shard_map(raw) -> Optional[Tuple[str, ...]]:
        if raw is None:
            return None
        if not isinstance(raw, (tuple, list)) \
                or not all(isinstance(member, str) for member in raw):
            raise ProtocolError(
                "cache server sent a malformed shard map")
        return tuple(raw)

    def _ensure_sock(self) -> socket.socket:
        """Under ``self._lock``: a usable socket owned by this process."""
        if self._sock is not None and os.getpid() != self._owner_pid:
            # inherited across fork(): the descriptor is shared with
            # the parent, so never write on it — reconnect instead
            self._drop()
        if self._sock is None:
            self._sock = self._connect()
            self._owner_pid = os.getpid()
        return self._sock

    def _request(self, message: tuple, timeout: Optional[float] = None):
        with self._lock:
            sock = self._ensure_sock()
            try:
                if timeout is not None:
                    sock.settimeout(timeout)
                _send_frame(sock, message, self.max_frame_bytes,
                            self.encoding)
                reply = _recv_frame(sock, self.max_frame_bytes,
                                    self.encoding)
            except CacheError:
                self._drop()
                raise
            finally:
                if timeout is not None and self._sock is not None:
                    self._sock.settimeout(self.timeout)
        return self._finish(reply)

    def _finish(self, reply: Optional[tuple]):
        """Validate a final ``("ok", value)`` / ``("error", msg)`` reply."""
        if reply is None:
            self._drop()
            raise CacheError("cache server closed the connection")
        if reply[0] == "error" and len(reply) > 1:
            raise CacheError(f"cache server error: {reply[1]}")
        if reply[0] != "ok" or len(reply) != 2:
            self._drop()
            raise CacheError("cache server sent a malformed reply")
        return reply[1]

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    # -- operations ----------------------------------------------------
    def ping(self) -> None:
        """Round-trip liveness + protocol version check."""
        reply = self._request(("ping",))
        if not isinstance(reply, tuple) or len(reply) != 2 \
                or reply[0] != "pong":
            raise CacheError("cache server sent a malformed ping reply")
        version = reply[1]
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"cache server speaks protocol {version!r}, "
                f"this build speaks {PROTOCOL_VERSION}")

    def get(self, layer: str, key: tuple) -> Tuple[bool, object, float]:
        """``(found, value, window)`` for one content-addressed key.

        *window* is the server's authoritative negative window in
        seconds — how long this miss may be treated as absent without
        re-asking — and ``0.0`` on a hit.
        """
        reply = self._request(("get", layer, key))
        if not isinstance(reply, tuple) or len(reply) != 3:
            raise CacheError("cache server sent a malformed get reply")
        return reply

    def get_many(self, layer: str, keys: Sequence[tuple]
                 ) -> Tuple[Dict[tuple, object], Dict[tuple, float]]:
        """``(found, windows)``: present entries among *keys*, plus the
        negative window (seconds) for each absent key."""
        reply = self._request(("get_many", layer, list(keys)))
        if not isinstance(reply, tuple) or len(reply) != 2 \
                or not isinstance(reply[0], dict) \
                or not isinstance(reply[1], dict):
            raise CacheError(
                "cache server sent a malformed get_many reply")
        return reply

    def shard_map(self) -> Optional[Tuple[str, ...]]:
        """Ring membership, or ``None`` for an unsharded server."""
        return self._check_shard_map(self._request(("shard_map",)))

    def ring(self) -> Tuple[Optional[Tuple[str, ...]], int]:
        """The server's versioned ring map: ``(members, epoch)``.
        *members* is ``None`` for an unsharded server."""
        reply = self._request(("ring",))
        if not isinstance(reply, tuple) or len(reply) != 2 \
                or not isinstance(reply[1], int):
            raise CacheError("cache server sent a malformed ring reply")
        return (self._check_shard_map(reply[0]), reply[1])

    def ring_update(self, members: Sequence[str], epoch: int
                    ) -> Tuple[Optional[Tuple[str, ...]], int]:
        """Offer the server a ``(members, epoch)`` map; it adopts the
        map iff *epoch* is newer than its own.  Returns the server's
        ring map after the offer (its own when the offer was stale)."""
        reply = self._request(("ring_update", list(members),
                               int(epoch)))
        if not isinstance(reply, tuple) or len(reply) != 2 \
                or not isinstance(reply[1], int):
            raise CacheError(
                "cache server sent a malformed ring_update reply")
        return (self._check_shard_map(reply[0]), reply[1])

    def pull_owned(self, members: Sequence[str], index: int,
                   rf: int = 1) -> Dict[str, list]:
        """The server's entries that shard *index* of the ring over
        *members* holds (``{layer: [(key, value), ...]}``) — how a
        joining member warm-pulls its key ranges from a previous
        owner.  Runs with the job timeout: the export can be large."""
        reply = self._request(("pull_owned", list(members), int(index),
                               int(rf)), timeout=self.job_timeout)
        if not isinstance(reply, dict):
            raise CacheError(
                "cache server sent a malformed pull_owned reply")
        return reply

    def put(self, layer: str, key: tuple, value: object) -> int:
        """Insert one entry; returns 1 if the key was new."""
        return self._request(("put", layer, key, value))

    def put_many(self, entries: Sequence[Tuple[str, tuple, object]]) -> int:
        """Insert a batch of ``(layer, key, value)``; returns new-key
        count."""
        return self._request(("put_many", list(entries)))

    def stats(self) -> Dict[str, object]:
        """Server telemetry snapshot (gets, hits, puts, entries, ...)."""
        return self._request(("stats",))

    def flush(self) -> Optional[str]:
        """Force a write-behind flush; returns the snapshot path."""
        return self._request(("flush",), timeout=self.job_timeout)

    def shutdown(self) -> None:
        """Ask the server to stop (it replies before exiting)."""
        self._request(("shutdown",))

    # -- jobs ----------------------------------------------------------
    def evaluate_batch(self, graph: DataFlowGraph, allocations,
                       latency_bound: int, **options) -> list:
        """Run one server-side :meth:`EvaluationEngine.evaluate_batch`.

        Returns the evaluations list (``None`` per infeasible item),
        exactly as the local call would.  *options* may carry
        ``area_model`` and ``scheduler``.  A job still unanswered at
        ``job_timeout`` raises :class:`~repro.errors.CacheTimeoutError`
        (not a generic :class:`CacheError`): the server may simply be
        aggregating its RPC batch window.  The timed-out connection is
        dropped and the next request reconnects cleanly.
        """
        try:
            reply = self._request(
                ("evaluate_batch", graph, list(allocations),
                 latency_bound, dict(options)),
                timeout=self.job_timeout)
        except CacheTimeoutError as exc:
            raise CacheTimeoutError(
                f"evaluate_batch job did not complete within "
                f"job_timeout={self.job_timeout}s (the server may still "
                f"be aggregating its RPC batch window); the connection "
                f"was dropped and will reconnect on the next request"
            ) from exc
        if not isinstance(reply, tuple) or len(reply) != 2 \
                or reply[0] != "evals" or not isinstance(reply[1], list):
            raise CacheError(
                "cache server sent a malformed evaluate_batch reply")
        return reply[1]

    def synthesize(self, graph: DataFlowGraph, library: ResourceLibrary,
                   latency_bound: int, area_bound: int, *,
                   on_design=None, **options) -> DesignResult:
        """Run one server-side :func:`find_design` job.

        The server streams every improving design as it is found;
        *on_design* (when given) receives each one before the final
        result arrives.  Raises :class:`NoSolutionError` exactly as
        the local search would, and :class:`CacheError` on any
        transport problem.  *options* may carry ``area_model``,
        ``repair``, ``refine``, ``fallback`` and ``latency_sweep``.
        """
        message = ("synthesize", graph, library, int(latency_bound),
                   int(area_bound), dict(options))
        with self._lock:
            sock = self._ensure_sock()
            try:
                sock.settimeout(self.job_timeout)
                _send_frame(sock, message, self.max_frame_bytes,
                            self.encoding)
                while True:
                    reply = _recv_frame(sock, self.max_frame_bytes,
                                        self.encoding)
                    if reply is None:
                        raise CacheError(
                            "cache server closed the connection "
                            "mid-job")
                    if reply[0] == "design" and len(reply) == 2:
                        if on_design is not None:
                            on_design(reply[1])
                        continue
                    break
            except CacheTimeoutError as exc:
                self._drop()
                raise CacheTimeoutError(
                    f"synthesize job sent no frame within "
                    f"job_timeout={self.job_timeout}s (the server may "
                    f"still be aggregating its RPC batch window); the "
                    f"connection was dropped and will reconnect on the "
                    f"next request") from exc
            except BaseException:
                # transport errors *and* a raising on_design callback:
                # the stream position is unknowable now
                self._drop()
                raise
            finally:
                if self._sock is not None:
                    self._sock.settimeout(self.timeout)
        outcome = self._finish(reply)
        if isinstance(outcome, tuple) and len(outcome) == 2 \
                and outcome[0] == "done" \
                and isinstance(outcome[1], DesignResult):
            return outcome[1]
        if isinstance(outcome, tuple) and len(outcome) == 4 \
                and outcome[0] == "nosolution":
            raise NoSolutionError(str(outcome[1]), latency=outcome[2],
                                  area=outcome[3])
        raise CacheError("cache server sent a malformed synthesize reply")

    def close(self) -> None:
        with self._lock:
            if os.getpid() != self._owner_pid:
                self._sock = None  # inherited: the parent owns the fd
            else:
                self._drop()

    def __enter__(self) -> "CacheClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# server
# ----------------------------------------------------------------------
@dataclass
class ServerStats:
    """Telemetry accumulated by one :class:`CacheServer`."""

    connections: int = 0
    requests: int = 0
    gets: int = 0            # single keys looked up (incl. multi-get)
    hits: int = 0            # ... that were present
    puts: int = 0            # entries received
    adopted: int = 0         # ... that were new keys
    evictions: int = 0       # LRU drops across all layers
    flushes: int = 0         # write-behind snapshots written
    flush_errors: int = 0    # failed flush attempts (kept serving)
    bad_frames: int = 0      # malformed/oversized frames rejected
    handshakes: int = 0      # hello exchanges accepted
    auth_failures: int = 0   # handshakes rejected (token/version/codec)
    jobs: int = 0            # synthesize/evaluate_batch jobs accepted
    job_errors: int = 0      # ... that ended in an error reply
    designs_streamed: int = 0  # improving designs pushed to clients
    designs_dropped: int = 0   # ... withheld from non-draining clients
    negative_hits: int = 0   # misses answered from a live window
    replica_hits: int = 0    # hits on keys another member is primary for
    ring_updates: int = 0    # newer ring maps adopted via ring_update
    accept_errors: int = 0   # accept() resource failures (paused, lived)
    backpressure_disconnects: int = 0  # clients dropped at the outbuf cap
    window_batches: int = 0  # merged window flushes dispatched
    window_items: int = 0    # jobs aggregated through the batch window
    window_wait_p99: float = 0.0  # p99 seconds a job waited in the window

    @property
    def hit_rate(self) -> float:
        return self.hits / self.gets if self.gets else 0.0

    @property
    def window_fill(self) -> float:
        """Mean jobs merged per window flush (1.0 = no aggregation)."""
        return self.window_items / self.window_batches \
            if self.window_batches else 0.0

    def as_dict(self) -> Dict[str, float]:
        snapshot: Dict[str, float] = {
            name: getattr(self, name) for name in self.__dataclass_fields__
        }
        snapshot["hit_rate"] = self.hit_rate
        snapshot["window_fill"] = self.window_fill
        return snapshot


class _Connection:
    """Per-connection state owned by the server's event loop."""

    __slots__ = ("sock", "transport", "codec", "handshaken", "version",
                 "inbuf", "outbuf", "frame_len", "last_active",
                 "close_after_send", "busy", "closed")

    def __init__(self, sock: socket.socket, transport: str, now: float):
        self.sock = sock
        self.transport = transport
        self.codec: Optional[str] = None   # sniffed or negotiated
        self.handshaken = False
        #: Negotiated protocol version; replies (pongs) echo it so a
        #: version-3 peer never sees a version-4 number.  Legacy
        #: no-handshake pickle peers run at the current version.
        self.version = PROTOCOL_VERSION
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.frame_len: Optional[int] = None
        self.last_active = now
        self.close_after_send = False
        self.busy = False        # a job owns the request stream
        self.closed = False

    @property
    def reply_codec(self) -> str:
        """Codec for replies, incl. before the first frame decoded."""
        if self.codec is not None:
            return self.codec
        return "pickle" if self.transport == "unix" else "json"


class _LoopbackClient:
    """In-process CacheClient double: jobs read/write the server layers.

    Duck-types the client surface :class:`~repro.core.engine.
    RemoteCacheBackend` needs (``get`` / ``get_many`` / ``put_many`` /
    ``close``), operating directly on the owning server's LRU layers
    under its lock — so job engines share cache warmth with every
    remote client, and results computed for one client serve the next.
    """

    def __init__(self, server: "CacheServer"):
        self._server = server

    def get(self, layer: str, key: tuple) -> Tuple[bool, object, float]:
        return self._server._get(layer, key)

    def get_many(self, layer: str, keys
                 ) -> Tuple[Dict[tuple, object], Dict[tuple, float]]:
        return self._server._get_many(layer, keys)

    def put_many(self, entries) -> int:
        return self._server._adopt(entries)

    def close(self) -> None:
        pass


class _LoopbackBackend(RemoteCacheBackend):
    """The job engines' backend: batch-safe, marker-free.

    ``BATCH_SAFE`` keeps :meth:`EvaluationEngine.evaluate_batch` on
    the vectorized compiled core — the loopback "round trip" is a dict
    lookup, so the per-item prefetch protocol that justifies the
    remote fallback does not apply.  Negative markers are disabled:
    the server's layers *are* the shared truth, so a miss marker could
    only mask a store made milliseconds later.
    """

    BATCH_SAFE = True

    def __init__(self, client: _LoopbackClient):
        super().__init__(client, negative_ttl=0.0)


class CacheServer:
    """A selector-driven cache and evaluation service.

    Owns one content-addressed LRU per engine cache layer and serves
    the frame protocol above on a unix-domain socket (a filesystem
    path) or TCP (``tcp://host:port``, requires *auth_token*).
    ``start()`` binds and returns immediately (the event loop runs on
    a background thread); ``serve_forever`` blocks until :meth:`stop`
    or a remote ``shutdown`` request.

    Parameters
    ----------
    address:
        Socket path or ``tcp://host:port`` (port 0 picks a free port;
        :attr:`address` is rewritten to the bound one).  Default
        :func:`default_address`.
    auth_token:
        Shared secret TCP clients must present in their handshake.
        Required for TCP; optional (and unused by legacy pickle
        clients) on unix sockets.
    max_entries / layer_capacities:
        Server-side LRU budget, split across layers exactly like an
        engine's (:attr:`EvaluationEngine.LAYER_SHARES`).
    snapshot_path:
        Enables the write-behind flusher: the layers are persisted
        here (compacted, size-capped) every *flush_interval* seconds
        when dirty, and once more on :meth:`stop`.
    max_snapshot_bytes:
        File-size cap handed to :func:`~repro.core.cache_store.
        compact_snapshot` before each flush.
    job_workers:
        Thread-pool width for synthesize/evaluate_batch/flush jobs.
    negative_window:
        Seconds a miss is authoritatively answered as "absent" before
        clients may re-ask (0 disables negative windows).
    max_outbuf_bytes / stream_outbuf_bytes:
        Backpressure limits: the hard per-connection reply-buffer cap
        (disconnect with a clean error frame beyond it) and the soft
        cap past which optional streamed design frames are dropped.
    batch_window / batch_max_items:
        RPC window aggregation (0 disables it): ``evaluate_batch``
        jobs arriving within *batch_window* seconds are merged into
        one :meth:`EvaluationEngine.evaluate_batch_grouped` call on
        the warm shared layers, with identical (graph, allocation,
        latency-bound) work deduplicated across requests, and the
        per-item results demultiplexed back to each connection.  The
        window flushes early when the pending jobs reach
        *batch_max_items* allocation items (splitting into several
        merged calls) and *immediately* when no window flush is in
        flight — an idle executor means waiting could only add
        latency.  ``synthesize`` jobs always dispatch immediately
        (their candidate rounds already run batched inside
        :func:`~repro.core.find_design.find_design`).
    shard_map / shard_index / ring_epoch:
        Ring membership (every member's address, in ring order), this
        server's position in it, and the map's version — served to
        clients in the hello ack and the ``shard_map`` / ``ring``
        requests.  Usually assigned by
        :func:`repro.core.shard.start_shard_ring` rather than passed
        here (addresses are only known once every member is bound);
        a running server adopts newer maps offered via the
        ``ring_update`` op (:func:`repro.core.shard.join_member` /
        :func:`~repro.core.shard.leave_member`).
    """

    def __init__(self, address: Optional[str] = None, *,
                 auth_token: Optional[str] = None,
                 max_entries: int = SERVER_MAX_ENTRIES,
                 layer_capacities: Optional[Mapping[str, int]] = None,
                 snapshot_path: Optional[str] = None,
                 flush_interval: float = DEFAULT_FLUSH_INTERVAL,
                 max_snapshot_bytes: Optional[int] = None,
                 timeout: float = SERVER_TIMEOUT,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 job_workers: int = JOB_WORKERS,
                 negative_window: float = NEGATIVE_WINDOW,
                 max_outbuf_bytes: int = MAX_OUTBUF_BYTES,
                 stream_outbuf_bytes: int = STREAM_OUTBUF_BYTES,
                 batch_window: float = DEFAULT_BATCH_WINDOW,
                 batch_max_items: int = BATCH_WINDOW_MAX_ITEMS,
                 shard_map: Optional[Sequence[str]] = None,
                 shard_index: Optional[int] = None,
                 ring_epoch: int = 0):
        overrides = dict(layer_capacities or {})
        unknown = sorted(set(overrides)
                         - set(EvaluationEngine.LAYER_SHARES))
        if unknown:
            raise ReproError(
                f"unknown cache layers {unknown}; use one of "
                f"{sorted(EvaluationEngine.LAYER_SHARES)}")
        # with no address the server owns a private temp dir, removed
        # again on stop(); a caller-provided path is never cleaned up
        self._owns_directory = address is None
        self.address = address if address is not None else default_address()
        self.transport = parse_address(self.address)[0]
        if self.transport == "tcp" and not auth_token:
            raise ReproError(
                "a tcp cache server requires auth_token= (TCP peers "
                "authenticate with a shared secret)")
        self.auth_token = auth_token
        self.snapshot_path = snapshot_path
        self.flush_interval = flush_interval
        self.max_snapshot_bytes = max_snapshot_bytes
        self.timeout = timeout
        self.max_frame_bytes = max_frame_bytes
        self.job_workers = max(1, int(job_workers))
        self.negative_window = max(0.0, float(negative_window))
        self.max_outbuf_bytes = int(max_outbuf_bytes)
        self.stream_outbuf_bytes = int(stream_outbuf_bytes)
        self.batch_window = max(0.0, float(batch_window))
        self.batch_max_items = max(1, int(batch_max_items))
        self._ring_cache = None  # lazily built from the shard map
        self.shard_map = tuple(shard_map) if shard_map else None
        self.shard_index = shard_index
        self.ring_epoch = int(ring_epoch)
        self.stats = ServerStats()
        # evictions are counted under self._lock (all layer ops are)
        on_evict = EvictionCounter(self.stats)
        self._layers: Dict[str, LRUCache] = {
            name: LRUCache(
                int(overrides.get(name, max(1, int(max_entries * share)))),
                on_evict)
            for name, share in EvaluationEngine.LAYER_SHARES.items()
        }
        self._lock = threading.Lock()
        self._dirty = 0          # bumped per adopted entry
        self._flushed_mark = 0   # _dirty value at the last flush
        # (layer, key) -> monotonic deadline; misses inside the window
        # are answered without touching the table again
        self._negative: Dict[tuple, float] = {}
        self._accept_paused_until = 0.0
        self._stop = threading.Event()
        self._stopped = False
        self._listener: Optional[socket.socket] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._flush_thread: Optional[threading.Thread] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._job_local = threading.local()
        self._conns: set = set()
        # job threads hand (conn, message) frames and job completions
        # back to the loop through this queue + the waker socketpair
        self._io_lock = threading.Lock()
        self._io_queue: deque = deque()
        self._waker_r: Optional[socket.socket] = None
        self._waker_w: Optional[socket.socket] = None
        # RPC batch window (loop-thread-only state): jobs waiting to be
        # merged, the deadline of the open window, how many merged
        # flushes are executing, and a rolling wait-time sample set
        self._window: deque = deque()   # (conn, message, queued_at, items)
        self._window_deadline: Optional[float] = None
        self._window_inflight = 0
        self._window_waits: deque = deque(maxlen=WINDOW_WAIT_SAMPLES)

    # -- ring membership -----------------------------------------------
    @property
    def shard_map(self) -> Optional[Tuple[str, ...]]:
        """Ring membership, or ``None`` for an unsharded server."""
        return self._shard_map

    @shard_map.setter
    def shard_map(self, value) -> None:
        self._shard_map = tuple(value) if value else None
        self._ring_cache = None  # rebuilt lazily for the new map

    def _member_ring(self):
        """This member's view of the hash ring (``None`` unsharded or
        single-member: nothing to be a replica *of*)."""
        members = self._shard_map
        if members is None or len(members) < 2:
            return None
        ring = self._ring_cache
        if ring is None or ring.members != members:
            from repro.core.shard import ShardRing

            ring = self._ring_cache = ShardRing(members)
        return ring

    def _is_replica(self, layer: str, key: tuple) -> bool:
        """Whether another ring member is primary for this key — a hit
        here means replication served a key its owner could not."""
        ring = self._member_ring()
        if ring is None or self.shard_index is None:
            return False
        return ring.owner_index(layer, key) != self.shard_index

    # -- lifecycle -----------------------------------------------------
    def _bind_unix(self) -> socket.socket:
        path = self.address
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        if os.path.exists(path):
            self._clear_stale_socket(path)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(path)
        except OSError as exc:
            listener.close()
            raise CacheError(
                f"cannot bind cache server socket {path!r}: "
                f"{exc}") from exc
        return listener

    @staticmethod
    def _clear_stale_socket(path: str) -> None:
        """Unlink *path* iff it is a dead server's leftover socket.

        A server killed hard (SIGKILL, power loss) cannot unlink its
        socket file, and a later bind on the same path fails even
        though nobody is serving.  Probe-connect distinguishes the
        cases: connect refused / vanished means stale (unlink it), a
        successful connect means a live server (refuse to steal the
        address), and a non-socket file is never touched.
        """
        try:
            if not stat.S_ISSOCK(os.stat(path).st_mode):
                raise CacheError(
                    f"cache server path {path!r} exists and is not a "
                    f"socket; refusing to replace it")
        except FileNotFoundError:
            return  # raced with another cleanup; bind decides
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.settimeout(1.0)
        try:
            probe.connect(path)
        except (ConnectionRefusedError, FileNotFoundError):
            try:
                os.unlink(path)  # a previous server's stale socket
            except OSError:
                pass
        except OSError as exc:
            raise CacheError(
                f"cannot probe cache server socket {path!r}: "
                f"{exc}") from exc
        else:
            raise CacheError(
                f"cache server socket {path!r} is already in use by a "
                f"live server")
        finally:
            probe.close()

    def _bind_abstract(self) -> socket.socket:
        """Bind an abstract-namespace AF_UNIX listener.

        The kernel owns the name: nothing to ``makedirs``, no stale
        socket file to probe-and-reclaim, nothing to unlink on stop —
        the name vanishes with the last descriptor, so a SIGKILLed
        server never wedges its address.
        """
        _, name = parse_address(self.address)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(name)
        except OSError as exc:
            listener.close()
            raise CacheError(
                f"cannot bind cache server socket {self.address!r}: "
                f"{exc}") from exc
        return listener

    def _bind_tcp(self) -> socket.socket:
        _, host, port = parse_address(self.address)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((host, port))
        except OSError as exc:
            listener.close()
            raise CacheError(
                f"cannot bind cache server socket {self.address!r}: "
                f"{exc}") from exc
        bound_host, bound_port = listener.getsockname()[:2]
        self.address = f"tcp://{host or bound_host}:{bound_port}"
        return listener

    def start(self) -> "CacheServer":
        """Bind the socket and start the event loop in the background."""
        if self.transport == "tcp":
            listener = self._bind_tcp()
        elif self.transport == "abstract":
            listener = self._bind_abstract()
        else:
            listener = self._bind_unix()
        listener.listen(128)
        listener.setblocking(False)
        self._listener = listener
        self._waker_r, self._waker_w = socket.socketpair()
        self._waker_r.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ,
                                "listener")
        self._selector.register(self._waker_r, selectors.EVENT_READ,
                                "waker")
        self._executor = ThreadPoolExecutor(
            max_workers=self.job_workers,
            thread_name_prefix="cache-server-job")
        loop = threading.Thread(target=self._loop,
                                name="cache-server-loop", daemon=True)
        loop.start()
        self._loop_thread = loop
        if self.snapshot_path:
            flusher = threading.Thread(target=self._flush_loop,
                                       name="cache-server-flush",
                                       daemon=True)
            flusher.start()
            self._flush_thread = flusher
        return self

    def serve_forever(self) -> None:
        """Block until :meth:`stop` or a remote ``shutdown``."""
        self._stop.wait()
        self.stop()

    @property
    def stopped(self) -> bool:
        """True once the server is stopping (or has stopped)."""
        return self._stop.is_set()

    def stop(self) -> None:
        """Stop accepting, drop clients, flush once, remove the socket."""
        self._stop.set()
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
        self._wake()
        if self._loop_thread is not None \
                and self._loop_thread is not threading.current_thread():
            self._loop_thread.join(timeout=5.0)
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
        if self._flush_thread is not None \
                and self._flush_thread is not threading.current_thread():
            self._flush_thread.join(timeout=5.0)
        try:
            self.flush()
        except ReproError:
            self.stats.flush_errors += 1
        if self.transport == "unix":
            try:
                os.unlink(self.address)
            except OSError:
                pass
            if self._owns_directory:
                try:
                    os.rmdir(os.path.dirname(
                        os.path.abspath(self.address)))
                except OSError:
                    pass  # someone else put files there; leave it

    def __enter__(self) -> "CacheServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- cache state ---------------------------------------------------
    def seed(self, layers: Mapping[str, list]) -> int:
        """Adopt content-addressed *layers* (an engine export or a
        snapshot's layers); existing server entries win.  Returns the
        entries adopted."""
        adopted = 0
        with self._lock:
            for name, entries in layers.items():
                cache = self._layers.get(name)
                if cache is None:
                    continue
                for key, value in entries:
                    if cache.get(key, _MISSING) is _MISSING:
                        cache.put(key, value)
                        adopted += 1
                    self._negative.pop((name, key), None)
            self._dirty += adopted
        return adopted

    def export_layers(self) -> Dict[str, list]:
        """Copy of every layer, LRU-ordered — the engine-export shape,
        directly mergeable via
        :meth:`EvaluationEngine.merge_cache_state`."""
        with self._lock:
            return {name: list(cache.items())
                    for name, cache in self._layers.items()}

    def export_snapshot(self) -> cache_store.EngineSnapshot:
        """The layers wrapped as a snapshot (for saving/merging)."""
        return cache_store.EngineSnapshot(layers=self.export_layers())

    def entry_count(self) -> int:
        with self._lock:
            return sum(len(cache) for cache in self._layers.values())

    def flush(self) -> Optional[str]:
        """Write-behind flush: persist the layers if dirty.

        Compacts bound-dominated density entries and enforces
        ``max_snapshot_bytes`` before writing.  Returns the snapshot
        path, or ``None`` when flushing is disabled or nothing
        changed.
        """
        if not self.snapshot_path:
            return None
        with self._lock:
            if self._dirty == self._flushed_mark:
                return None
            mark = self._dirty
            layers = {name: list(cache.items())
                      for name, cache in self._layers.items()}
        snapshot = cache_store.EngineSnapshot(layers=layers)
        snapshot, _ = cache_store.compact_snapshot(
            snapshot, max_bytes=self.max_snapshot_bytes)
        try:
            cache_store.save(snapshot, self.snapshot_path)
        except OSError as exc:
            raise CacheError(
                f"cache server cannot flush to "
                f"{self.snapshot_path!r}: {exc}") from exc
        with self._lock:
            self._flushed_mark = mark
            self.stats.flushes += 1
        return self.snapshot_path

    def _flush_loop(self) -> None:
        while not self._stop.wait(self.flush_interval):
            try:
                self.flush()
            except ReproError:
                with self._lock:
                    self.stats.flush_errors += 1

    # -- event loop ----------------------------------------------------
    def _wake(self) -> None:
        if self._waker_w is not None:
            try:
                self._waker_w.send(b"\0")
            except OSError:
                pass

    def _loop(self) -> None:
        try:
            while not self._stop.is_set():
                timeout = 0.2
                if self._window_deadline is not None:
                    # wake exactly when the open batch window expires
                    timeout = min(timeout, max(
                        0.0, self._window_deadline - time.monotonic()))
                events = self._selector.select(timeout=timeout)
                now = time.monotonic()
                self._maybe_resume_accept(now)
                for key, mask in events:
                    if key.data == "listener":
                        self._accept(now)
                    elif key.data == "waker":
                        try:
                            while self._waker_r.recv(4096):
                                pass
                        except OSError:
                            pass
                    else:
                        conn = key.data
                        if mask & selectors.EVENT_WRITE:
                            self._writable(conn)
                        if mask & selectors.EVENT_READ \
                                and not conn.closed:
                            self._readable(conn, now)
                self._drain_io_queue()
                if self._window_deadline is not None \
                        and time.monotonic() >= self._window_deadline:
                    self._flush_window(time.monotonic())
                self._sweep_idle(now)
        finally:
            for conn in list(self._conns):
                self._close_conn(conn)
            for sock in (self._listener, self._waker_r, self._waker_w):
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass
            if self._selector is not None:
                self._selector.close()
            self._stop.set()

    def _accept(self, now: float) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                if exc.errno in (errno.ECONNABORTED, errno.EPROTO):
                    # the peer vanished between select and accept;
                    # nothing is wrong with *us* — keep accepting
                    continue
                # resource exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM)
                # or a transient kernel error: the listener is still
                # readable, so returning would spin the selector hot.
                # Pause accepting briefly; existing connections keep
                # being served, and closing any of them frees the
                # descriptors the next accept needs.
                with self._lock:
                    self.stats.accept_errors += 1
                self._pause_accept(now)
                return
            sock.setblocking(False)
            conn = _Connection(sock, self.transport, now)
            self._conns.add(conn)
            with self._lock:
                self.stats.connections += 1
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _pause_accept(self, now: float) -> None:
        """Unregister the listener for :data:`ACCEPT_RETRY_DELAY`."""
        if self._accept_paused_until > now:
            return
        self._accept_paused_until = now + ACCEPT_RETRY_DELAY
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError, OSError):
            pass

    def _maybe_resume_accept(self, now: float) -> None:
        if not self._accept_paused_until \
                or now < self._accept_paused_until:
            return
        self._accept_paused_until = 0.0
        try:
            self._selector.register(self._listener,
                                    selectors.EVENT_READ, "listener")
        except (KeyError, ValueError, OSError):
            # still out of resources (epoll registration can need an
            # fd): stay paused another interval rather than dying
            self._accept_paused_until = now + ACCEPT_RETRY_DELAY

    def _set_mask(self, conn: _Connection) -> None:
        if conn.closed or self._selector is None:
            return
        mask = selectors.EVENT_READ
        if conn.outbuf:
            mask |= selectors.EVENT_WRITE
        try:
            self._selector.modify(conn.sock, mask, conn)
        except (KeyError, ValueError, OSError):
            pass

    def _close_conn(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        self._conns.discard(conn)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass

    def _readable(self, conn: _Connection, now: float) -> None:
        try:
            data = conn.sock.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_conn(conn)
            return
        if not data:
            self._close_conn(conn)  # jobs in flight discard their reply
            return
        conn.inbuf += data
        conn.last_active = now
        self._process(conn)

    def _writable(self, conn: _Connection) -> None:
        if conn.outbuf:
            try:
                sent = conn.sock.send(bytes(conn.outbuf))
                del conn.outbuf[:sent]
            except (BlockingIOError, InterruptedError):
                # zero bytes fit (AF_UNIX refuses partial writes of a
                # frame larger than the free buffer): EVENT_WRITE must
                # still be armed, or a connection whose mask was
                # read-only when the kernel buffer filled wedges with
                # replies buffered forever
                self._set_mask(conn)
                return
            except OSError:
                self._close_conn(conn)
                return
        if not conn.outbuf and conn.close_after_send:
            self._close_conn(conn)
            return
        self._set_mask(conn)

    def _process(self, conn: _Connection) -> None:
        """Parse and serve every complete frame buffered on *conn*."""
        while not conn.closed and not conn.busy \
                and not conn.close_after_send:
            if conn.frame_len is None:
                if len(conn.inbuf) < _LEN.size:
                    return
                (length,) = _LEN.unpack(bytes(conn.inbuf[:_LEN.size]))
                if length > self.max_frame_bytes:
                    self._bad_frame(conn, (
                        f"cache frame of {length} bytes exceeds the "
                        f"{self.max_frame_bytes}-byte limit"))
                    return
                del conn.inbuf[:_LEN.size]
                conn.frame_len = length
            if len(conn.inbuf) < conn.frame_len:
                return
            payload = bytes(conn.inbuf[:conn.frame_len])
            del conn.inbuf[:conn.frame_len]
            conn.frame_len = None
            self._handle_payload(conn, payload)

    def _bad_frame(self, conn: _Connection, message: str) -> None:
        """Report a frame-level violation, then close: the stream
        position is unknowable now."""
        with self._lock:
            self.stats.bad_frames += 1
        self._queue_send(conn, ("error", message), close_after=True)

    def _handle_payload(self, conn: _Connection, payload: bytes) -> None:
        if conn.codec is None:
            if conn.transport != "unix":
                # TCP and abstract-namespace peers are outside the
                # filesystem trust boundary: never negotiate down to
                # pickle, never unpickle their bytes — json or reject
                conn.codec = "json"
            else:
                conn.codec = wire.sniff_encoding(payload)
                if conn.codec == "pickle":
                    # a legacy client; no handshake is coming
                    conn.handshaken = True
        try:
            message = wire.decode(payload, conn.codec)
            if not isinstance(message, tuple) or not message \
                    or not isinstance(message[0], str):
                raise CacheError("malformed cache frame "
                                 "(expected an operation tuple)")
        except CacheError as exc:
            self._bad_frame(conn, str(exc))
            return
        if not conn.handshaken:
            self._handle_handshake(conn, message)
            return
        self._serve_message(conn, message)

    def _handle_handshake(self, conn: _Connection, message: tuple) -> None:
        def reject(reason: str) -> None:
            with self._lock:
                self.stats.auth_failures += 1
            self._queue_send(conn, ("error", reason), close_after=True)

        if message[0] != "hello":
            reject("handshake required: open the connection with a "
                   "('hello', version, encoding, token) frame")
            return
        if len(message) != 4:
            reject("malformed hello frame")
            return
        _, version, encoding, token = message
        if version not in SUPPORTED_VERSIONS:
            reject(f"cache server speaks protocol {PROTOCOL_VERSION}, "
                   f"peer speaks {version!r}")
            return
        if encoding not in wire.ENCODINGS:
            reject(f"unknown wire encoding {encoding!r}")
            return
        if conn.transport != "unix" and encoding != "json":
            reject(f"the pickle encoding is not allowed on "
                   f"{conn.transport} transports")
            return
        if conn.transport == "tcp" or (conn.transport == "abstract"
                                       and self.auth_token):
            if not isinstance(token, str) or not hmac.compare_digest(
                    token, self.auth_token):
                reject("authentication failed")
                return
        # reply in the handshake codec, then switch to the negotiated
        # one for everything that follows; the ack carries the shard
        # map so attaching to any one ring member discovers the ring.
        # A version-3 peer gets the version-3 4-tuple ack (no epoch
        # field) and is served at its own version from here on.
        conn.version = version
        if version >= 4:
            ack = ("hello", version, encoding, self.shard_map,
                   self.ring_epoch)
        else:
            ack = ("hello", version, encoding, self.shard_map)
        self._queue_send(conn, ("ok", ack))
        conn.codec = encoding
        conn.handshaken = True
        with self._lock:
            self.stats.handshakes += 1

    def _serve_message(self, conn: _Connection, message: tuple) -> None:
        op = message[0]
        if op in ("synthesize", "evaluate_batch", "flush", "pull_owned"):
            # blocking work: hand the request stream to a job thread
            conn.busy = True
            with self._lock:
                self.stats.requests += 1
                if op in ("synthesize", "evaluate_batch"):
                    self.stats.jobs += 1
            if op == "evaluate_batch" and self.batch_window > 0.0:
                self._window_add(conn, message)
                return
            self._executor.submit(self._run_job, conn, message)
            return
        try:
            reply = ("ok", self._dispatch(message, conn))
        except CacheError as exc:
            reply = ("error", str(exc))
        except Exception as exc:  # never let a client kill the loop
            reply = ("error", f"internal server error: {exc}")
        self._queue_send(conn, reply)
        if op == "shutdown" and reply[0] == "ok":
            # the reply is flushed eagerly by _queue_send; tear down
            # from a helper thread — stop() joins the loop thread, so
            # it must not run on it
            conn.close_after_send = True
            threading.Thread(target=self.stop, daemon=True).start()

    def _queue_send(self, conn: _Connection, message: tuple,
                    close_after: bool = False) -> None:
        """Encode and buffer *message* on *conn*; eager first write.

        Backpressure: once the buffered replies pass
        ``max_outbuf_bytes`` the connection is condemned — a clean
        ``error`` frame is appended (the buffer is *never* cleared;
        the send position may sit mid-frame) and the connection closes
        after whatever the client still drains.  Frames queued after
        the condemnation are dropped.
        """
        if conn.closed or conn.close_after_send:
            return
        try:
            payload = wire.encode(message, conn.reply_codec)
        except CacheError as exc:
            payload = wire.encode(
                ("error", f"reply is not encodable on the "
                          f"{conn.reply_codec} wire: {exc}"),
                conn.reply_codec)
        if len(payload) > self.max_frame_bytes:
            payload = wire.encode(
                ("error", f"cache frame of {len(payload)} bytes exceeds "
                          f"the {self.max_frame_bytes}-byte limit"),
                conn.reply_codec)
        if len(conn.outbuf) + _LEN.size + len(payload) \
                > self.max_outbuf_bytes:
            with self._lock:
                self.stats.backpressure_disconnects += 1
            notice = wire.encode(
                ("error", f"disconnected: {len(conn.outbuf)} reply "
                          f"bytes buffered past the "
                          f"{self.max_outbuf_bytes}-byte backpressure "
                          f"limit (client not draining)"),
                conn.reply_codec)
            conn.outbuf += _LEN.pack(len(notice)) + notice
            conn.close_after_send = True
            self._writable(conn)
            return
        conn.outbuf += _LEN.pack(len(payload)) + payload
        if close_after:
            conn.close_after_send = True
        self._writable(conn)  # eager write; leftovers wait for EVENT_WRITE

    def _sweep_idle(self, now: float) -> None:
        if self.timeout is None:
            return
        for conn in list(self._conns):
            if conn.busy or conn.closed:
                continue
            if now - conn.last_active > self.timeout:
                self._close_conn(conn)

    def _drain_io_queue(self) -> None:
        """Apply frames and job completions queued by worker threads."""
        while True:
            with self._io_lock:
                if not self._io_queue:
                    return
                kind, conn, message = self._io_queue.popleft()
            if kind == "window_done":
                # a merged flush finished: the executor has capacity
                # again, so jobs that queued behind it flush right away
                self._window_inflight -= 1
                if self._window:
                    self._flush_window(time.monotonic())
                continue
            if conn.closed:
                continue
            if kind == "done":
                conn.busy = False
                conn.last_active = time.monotonic()
            elif message[0] == "design" \
                    and len(conn.outbuf) > self.stream_outbuf_bytes:
                # optional stream frame for a client that isn't
                # draining: drop it rather than buffer without bound
                # (the job's final reply is never dropped)
                with self._lock:
                    self.stats.designs_dropped += 1
                continue
            self._queue_send(conn, message)
            if kind == "done" and not conn.closed:
                self._process(conn)  # frames buffered while busy

    def _post(self, kind: str, conn: _Connection, message: tuple) -> None:
        if self._stop.is_set():
            return
        with self._io_lock:
            self._io_queue.append((kind, conn, message))
        self._wake()

    # -- RPC batch window ----------------------------------------------
    @staticmethod
    def _job_items(message: tuple) -> int:
        """Allocation items one windowed job contributes to the cap
        (malformed shapes count 1; the flush surfaces their error)."""
        if len(message) == 5 and isinstance(message[2], list):
            return max(1, len(message[2]))
        return 1

    def _window_add(self, conn: _Connection, message: tuple) -> None:
        """Enqueue one windowable job (loop thread only).

        Flush triggers, in priority order: the pending allocation
        items reached ``batch_max_items``; no merged flush is in
        flight (waiting would only add latency — the idle-executor
        fast path); otherwise the job waits for the window deadline or
        for the in-flight flush to finish, whichever comes first.
        """
        now = time.monotonic()
        self._window.append((conn, message, now,
                             self._job_items(message)))
        pending_items = sum(entry[3] for entry in self._window)
        if pending_items >= self.batch_max_items \
                or self._window_inflight == 0:
            self._flush_window(now)
        elif self._window_deadline is None:
            self._window_deadline = now + self.batch_window

    def _flush_window(self, now: float) -> None:
        """Dispatch every pending windowed job (loop thread only).

        Jobs are split into merged calls of at most
        ``batch_max_items`` allocation items (a single oversized job
        still dispatches alone).  Jobs whose connection already closed
        — a client that disconnected mid-window — are shed here: their
        results could never be delivered, and shedding them cannot
        starve anyone else because every surviving job keeps its own
        reply path.
        """
        self._window_deadline = None
        while self._window:
            take: List[tuple] = []
            items = 0
            while self._window and (
                    not take
                    or items + self._window[0][3] <= self.batch_max_items):
                entry = self._window.popleft()
                take.append(entry)
                items += entry[3]
            live = [(conn, message, queued_at)
                    for conn, message, queued_at, _ in take
                    if not conn.closed]
            if not live:
                continue
            waits = [now - queued_at for _, _, queued_at in live]
            with self._lock:
                self.stats.window_batches += 1
                self.stats.window_items += len(live)
                self._window_waits.extend(waits)
                samples = sorted(self._window_waits)
                self.stats.window_wait_p99 = samples[
                    min(len(samples) - 1, int(0.99 * len(samples)))]
            self._window_inflight += 1
            self._executor.submit(
                self._run_window,
                [(conn, message) for conn, message, _ in live])

    def _run_window(self, jobs: List[tuple]) -> None:
        """Execute one merged window flush on a job thread.

        Each job is parsed and validated individually; the valid ones
        share one :meth:`EvaluationEngine.evaluate_batch_grouped` call
        (cross-request dedupe, per-request error parity), and every
        job's reply — result or its own error — is demultiplexed back
        to its connection's reply path.
        """
        replies: List[Optional[tuple]] = [None] * len(jobs)
        try:
            requests = []
            submitters = []  # positions in *jobs* with a valid request
            for position, (conn, message) in enumerate(jobs):
                try:
                    requests.append(self._parse_evaluate_batch(message))
                except CacheError as exc:
                    replies[position] = ("error", str(exc))
                    continue
                submitters.append(position)
            if requests:
                engine = self._job_engine()
                try:
                    outcomes = engine.evaluate_batch_grouped(requests)
                finally:
                    backend = engine.backend
                    if backend is not None:
                        backend.flush()
                for position, (status, payload) in zip(submitters,
                                                       outcomes):
                    if status == "ok":
                        replies[position] = ("ok",
                                             ("evals", list(payload)))
                    elif isinstance(payload, ReproError):
                        replies[position] = ("error", str(payload))
                    else:
                        replies[position] = (
                            "error", f"internal server error: {payload}")
        except Exception as exc:  # never let a window kill the worker
            for position, reply in enumerate(replies):
                if reply is None:
                    replies[position] = (
                        "error", f"internal server error: {exc}")
        finally:
            errors = sum(1 for reply in replies
                         if reply is not None and reply[0] == "error")
            if errors:
                with self._lock:
                    self.stats.job_errors += errors
            for (conn, _message), reply in zip(jobs, replies):
                self._post("done", conn, reply
                           or ("error", "internal server error: the "
                                        "window flush produced no reply"))
            self._post("window_done", None, None)

    # -- jobs ----------------------------------------------------------
    def _job_engine(self) -> EvaluationEngine:
        """This job thread's engine, layered over the server caches."""
        engine = getattr(self._job_local, "engine", None)
        if engine is None:
            engine = EvaluationEngine()
            engine.attach_backend(_LoopbackBackend(_LoopbackClient(self)))
            self._job_local.engine = engine
        return engine

    def _run_job(self, conn: _Connection, message: tuple) -> None:
        op = message[0]
        try:
            if op == "flush":
                reply = ("ok", self.flush())
            elif op == "pull_owned":
                reply = ("ok", self._pull_owned(message))
            elif op == "synthesize":
                reply = ("ok", self._job_synthesize(conn, message))
            else:
                reply = ("ok", self._job_evaluate_batch(message))
        except CacheError as exc:
            reply = ("error", str(exc))
        except ReproError as exc:
            reply = ("error", str(exc))
        except Exception as exc:  # never let a job kill the worker
            reply = ("error", f"internal server error: {exc}")
        if reply[0] == "error" and op not in ("flush", "pull_owned"):
            with self._lock:
                self.stats.job_errors += 1
        self._post("done", conn, reply)

    @staticmethod
    def _job_options(options, allowed: tuple, op: str) -> dict:
        if not isinstance(options, dict):
            raise CacheError(f"malformed {op!r} request: options must "
                             f"be a dict")
        unknown = sorted(set(options) - set(allowed))
        if unknown:
            raise CacheError(
                f"unknown {op!r} options {unknown}; use one of "
                f"{sorted(allowed)}")
        return dict(options)

    def _job_synthesize(self, conn: _Connection, message: tuple) -> tuple:
        try:
            _, graph, library, latency_bound, area_bound, options = message
        except ValueError as exc:
            raise CacheError(
                f"malformed 'synthesize' request: {exc}") from exc
        if not isinstance(graph, DataFlowGraph) \
                or not isinstance(library, ResourceLibrary) \
                or not isinstance(latency_bound, int) \
                or not isinstance(area_bound, int):
            raise CacheError(
                "malformed 'synthesize' request: expected (graph, "
                "library, latency_bound, area_bound, options)")
        options = self._job_options(options, SYNTH_OPTIONS, "synthesize")
        from repro.core.find_design import find_design

        def stream(result: DesignResult) -> None:
            with self._lock:
                self.stats.designs_streamed += 1
            self._post("frame", conn, ("design", result))

        engine = self._job_engine()
        try:
            result = find_design(graph, library, latency_bound,
                                 area_bound, engine=engine,
                                 on_improvement=stream, **options)
        except NoSolutionError as exc:
            # an "ok" payload, not an "error": the client re-raises
            # NoSolutionError exactly as the local search would
            return ("nosolution", str(exc), exc.latency, exc.area)
        finally:
            backend = engine.backend
            if backend is not None:
                backend.flush()
        return ("done", result)

    def _parse_evaluate_batch(self, message: tuple) -> tuple:
        """Validated ``(graph, allocations, latency_bound, options)``
        of one ``evaluate_batch`` request; :class:`CacheError` on a
        malformed shape."""
        try:
            _, graph, allocations, latency_bound, options = message
        except ValueError as exc:
            raise CacheError(
                f"malformed 'evaluate_batch' request: {exc}") from exc
        if not isinstance(graph, DataFlowGraph) \
                or not isinstance(allocations, list) \
                or not isinstance(latency_bound, int):
            raise CacheError(
                "malformed 'evaluate_batch' request: expected (graph, "
                "allocations, latency_bound, options)")
        options = self._job_options(options, BATCH_OPTIONS,
                                    "evaluate_batch")
        return (graph, allocations, latency_bound, options)

    def _job_evaluate_batch(self, message: tuple) -> tuple:
        graph, allocations, latency_bound, options = \
            self._parse_evaluate_batch(message)
        engine = self._job_engine()
        try:
            evals = engine.evaluate_batch(graph, allocations,
                                          latency_bound, **options)
        finally:
            backend = engine.backend
            if backend is not None:
                backend.flush()
        return ("evals", list(evals))

    # -- dispatch ------------------------------------------------------
    def _layer(self, name) -> LRUCache:
        cache = self._layers.get(name)
        if cache is None:
            raise CacheError(f"unknown cache layer {name!r}")
        return cache

    def _get(self, layer: str, key: tuple) -> Tuple[bool, object, float]:
        """``(found, value, window)``; on a miss, *window* is the
        authoritative negative window the client may honour locally."""
        with self._lock:
            value = self._layer(layer).get(key, _MISSING)
            self.stats.gets += 1
            if value is not _MISSING:
                # a window registered before the entry arrived is moot
                self._negative.pop((layer, key), None)
                self.stats.hits += 1
                if self._is_replica(layer, key):
                    self.stats.replica_hits += 1
                return (True, value, 0.0)
            return (False, None,
                    self._miss_window(layer, key, time.monotonic()))

    def _get_many(self, layer: str, keys
                  ) -> Tuple[Dict[tuple, object], Dict[tuple, float]]:
        """``(found, windows)``: hits, plus a negative window per miss."""
        found: Dict[tuple, object] = {}
        windows: Dict[tuple, float] = {}
        with self._lock:
            cache = self._layer(layer)
            now = time.monotonic()
            for key in keys:
                value = cache.get(key, _MISSING)
                self.stats.gets += 1
                if value is not _MISSING:
                    self._negative.pop((layer, key), None)
                    self.stats.hits += 1
                    if self._is_replica(layer, key):
                        self.stats.replica_hits += 1
                    found[key] = value
                else:
                    windows[key] = self._miss_window(layer, key, now)
        return (found, windows)

    def _miss_window(self, layer: str, key: tuple, now: float) -> float:
        """Under ``self._lock``: the remaining negative window for one
        missed key, registering a fresh window on the first ask.

        The cache is always consulted *first* (both callers above), so
        a window can only ever answer a genuinely absent key — it
        never masks a present entry, and :meth:`_adopt` clears the
        window the moment the entry arrives.
        """
        if not self.negative_window:
            return 0.0
        deadline = self._negative.get((layer, key))
        if deadline is not None and deadline > now:
            self.stats.negative_hits += 1
            return deadline - now
        if len(self._negative) >= MAX_NEGATIVE_WINDOWS:
            fresh = {entry: mark for entry, mark
                     in self._negative.items() if mark > now}
            if len(fresh) >= MAX_NEGATIVE_WINDOWS:
                fresh.clear()
            self._negative = fresh
        self._negative[(layer, key)] = now + self.negative_window
        return self.negative_window

    def _dispatch(self, message: tuple,
                  conn: Optional[_Connection] = None):
        with self._lock:
            self.stats.requests += 1
        op = message[0]
        try:
            if op == "ping":
                # echo the *negotiated* version: a version-3 peer that
                # handshook at 3 must never see a pong carrying 4
                return ("pong", conn.version if conn is not None
                        else PROTOCOL_VERSION)
            if op == "get":
                _, layer, key = message
                return self._get(layer, key)
            if op == "get_many":
                _, layer, keys = message
                return self._get_many(layer, keys)
            if op == "put":
                _, layer, key, value = message
                return self._adopt([(layer, key, value)])
            if op == "put_many":
                (_, entries) = message
                return self._adopt(entries)
            if op == "shard_map":
                return self.shard_map
            if op == "ring":
                return (self.shard_map, self.ring_epoch)
            if op == "ring_update":
                _, members, epoch = message
                return self._ring_update(members, epoch)
            if op == "stats":
                with self._lock:
                    snapshot = self.stats.as_dict()
                    snapshot["entries"] = sum(
                        len(cache) for cache in self._layers.values())
                    snapshot["layer_sizes"] = {
                        name: len(cache)
                        for name, cache in self._layers.items()}
                    snapshot["negative_entries"] = len(self._negative)
                    snapshot["ring_epoch"] = self.ring_epoch
                    if self.shard_map is not None:
                        snapshot["shard_index"] = self.shard_index
                        snapshot["shard_map"] = list(self.shard_map)
                return snapshot
            if op == "shutdown":
                return None  # the loop tears down after replying
        except ValueError as exc:
            raise CacheError(f"malformed {op!r} request: {exc}") from exc
        raise CacheError(f"unknown cache request {op!r}")

    def _ring_update(self, members, epoch) -> tuple:
        """Adopt a newer ring map; a stale epoch changes nothing.

        The server's own position is recomputed from the new map (a
        member that was voted out keeps serving as an unpositioned
        cache — its clients drain away as they adopt the new map).
        Replies with the post-offer ``(members, epoch)`` either way,
        so racing updaters converge on the newest map.
        """
        if not isinstance(members, (tuple, list)) or not members \
                or not all(isinstance(m, str) for m in members) \
                or not isinstance(epoch, int):
            raise CacheError("malformed 'ring_update' request: "
                             "expected (members, epoch)")
        if epoch > self.ring_epoch:
            members = tuple(members)
            self.ring_epoch = epoch
            self.shard_map = members
            self.shard_index = members.index(self.address) \
                if self.address in members else None
            with self._lock:
                self.stats.ring_updates += 1
        return (self.shard_map, self.ring_epoch)

    def _pull_owned(self, message: tuple) -> Dict[str, list]:
        """Serve a joining member's warm-pull: this server's entries
        that shard *index* of the ring over *members* holds."""
        from repro.core.shard import ShardRing, partition_layers

        try:
            _, members, index, rf = message
        except ValueError as exc:
            raise CacheError(
                f"malformed 'pull_owned' request: {exc}") from exc
        if not isinstance(members, (tuple, list)) or not members \
                or not all(isinstance(m, str) for m in members) \
                or not isinstance(index, int) \
                or not 0 <= index < len(members) \
                or not isinstance(rf, int) or rf < 1:
            raise CacheError(
                "malformed 'pull_owned' request: expected "
                "(members, index, rf)")
        ring = ShardRing(tuple(members))
        return partition_layers(self.export_layers(), ring, index, rf)

    def _adopt(self, entries) -> int:
        adopted = 0
        with self._lock:
            for layer, key, value in entries:
                cache = self._layer(layer)
                self.stats.puts += 1
                if cache.get(key, _MISSING) is _MISSING:
                    adopted += 1
                cache.put(key, value)
                # the key exists now; any open negative window on it
                # must stop answering "absent"
                self._negative.pop((layer, key), None)
            self.stats.adopted += adopted
            self._dirty += adopted
        return adopted


# ----------------------------------------------------------------------
# engine attachment + fail-open job submission
# ----------------------------------------------------------------------
def _open_client(address: str, *, timeout: float = CLIENT_TIMEOUT,
                 auth_token: Optional[str] = None,
                 encoding: Optional[str] = None,
                 job_timeout: float = JOB_TIMEOUT):
    """A client for *address*: a plain :class:`CacheClient` for a
    single server, a :class:`~repro.core.shard.ShardedCacheClient` for
    a comma-separated ring spec.  Construction never connects."""
    from repro.core import shard as shard_mod

    addresses = shard_mod.parse_ring(address)
    if len(addresses) > 1:
        return shard_mod.ShardedCacheClient(
            addresses, timeout=timeout, auth_token=auth_token,
            encoding=encoding, job_timeout=job_timeout)
    return CacheClient(addresses[0], timeout=timeout,
                       auth_token=auth_token, encoding=encoding,
                       job_timeout=job_timeout)


def attach_engine(engine: EvaluationEngine, address: str, *,
                  timeout: float = CLIENT_TIMEOUT,
                  batch_size: int = RemoteCacheBackend.PUT_BATCH,
                  auth_token: Optional[str] = None,
                  encoding: Optional[str] = None) -> bool:
    """Attach *engine* to the cache tier at *address* (best-effort).

    *address* may be one server or a comma-separated shard ring; a
    single address that turns out to be a ring member (its handshake
    or ``shard_map`` reports siblings) is transparently upgraded to
    the full ring, so clients only ever need to know one member.

    Returns ``True`` on success; ``False`` when the server (every
    shard, for a ring) is unreachable, rejects the handshake, or
    speaks a different protocol version — the engine is left untouched
    and computes locally, which is always behaviourally identical.
    """
    try:
        client = _open_client(address, timeout=timeout,
                              auth_token=auth_token, encoding=encoding)
    except ReproError:
        return False
    try:
        client.ping()
    except ReproError:
        client.close()
        return False
    if isinstance(client, CacheClient):
        members = client.server_shard_map  # learned in the handshake
        if members is None:
            try:
                members = client.shard_map()
            except ReproError:
                members = None
        if members and len(members) > 1:
            from repro.core.shard import ShardedCacheClient

            sharded = ShardedCacheClient(
                members, timeout=timeout, auth_token=auth_token,
                encoding=encoding)
            try:
                sharded.ping()
            except ReproError:
                sharded.close()  # keep the single reachable member
            else:
                client.close()
                client = sharded
    engine.attach_backend(RemoteCacheBackend(client, batch_size=batch_size))
    return True


def detach_engine(engine: EvaluationEngine) -> None:
    """Detach *engine* from its cache server (flushing buffered puts)."""
    backend = engine.detach_backend()
    if backend is not None:
        backend.close()


def synthesize_remote(graph: DataFlowGraph, library: ResourceLibrary,
                      latency_bound: int, area_bound: int, *,
                      address: str,
                      auth_token: Optional[str] = None,
                      encoding: Optional[str] = None,
                      timeout: float = CLIENT_TIMEOUT,
                      job_timeout: float = JOB_TIMEOUT,
                      on_design=None,
                      engine: Optional[EvaluationEngine] = None,
                      **options) -> DesignResult:
    """:func:`find_design` through a server's ``synthesize`` RPC,
    fail-open.

    Any transport problem — unreachable server, auth rejection, the
    server dying mid-job — falls back to computing locally (streaming
    restarts from scratch), with results identical to the remote path:
    both sides run the same deterministic search.
    :class:`NoSolutionError` is a *search* outcome, not a transport
    failure, and propagates without any local re-run.
    """
    from repro.core.find_design import find_design

    try:
        client = _open_client(address, timeout=timeout,
                              auth_token=auth_token, encoding=encoding,
                              job_timeout=job_timeout)
    except CacheError:
        client = None
    if client is not None:
        try:
            return client.synthesize(graph, library, latency_bound,
                                     area_bound, on_design=on_design,
                                     **options)
        except CacheError:
            pass  # fail open: compute locally below
        finally:
            client.close()
    return find_design(graph, library, latency_bound, area_bound,
                       engine=engine, on_improvement=on_design, **options)


def evaluate_batch_remote(graph: DataFlowGraph, allocations,
                          latency_bound: int, *,
                          address: str,
                          auth_token: Optional[str] = None,
                          encoding: Optional[str] = None,
                          timeout: float = CLIENT_TIMEOUT,
                          job_timeout: float = JOB_TIMEOUT,
                          engine: Optional[EvaluationEngine] = None,
                          **options) -> list:
    """:meth:`EvaluationEngine.evaluate_batch` through the server,
    fail-open: a dead server means evaluating locally, identically."""
    from repro.core.engine import default_engine

    allocations = list(allocations)
    try:
        client = _open_client(address, timeout=timeout,
                              auth_token=auth_token, encoding=encoding,
                              job_timeout=job_timeout)
    except CacheError:
        client = None
    if client is not None:
        try:
            return client.evaluate_batch(graph, allocations,
                                         latency_bound, **options)
        except CacheError:
            pass  # fail open: compute locally below
        finally:
            client.close()
    engine = engine if engine is not None else default_engine()
    return engine.evaluate_batch(graph, allocations, latency_bound,
                                 **options)
