"""Fault injection for the cache service wire protocol.

A :class:`ChaosProxy` sits between a cache client and a cache server,
speaking nothing but the frame layer: it reads each length-prefixed
frame off one side and decides — per frame, under a seeded
:class:`ChaosPolicy` — whether to forward it, swallow it, hold it,
forward a truncated prefix and cut the stream, or cut the stream
outright.  Because the proxy is frame-aware, every injected fault
lands on a protocol-meaningful boundary: a dropped *request* looks
like a hung server (client deadline fires), a truncated frame looks
like a crashed peer mid-write (short read), a disconnect looks like a
killed process.

The proxy never decodes payloads, so it works identically under the
pickle and json codecs and stays oblivious to protocol versions.

Typical use (see ``tests/test_replication.py``)::

    server = CacheServer(real_address).start()
    with ChaosProxy(server.address,
                    policy=ChaosPolicy(disconnect=0.2, seed=7)) as proxy:
        client = ShardedCacheClient((proxy.address, other_member))
        ...  # every request to this member now rides through chaos

``partition()`` / ``heal()`` model a network partition: while
partitioned the proxy refuses new connections and severs live ones;
healing restores service without restarting anything.  Swapping
``proxy.policy`` at runtime models a flapping or recovering member.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.core.cache_server import _LEN, _no_delay, parse_address
from repro.errors import CacheError

__all__ = ["ChaosPolicy", "ChaosProxy"]

#: Fault kinds a policy can inject, in the order probabilities stack.
_FAULTS = ("drop", "delay", "truncate", "disconnect")


class ChaosPolicy:
    """Per-frame fault probabilities for a :class:`ChaosProxy`.

    Each forwarded frame draws once from a seeded RNG and suffers at
    most one fault:

    ``drop``
        Swallow the frame.  A dropped request leaves the client
        waiting on its deadline (:class:`CacheTimeoutError` surface);
        a dropped reply does the same from the other side.
    ``delay``
        Hold the frame for ``delay_seconds`` before forwarding —
        latency, not loss.
    ``truncate``
        Forward the length prefix and roughly half the payload, then
        cut both directions: the peer sees a frame that claims more
        bytes than ever arrive (the crashed-mid-write failure).
    ``disconnect``
        Cut both directions before forwarding anything.

    Probabilities must each be in ``[0, 1]`` and sum to at most 1;
    the remainder is the forward probability.  The *seed* makes a
    chaos run reproducible — same policy, same connection order, same
    faults.
    """

    def __init__(self, *, drop: float = 0.0, delay: float = 0.0,
                 delay_seconds: float = 0.02, truncate: float = 0.0,
                 disconnect: float = 0.0, seed: int = 0):
        rates = {"drop": float(drop), "delay": float(delay),
                 "truncate": float(truncate),
                 "disconnect": float(disconnect)}
        for name, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"{name} probability {rate!r} outside [0, 1]")
        if sum(rates.values()) > 1.0 + 1e-9:
            raise ValueError("fault probabilities sum past 1.0")
        self.rates = rates
        self.delay_seconds = float(delay_seconds)
        self.seed = int(seed)

    def decide(self, rng: random.Random) -> str:
        """One draw: the fault to inject, or ``"forward"``."""
        point = rng.random()
        edge = 0.0
        for name in _FAULTS:
            edge += self.rates[name]
            if point < edge:
                return name
        return "forward"


class ChaosProxy:
    """A frame-boundary fault injector between one client-facing
    listener and one upstream cache server.

    The proxy listens on *address* (``tcp://127.0.0.1:0`` by default —
    the bound port is published on :attr:`address` after
    :meth:`start`) and dials *upstream* once per accepted connection.
    Two pump threads per connection move frames in each direction,
    consulting :attr:`policy` (swappable at runtime) for every frame.
    Each TCP leg runs with Nagle off, like the service's own sockets,
    so the proxy adds no delayed-ACK stalls of its own.

    :attr:`stats` counts ``connections``, ``forwarded``, ``dropped``,
    ``delayed``, ``truncated``, and ``disconnects`` — tests assert on
    these to prove the chaos actually happened.
    """

    def __init__(self, upstream: str,
                 policy: Optional[ChaosPolicy] = None,
                 address: str = "tcp://127.0.0.1:0"):
        self.upstream = upstream
        self.policy = policy if policy is not None else ChaosPolicy()
        self.address = address
        self.stats: Dict[str, int] = {
            "connections": 0, "forwarded": 0, "dropped": 0,
            "delayed": 0, "truncated": 0, "disconnects": 0}
        self._rng = random.Random(self.policy.seed)
        self._lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._pairs: List[Tuple[socket.socket, socket.socket]] = []
        self._partitioned = False
        self._running = False

    # -- lifecycle ----------------------------------------------------
    def start(self) -> "ChaosProxy":
        if self._running:
            raise CacheError("chaos proxy already started")
        parsed = parse_address(self.address)
        if parsed[0] == "tcp":
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET,
                                socket.SO_REUSEADDR, 1)
            listener.bind((parsed[1], parsed[2]))
            host, port = listener.getsockname()[:2]
            self.address = f"tcp://{host}:{port}"
        else:
            listener = socket.socket(socket.AF_UNIX,
                                     socket.SOCK_STREAM)
            listener.bind(parsed[1])
        listener.listen(32)
        self._listener = listener
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-proxy-accept",
            daemon=True)
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._running = False
        listener, self._listener = self._listener, None
        if listener is not None:
            self._close_socket(listener)
        self._sever_all()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        parsed = parse_address(self.address)
        if parsed[0] == "unix":
            try:
                import os

                os.unlink(parsed[1])
            except OSError:
                pass

    def __enter__(self) -> "ChaosProxy":
        if not self._running:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- partitions ---------------------------------------------------
    def partition(self) -> None:
        """Refuse new connections and sever the live ones — the member
        behind this proxy just fell off the network."""
        with self._lock:
            self._partitioned = True
        self._sever_all()

    def heal(self) -> None:
        """End the partition; new connections flow again."""
        with self._lock:
            self._partitioned = False

    # -- internals ----------------------------------------------------
    def _accept_loop(self) -> None:
        while self._running:
            try:
                client_side, _peer = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            with self._lock:
                partitioned = self._partitioned
            if partitioned:
                self._close_socket(client_side)
                continue
            try:
                if client_side.family != socket.AF_UNIX:
                    _no_delay(client_side)
                server_side = self._dial_upstream()
            except OSError:
                self._close_socket(client_side)
                continue
            with self._lock:
                self.stats["connections"] += 1
                self._pairs.append((client_side, server_side))
            for src, dst, name in ((client_side, server_side, "c2s"),
                                   (server_side, client_side, "s2c")):
                threading.Thread(
                    target=self._pump, args=(src, dst),
                    name=f"chaos-proxy-{name}", daemon=True).start()

    def _dial_upstream(self) -> socket.socket:
        parsed = parse_address(self.upstream)
        if parsed[0] == "tcp":
            sock = socket.create_connection((parsed[1], parsed[2]),
                                            timeout=5.0)
            _no_delay(sock)
            return sock
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(5.0)
        sock.connect(parsed[1])
        sock.settimeout(None)
        return sock

    def _pump(self, src: socket.socket, dst: socket.socket) -> None:
        try:
            while True:
                header = self._recv_exact(src, _LEN.size)
                if header is None:
                    break
                (length,) = _LEN.unpack(header)
                payload = self._recv_exact(src, length)
                if payload is None:
                    break
                with self._lock:
                    action = self.policy.decide(self._rng)
                    delay = self.policy.delay_seconds
                if action == "drop":
                    with self._lock:
                        self.stats["dropped"] += 1
                    continue
                if action == "disconnect":
                    with self._lock:
                        self.stats["disconnects"] += 1
                    break
                if action == "truncate":
                    with self._lock:
                        self.stats["truncated"] += 1
                    dst.sendall(header + payload[:max(1, length // 2)])
                    break
                if action == "delay":
                    with self._lock:
                        self.stats["delayed"] += 1
                    time.sleep(delay)
                dst.sendall(header + payload)
                with self._lock:
                    self.stats["forwarded"] += 1
        except OSError:
            pass
        finally:
            self._sever_pair(src, dst)

    def _recv_exact(self, sock: socket.socket,
                    count: int) -> Optional[bytes]:
        chunks = bytearray()
        while len(chunks) < count:
            try:
                chunk = sock.recv(count - len(chunks))
            except OSError:
                return None
            if not chunk:
                return None
            chunks += chunk
        return bytes(chunks)

    def _sever_pair(self, *socks: socket.socket) -> None:
        with self._lock:
            self._pairs = [pair for pair in self._pairs
                           if not any(s in pair for s in socks)]
        for sock in socks:
            self._close_socket(sock)

    def _sever_all(self) -> None:
        with self._lock:
            pairs, self._pairs = self._pairs, []
        for pair in pairs:
            for sock in pair:
                self._close_socket(sock)

    @staticmethod
    def _close_socket(sock: socket.socket) -> None:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass
