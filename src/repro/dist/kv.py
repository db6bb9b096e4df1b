"""The stdlib-only ``repro kv-serve`` TCP server and its client.

One process runs :class:`KVServer` (``repro kv-serve``); a fleet of
parents and ``repro worker`` processes dial it with ``kv://host:port``
store URLs.  The server hosts two things behind one socket:

* the **store**: any local :class:`~repro.dist.backends.StoreBackend`
  (in-memory by default, a persistent ``LocalDirBackend`` with
  ``--cache-dir``) exposed through ``put/get/contains/delete/keys/size``
  ops — entry atomicity is the wrapped backend's, so the sharded-dir
  rename-last contract survives the network hop unchanged;
* the **work queue**: a :class:`~repro.dist.queue.MemoryWorkQueue`
  behind ``q_put/q_lease/q_heartbeat/q_done/q_fail/q_stats`` ops.
  Leasing is serialised by a server-side lock and stamped with the
  *server's* clock, so lease expiry never depends on client clock skew.
  Queue state is coordination state, not results — results live in the
  store, so a server restart loses only in-flight lease bookkeeping
  (parents simply re-enqueue pending work).

Wire protocol (``repro-kv/1``): each frame is a 4-byte big-endian
length followed by that many bytes of UTF-8 JSON; binary blobs travel
base64-encoded inside the JSON.  Requests are ``{"op": ..., ...}``;
responses ``{"ok": true, ...}`` or ``{"ok": false, "error": ...}``.
No new runtime dependencies: ``socketserver`` + ``json`` + ``base64``.
"""

from __future__ import annotations

import base64
import json
import socket
import socketserver
import struct
import threading
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.errors import ConfigurationError
from .backends import ENTRY_BLOB, MemoryBackend, StoreBackend

__all__ = [
    "PROTOCOL",
    "KVServer",
    "KVClient",
    "serve_forever",
    "send_frame",
    "recv_frame",
]

#: protocol identifier echoed by the ping op (bump on wire changes)
PROTOCOL = "repro-kv/1"

#: refuse frames larger than this (a corrupt length prefix must not
#: allocate gigabytes)
MAX_FRAME_BYTES = 256 * 1024 * 1024

_LENGTH = struct.Struct(">I")


# ---------------------------------------------------------------------- #
# framing
# ---------------------------------------------------------------------- #
def send_frame(sock: socket.socket, payload: Mapping[str, object]) -> None:
    """Write one length-prefixed JSON frame."""
    data = json.dumps(payload, sort_keys=True).encode()
    if len(data) > MAX_FRAME_BYTES:
        raise ConfigurationError(
            f"kv frame of {len(data)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    sock.sendall(_LENGTH.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, object]]:
    """Read one frame; ``None`` on a clean EOF between frames."""
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(
            f"kv frame announces {length} bytes (limit {MAX_FRAME_BYTES}); "
            "the stream is corrupt or not a repro-kv peer"
        )
    data = _recv_exact(sock, length)
    if data is None:
        raise ConnectionError("kv stream ended mid-frame")
    frame = json.loads(data.decode())
    if not isinstance(frame, dict):
        raise ConnectionError("kv frame is not a JSON object")
    return frame


def _b64(blob: bytes) -> str:
    return base64.b64encode(blob).decode("ascii")


def _unb64(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"))


# ---------------------------------------------------------------------- #
# server
# ---------------------------------------------------------------------- #
class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        while True:
            try:
                request = recv_frame(self.connection)
            except (ConnectionError, ValueError, OSError):
                return
            if request is None:
                return
            response = self.server.dispatch(request)  # type: ignore[attr-defined]
            try:
                send_frame(self.connection, response)
            except OSError:
                return


class KVServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server hosting one store backend and one work queue.

    Parameters
    ----------
    address:
        ``(host, port)`` to bind; port ``0`` picks a free port (read the
        result from ``server_address``).
    backend:
        The wrapped store backend (default: a fresh
        :class:`~repro.dist.backends.MemoryBackend`).
    max_attempts:
        Expired-lease budget per task before the queue marks it failed
        (see :class:`~repro.dist.queue.MemoryWorkQueue`).
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int] = ("127.0.0.1", 0),
        *,
        backend: Optional[StoreBackend] = None,
        max_attempts: int = 5,
    ) -> None:
        super().__init__(tuple(address), _Handler)
        from .queue import MemoryWorkQueue

        self.backend: StoreBackend = backend if backend is not None else MemoryBackend()
        self.queue = MemoryWorkQueue(max_attempts=max_attempts)
        self._queue_lock = threading.Lock()

    # every op handler returns the "ok": True payload; dispatch adds the
    # error envelope so one malformed request can never kill the server
    def dispatch(self, request: Mapping[str, object]) -> Dict[str, object]:
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            return {"ok": False, "error": f"unknown op {op!r} (server {PROTOCOL})"}
        try:
            payload = handler(request)
        except Exception as exc:  # noqa: BLE001 - wire boundary
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        payload["ok"] = True
        return payload

    # ------------------------------- store ops ------------------------ #
    def _op_ping(self, request: Mapping[str, object]) -> Dict[str, object]:
        return {"server": PROTOCOL, "store": self.backend.describe()}

    def _op_put(self, request: Mapping[str, object]) -> Dict[str, object]:
        files = request["files"]
        if not isinstance(files, dict):
            raise ValueError("put needs a files object of name -> base64")
        self.backend.put(
            str(request["key"]),
            {str(name): _unb64(str(blob)) for name, blob in files.items()},
        )
        return {}

    def _op_get(self, request: Mapping[str, object]) -> Dict[str, object]:
        blob = self.backend.get(
            str(request["key"]), str(request.get("name", ENTRY_BLOB))
        )
        return {"data": None if blob is None else _b64(blob)}

    def _op_contains(self, request: Mapping[str, object]) -> Dict[str, object]:
        return {"contains": self.backend.contains(str(request["key"]))}

    def _op_delete(self, request: Mapping[str, object]) -> Dict[str, object]:
        return {"deleted": self.backend.delete(str(request["key"]))}

    def _op_keys(self, request: Mapping[str, object]) -> Dict[str, object]:
        return {"keys": list(self.backend.iter_keys())}

    def _op_size(self, request: Mapping[str, object]) -> Dict[str, object]:
        return {"size": self.backend.size(str(request["key"]))}

    # ------------------------------- queue ops ------------------------ #
    def _op_q_put(self, request: Mapping[str, object]) -> Dict[str, object]:
        task = request["task"]
        if not isinstance(task, dict):
            raise ValueError("q_put needs a task object")
        with self._queue_lock:
            return {"enqueued": self.queue.put(task)}

    def _op_q_lease(self, request: Mapping[str, object]) -> Dict[str, object]:
        with self._queue_lock:
            leased = self.queue.lease(
                str(request.get("worker", "?")), float(request["lease_s"])
            )
        return {"task": leased}

    def _op_q_heartbeat(self, request: Mapping[str, object]) -> Dict[str, object]:
        with self._queue_lock:
            alive = self.queue.heartbeat(
                str(request["id"]), float(request["lease_s"])
            )
        return {"leased": alive}

    def _op_q_done(self, request: Mapping[str, object]) -> Dict[str, object]:
        with self._queue_lock:
            self.queue.done(str(request["id"]))
        return {}

    def _op_q_fail(self, request: Mapping[str, object]) -> Dict[str, object]:
        with self._queue_lock:
            self.queue.fail(str(request["id"]), str(request.get("error", "")))
        return {}

    def _op_q_stats(self, request: Mapping[str, object]) -> Dict[str, object]:
        with self._queue_lock:
            return {"stats": self.queue.stats()}


def serve_forever(
    host: str = "127.0.0.1",
    port: int = 7077,
    *,
    backend: Optional[StoreBackend] = None,
    max_attempts: int = 5,
    announce=None,
) -> None:
    """Run a :class:`KVServer` until interrupted (the CLI entry point).

    ``announce(host, port, store)`` is called once the socket is bound —
    the CLI prints the "listening" line from it so callers (and the CI
    smoke job) can wait for readiness on stdout.
    """
    server = KVServer((host, port), backend=backend, max_attempts=max_attempts)
    bound_host, bound_port = server.server_address[:2]
    if announce is not None:
        announce(bound_host, bound_port, server.backend.describe())
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()


# ---------------------------------------------------------------------- #
# client
# ---------------------------------------------------------------------- #
class KVClient:
    """One lazy, auto-reconnecting connection to a :class:`KVServer`.

    Thread-safe (one in-flight request at a time per client).  The first
    request performs a ``ping`` handshake so a wrong address fails with
    a clear message instead of a JSON decode error mid-sweep.  A broken
    connection is torn down and re-dialed once per request — sustained
    failures surface as ``OSError`` for :mod:`repro._retry` to pace.
    """

    def __init__(self, host: str, port: int, *, timeout_s: float = 30.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout_s = float(timeout_s)
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()

    # --------------------------- plumbing ----------------------------- #
    def _connect(self) -> socket.socket:
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout_s
            )
        except OSError as exc:
            raise ConnectionError(
                f"cannot reach kv server {self.host}:{self.port} ({exc}); "
                "is `repro kv-serve` running there?"
            ) from exc
        try:
            send_frame(sock, {"op": "ping"})
            reply = recv_frame(sock)
        except (ConnectionError, ValueError, OSError):
            sock.close()
            raise ConnectionError(
                f"{self.host}:{self.port} did not answer a {PROTOCOL} ping; "
                "is `repro kv-serve` running there?"
            ) from None
        if not reply or reply.get("server") != PROTOCOL:
            sock.close()
            raise ConnectionError(
                f"{self.host}:{self.port} speaks "
                f"{(reply or {}).get('server')!r}, expected {PROTOCOL}"
            )
        return sock

    def _roundtrip(self, request: Mapping[str, object]) -> Dict[str, object]:
        with self._lock:
            fresh = self._sock is None
            if self._sock is None:
                self._sock = self._connect()
            try:
                send_frame(self._sock, request)
                reply = recv_frame(self._sock)
            except (ConnectionError, ValueError, OSError):
                self.close()
                if fresh:
                    raise
                # the pooled connection went stale (server restart, idle
                # timeout): one transparent re-dial, then let errors flow
                self._sock = self._connect()
                send_frame(self._sock, request)
                reply = recv_frame(self._sock)
            if reply is None:
                self.close()
                raise ConnectionError(
                    f"kv server {self.host}:{self.port} closed the connection"
                )
        if not reply.get("ok"):
            raise ConfigurationError(
                f"kv server {self.host}:{self.port} rejected "
                f"{request.get('op')!r}: {reply.get('error')}"
            )
        return reply

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._sock = None

    # --------------------------- store ops ---------------------------- #
    def put(self, key: str, files: Mapping[str, bytes]) -> None:
        self._roundtrip(
            {
                "op": "put",
                "key": key,
                "files": {name: _b64(blob) for name, blob in files.items()},
            }
        )

    def get(self, key: str, name: str = ENTRY_BLOB) -> Optional[bytes]:
        reply = self._roundtrip({"op": "get", "key": key, "name": name})
        data = reply.get("data")
        return None if data is None else _unb64(str(data))

    def contains(self, key: str) -> bool:
        return bool(self._roundtrip({"op": "contains", "key": key})["contains"])

    def delete(self, key: str) -> bool:
        return bool(self._roundtrip({"op": "delete", "key": key})["deleted"])

    def keys(self) -> List[str]:
        return [str(key) for key in self._roundtrip({"op": "keys"})["keys"]]

    def size(self, key: str) -> int:
        return int(self._roundtrip({"op": "size", "key": key})["size"])

    # --------------------------- queue ops ---------------------------- #
    def q_put(self, task: Mapping[str, object]) -> bool:
        return bool(self._roundtrip({"op": "q_put", "task": dict(task)})["enqueued"])

    def q_lease(self, worker: str, lease_s: float) -> Optional[Dict[str, object]]:
        reply = self._roundtrip(
            {"op": "q_lease", "worker": worker, "lease_s": lease_s}
        )
        task = reply.get("task")
        return dict(task) if isinstance(task, dict) else None

    def q_heartbeat(self, task_id: str, lease_s: float) -> bool:
        return bool(
            self._roundtrip(
                {"op": "q_heartbeat", "id": task_id, "lease_s": lease_s}
            )["leased"]
        )

    def q_done(self, task_id: str) -> None:
        self._roundtrip({"op": "q_done", "id": task_id})

    def q_fail(self, task_id: str, error: str) -> None:
        self._roundtrip({"op": "q_fail", "id": task_id, "error": error})

    def q_stats(self) -> Dict[str, object]:
        return dict(self._roundtrip({"op": "q_stats"})["stats"])
