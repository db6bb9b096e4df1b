"""Wire protocol and server semantics of ``repro kv-serve``."""

import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.core.errors import ConfigurationError
from repro.dist import kv as kv_module
from repro.dist.kv import (
    PROTOCOL,
    KVClient,
    KVServer,
    recv_frame,
    send_frame,
)


@pytest.fixture
def server():
    server = KVServer(("127.0.0.1", 0))
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5.0)


@pytest.fixture
def client(server):
    host, port = server.server_address[:2]
    client = KVClient(host, port, timeout_s=5.0)
    yield client
    client.close()


# ---------------------------------------------------------------------- #
# framing
# ---------------------------------------------------------------------- #
def test_frame_round_trip_and_clean_eof():
    left, right = socket.socketpair()
    try:
        send_frame(left, {"op": "ping", "blob": "x" * 1000})
        assert recv_frame(right) == {"op": "ping", "blob": "x" * 1000}
        left.close()
        assert recv_frame(right) is None  # EOF between frames is clean
    finally:
        right.close()


def test_oversized_announced_frame_is_refused():
    left, right = socket.socketpair()
    try:
        left.sendall(struct.pack(">I", kv_module.MAX_FRAME_BYTES + 1))
        with pytest.raises(ConnectionError, match="limit"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_stream_ending_mid_frame_is_an_error():
    left, right = socket.socketpair()
    try:
        left.sendall(struct.pack(">I", 100) + b'{"op"')  # then the peer dies
        left.close()
        with pytest.raises(ConnectionError, match="mid-frame"):
            recv_frame(right)
    finally:
        right.close()


def test_send_frame_refuses_oversized_payload(monkeypatch):
    monkeypatch.setattr(kv_module, "MAX_FRAME_BYTES", 16)
    left, right = socket.socketpair()
    try:
        with pytest.raises(ConfigurationError, match="exceeds"):
            send_frame(left, {"op": "x" * 64})
    finally:
        left.close()
        right.close()


# ---------------------------------------------------------------------- #
# server ops through the real socket client
# ---------------------------------------------------------------------- #
def test_store_ops_round_trip(client):
    key = "ab" + "0" * 62
    assert client.contains(key) is False
    client.put(key, {"traces.npz": b"\x00npz", "entry.json": b"{}"})
    assert client.contains(key) is True
    assert client.get(key) == b"{}"
    assert client.get(key, "traces.npz") == b"\x00npz"  # binary-safe via base64
    assert client.get(key, "missing") is None
    assert client.keys() == [key]
    assert client.size(key) == 6
    assert client.delete(key) is True
    assert client.delete(key) is False


def test_queue_ops_round_trip(client):
    task_id = "cd" + "1" * 62
    assert client.q_put({"id": task_id, "payload": "p"}) is True
    assert client.q_put({"id": task_id}) is False  # idempotent
    lease = client.q_lease("w1", 30.0)
    assert lease["id"] == task_id
    assert lease["attempts"] == 0
    assert lease["payload"]["payload"] == "p"
    assert client.q_lease("w2", 30.0) is None  # nothing else pending
    assert client.q_heartbeat(task_id, 30.0) is True
    client.q_done(task_id)
    assert client.q_heartbeat(task_id, 30.0) is False  # lease is gone
    stats = client.q_stats()
    assert stats["done"] == 1
    assert stats["pending"] == stats["leased"] == stats["failed"] == 0


def test_failed_task_error_travels_through_stats(client):
    task_id = "ef" + "2" * 62
    client.q_put({"id": task_id})
    client.q_lease("w1", 30.0)
    client.q_fail(task_id, "boom on worker")
    stats = client.q_stats()
    assert stats["failed"] == 1
    assert stats["errors"] == {task_id: "boom on worker"}


def test_server_rejects_bad_requests_without_dying(client):
    with pytest.raises(ConfigurationError, match="unknown op"):
        client._roundtrip({"op": "nonsense"})
    with pytest.raises(ConfigurationError, match="rejected"):
        client._roundtrip({"op": "put", "key": "k", "files": "not-a-dict"})
    # the connection (and server) survived both rejections
    assert client.contains("ab" + "3" * 62) is False


def test_client_handshake_rejects_a_non_kv_peer():
    """Dialing something that is not `repro kv-serve` fails loudly."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()

    def impostor():
        conn, _ = listener.accept()
        recv_frame(conn)  # swallow the ping
        send_frame(conn, {"server": "bogus/9"})
        conn.close()

    thread = threading.Thread(target=impostor, daemon=True)
    thread.start()
    try:
        with pytest.raises(ConnectionError, match=PROTOCOL):
            KVClient(host, port, timeout_s=5.0)._connect()
    finally:
        thread.join(timeout=5.0)
        listener.close()


def test_killed_server_fails_every_later_op_naming_its_address():
    """A SIGKILLed `repro kv-serve` process: each op fails fast, with the address.

    A real process is needed: an in-thread ``KVServer.shutdown()`` keeps
    serving connections that are already open.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "kv-serve", "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        banner = proc.stdout.readline()
        match = re.search(r"kv://([\d.]+):(\d+)", banner)
        assert match, banner
        host, port = match.group(1), int(match.group(2))
        client = KVClient(host, port, timeout_s=5.0)
        client.put("ab" + "4" * 62, {"entry.json": b"{}"})
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=5.0)

        started = time.monotonic()
        for op in (lambda: client.contains("ab" + "4" * 62), client.keys):
            with pytest.raises(ConnectionError, match=re.escape(f"{host}:{port}")):
                op()
        assert time.monotonic() - started < 5.0
        client.close()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=5.0)
        proc.stdout.close()
