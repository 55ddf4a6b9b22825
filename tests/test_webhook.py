"""Webhook sink: delivery, retry, and never-blocking guarantees."""

import contextlib
import itertools
import json
import os
import pathlib
import re
import shutil
import socket
import ssl
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from threatwatch import webhook
from threatwatch.alerts import AlertEvent, AlertKind, serialize_alert_event
from threatwatch.cli import main
from threatwatch.fusion import ThreatLevel
from threatwatch.webhook import WebhookSink

EVENT = AlertEvent("cam", "cam:3", AlertKind.RAISED, 3, 66, ThreatLevel.GRASPED, 0.77)


class _Recorder(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = self.rfile.read(length)
        server = self.server
        with server.lock:
            server.requests.append((self.path, body))
            should_fail = server.fail_remaining > 0
            if should_fail:
                server.fail_remaining -= 1
        self.send_response(500 if should_fail else 200)
        self.end_headers()

    def log_message(self, *args):
        pass


def _start_server(fail_remaining=0):
    server = HTTPServer(("127.0.0.1", 0), _Recorder)
    server.requests = []
    server.fail_remaining = fail_remaining
    server.lock = threading.Lock()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, f"http://127.0.0.1:{server.server_address[1]}/hook"


def test_delivers_event_as_json():
    server, url = _start_server()
    try:
        with WebhookSink(url) as sink:
            sink.send(EVENT)
        assert sink.delivered == 1
        assert sink.failed == 0
        path, body = server.requests[0]
        assert path == "/hook"
        assert json.loads(body) == json.loads(serialize_alert_event(EVENT))
        assert body == serialize_alert_event(EVENT).encode()
    finally:
        server.shutdown()
        server.server_close()


def test_retries_once_then_succeeds():
    server, url = _start_server(fail_remaining=1)
    try:
        with WebhookSink(url) as sink:
            sink.send(EVENT)
        assert sink.delivered == 1
        assert sink.failed == 0
        assert len(server.requests) == 2
    finally:
        server.shutdown()
        server.server_close()


def test_double_failure_is_counted_not_raised():
    server, url = _start_server(fail_remaining=2)
    try:
        with WebhookSink(url) as sink:
            sink.send(EVENT)
        assert sink.delivered == 0
        assert sink.failed == 1
        assert len(server.requests) == 2
    finally:
        server.shutdown()
        server.server_close()


def test_unreachable_host_never_raises(monkeypatch):
    monkeypatch.setattr(webhook, "TIMEOUT_S", 0.2)
    # port 9 (discard) is not listening on loopback; connect fails fast
    with WebhookSink("http://127.0.0.1:9/hook") as sink:
        sink.send(EVENT)
    assert sink.failed == 1
    assert sink.delivered == 0


def test_send_does_not_block_on_full_queue(monkeypatch):
    monkeypatch.setattr(webhook, "TIMEOUT_S", 0.2)
    monkeypatch.setattr(webhook, "MAX_QUEUE", 1)
    with WebhookSink("http://127.0.0.1:9/hook") as sink:
        started = time.perf_counter()
        for _ in range(50):
            sink.send(EVENT)
        elapsed = time.perf_counter() - started
        assert elapsed < 0.5
    assert sink.dropped + sink.failed + sink.delivered == 50
    assert sink.dropped > 0


def test_close_is_idempotent():
    server, url = _start_server()
    try:
        sink = WebhookSink(url)
        sink.send(EVENT)
        sink.close()
        sink.close()
        assert sink.delivered == 1
    finally:
        server.shutdown()
        server.server_close()


def test_watch_prints_webhook_counts(tmp_path, capsys):
    script = tmp_path / "s.json"
    script.write_text(json.dumps({"segments": [{"scene": "knife_overhand", "duration_frames": 5},
                                               {"scene": "empty", "duration_frames": 12}],
                                  "stream_id": "cam"}))
    server, url = _start_server()
    try:
        assert main(["watch", "--input", f"synthetic:{script}", "--alerts", "-",
                     "--webhook", url]) == 0
    finally:
        server.shutdown()
        server.server_close()
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    events = int(re.search(r" events=(\d+) ", lines[-2]).group(1))
    assert events == len(captured.out.splitlines()) == len(server.requests) == 3
    assert lines[-2].startswith("summary: ")
    assert lines[-1] == f"webhook: delivered={events} failed=0 dropped=0"


def _serve_raw(listener, replies, reply):
    """Answer each POST on listener with the bytes reply, then close."""
    for _ in range(replies):
        conn, _ = listener.accept()
        with conn, contextlib.suppress(OSError):  # the client may close first
            request = b""
            while b"\r\n\r\n" not in request:
                request += conn.recv(65536)
            head, _, body = request.partition(b"\r\n\r\n")
            length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
            while len(body) < length:
                body += conn.recv(65536)
            conn.sendall(reply)


def _post_five_to_raw(monkeypatch, reply):
    """Post five events to a server that answers each with reply; the
    sink's counts after close()."""
    uncaught = []
    monkeypatch.setattr(threading, "excepthook", uncaught.append)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        server = threading.Thread(target=_serve_raw, args=(listener, 10, reply), daemon=True)
        server.start()
        with WebhookSink(f"http://127.0.0.1:{listener.getsockname()[1]}/hook") as sink:
            for _ in range(5):
                sink.send(EVENT)
        server.join(timeout=10)
        assert not server.is_alive()
    assert uncaught == []
    return sink.delivered, sink.failed, sink.dropped


def test_reply_that_is_not_http_counts_as_failed(monkeypatch):
    assert _post_five_to_raw(monkeypatch, b"garbage\r\n\r\n") == (0, 5, 0)


@pytest.mark.parametrize("reply", [
    b"HTTP/1.1 200 OK\r\nX-Pad: " + b"x" * 70_000 + b"\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc",
], ids=["head_over_64_KiB", "body_cut_short"])
def test_2xx_reply_that_breaks_its_framing_counts_as_failed(monkeypatch, reply):
    assert _post_five_to_raw(monkeypatch, reply) == (0, 5, 0)


def _trickle(listener, connections):
    """Answer each POST on listener with an endless reply head, one byte
    every 0.5 s, until the client goes."""
    for _ in range(connections):
        conn, _ = listener.accept()
        with conn, contextlib.suppress(OSError):
            conn.recv(65536)
            for byte in itertools.islice(itertools.cycle(b"HTTP/1.1 200 OK\r\nX-Pad: "), 60):
                conn.sendall(bytes([byte]))
                time.sleep(0.5)


def test_a_reply_that_trickles_fails_at_the_attempt_deadline(monkeypatch):
    monkeypatch.setattr(webhook, "TIMEOUT_S", 1.0)
    monkeypatch.setattr(webhook, "CLOSE_WAIT_S", 5.0)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        server = threading.Thread(target=_trickle, args=(listener, 2), daemon=True)
        server.start()
        sink = WebhookSink(f"http://127.0.0.1:{listener.getsockname()[1]}/hook")
        started = time.perf_counter()
        sink.send(EVENT)
        sink.close()
        elapsed = time.perf_counter() - started
        server.join(timeout=10)
        assert not server.is_alive()
    # two attempts, each cut at its deadline although no recv waited long
    assert (sink.delivered, sink.failed, sink.dropped) == (0, 1, 0)
    assert elapsed < 2 * 1.0 + 1.0


@pytest.mark.parametrize("max_queue", [1000, 1], ids=["room_for_stop", "stop_waits_for_room"])
def test_close_gives_up_on_a_hung_endpoint(monkeypatch, max_queue):
    # The listener never accepts: connections wait in its backlog unanswered,
    # so every attempt runs to TIMEOUT_S and 10 events would take 4 s to fail.
    monkeypatch.setattr(webhook, "TIMEOUT_S", 0.2)
    monkeypatch.setattr(webhook, "CLOSE_WAIT_S", 0.5)
    monkeypatch.setattr(webhook, "MAX_QUEUE", max_queue)
    with socket.create_server(("127.0.0.1", 0), backlog=16) as listener:
        sink = WebhookSink(f"http://127.0.0.1:{listener.getsockname()[1]}/hook")
        for _ in range(10):
            sink.send(EVENT)
        started = time.perf_counter()
        sink.close()
        elapsed = time.perf_counter() - started
        counts = (sink.delivered, sink.failed, sink.dropped)
        started = time.perf_counter()
        sink.close()  # a second close returns at once
        assert time.perf_counter() - started < 0.1
    # Closing the listener fails the abandoned worker's POST at once.
    sink._worker.join(timeout=5)
    assert not sink._worker.is_alive()
    assert elapsed < 0.5 + 1.0
    assert sum(counts) == 10
    assert counts[2] >= 8
    # The worker counts nothing after close() gave up on it.
    assert (sink.delivered, sink.failed, sink.dropped) == counts


def test_close_gives_up_when_stop_cannot_be_queued(monkeypatch):
    # The worker's first POST, to a listener that never accepts, outlasts
    # CLOSE_WAIT_S, and the one-slot queue stays full all the while, so
    # close() finds no room for its stop.
    monkeypatch.setattr(webhook, "TIMEOUT_S", 1.0)
    monkeypatch.setattr(webhook, "CLOSE_WAIT_S", 0.3)
    monkeypatch.setattr(webhook, "MAX_QUEUE", 1)
    with socket.create_server(("127.0.0.1", 0), backlog=16) as listener:
        sink = WebhookSink(f"http://127.0.0.1:{listener.getsockname()[1]}/hook")
        sink.send(EVENT)
        deadline = time.monotonic() + 5
        while not sink._queue.empty() and time.monotonic() < deadline:
            time.sleep(0.005)
        assert sink._queue.empty()  # the worker has taken the first event
        sink.send(EVENT)  # queued
        sink.send(EVENT)  # dropped: the queue is full
        started = time.perf_counter()
        sink.close()
        elapsed = time.perf_counter() - started
        counts = (sink.delivered, sink.failed, sink.dropped)
        assert list(sink._queue.queue) == [EVENT]  # the stop never went in
    sink._worker.join(timeout=5)
    assert not sink._worker.is_alive()
    assert 0.3 <= elapsed < 0.3 + 0.5
    assert counts == (0, 0, 3)
    # The worker counts nothing after close() gave up on it.
    assert (sink.delivered, sink.failed, sink.dropped) == counts


class _KeepAlive(_Recorder):
    """_Recorder over HTTP/1.1: the connection stays open between POSTs.
    Counts the connections it was handed."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        super().do_POST()
        self.wfile.flush()

    def send_response(self, code, message=None):
        super().send_response(code, message)
        self.send_header("Content-Length", "0")


def _serve(handler):
    server = HTTPServer(("127.0.0.1", 0), handler)
    server.requests = []
    server.fail_remaining = 0
    server.connections = 0
    server.lock = threading.Lock()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, f"http://127.0.0.1:{server.server_address[1]}/hook?key=1"


class _CountedRecorder(_Recorder):
    """_Recorder (HTTP/1.0: the server closes after each reply) that
    counts connections."""

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1


class _ChunkedReply(_CountedRecorder):
    """Over HTTP/1.1, an interim 100 reply, then a reply whose body comes
    in chunks, with an extension and a trailer; the connection stays open."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        super().do_POST()

    def end_headers(self):
        self.send_header("Transfer-Encoding", "chunked")
        super().end_headers()
        self.wfile.write(b"5;ext=1\r\nhello\r\n1\r\n \r\n5\r\nworld\r\n0\r\nX-Sum: 1\r\n\r\n")


class _UnframedReply(_CountedRecorder):
    """Over HTTP/1.1, a reply whose body has no length: it ends where the
    server closes the connection."""

    protocol_version = "HTTP/1.1"

    def end_headers(self):
        super().end_headers()
        self.wfile.write(b"accepted")
        self.close_connection = True


@pytest.mark.parametrize("handler, connections",
                         [(_KeepAlive, 1), (_CountedRecorder, 7), (_ChunkedReply, 1),
                          (_UnframedReply, 7)],
                         ids=["keep_alive", "close_per_request", "chunked", "no_length"])
def test_connection_is_reused_while_the_server_keeps_it(handler, connections):
    server, thread, url = _serve(handler)
    try:
        with WebhookSink(url) as sink:
            for _ in range(7):
                sink.send(EVENT)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert (sink.delivered, sink.failed, sink.dropped) == (7, 0, 0)
    assert server.connections == connections
    assert server.requests == [("/hook?key=1", serialize_alert_event(EVENT).encode())] * 7


def test_keep_alive_connection_reopens_after_a_failed_reply():
    server, thread, url = _serve(_KeepAlive)
    server.fail_remaining = 1
    try:
        with WebhookSink(url) as sink:
            for _ in range(3):
                sink.send(EVENT)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    # a 500 keeps the connection: the retry and the later events share it
    assert (sink.delivered, sink.failed, sink.dropped) == (3, 0, 0)
    assert len(server.requests) == 4 and server.connections == 1


class _ClosesWhileIdle(_KeepAlive):
    """_KeepAlive that fails every other POST with a 500 and closes each
    connection after its reply without saying so, as a server that drops
    idle kept-alive connections does."""

    def do_POST(self):
        self.server.fail_remaining = 1 - len(self.server.requests) % 2
        super().do_POST()
        self.close_connection = True


def test_stale_kept_alive_connection_does_not_use_up_the_retry():
    server, thread, url = _serve(_ClosesWhileIdle)
    try:
        with WebhookSink(url) as sink:
            for _ in range(3):
                sink.send(EVENT)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    # Each event: a 500, then the retry finds the socket closed, reconnects
    # and is answered 200; the stale try is not an attempt of its own.
    assert (sink.delivered, sink.failed, sink.dropped) == (3, 0, 0)
    assert len(server.requests) == 6 and server.connections == 6


@pytest.mark.parametrize("url", [
    "http://", "https:///hook", "hook", "ftp://127.0.0.1/hook", "file:///tmp/hook",
    "http://127.0.0.1:port/hook", "http://127.0.0.1:99999/hook", "http://[::1/hook",
    "http://bad host/hook", "http://127.0.0.1:9/hé",
])
def test_url_that_cannot_be_posted_to_counts_as_failed(monkeypatch, url):
    monkeypatch.setattr(webhook, "TIMEOUT_S", 0.2)
    uncaught = []
    monkeypatch.setattr(threading, "excepthook", uncaught.append)
    with WebhookSink(url) as sink:
        sink.send(EVENT)
        sink.send(EVENT)
    assert uncaught == []
    assert (sink.delivered, sink.failed, sink.dropped) == (0, 2, 0)


@pytest.mark.parametrize("path", ["/a b", "/a\x7fb", "/h\u00e9"],
                         ids=["space", "control", "not_ascii"])
def test_path_that_http_client_refuses_is_not_posted(path):
    server, url = _start_server()
    try:
        with WebhookSink(url.replace("/hook", path)) as sink:
            sink.send(EVENT)
    finally:
        server.shutdown()
        server.server_close()
    assert (sink.delivered, sink.failed, sink.dropped) == (0, 1, 0)
    assert server.requests == []


class _TLSRecorder(_Recorder):
    """_Recorder that notes the ALPN protocol each connection agreed."""

    def do_POST(self):
        self.server.alpn.append(self.request.selected_alpn_protocol())
        super().do_POST()


@pytest.fixture
def tls_server(tmp_path):
    """A loopback HTTPS server with a certificate for localhost, made at
    test time; yields the server and the certificate's path."""
    if shutil.which("openssl") is None:
        pytest.skip("no openssl binary to make a certificate")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(["openssl", "req", "-x509", "-newkey", "rsa:2048", "-nodes", "-days", "1",
                    "-keyout", str(key), "-out", str(cert), "-subj", "/CN=localhost",
                    "-addext", "subjectAltName=DNS:localhost"],
                   check=True, capture_output=True, timeout=60)
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    context.set_alpn_protocols(["http/1.1"])
    server, thread, _ = _serve(_TLSRecorder)
    server.socket = context.wrap_socket(server.socket, server_side=True)
    server.alpn = []
    yield server, cert
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.mark.parametrize("host, trusted, has_ssl, delivered", [
    ("localhost", True, True, 1),
    ("127.0.0.1", True, True, 0),
    ("localhost", False, True, 0),
    ("localhost", True, False, 0),
], ids=["delivered", "host_name_mismatch", "untrusted", "no_ssl"])
def test_https_checks_the_certificate_and_the_host_name(monkeypatch, tls_server, host, trusted,
                                                        has_ssl, delivered):
    server, cert = tls_server
    if trusted:
        monkeypatch.setenv("SSL_CERT_FILE", str(cert))
    else:
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
    if not has_ssl:
        monkeypatch.setitem(sys.modules, "ssl", None)
    uncaught = []
    monkeypatch.setattr(threading, "excepthook", uncaught.append)
    with WebhookSink(f"https://{host}:{server.server_address[1]}/hook") as sink:
        sink.send(EVENT)
    assert uncaught == []
    assert (sink.delivered, sink.failed, sink.dropped) == (delivered, 1 - delivered, 0)
    assert server.requests == [("/hook", serialize_alert_event(EVENT).encode())] * delivered
    assert server.alpn == ["http/1.1"] * delivered


_POST_ONE = """
import json, sys
from threatwatch.alerts import AlertEvent, AlertKind
from threatwatch.fusion import ThreatLevel
from threatwatch.webhook import WebhookSink
with WebhookSink(sys.argv[1]) as sink:
    sink.send(AlertEvent("cam", "cam:3", AlertKind.RAISED, 3, 66, ThreatLevel.GRASPED, 0.77))
print(json.dumps([sink.delivered, sink.failed, sink.dropped,
                  sorted(m for m in sys.modules if m in sys.argv[2:]
                         or m.partition(".")[0] == "email")]))
"""
# What the IDNA codec loads.
_IDNA = ("encodings.idna", "stringprep", "unicodedata")


def _post_in_a_new_process(url, *modules, **env):
    """Post one event from a new process; its counts, and which of
    email.* and modules it then has in sys.modules."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run([sys.executable, "-c", _POST_ONE, url, *modules],
                            env=dict(os.environ, PYTHONPATH=str(src), **env),
                            capture_output=True, text=True, check=True, timeout=60)
    *counts, modules = json.loads(result.stdout)
    return tuple(counts), modules


def test_http_webhook_loads_no_http_client_email_or_ssl():
    server, url = _start_server()
    try:
        assert _post_in_a_new_process(url, "http.client", "ssl", *_IDNA) == ((1, 0, 0), [])
    finally:
        server.shutdown()
        server.server_close()
    assert len(server.requests) == 1


def test_https_webhook_loads_ssl_but_no_http_client_or_email(tls_server):
    server, cert = tls_server
    url = f"https://localhost:{server.server_address[1]}/hook"
    assert (_post_in_a_new_process(url, "http.client", "ssl", *_IDNA, SSL_CERT_FILE=str(cert))
            == ((1, 0, 0), ["ssl"]))
    assert server.requests == [("/hook", serialize_alert_event(EVENT).encode())]
