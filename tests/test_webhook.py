"""Webhook sink: delivery, retry, and never-blocking guarantees."""

import json
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

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


def test_unreachable_host_never_raises():
    # port 9 (discard) is not listening on loopback; connect fails fast
    with WebhookSink("http://127.0.0.1:9/hook", timeout=0.2) as sink:
        sink.send(EVENT)
    assert sink.failed == 1
    assert sink.delivered == 0


def test_send_does_not_block_on_full_queue():
    with WebhookSink("http://127.0.0.1:9/hook", timeout=0.2, max_queue=1) as sink:
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


def _serve_garbage(listener, replies):
    """Answer each POST on listener with bytes that are not HTTP."""
    for _ in range(replies):
        conn, _ = listener.accept()
        with conn:
            request = b""
            while b"\r\n\r\n" not in request:
                request += conn.recv(65536)
            head, _, body = request.partition(b"\r\n\r\n")
            length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
            while len(body) < length:
                body += conn.recv(65536)
            conn.sendall(b"garbage\r\n\r\n")


def test_reply_that_is_not_http_counts_as_failed(monkeypatch):
    uncaught = []
    monkeypatch.setattr(threading, "excepthook", uncaught.append)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        server = threading.Thread(target=_serve_garbage, args=(listener, 10), daemon=True)
        server.start()
        with WebhookSink(f"http://127.0.0.1:{listener.getsockname()[1]}/hook") as sink:
            for _ in range(5):
                sink.send(EVENT)
        server.join(timeout=10)
        assert not server.is_alive()
    assert uncaught == []
    assert (sink.delivered, sink.failed, sink.dropped) == (0, 5, 0)
