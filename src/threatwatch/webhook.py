"""Fire-and-forget webhook delivery for alert events.

Delivery must never block or crash the watch loop: events are handed to a
bounded queue serviced by one daemon thread, which POSTs each event as
JSON and retries once on failure. Anything that still fails is logged and
dropped. When the queue is full the newest event is dropped (and counted)
rather than stalling ingest, and close() gives up on a hung endpoint
after CLOSE_WAIT_S, counting what it leaves undelivered as dropped.

The thread speaks HTTP/1.1 over one bare socket, kept open while the
server keeps it alive (HTTP/1.1 unless it says Connection: close, HTTP/1.0
only when it says Connection: keep-alive) and opened again after the
server closes it or an attempt fails. The request head is built once per
sink. A reply is read whole, 1xx replies skipped, its head up to MAX_HEAD
bytes and its body framed by Content-Length, by chunked encoding or by the
server closing the connection. A kept-alive connection that the server
closed while it was idle fails before any reply; the attempt then goes
again on a new connection, so a stale socket does not use up the retry.
Only a 2xx reply counts as delivered: a redirect is not followed, and no
proxy is used.

Each attempt, the connect, the send and the whole reply, has one deadline,
TIMEOUT_S away: every socket call may take only what is left of it, so a
server that trickles its reply cannot hold the thread for longer.

No HTTP client module is loaded: http.client would import email.* and,
unless kept from it, ssl, which cost more memory and start-up time than
the few lines here. The host is connected to by its ASCII or IDNA
bytes, so the IDNA codec is not loaded either. An http:// URL never
loads ssl. An https:// connection imports ssl when it first opens and checks the certificate and
the host name with ssl.create_default_context(); where ssl cannot be
imported, every event counts as failed. A URL whose host or path holds a
control character or a space, or whose path is not ASCII, counts every
event as failed, as http.client refuses it.
"""

from __future__ import annotations

import logging
import queue
import re
import socket
import threading
import time
from urllib.parse import urlsplit

from .alerts import AlertEvent, serialize_alert_event

logger = logging.getLogger(__name__)

_STOP = object()
# Seconds one attempt may take, from the connect to the reply's last byte.
TIMEOUT_S = 2.0
# Events the queue holds; send() drops any beyond.
MAX_QUEUE = 1000
# Seconds close() waits for the queue to drain.
CLOSE_WAIT_S = 30.0

# Bytes the head of a reply, its status line and headers, may take.
MAX_HEAD = 65536
# What http.client refuses in a URL's host or path: controls and spaces.
_UNSAFE = re.compile("[\x00-\x20\x7f]")
_HEAD_END = re.compile(rb"\r?\n\r?\n")
# How a kept-alive socket that the server has closed fails a request.
_STALE = (BrokenPipeError, ConnectionAbortedError, ConnectionResetError)


def _target(url: str) -> tuple[bytes, int, bool, bytes] | None:
    """(host, port, https, request head up to the Content-Length value)
    for url, or None for a URL that cannot be posted to: one with no host,
    a scheme other than http and https, a malformed port or host, or a
    host or path that http.client would refuse. The host is bytes, ASCII
    or else IDNA: socket and ssl would encode a str host with the IDNA
    codec, which loads stringprep and unicodedata."""
    try:
        parts = urlsplit(url)
        host, port = parts.hostname, parts.port
        https = parts.scheme == "https"
        if parts.scheme not in ("http", "https") or not host:
            return None
        path = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        if _UNSAFE.search(host) or _UNSAFE.search(path):
            return None
        try:
            name = host.encode("ascii")
        except UnicodeEncodeError:
            name = host.encode("idna")
        # An IPv6 address is named without its zone.
        host_header = b"[" + name.partition(b"%")[0] + b"]" if ":" in host else name
        if port is None:
            port = 443 if https else 80
        elif port != (443 if https else 80):
            host_header += b":%d" % port
        head = (b"POST " + path.encode("ascii") + b" HTTP/1.1\r\nHost: " + host_header
                + b"\r\nContent-Type: application/json\r\nContent-Length: ")
    except ValueError:  # a malformed port or host; a path or host that does not encode
        return None
    return name, port, https, head


def _time_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("webhook attempt ran out of time")
    return left


class _Reply:
    """Reads one HTTP/1.x reply from a socket, each recv bounded by what
    is left until the attempt's deadline. A reply that is not HTTP/1.x,
    or whose head passes MAX_HEAD, raises ValueError."""

    def __init__(self, sock: socket.socket, deadline: float) -> None:
        self.sock = sock
        self.deadline = deadline
        self.buf = bytearray()

    def _more(self) -> bool:
        """Append the next bytes from the socket; False at its end."""
        self.sock.settimeout(_time_left(self.deadline))
        data = self.sock.recv(65536)
        self.buf += data
        return bool(data)

    def _line(self) -> bytes:
        while (end := self.buf.find(b"\n")) < 0:
            if len(self.buf) > MAX_HEAD or not self._more():
                raise ValueError("reply cut short in a line")
        line = bytes(self.buf[:end + 1])
        del self.buf[:end + 1]
        return line

    def _skip(self, length: int) -> None:
        while len(self.buf) < length:
            length -= len(self.buf)
            self.buf.clear()
            if not self._more():
                raise ValueError("reply body cut short")
        del self.buf[:length]

    def read(self) -> tuple[int, bool]:
        """The final status, after its whole body, and whether the
        connection can carry another request."""
        while True:
            while (end := _HEAD_END.search(self.buf, 0, MAX_HEAD)) is None:
                if len(self.buf) >= MAX_HEAD:
                    raise ValueError("reply head too long")
                if not self._more():
                    if not self.buf:  # as a server closing an idle connection does
                        raise ConnectionResetError("connection closed before a reply")
                    raise ValueError("reply cut short in its head")
            status_line, *lines = bytes(self.buf[:end.start()]).split(b"\n")
            del self.buf[:end.end()]
            fields = status_line.split(None, 2)
            if (len(fields) < 2 or not fields[0].startswith(b"HTTP/1.")
                    or len(fields[1]) != 3 or not fields[1].isdigit() or fields[1] < b"100"):
                raise ValueError("reply is not HTTP/1.x")
            version, status = fields[0], int(fields[1])
            if status >= 200:  # a 1xx reply is followed by another
                break
        headers = {}
        for line in lines:
            name, colon, value = line.partition(b":")
            if not colon:
                raise ValueError("reply header without a colon")
            headers[name.strip().lower()] = value.strip().lower()
        connection = headers.get(b"connection", b"")
        keep_alive = (b"keep-alive" in connection if version == b"HTTP/1.0"
                      else b"close" not in connection)
        if status in (204, 304):
            pass
        elif b"chunked" in headers.get(b"transfer-encoding", b""):
            while (size := int(self._line().partition(b";")[0], 16)) != 0:
                if size < 0:
                    raise ValueError("negative chunk size")
                self._skip(size)
                if self._line().strip():
                    raise ValueError("chunk not followed by CRLF")
            while self._line().strip():  # trailers, up to a blank line
                pass
        elif (length := headers.get(b"content-length")) is not None:
            if not length.isdigit():
                raise ValueError("bad Content-Length")
            self._skip(int(length))
        else:  # the body ends where the server closes the connection
            while self._more():
                self.buf.clear()
            keep_alive = False
        # Bytes past the reply would be read as the next one's.
        return status, keep_alive and not self.buf


class WebhookSink:
    """Background POST-er of alert events to one URL.

    send() enqueues and returns immediately; close() stops the worker
    after draining whatever is queued. Failures are logged, never raised.
    After close(), delivered + failed + dropped is the number of send()
    calls.
    """

    def __init__(self, url: str) -> None:
        self.url = url
        self.dropped = 0
        self.delivered = 0
        self.failed = 0
        self._sent = 0
        self._target = _target(url)
        self._sock: socket.socket | None = None
        self._tls_context = None  # made when an https connection first opens
        # Guards delivered and failed against close() giving up on the
        # worker; once it has, the worker counts nothing more.
        self._lock = threading.Lock()
        self._abandoned = False
        self._queue: queue.Queue = queue.Queue(maxsize=MAX_QUEUE)
        self._worker = threading.Thread(
            target=self._run, name="threatwatch-webhook", daemon=True
        )
        self._worker.start()

    def send(self, event: AlertEvent) -> None:
        self._sent += 1
        try:
            self._queue.put_nowait(event)
        except queue.Full:
            self.dropped += 1
            logger.warning("webhook queue full, dropping %s event for %s",
                           event.kind.value, event.alert_id)

    def close(self) -> None:
        """Drain the queue and stop the worker, waiting at most
        CLOSE_WAIT_S; events still queued or in flight then count as
        dropped, and the worker stops after its current POST. Safe to call
        twice."""
        if self._abandoned or not self._worker.is_alive():
            return
        deadline = time.monotonic() + CLOSE_WAIT_S
        try:
            self._queue.put(_STOP, timeout=CLOSE_WAIT_S)
        except queue.Full:
            pass
        self._worker.join(max(0.0, deadline - time.monotonic()))
        if self._worker.is_alive():
            with self._lock:
                self._abandoned = True
                left = self._sent - self.delivered - self.failed - self.dropped
                self.dropped += left
            logger.warning("webhook close gave up after %s s, dropping %d undelivered events",
                           CLOSE_WAIT_S, left)

    def __enter__(self) -> "WebhookSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _run(self) -> None:
        try:
            while True:
                item = self._queue.get()
                if item is _STOP:
                    return
                body = serialize_alert_event(item).encode()
                ok = self._post(body) or self._post(body)
                with self._lock:
                    if self._abandoned:
                        return
                    if ok:
                        self.delivered += 1
                    else:
                        self.failed += 1
                        logger.warning("webhook delivery failed twice for %s", item.alert_id)
        finally:
            self._disconnect()

    def _disconnect(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def _post(self, body: bytes) -> bool:
        """One attempt; True when the server replied 2xx."""
        if self._target is None:
            return False
        deadline = time.monotonic() + TIMEOUT_S
        request = b"%s%d\r\n\r\n%s" % (self._target[3], len(body), body)
        reused = self._sock is not None
        try:
            try:
                status = self._exchange(request, deadline)
            except _STALE:
                if not reused:
                    raise
                self._disconnect()
                status = self._exchange(request, deadline)
        except (OSError, ValueError, ImportError):
            # ValueError: a reply that is not HTTP/1.x.
            # ImportError: an https URL where ssl cannot be imported.
            self._disconnect()
            return False
        return 200 <= status < 300

    def _exchange(self, request: bytes, deadline: float) -> int:
        """Send request, opening a connection if none is open, and read
        the whole reply; returns its status."""
        if self._sock is None:
            self._sock = self._connect(deadline)
        self._sock.settimeout(_time_left(deadline))
        self._sock.sendall(request)
        status, keep_alive = _Reply(self._sock, deadline).read()
        if not keep_alive:
            self._disconnect()
        return status

    def _connect(self, deadline: float) -> socket.socket:
        host, port, https, _ = self._target
        sock = socket.create_connection((host, port), timeout=_time_left(deadline))
        if not https:
            return sock
        try:
            import ssl  # an ImportError fails the attempt like any other error
            if self._tls_context is None:
                context = ssl.create_default_context()
                context.set_alpn_protocols(["http/1.1"])
                self._tls_context = context
            sock.settimeout(_time_left(deadline))
            return self._tls_context.wrap_socket(sock, server_hostname=host)
        except BaseException:
            sock.close()
            raise
