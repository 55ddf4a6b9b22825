"""Fire-and-forget webhook delivery for alert events.

Delivery must never block or crash the watch loop: events are handed to a
bounded queue serviced by one daemon thread, which POSTs each event as
JSON and retries once on failure. Anything that still fails is logged and
dropped. When the queue is full the newest event is dropped (and counted)
rather than stalling ingest, and close() gives up on a hung endpoint
after CLOSE_WAIT_S, counting what it leaves undelivered as dropped.

The thread posts through one http.client connection, kept open while the
server keeps it alive and opened again after the server closes it or an
attempt fails. A kept-alive connection that the server closed while it
was idle fails before any reply; the attempt then goes again on a new
connection, so a stale socket does not use up the retry. Only a 2xx reply
counts as delivered: a redirect is not followed, and no proxy is used.

An http:// webhook loads no ssl, which is most of what http.client would
cost in memory: the sink uses a private copy of http.client whose own
`import ssl` fails, and which goes into no sys.modules entry, so other
code in the process still gets the whole module. An https:// connection
imports ssl when it first opens and checks the certificate and the host
name as HTTPSConnection's default context does; where ssl cannot be
imported, every event counts as failed.
"""

from __future__ import annotations

import builtins
import importlib.util
import logging
import queue
import threading
import time
from urllib.parse import urlsplit

from .alerts import AlertEvent, serialize_alert_event

logger = logging.getLogger(__name__)

_STOP = object()
# Seconds each socket operation of a POST may take: the connect, each
# send and each read of the reply. A whole attempt is not bounded; a
# server that trickles its reply can hold it for longer.
TIMEOUT_S = 2.0
# Events the queue holds; send() drops any beyond.
MAX_QUEUE = 1000
# Seconds close() waits for the queue to drain.
CLOSE_WAIT_S = 30.0

_HEADERS = {"Content-Type": "application/json"}
# How a kept-alive socket that the server has closed fails a request.
# http.client.RemoteDisconnected is a ConnectionResetError.
_STALE = (BrokenPipeError, ConnectionAbortedError, ConnectionResetError)


def _import_all_but_ssl(name, *args, **kwargs):
    if name == "ssl":
        raise ImportError("ssl is imported only when an https connection opens")
    return builtins.__import__(name, *args, **kwargs)


def _load_http_client():
    """A private copy of http.client that runs its own imports through
    _import_all_but_ssl, so it has no HTTPSConnection and leaves
    sys.modules as it was."""
    spec = importlib.util.find_spec("http.client")
    module = importlib.util.module_from_spec(spec)
    module.__builtins__ = dict(vars(builtins), __import__=_import_all_but_ssl)
    spec.loader.exec_module(module)
    return module


_client = _load_http_client()


class _HTTPSConnection(_client.HTTPConnection):
    """HTTPSConnection with its default context, which imports ssl when it
    first connects instead of when http.client is imported."""

    default_port = _client.HTTPS_PORT
    _context = None

    def connect(self) -> None:
        import ssl  # an ImportError fails the attempt like any other error
        if self._context is None:
            # As http.client.HTTPSConnection makes its default context.
            context = ssl._create_default_https_context()
            context.set_alpn_protocols(["http/1.1"])
            if context.post_handshake_auth is not None:
                context.post_handshake_auth = True
            self._context = context
        super().connect()
        self.sock = self._context.wrap_socket(self.sock, server_hostname=self.host)


def _connection(url: str) -> tuple[_client.HTTPConnection | None, str]:
    """An unopened connection to url's server and the path to POST to, or
    (None, "") for a URL that cannot be posted to: one with no host, a
    scheme other than http and https, or a malformed port or host."""
    try:
        parts = urlsplit(url)
        connection = {"http": _client.HTTPConnection,
                      "https": _HTTPSConnection}.get(parts.scheme)
        if connection is None or not parts.hostname:
            return None, ""
        conn = connection(parts.hostname, parts.port, timeout=TIMEOUT_S)
    except (ValueError, _client.InvalidURL):
        return None, ""
    return conn, (parts.path or "/") + (f"?{parts.query}" if parts.query else "")


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
        self._conn, self._path = _connection(url)
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
            if self._conn is not None:
                self._conn.close()

    def _post(self, body: bytes) -> bool:
        """One attempt; True when the server replied 2xx."""
        if self._conn is None:
            return False
        reused = self._conn.sock is not None
        try:
            try:
                response = self._reply(body)
            except _STALE:
                if not reused:
                    raise
                self._conn.close()
                response = self._reply(body)
            # Read to the end, so the connection can carry the next POST.
            with response:
                response.read()
                return 200 <= response.status < 300
        except (OSError, ValueError, ImportError, _client.HTTPException):
            # ValueError: a path or host that does not encode.
            # ImportError: an https URL where ssl cannot be imported.
            # HTTPException: a reply that is not HTTP.
            self._conn.close()
            return False

    def _reply(self, body: bytes) -> _client.HTTPResponse:
        self._conn.request("POST", self._path, body, _HEADERS)
        return self._conn.getresponse()
