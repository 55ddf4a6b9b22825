"""Fire-and-forget webhook delivery for alert events.

Delivery must never block or crash the watch loop: events are handed to a
bounded queue serviced by one daemon thread, which POSTs each event as
JSON and retries once on failure. Anything that still fails is logged and
dropped. When the queue is full the newest event is dropped (and counted)
rather than stalling ingest.
"""

from __future__ import annotations

import http.client
import logging
import queue
import threading
import urllib.error
import urllib.request

from .alerts import AlertEvent, serialize_alert_event

logger = logging.getLogger(__name__)

_STOP = object()


class WebhookSink:
    """Background POST-er of alert events to one URL.

    send() enqueues and returns immediately; close() stops the worker
    after draining whatever is queued. Failures are logged, never raised.
    """

    def __init__(self, url: str, timeout: float = 2.0, max_queue: int = 1000) -> None:
        self.url = url
        self.timeout = timeout
        self.dropped = 0
        self.delivered = 0
        self.failed = 0
        self._queue: queue.Queue = queue.Queue(maxsize=max_queue)
        self._worker = threading.Thread(
            target=self._run, name="threatwatch-webhook", daemon=True
        )
        self._worker.start()

    def send(self, event: AlertEvent) -> None:
        try:
            self._queue.put_nowait(event)
        except queue.Full:
            self.dropped += 1
            logger.warning("webhook queue full, dropping %s event for %s",
                           event.kind.value, event.alert_id)

    def close(self) -> None:
        """Drain the queue and stop the worker. Safe to call twice."""
        if self._worker.is_alive():
            self._queue.put(_STOP)
            self._worker.join()

    def __enter__(self) -> "WebhookSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            body = serialize_alert_event(item).encode()
            ok = self._post(body)
            if not ok:
                ok = self._post(body)
            if ok:
                self.delivered += 1
            else:
                self.failed += 1
                logger.warning("webhook delivery failed twice for %s", item.alert_id)

    def _post(self, body: bytes) -> bool:
        request = urllib.request.Request(
            self.url, data=body, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return 200 <= response.status < 300
        except (urllib.error.URLError, OSError, ValueError, http.client.HTTPException):
            # HTTPException: a reply that is not HTTP, which urlopen
            # passes through unwrapped.
            return False
