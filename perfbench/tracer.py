"""Traced replay of one CLI command, run in its own interpreter.

    python perfbench/tracer.py run SPANS_OUT METRICS_OUT -- CLI_ARGS...
    python perfbench/tracer.py burst URL COUNT METRICS_OUT

`run` wraps the public calls into each threatwatch module from outside
(nothing under src/ changes), runs `threatwatch.cli.main(CLI_ARGS)`
in-process, then writes every span as a tab-separated line (name, start
ns, end ns, parent index; -1 for none) to SPANS_OUT and the per-layer
metrics as JSON to METRICS_OUT.

A frame span runs from the backend's next() for one record to its next()
for the following record, so it holds the parse or synthesis step, the
loop body, and everything the loop calls. A span's self time is its
duration minus that of its children; the per-frame self times of the
layers plus cli.other_us (the frame span's own self time: the write and
the loop) add up to cli.frame_us.mean.

`burst` sends COUNT alert events through a WebhookSink to URL as fast as
send() returns, closes it and reports how many were delivered or dropped.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

from threatwatch import alerts, backends, cli, webhook
from threatwatch.alerts import AlertEvent, AlertKind
from threatwatch.fusion import ThreatLevel

SPAN_NAMES = (
    "cli.frame",
    "backends.synthesize",
    "backends.replay_next",
    "backends.end",
    "backends.open",
    "frames.parse",
    "frames.parse_error",
    "fusion.assess",
    "fusion.serialize",
    "alerts.feed",
    "alerts.flush",
    "alerts.serialize",
    "webhook.send",
    "webhook.close",
)
(FRAME, SYNTH, REPLAY_NEXT, END, OPEN, PARSE, PARSE_ERROR, ASSESS, SERIALIZE,
 FEED, FLUSH, ALERT_SERIALIZE, SEND, CLOSE) = range(len(SPAN_NAMES))
LAYERS = ("frames", "backends", "fusion", "alerts", "webhook")


class Tracer:
    """Spans kept in memory as parallel arrays, indexed by span number."""

    def __init__(self) -> None:
        self.names = array("b")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("l")
        self.stack = [-1]
        self.events = Counter()
        self.detections = 0
        self.tracker = None
        self.sink = None

    def call(self, name: int, fn, error_name: int | None = None):
        """Wrap fn so each call records one span under the open one."""
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self.stack)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                if error_name is not None:
                    names[idx] = error_name
                raise
            ends[idx] = clock()
            stack.pop()
            return result

        return traced

    def frames(self, records, step_name: int):
        """Yield from a backend's record iterator, opening a frame span at
        each next() and leaving it open while the caller's loop body runs."""
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self.stack)
        clock = time.perf_counter_ns
        frame = -1
        while True:
            t0 = clock()
            if frame >= 0:
                ends[frame] = t0
                stack.pop()
            step = len(names)
            names.append(step_name)
            parents.append(stack[-1])
            starts.append(t0)
            ends.append(0)
            stack.append(step)
            try:
                record = next(records)
            except StopIteration:
                ends[step] = clock()
                names[step] = END
                stack.pop()
                return
            ends[step] = t1 = clock()
            stack.pop()
            frame = len(names)
            names.append(FRAME)
            parents.append(stack[-1])
            starts.append(t0)
            ends.append(t1)
            parents[step] = frame
            stack.append(frame)
            self.detections += len(record.detections)
            yield record

    def install(self) -> None:
        """Wrap each hook point. A hook the program no longer has is
        reported on stderr and left out; its time then shows in the
        enclosing span's self time."""
        tracer = self

        def traced_frames(step_name):
            return lambda frames: (
                lambda backend: tracer.frames(iter(frames(backend)), step_name))

        def serialize_counted(serialize):
            def counted(event):
                # Every event, in the loop or from the final flush, is
                # serialized once; counting here keeps it off the frame path.
                tracer.events[event.kind.value] += 1
                return serialize(event)
            return counted

        def capture(attr):
            def make(init):
                def init_and_capture(obj, *args, **kwargs):
                    init(obj, *args, **kwargs)
                    setattr(tracer, attr, obj)
                return init_and_capture
            return make

        hooks = (
            (backends.ReplayBackend, "frames", traced_frames(REPLAY_NEXT)),
            (backends.SyntheticBackend, "frames", traced_frames(SYNTH)),
            (backends, "parse_frame_record", lambda f: self.call(PARSE, f, PARSE_ERROR)),
            (cli, "ReplayBackend", lambda f: self.call(OPEN, f)),
            (cli, "open_backend", lambda f: self.call(OPEN, f)),
            (cli, "assess_frame", lambda f: self.call(ASSESS, f)),
            (cli, "serialize_assessment", lambda f: self.call(SERIALIZE, f)),
            (cli, "serialize_alert_event",
             lambda f: serialize_counted(self.call(ALERT_SERIALIZE, f))),
            (alerts.AlertTracker, "__init__", capture("tracker")),
            (alerts.AlertTracker, "feed", lambda f: self.call(FEED, f)),
            (alerts.AlertTracker, "flush_all", lambda f: self.call(FLUSH, f)),
            (webhook.WebhookSink, "__init__", capture("sink")),
            (webhook.WebhookSink, "send", lambda f: self.call(SEND, f)),
            (webhook.WebhookSink, "close", lambda f: self.call(CLOSE, f)),
        )
        for owner, attr, make in hooks:
            original = getattr(owner, attr, None)
            if original is None:
                print(f"tracer: no {owner.__name__}.{attr} to wrap", file=sys.stderr)
                continue
            setattr(owner, attr, make(original))

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in zip(self.names, self.starts, self.ends,
                                                self.parents):
                fh.write(f"{SPAN_NAMES[name]}\t{start}\t{end}\t{parent}\n")

    def metrics(self) -> dict:
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        n = len(names)
        durations = [ends[i] - starts[i] for i in range(n)]
        child_time = [0] * n
        for i in range(n):
            if parents[i] >= 0:
                child_time[parents[i]] += durations[i]
        roots = []
        for i in range(n):
            root = i
            while parents[root] >= 0:
                root = parents[root]
            roots.append(names[root])

        by_name: dict = {k: [] for k in range(len(SPAN_NAMES))}
        layer_self = Counter()
        for i in range(n):
            name = names[i]
            if roots[i] == OPEN and name in (PARSE, PARSE_ERROR):
                continue  # the replay backend's probe of the first line
            by_name[name].append(durations[i])
            if roots[i] == FRAME:
                layer_self[SPAN_NAMES[name].split(".")[0]] += durations[i] - child_time[i]

        frames = len(by_name[FRAME])
        per_frame = frames or 1
        out = {
            "frames.parse_us.p50": _pct_us(by_name[PARSE], 0.50),
            "frames.parse_us.p99": _pct_us(by_name[PARSE], 0.99),
            "frames.parse_error_us.p50": _pct_us(by_name[PARSE_ERROR], 0.50),
            "frames.lines": len(by_name[PARSE]) + len(by_name[PARSE_ERROR]),
            "frames.rejected": len(by_name[PARSE_ERROR]),
            "backends.synthesize_us.p50": _pct_us(by_name[SYNTH], 0.50),
            "backends.synthesize_us.p99": _pct_us(by_name[SYNTH], 0.99),
            "backends.replay_next_us.p50": _pct_us(by_name[REPLAY_NEXT], 0.50),
            "backends.open_ms": sum(by_name[OPEN]) / 1e6,
            "fusion.assess_us.p50": _pct_us(by_name[ASSESS], 0.50),
            "fusion.assess_us.p99": _pct_us(by_name[ASSESS], 0.99),
            "fusion.serialize_us.p50": _pct_us(by_name[SERIALIZE], 0.50),
            "fusion.detections_per_frame": self.detections / per_frame,
            "alerts.feed_us.p50": _pct_us(by_name[FEED], 0.50),
            "alerts.feed_us.p99": _pct_us(by_name[FEED], 0.99),
            "alerts.flush_ms": sum(by_name[FLUSH]) / 1e6,
            "alerts.serialize_us.p50": _pct_us(by_name[ALERT_SERIALIZE], 0.50),
            "alerts.streams": len(self.tracker.states) if self.tracker else 0,
            "alerts.raised": self.events[AlertKind.RAISED.value],
            "alerts.escalated": self.events[AlertKind.ESCALATED.value],
            "alerts.cleared": self.events[AlertKind.CLEARED.value],
            "alerts.dropped": self.tracker.dropped if self.tracker else 0,
            "webhook.send_us.p50": _pct_us(by_name[SEND], 0.50),
            "webhook.close_ms": sum(by_name[CLOSE]) / 1e6,
            "webhook.delivered": self.sink.delivered if self.sink else 0,
            "webhook.failed": self.sink.failed if self.sink else 0,
            "webhook.dropped": self.sink.dropped if self.sink else 0,
            "cli.frame_us.p50": _pct_us(by_name[FRAME], 0.50),
            "cli.frame_us.p99": _pct_us(by_name[FRAME], 0.99),
            "cli.frame_us.mean": sum(by_name[FRAME]) / per_frame / 1e3,
            "cli.other_us": layer_self["cli"] / per_frame / 1e3,
        }
        for layer in LAYERS:
            out[f"{layer}.self_us"] = layer_self[layer] / per_frame / 1e3
        return out


def _pct_us(values: list, q: float) -> float:
    """Nearest-rank percentile in microseconds; 0.0 when the layer did
    not run."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] / 1e3


def run(spans_out: str, metrics_out: str, cli_args: list) -> int:
    tracer = Tracer()
    tracer.install()
    code = cli.main(cli_args)
    if code != 0:
        return code
    tracer.write_spans(spans_out)
    with open(metrics_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.metrics(), fh)
    return 0


def burst(url: str, count: int, metrics_out: str) -> int:
    sink = webhook.WebhookSink(url)
    started = time.perf_counter()
    for i in range(count):
        sink.send(AlertEvent("burst", f"burst:{i}", AlertKind.RAISED, i + 1, 33 * i,
                             ThreatLevel.GRASPED, 0.75))
    sink.close()
    elapsed = time.perf_counter() - started
    with open(metrics_out, "w", encoding="utf-8") as fh:
        json.dump({"webhook.burst_delivered": sink.delivered,
                   "webhook.burst_dropped": sink.dropped,
                   "webhook.posts_per_s": sink.delivered / elapsed}, fh)
    return 0


def main(argv: list) -> int:
    if len(argv) >= 4 and argv[0] == "run" and argv[3] == "--":
        return run(argv[1], argv[2], argv[4:])
    if len(argv) == 4 and argv[0] == "burst":
        return burst(argv[1], int(argv[2]), argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
