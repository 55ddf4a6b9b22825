"""Output checks for the benchmark: every error found is one operation
whose outcome is wrong or missing.

score: each output line must be the assessment of the next valid input
frame, at the frame's designated level; skipped lines must be exactly the
injected bad ones.

watch: the alert events must equal what an independent hysteresis
reference (the same rule acceptance criterion 6 checks the state machine
against) produces from the designated levels, with stale frames ignored;
the webhook receiver must have got every emitted event.
"""

from __future__ import annotations

import json
from collections import Counter

from workloads import HOT, LEVELS, Truth

N_RAISE = 3  # TemporalConfig defaults; the benchmark runs without a config
N_CLEAR = 10


def check_score(output: bytes, truth: Truth, summary: dict) -> int:
    """Number of valid frames scored wrongly or not at all, plus lines
    scored that should not have been, plus miscounted skips."""
    errors = abs(summary["skipped"] - truth.bad_lines)
    want = {(stream_id, frame_id): LEVELS[level]
            for stream_id, frame_id, _, level in truth.frames}
    order = []
    for line in output.decode("utf-8").splitlines():
        try:
            record = json.loads(line)
            key = (record["stream_id"], record["frame_id"])
            level = want.pop(key, None)
            ok = level is not None and record["level"] == level
        except (ValueError, KeyError, TypeError):
            ok = False
        errors += not ok
        if ok:
            order.append(key)
    errors += len(want)
    if len(order) == len(truth.frames) and order != [(s, f) for s, f, _, _ in truth.frames]:
        errors += 1
    return errors


def reference_events(truth: Truth, n_raise: int = N_RAISE, n_clear: int = N_CLEAR) -> list:
    """Alert events for the designated levels, as (stream_id, alert_id,
    kind, frame_id, ts_ms, level) in emission order: frame events in input
    order, then the end-of-input clears in stream_id order."""
    streams: dict = {}
    events = []
    for stream_id, frame_id, ts_ms, level in truth.frames:
        # [hot, cold, alert_id, escalated, peak_level, last_frame, last_ts]
        s = streams.setdefault(stream_id, [0, 0, None, False, 0, 0, 0])
        if level >= HOT:
            s[0] += 1
            s[1] = 0
        else:
            s[0] = 0
            s[1] += 1
        if s[2] is None:
            if s[0] >= n_raise:
                s[2] = f"{stream_id}:{frame_id}"
                s[3] = False
                s[4] = level
                events.append((stream_id, s[2], "raised", frame_id, ts_ms, LEVELS[level]))
        else:
            s[4] = max(s[4], level)
            if not s[3] and level == 3:
                s[3] = True
                events.append((stream_id, s[2], "escalated", frame_id, ts_ms, LEVELS[level]))
            elif s[1] >= n_clear:
                events.append((stream_id, s[2], "cleared", frame_id, ts_ms, LEVELS[s[4]]))
                s[:5] = [0, 0, None, False, 0]
        s[5] = frame_id
        s[6] = ts_ms
    for stream_id in sorted(streams):
        s = streams[stream_id]
        if s[2] is not None:
            events.append((stream_id, s[2], "cleared", s[5], s[6], LEVELS[s[4]]))
    return events


def _event_key(event: dict) -> tuple:
    return (event["stream_id"], event["alert_id"], event["kind"], event["frame_id"],
            event["ts_ms"], event["level"])


def _parse_events(lines) -> list:
    events = []
    for line in lines:
        try:
            events.append(_event_key(json.loads(line)))
        except (ValueError, KeyError, TypeError):
            events.append(("<unreadable>", line))
    return events


def _multiset_misses(want: list, got: list) -> int:
    """Items of either list without a partner in the other."""
    want_c, got_c = Counter(want), Counter(got)
    return sum((want_c - got_c).values()) + sum((got_c - want_c).values())


def check_watch(output: bytes, truth: Truth, summary: dict, expected_events: list,
                received: list) -> int:
    """Errors in a watch pass: miscounted skips, drops and frames, alert
    events that differ from the reference (one more if only their order
    differs), and emitted events the receiver never got (or got extra)."""
    errors = abs(summary["skipped"] - truth.bad_lines)
    errors += abs(summary["dropped"] - len(truth.stale))
    errors += abs(summary["frames"] - len(truth.frames) - len(truth.stale))
    got = _parse_events(output.decode("utf-8").splitlines())
    errors += abs(summary["events"] - len(got))
    misses = _multiset_misses(expected_events, got)
    errors += misses
    if not misses and got != expected_events:
        errors += 1
    errors += _multiset_misses(got, _parse_events(received))
    return errors
