"""Temporal alert state machine: hysteresis, lifecycle events, flush."""

import dataclasses
import json
import random
import tracemalloc

import pytest

from threatwatch.alerts import (
    AlertEvent,
    AlertKind,
    AlertTracker,
    OutOfOrderFrame,
    TemporalConfig,
    flush,
    new_state,
    serialize_alert_event,
    step,
)
from threatwatch.fusion import ThreatAssessment, ThreatLevel

LEVEL_SCORES = {
    ThreatLevel.NONE: 0.0,
    ThreatLevel.OBJECT_PRESENT: 0.45,
    ThreatLevel.GRASPED: 0.75,
    ThreatLevel.OVERHAND_THREAT: 0.95,
}


def assessments(levels, stream="s", scores=None):
    out = []
    for i, level in enumerate(levels):
        score = scores[i] if scores is not None else LEVEL_SCORES[level]
        out.append(ThreatAssessment(stream, i + 1, level, score, ()))
    return out


def run_machine(seq, cfg, stream="s"):
    """Drive step over a sequence, then flush; events as comparable tuples."""
    state = new_state(stream)
    events = []
    for a in seq:
        state, event = step(state, a, cfg, ts_ms=33 * (a.frame_id - 1))
        if event is not None:
            events.append(event)
    state, event = flush(state, state.last_ts_ms)
    if event is not None:
        events.append(event)
    return [
        (e.kind.value, e.frame_id, e.ts_ms, e.level, e.score, e.alert_id)
        for e in events
    ]


def feed(tracker, assessment, ts_ms):
    """tracker.feed over the assessment's fields."""
    return tracker.feed(assessment.stream_id, assessment.frame_id, ts_ms, assessment.level,
                        assessment.score)


def run_tracker(seq, cfg):
    """run_machine through AlertTracker.feed and flush_all; also returns
    the count of frames the tracker dropped."""
    tracker = AlertTracker(cfg)
    events = [feed(tracker, a, 33 * (a.frame_id - 1)) for a in seq]
    events = [e for e in events if e is not None] + tracker.flush_all()
    return [
        (e.kind.value, e.frame_id, e.ts_ms, e.level, e.score, e.alert_id)
        for e in events
    ], tracker.dropped


def expected_events(seq, cfg):
    """Reference trace computed by direct scan over the sequence, written
    against the contract: an alert opens on the n_raise-th consecutive
    frame at GRASPED or above, escalates at most once on the first
    OVERHAND_THREAT frame after opening, and closes on the n_clear-th
    consecutive frame below GRASPED (reporting peak level and score) or at
    end of input."""
    events = []
    n = len(seq)
    i = 0
    while i < n:
        streak = 0
        opened_at = None
        while i < n:
            if seq[i].level >= ThreatLevel.GRASPED:
                streak += 1
            else:
                streak = 0
            if streak == cfg.n_raise:
                opened_at = i
                break
            i += 1
        if opened_at is None:
            return events
        a = seq[opened_at]
        alert_id = f"{a.stream_id}:{a.frame_id}"
        events.append(("raised", a.frame_id, 33 * (a.frame_id - 1), a.level, a.score, alert_id))
        peak_level, peak_score = a.level, a.score
        escalated = False
        cold = 0
        closed = False
        i = opened_at + 1
        while i < n:
            a = seq[i]
            peak_level = max(peak_level, a.level)
            peak_score = max(peak_score, a.score)
            cold = 0 if a.level >= ThreatLevel.GRASPED else cold + 1
            if not escalated and a.level is ThreatLevel.OVERHAND_THREAT:
                escalated = True
                events.append(("escalated", a.frame_id, 33 * (a.frame_id - 1), a.level, a.score, alert_id))
            elif cold == cfg.n_clear:
                events.append(("cleared", a.frame_id, 33 * (a.frame_id - 1), peak_level, peak_score, alert_id))
                closed = True
                i += 1
                break
            i += 1
        if not closed:
            last = seq[-1]
            events.append(("cleared", last.frame_id, 33 * (last.frame_id - 1), peak_level, peak_score, alert_id))
            return events
    return events


def test_raise_on_nth_consecutive_hot():
    cfg = TemporalConfig(n_raise=3, n_clear=10)
    seq = assessments([ThreatLevel.GRASPED] * 3)
    state = new_state("s")
    events = []
    for a in seq:
        state, e = step(state, a, cfg)
        events.append(e)
    assert events[0] is None and events[1] is None
    assert events[2] is not None
    assert events[2].kind is AlertKind.RAISED
    assert events[2].frame_id == 3
    assert events[2].alert_id == "s:3"


def test_streak_reset_by_cold_frame():
    cfg = TemporalConfig(n_raise=3, n_clear=10)
    levels = [ThreatLevel.GRASPED, ThreatLevel.GRASPED, ThreatLevel.NONE,
              ThreatLevel.GRASPED, ThreatLevel.GRASPED, ThreatLevel.GRASPED]
    events = run_machine(assessments(levels), cfg)
    raised = [e for e in events if e[0] == "raised"]
    assert len(raised) == 1
    assert raised[0][1] == 6


def test_alternating_never_clears():
    cfg = TemporalConfig(n_raise=3, n_clear=10)
    levels = [ThreatLevel.GRASPED] * 3 + [ThreatLevel.GRASPED, ThreatLevel.NONE] * 50
    state = new_state("s")
    kinds = []
    for a in assessments(levels):
        state, e = step(state, a, cfg)
        if e is not None:
            kinds.append(e.kind)
    assert kinds == [AlertKind.RAISED]
    assert state.active_alert_id is not None


def test_object_present_counts_cold():
    cfg = TemporalConfig(n_raise=2, n_clear=3)
    levels = [ThreatLevel.GRASPED, ThreatLevel.GRASPED,
              ThreatLevel.OBJECT_PRESENT, ThreatLevel.OBJECT_PRESENT, ThreatLevel.OBJECT_PRESENT]
    events = run_machine(assessments(levels), cfg)
    assert [e[0] for e in events] == ["raised", "cleared"]
    assert events[1][1] == 5


def test_escalated_once_after_raise():
    cfg = TemporalConfig(n_raise=3, n_clear=10)
    levels = [ThreatLevel.OVERHAND_THREAT] * 5
    events = run_machine(assessments(levels), cfg)
    assert [e[0] for e in events] == ["raised", "escalated", "cleared"]
    raised, escalated, cleared = events
    assert raised[1] == 3
    assert escalated[1] == 4
    assert cleared[1] == 5
    assert {e[5] for e in events} == {"s:3"}


def test_no_escalation_without_overhand():
    cfg = TemporalConfig(n_raise=2, n_clear=2)
    levels = [ThreatLevel.GRASPED] * 4 + [ThreatLevel.NONE] * 2
    events = run_machine(assessments(levels), cfg)
    assert [e[0] for e in events] == ["raised", "cleared"]


def test_cleared_reports_peaks():
    cfg = TemporalConfig(n_raise=2, n_clear=2)
    levels = [ThreatLevel.GRASPED, ThreatLevel.GRASPED, ThreatLevel.OVERHAND_THREAT,
              ThreatLevel.NONE, ThreatLevel.NONE]
    events = run_machine(assessments(levels), cfg)
    cleared = events[-1]
    assert cleared[0] == "cleared"
    assert cleared[3] is ThreatLevel.OVERHAND_THREAT
    assert cleared[4] == LEVEL_SCORES[ThreatLevel.OVERHAND_THREAT]


def test_flush_closes_open_alert():
    cfg = TemporalConfig(n_raise=2, n_clear=10)
    state = new_state("s")
    for a in assessments([ThreatLevel.GRASPED, ThreatLevel.GRASPED]):
        state, _ = step(state, a, cfg, ts_ms=100 * a.frame_id)
    state, event = flush(state, ts_ms=999)
    assert event is not None
    assert event.kind is AlertKind.CLEARED
    assert event.ts_ms == 999
    assert event.frame_id == 2
    assert (state.consecutive_hot, state.active_alert_id) == (0, None)


def test_flush_idle_and_suspected_no_event():
    cfg = TemporalConfig(n_raise=3, n_clear=10)
    state = new_state("s")
    _, event = flush(state, ts_ms=0)
    assert event is None

    for a in assessments([ThreatLevel.GRASPED, ThreatLevel.GRASPED]):
        state, _ = step(state, a, cfg)
    assert (state.consecutive_hot, state.active_alert_id) == (2, None)  # suspected
    state, event = flush(state, ts_ms=0)
    assert event is None
    assert (state.consecutive_hot, state.active_alert_id) == (0, None)


def test_phase_progression():
    # idle: no hot streak and no alert; suspected: a hot streak and no
    # alert yet; active: an alert open
    cfg = TemporalConfig(n_raise=2, n_clear=2)
    state = new_state("s")
    assert (state.consecutive_hot, state.active_alert_id) == (0, None)
    seq = assessments([ThreatLevel.GRASPED, ThreatLevel.GRASPED,
                       ThreatLevel.NONE, ThreatLevel.NONE])
    state, _ = step(state, seq[0], cfg)
    assert (state.consecutive_hot, state.active_alert_id) == (1, None)
    state, _ = step(state, seq[1], cfg)
    assert (state.consecutive_hot, state.active_alert_id) == (2, "s:2")
    state, _ = step(state, seq[2], cfg)
    assert (state.consecutive_hot, state.active_alert_id) == (0, "s:2")
    state, event = step(state, seq[3], cfg)
    assert event.kind is AlertKind.CLEARED
    assert (state.consecutive_hot, state.active_alert_id) == (0, None)


def test_counters_never_both_positive():
    cfg = TemporalConfig(n_raise=3, n_clear=4)
    rng = random.Random(5)
    state = new_state("s")
    for i in range(500):
        level = rng.choice(list(ThreatLevel))
        a = ThreatAssessment("s", i + 1, level, LEVEL_SCORES[level], ())
        state, _ = step(state, a, cfg)
        assert not (state.consecutive_hot > 0 and state.consecutive_cold > 0)


def test_out_of_order_rejected_state_unchanged():
    cfg = TemporalConfig()
    state = new_state("s")
    seq = assessments([ThreatLevel.GRASPED, ThreatLevel.GRASPED])
    state, _ = step(state, seq[0], cfg)
    before = state
    with pytest.raises(OutOfOrderFrame):
        step(state, seq[0], cfg)
    assert state == before
    stale = ThreatAssessment("s", 0, ThreatLevel.NONE, 0.0, ())
    with pytest.raises(OutOfOrderFrame):
        step(state, stale, cfg)


def test_stream_mismatch_rejected():
    cfg = TemporalConfig()
    state = new_state("s")
    other = ThreatAssessment("t", 1, ThreatLevel.NONE, 0.0, ())
    with pytest.raises(ValueError):
        step(state, other, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        TemporalConfig(n_raise=0)
    with pytest.raises(ValueError):
        TemporalConfig(n_clear=0)
    TemporalConfig(n_raise=1, n_clear=1)


def test_event_serialization():
    cfg = TemporalConfig(n_raise=1, n_clear=1)
    state = new_state("cam")
    a = ThreatAssessment("cam", 4, ThreatLevel.GRASPED, 0.77, ())
    _, event = step(state, a, cfg, ts_ms=132)
    data = json.loads(serialize_alert_event(event))
    assert data == {
        "stream_id": "cam",
        "alert_id": "cam:4",
        "kind": "raised",
        "frame_id": 4,
        "ts_ms": 132,
        "level": "grasped",
        "score": 0.77,
    }
    assert serialize_alert_event(event).endswith("}")


# (name, stream_id, kind, frame_id, ts_ms, level, score, expected line):
# string escaping and number formatting, recorded from json.dumps(...,
# separators=(",", ":")), which serialize_alert_event must match byte for
# byte. The alert_id is "<stream_id>:<frame_id>".
EVENT_LINES = [
    ("quote_backslash", 'cam "a"\\b', AlertKind.RAISED, 2**64 - 1, 0, ThreatLevel.GRASPED, 0.7,
     '{"stream_id":"cam \\"a\\"\\\\b","alert_id":"cam \\"a\\"\\\\b:18446744073709551615","kind":"raised","frame_id":18446744073709551615,"ts_ms":0,"level":"grasped","score":0.7}'),
    ("control_chars", "cam\x01\t\n\x7f", AlertKind.ESCALATED, 0, 2**64 - 1, ThreatLevel.OVERHAND_THREAT, 0.95,
     '{"stream_id":"cam\\u0001\\t\\n\\u007f","alert_id":"cam\\u0001\\t\\n\\u007f:0","kind":"escalated","frame_id":0,"ts_ms":18446744073709551615,"level":"overhand_threat","score":0.95}'),
    ("latin1", "caméra", AlertKind.CLEARED, 7, 231, ThreatLevel.OVERHAND_THREAT, 1.0,
     '{"stream_id":"cam\\u00e9ra","alert_id":"cam\\u00e9ra:7","kind":"cleared","frame_id":7,"ts_ms":231,"level":"overhand_threat","score":1.0}'),
    ("non_bmp", "cam-\U0001F52A", AlertKind.CLEARED, 12, 396, ThreatLevel.GRASPED, 0.7,
     '{"stream_id":"cam-\\ud83d\\udd2a","alert_id":"cam-\\ud83d\\udd2a:12","kind":"cleared","frame_id":12,"ts_ms":396,"level":"grasped","score":0.7}'),
    ("lone_surrogate", "cam\ud800", AlertKind.RAISED, 1, 0, ThreatLevel.OBJECT_PRESENT, 0.95,
     '{"stream_id":"cam\\ud800","alert_id":"cam\\ud800:1","kind":"raised","frame_id":1,"ts_ms":0,"level":"object_present","score":0.95}'),
    ("level_none", "cam", AlertKind.CLEARED, 2**64 - 1, 2**64 - 1, ThreatLevel.NONE, 1.0,
     '{"stream_id":"cam","alert_id":"cam:18446744073709551615","kind":"cleared","frame_id":18446744073709551615,"ts_ms":18446744073709551615,"level":"none","score":1.0}'),
]


@pytest.mark.parametrize("case", EVENT_LINES, ids=[c[0] for c in EVENT_LINES])
def test_serialize_alert_event_golden(case):
    _, stream_id, kind, frame_id, ts_ms, level, score, expected = case
    event = AlertEvent(stream_id, f"{stream_id}:{frame_id}", kind, frame_id, ts_ms, level, score)
    assert serialize_alert_event(event) == expected


def test_state_invariants_random_steps_and_flushes():
    """Every state step/flush returns, over random streams with repeated
    and out-of-order frame_ids and flushes mid-stream: the streaks are
    never both positive, a state without an open alert carries no
    escalation or peaks, the last frame fields are the last accepted
    frame's (last_ts_ms the flush's after a flush), and each n_clear clear
    is flush() of the state advanced by its frame."""
    rng = random.Random(2024)
    levels = list(ThreatLevel)
    for _ in range(300):
        cfg = TemporalConfig(n_raise=rng.randint(1, 4), n_clear=rng.randint(1, 5))
        state = new_state("s")
        last_frame_id, last_ts_ms = None, 0
        for _ in range(rng.randint(1, 120)):
            before = state
            if rng.random() < 0.05:
                ts_ms = rng.randint(0, 10_000)
                state, event = flush(state, ts_ms)
                assert (event is None) == (before.active_alert_id is None)
                assert (state.consecutive_hot, state.consecutive_cold) == (0, 0)
                last_ts_ms = ts_ms
            else:
                if last_frame_id is None or rng.random() < 0.9:
                    frame_id = (last_frame_id or 0) + rng.randint(1, 3)
                else:
                    frame_id = last_frame_id - rng.randint(0, 2)
                level = rng.choice(levels)
                score = LEVEL_SCORES[level] + rng.random() * 0.04
                ts_ms = rng.randint(0, 10_000)
                assessment = ThreatAssessment("s", frame_id, level, score, ())
                if last_frame_id is not None and frame_id <= last_frame_id:
                    with pytest.raises(OutOfOrderFrame):
                        step(state, assessment, cfg, ts_ms=ts_ms)
                    continue
                state, event = step(state, assessment, cfg, ts_ms=ts_ms)
                last_frame_id, last_ts_ms = frame_id, ts_ms
                if event is not None and event.kind is AlertKind.CLEARED:
                    advanced = dataclasses.replace(
                        before, consecutive_hot=0, consecutive_cold=before.consecutive_cold + 1,
                        last_frame_id=frame_id, last_ts_ms=ts_ms)
                    assert advanced.consecutive_cold == cfg.n_clear
                    assert flush(advanced, ts_ms) == (state, event)
            assert not (state.consecutive_hot > 0 and state.consecutive_cold > 0)
            if state.active_alert_id is None:
                assert state.escalated is False
                assert state.peak_level is ThreatLevel.NONE
                assert state.peak_score == 0.0
            assert (state.last_frame_id, state.last_ts_ms) == (last_frame_id, last_ts_ms)


def test_tracker_routes_streams_and_counts_drops():
    cfg = TemporalConfig(n_raise=1, n_clear=10)
    tracker = AlertTracker(cfg)
    a1 = ThreatAssessment("a", 1, ThreatLevel.GRASPED, 0.75, ())
    b1 = ThreatAssessment("b", 1, ThreatLevel.GRASPED, 0.75, ())
    e1 = feed(tracker, a1, 0)
    e2 = feed(tracker, b1, 0)
    assert e1.alert_id == "a:1" and e2.alert_id == "b:1"
    assert feed(tracker, a1, 0) is None
    assert tracker.dropped == 1
    cleared = tracker.flush_all()
    assert [e.stream_id for e in cleared] == ["a", "b"]
    assert all(e.kind is AlertKind.CLEARED for e in cleared)


def test_frame_id_is_the_only_ordering_and_ts_ms_is_stamped_as_given():
    # ts_ms steps back on every frame while frame_id advances: no frame is
    # dropped, and each event carries its frame's ts_ms
    levels = [ThreatLevel.GRASPED] * 3 + [ThreatLevel.OVERHAND_THREAT] + [ThreatLevel.NONE] * 2
    tracker = AlertTracker(TemporalConfig(n_raise=3, n_clear=2))
    events = [feed(tracker, a, ts_ms)
              for a, ts_ms in zip(assessments(levels), [1000, 900, 800, 700, 650, 600])]
    assert [(e.kind, e.frame_id, e.ts_ms) for e in events if e is not None] == [
        (AlertKind.RAISED, 3, 800), (AlertKind.ESCALATED, 4, 700), (AlertKind.CLEARED, 6, 600)]
    assert tracker.dropped == 0
    assert tracker.flush_all() == []


def test_reference_simulator_agreement_random():
    rng = random.Random(77)
    repeats = random.Random(78)  # apart, so that rng draws the same sequences
    levels_pool = list(ThreatLevel)
    for _ in range(200):
        cfg = TemporalConfig(n_raise=rng.randint(1, 5), n_clear=rng.randint(1, 8))
        length = rng.randint(0, 60)
        levels = [rng.choice(levels_pool) for _ in range(length)]
        scores = [rng.uniform(*((0.0, 0.0) if lv is ThreatLevel.NONE else (0.4, 1.0)))
                  for lv in levels]
        seq = assessments(levels, scores=scores)
        expected = expected_events(seq, cfg)
        assert run_machine(seq, cfg) == expected
        # AlertTracker.feed gives step's events, also with an earlier frame
        # fed again now and then, and drops each frame that step refuses
        fed = []
        for i, a in enumerate(seq):
            fed.append(a)
            if repeats.random() < 0.15:
                fed.append(seq[repeats.randint(0, i)])
        state, refused = new_state("s"), 0
        for a in fed:
            try:
                state, _ = step(state, a, cfg)
            except OutOfOrderFrame:
                refused += 1
        assert refused == len(fed) - len(seq)
        assert run_tracker(seq, cfg) == (expected, 0)
        assert run_tracker(fed, cfg) == (expected, refused)


def test_event_order_and_frame_monotonicity():
    rng = random.Random(99)
    for _ in range(100):
        cfg = TemporalConfig(n_raise=rng.randint(1, 4), n_clear=rng.randint(1, 6))
        levels = [rng.choice(list(ThreatLevel)) for _ in range(80)]
        events = run_machine(assessments(levels), cfg)
        by_alert = {}
        for kind, frame_id, _, _, _, alert_id in events:
            by_alert.setdefault(alert_id, []).append((kind, frame_id))
        for trail in by_alert.values():
            kinds = [k for k, _ in trail]
            assert kinds in (["raised"], ["raised", "cleared"],
                             ["raised", "escalated"], ["raised", "escalated", "cleared"])
            frames = [f for _, f in trail]
            assert frames == sorted(frames)
            # end-of-input flush stamps Cleared with the last frame seen,
            # which may coincide with the event before it; all other
            # successive events come from strictly later frames
            for (k1, f1), (k2, f2) in zip(trail, trail[1:]):
                assert f2 > f1 or (k2 == "cleared" and f2 == f1)


def test_debounce_no_short_raise():
    rng = random.Random(123)
    for _ in range(100):
        n_raise = rng.randint(2, 5)
        cfg = TemporalConfig(n_raise=n_raise, n_clear=3)
        levels = [rng.choice(list(ThreatLevel)) for _ in range(60)]
        seq = assessments(levels)
        events = run_machine(seq, cfg)
        hot = [lv >= ThreatLevel.GRASPED for lv in levels]
        for kind, frame_id, *_ in events:
            if kind != "raised":
                continue
            idx = frame_id - 1
            assert all(hot[idx - k] for k in range(n_raise)), \
                f"raise at frame {frame_id} without {n_raise} consecutive hot frames"


@pytest.mark.parametrize("n_raise, n_clear", [(1, 1), (2, 4), (3, 10), (5, 2)])
def test_tracker_matches_a_dict_of_states_driven_by_step(n_raise, n_clear):
    # Forty streams, each in hot or cold runs that flip now and then, with
    # frame_ids that sometimes repeat or step back: the tracker, which keeps
    # an idle stream as an int, must give what a dict of AlertStates driven
    # by step() gives, frame by frame and at the final flush.
    cfg = TemporalConfig(n_raise=n_raise, n_clear=n_clear)
    rng = random.Random(n_raise * 100 + n_clear)
    streams = [f"cam-{i}" for i in range(40)]
    hot = {stream_id: False for stream_id in streams}
    last = {stream_id: 1000 for stream_id in streams}
    tracker, reference, dropped = AlertTracker(cfg), {}, 0
    for ts_ms in range(6000):
        stream_id = rng.choice(streams)
        if rng.random() < 0.2:
            hot[stream_id] = not hot[stream_id]
        level = rng.choice([ThreatLevel.GRASPED, ThreatLevel.OVERHAND_THREAT] if hot[stream_id]
                           else [ThreatLevel.NONE, ThreatLevel.OBJECT_PRESENT])
        score = rng.uniform(*((0.6, 1.0) if hot[stream_id] else (0.0, 0.5)))
        roll = rng.random()
        if roll < 0.05:
            frame_id = last[stream_id]  # repeated
        elif roll < 0.1:
            frame_id = last[stream_id] - rng.randint(1, 5)  # stale
        else:
            frame_id = last[stream_id] = last[stream_id] + rng.randint(1, 3)
        state = reference.get(stream_id) or new_state(stream_id)
        try:
            reference[stream_id], expected = step(
                state, ThreatAssessment(stream_id, frame_id, level, score, ()), cfg, ts_ms=ts_ms)
        except OutOfOrderFrame:
            dropped, expected = dropped + 1, None
        assert tracker.feed(stream_id, frame_id, ts_ms, level, score) == expected
        assert tracker.dropped == dropped
    assert tracker.states.keys() == reference.keys()
    idle = 0
    for stream_id, entry in tracker.states.items():
        state = reference[stream_id]
        if state.consecutive_hot or state.active_alert_id is not None:
            assert entry == state
        else:
            assert entry == state.last_frame_id and type(entry) is int
            idle += 1
    assert 0 < idle < len(streams)
    expected = []
    for stream_id in sorted(reference):
        state = reference[stream_id]
        state, event = flush(state, state.last_ts_ms)
        if event is not None:
            expected.append(event)
    assert tracker.flush_all() == expected
    assert tracker.flush_all() == []
    assert len(tracker.states) == len(streams)


def test_an_idle_stream_costs_under_100_bytes():
    stream_ids = [f"cam-{i}" for i in range(50_000)]
    tracker = AlertTracker(TemporalConfig())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i, stream_id in enumerate(stream_ids):
            # frame_ids above the small-int cache, each its own object
            tracker.feed(stream_id, 1000 + i, 33 * i, ThreatLevel.NONE, 0.0)
        per_stream = (tracemalloc.get_traced_memory()[0] - before) / len(stream_ids)
    finally:
        tracemalloc.stop()
    assert len(tracker.states) == len(stream_ids)
    assert per_stream < 100
