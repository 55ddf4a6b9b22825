"""Per-stream temporal alert state machine.

Turns the per-frame assessment stream into debounced alert lifecycle
events. A frame is hot when its level is at least GRASPED (a knife merely
present in the scene is cold: countertop knives must not hold alerts
open). n_raise consecutive hot frames open an alert, n_clear consecutive
cold frames close it; the asymmetric defaults make a missed clear cheaper
than a flapping alert during brief occlusions. That n_clear-th cold frame
closes the alert exactly as flush() would at its timestamp: the transition
hands the advanced state to flush(), so both clears share one event and
one reset.

The machine is purely functional: step() and flush() return a new state,
never mutate, so states can be checkpointed or moved between threads
between calls. One state per stream_id; streams are independent.
AlertTracker.feed runs step()'s transition on a frame's fields alone, and
keeps an idle stream, one with no hot streak and no open alert, as its
last frame_id: that is all of such a state that a later frame can observe.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

from .errors import ThreatwatchError
from .frames import _trusted
from .fusion import _LEVEL_JSON, ThreatAssessment, ThreatLevel, _json_str

logger = logging.getLogger(__name__)


class OutOfOrderFrame(ThreatwatchError):
    """A frame_id at or below the last one seen for the stream."""

    def __init__(self, stream_id: str, frame_id: int, last_frame_id: int) -> None:
        super().__init__(
            f"stream {stream_id!r}: frame_id {frame_id} not after {last_frame_id}"
        )
        self.stream_id = stream_id
        self.frame_id = frame_id
        self.last_frame_id = last_frame_id


class AlertKind(Enum):
    RAISED = "raised"
    ESCALATED = "escalated"
    CLEARED = "cleared"


@dataclass(frozen=True, slots=True)
class TemporalConfig:
    """Hysteresis widths, in frames."""

    n_raise: int = 3
    n_clear: int = 10

    def __post_init__(self) -> None:
        if self.n_raise < 1:
            raise ValueError(f"n_raise must be >= 1, got {self.n_raise}")
        if self.n_clear < 1:
            raise ValueError(f"n_clear must be >= 1, got {self.n_clear}")


@dataclass(frozen=True, slots=True)
class AlertState:
    """Snapshot of one stream's alert machine.

    consecutive_hot and consecutive_cold are never both positive. While an
    alert is open, peak_level/peak_score track the worst assessment seen
    since it was raised; the Cleared event reports those peaks rather than
    the (by then cold) closing frame. While no alert is open, escalated is
    False, peak_level NONE and peak_score 0.0: this holds for every state
    reachable from new_state, and step() builds such states with those
    constants instead of copying them.
    """

    stream_id: str
    consecutive_hot: int = 0
    consecutive_cold: int = 0
    active_alert_id: str | None = None
    escalated: bool = False
    peak_level: ThreatLevel = ThreatLevel.NONE
    peak_score: float = 0.0
    last_frame_id: int | None = None
    last_ts_ms: int = 0


@dataclass(frozen=True, slots=True)
class AlertEvent:
    stream_id: str
    alert_id: str
    kind: AlertKind
    frame_id: int
    ts_ms: int
    level: ThreatLevel
    score: float


_KIND_JSON = {kind: _json_str(kind.value) for kind in AlertKind}


def serialize_alert_event(event: AlertEvent) -> str:
    """One compact JSON line (no trailing newline), byte for byte what
    json.dumps gives for the event with separators (",", ":"), formatted
    like fusion.serialize_assessment: the score is an assessment's or an
    alert's peak, so always a finite float."""
    return (
        f'{{"stream_id":{_json_str(event.stream_id)},"alert_id":{_json_str(event.alert_id)},'
        f'"kind":{_KIND_JSON[event.kind]},"frame_id":{event.frame_id},"ts_ms":{event.ts_ms},'
        f'"level":{_LEVEL_JSON[event.level]},"score":{float.__repr__(event.score)}}}'
    )


# AlertState has no invariant to check: the machine's own transitions
# build it through this, with every field given.
_new_state = _trusted(AlertState)


def new_state(stream_id: str) -> AlertState:
    return AlertState(stream_id=stream_id)


def step(
    state: AlertState,
    assessment: ThreatAssessment,
    cfg: TemporalConfig,
    *,
    ts_ms: int = 0,
) -> tuple[AlertState, AlertEvent | None]:
    """Advance one frame; returns (next state, emitted event or None).

    Hot frames (level >= GRASPED) grow the hot streak and zero the cold
    one, cold frames the reverse. An alert is raised when the hot streak
    reaches cfg.n_raise, escalated at most once on the first
    OVERHAND_THREAT frame after the raise, and cleared when the cold
    streak reaches cfg.n_clear: that clear is flush() of the state
    advanced to this frame. ts_ms is the frame's timestamp, stamped onto
    any event emitted for it.

    Raises OutOfOrderFrame (state unchanged) when assessment.frame_id does
    not advance past the last frame seen.
    """
    if assessment.stream_id != state.stream_id:
        raise ValueError(f"assessment for stream {assessment.stream_id!r} fed to state "
                         f"for {state.stream_id!r}")
    return _advance(state, assessment.frame_id, ts_ms, assessment.level, assessment.score, cfg)


def _advance(state: AlertState, frame_id: int, ts_ms: int, level: ThreatLevel, score: float,
             cfg: TemporalConfig) -> tuple[AlertState, AlertEvent | None]:
    """step() on the fields of a frame of state's stream."""
    stream_id = state.stream_id
    if state.last_frame_id is not None and frame_id <= state.last_frame_id:
        raise OutOfOrderFrame(stream_id, frame_id, state.last_frame_id)

    if level >= ThreatLevel.GRASPED:
        consecutive_hot = state.consecutive_hot + 1
        consecutive_cold = 0
    else:
        consecutive_hot = 0
        consecutive_cold = state.consecutive_cold + 1

    alert_id = state.active_alert_id
    if alert_id is None:
        if consecutive_hot < cfg.n_raise:
            return _new_state(stream_id, consecutive_hot, consecutive_cold, None, False,
                              ThreatLevel.NONE, 0.0, frame_id, ts_ms), None
        alert_id = f"{stream_id}:{frame_id}"
        return (_new_state(stream_id, consecutive_hot, 0, alert_id, False, level, score,
                           frame_id, ts_ms),
                AlertEvent(stream_id, alert_id, AlertKind.RAISED, frame_id, ts_ms, level, score))

    escalate = not state.escalated and level is ThreatLevel.OVERHAND_THREAT
    advanced = _new_state(
        stream_id, consecutive_hot, consecutive_cold, alert_id, state.escalated or escalate,
        level if level > state.peak_level else state.peak_level,
        score if score > state.peak_score else state.peak_score,
        frame_id, ts_ms,
    )
    if escalate:
        return advanced, AlertEvent(stream_id, alert_id, AlertKind.ESCALATED, frame_id, ts_ms,
                                    level, score)
    if consecutive_cold >= cfg.n_clear:
        return flush(advanced, ts_ms)
    return advanced, None


def flush(state: AlertState, ts_ms: int) -> tuple[AlertState, AlertEvent | None]:
    """Close out a stream: if an alert is open, emit its Cleared event at
    the given timestamp (frame_id is the last frame seen, level/score are
    the alert's peaks). Returns a reset state either way.
    """
    event: AlertEvent | None = None
    if state.active_alert_id is not None:
        event = AlertEvent(state.stream_id, state.active_alert_id, AlertKind.CLEARED,
                           state.last_frame_id if state.last_frame_id is not None else 0,
                           ts_ms, state.peak_level, state.peak_score)
    return _new_state(state.stream_id, 0, 0, None, False, ThreatLevel.NONE, 0.0,
                      state.last_frame_id, ts_ms), event


class AlertTracker:
    """Multiplexes the functional state machine over many streams.

    Routes each frame to its stream's state, collects emitted events, and
    counts (rather than propagates) out-of-order frames so one misbehaving
    source cannot stall a multi-stream watch loop.

    states holds one entry for every stream seen: its AlertState while it
    has a hot streak or an open alert, and otherwise, idle, its last
    frame_id as a plain int. A cold frame of an idle stream then builds no
    state, and an idle stream costs its dict slot and one int.
    """

    def __init__(self, cfg: TemporalConfig) -> None:
        self.cfg = cfg
        self.states: dict[str, AlertState | int] = {}
        self.dropped = 0

    def feed(self, stream_id: str, frame_id: int, ts_ms: int, level: ThreatLevel,
             score: float) -> AlertEvent | None:
        """step() of stream_id's state over one frame's fields, stamped
        ts_ms; an out-of-order frame is logged, counted in dropped and skipped."""
        state = self.states.get(stream_id)
        try:
            if state.__class__ is not AlertState:  # idle: the last frame_id, or None if unseen
                if state is not None and frame_id <= state:
                    raise OutOfOrderFrame(stream_id, frame_id, state)
                if level < ThreatLevel.GRASPED:
                    self.states[stream_id] = frame_id
                    return None
                state = _new_state(stream_id, 0, 0, None, False, ThreatLevel.NONE, 0.0, state, 0)
            state, event = _advance(state, frame_id, ts_ms, level, score, self.cfg)
        except OutOfOrderFrame as exc:
            self.dropped += 1
            logger.warning("dropping frame: %s", exc)
            return None
        self.states[stream_id] = (
            state if state.consecutive_hot or state.active_alert_id is not None else frame_id)
        return event

    def flush_all(self) -> list[AlertEvent]:
        """Flush every stream in sorted stream_id order, each at its own
        last seen timestamp; an idle stream has nothing to flush."""
        states = self.states
        events = []
        for stream_id in sorted([stream_id for stream_id, state in states.items()
                                 if state.__class__ is AlertState]):
            state = states[stream_id]
            state, event = flush(state, state.last_ts_ms)
            states[stream_id] = state.last_frame_id
            if event is not None:
                events.append(event)
        return events
