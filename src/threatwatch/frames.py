"""Frame evidence model: domain types, the JSONL wire format, manifest validation.

A FrameRecord carries one frame's worth of model evidence: optional
three-class scores, zero or more hand/knife instance detections, and zero or
more pose keypoints. All coordinates are normalized to [0, 1] with the origin
at the top-left corner and y increasing downward, so "above" means a smaller
y value.

Wire format (JSONL, one JSON object per line, UTF-8, LF terminated):

    {"stream_id": "cam1", "frame_id": 7, "ts_ms": 231,
     "scores": {"threat": 0.9, "no_threat": 0.07, "hand": 0.03},
     "detections": [{"label": "knife", "box": [0.4, 0.5, 0.1, 0.2],
                     "conf": 0.93, "mask_area": 0.012}],
     "keypoints": [{"name": "wrist", "x": 0.5, "y": 0.4, "conf": 0.8}]}

stream_id, frame_id and ts_ms are required; everything else is optional.
Boxes are encoded [x, y, w, h] (top-left corner plus size). Unknown JSON
fields are ignored for forward compatibility; unknown enum values (labels,
for instance) are rejected, since silently misreading a label is worse than
failing loudly.

Manifest wire format (JSONL): {"sample_id": "img_0001", "label": "threat"},
with label one of "threat" | "no_threat" | "hand".

Every outside input, frames, manifests, predictions, scripts and config,
is read here: _open ("-" is stdin), one strict UTF-8 decode, then
parse_lines (the one line loop, over _parse_line) or read_json (one
document). read_lines feeds parse_lines a whole input; chunk_spans cuts a
file into line-aligned byte spans, and read_span reads one back for
parse_lines in the worker processes of score and watch. Lines end at LF;
a line of more than JSON whitespace that is not UTF-8 or not JSON is
MalformedJson.

All types here are immutable value objects, and a value that exists is a
valid one. The public constructors validate every invariant. The parser,
_frame_fields, checks each JSON value's type and range once and returns
the frame as plain fields, tuples of str, int, float and Label; from
those, parse_frame_record builds the records through trusted constructors
that skip the second check, while the worker processes of score and watch
hand the fields to fusion as they are and build no record. Each invariant
is written once, as a function returning the reason a value breaks it,
which the constructors and the parser call. Parsing is stateless and
reentrant.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass, fields
from enum import Enum
from typing import BinaryIO, Callable, ContextManager, Iterable, Iterator, Mapping, Sized, TypeVar

from .errors import ThreatwatchError

# Float slack when checking box extents against the unit square. Decimal
# inputs like x=0.45, w=0.55 do not sum to exactly 1.0 in binary.
EDGE_TOL = 1e-9

# Softmax outputs are near-normalized, not exactly normalized.
SCORE_TOL = 1e-6

_UINT64_MAX = 2**64 - 1

# The most detections, and the most keypoints, one frame may carry: fusion
# weighs every hand against every knife, so its cost grows with the square
# of the list. Mask R-CNN-style detectors typically cap theirs at 100.
MAX_ENTRIES = 256


class MalformedJson(ThreatwatchError):
    """A line that is not parseable as a JSON object."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: malformed JSON: {reason}")
        self.line_no = line_no
        self.reason = reason


class SchemaViolation(ThreatwatchError):
    """A parseable line that violates the record schema or an invariant."""

    def __init__(self, line_no: int, path: str, reason: str):
        super().__init__(f"line {line_no}: {path}: {reason}")
        self.line_no = line_no
        self.path = path
        self.reason = reason


class EmptyManifest(ThreatwatchError):
    def __init__(self) -> None:
        super().__init__("manifest contains no entries")


class DuplicateSampleId(ThreatwatchError):
    def __init__(self, sample_id: str):
        super().__init__(f"duplicate sample_id: {sample_id!r}")
        self.sample_id = sample_id


class Label(Enum):
    """Instance detection label."""

    HAND = "hand"
    KNIFE = "knife"


class KeypointKind(Enum):
    """Canonical keypoint names; anything unrecognized is OTHER."""

    WRIST = "wrist"
    ELBOW = "elbow"
    SHOULDER = "shoulder"
    OTHER = "other"


class ManifestLabel(Enum):
    """Dataset ground-truth label for one sample."""

    THREAT = "threat"
    NO_THREAT = "no_threat"
    HAND = "hand"


_LABELS = {m.value: m for m in Label}
_MANIFEST_LABELS = {m.value: m for m in ManifestLabel}


def _box_error(x: float, y: float, w: float, h: float) -> str | None:
    """Why (x, y, w, h) is no valid BoundingBox, or None."""
    if not (0.0 <= x <= 1.0):
        return f"x must be within [0, 1], got {x}"
    if not (0.0 <= y <= 1.0):
        return f"y must be within [0, 1], got {y}"
    if not (0.0 < w <= 1.0):
        return f"w must be within (0, 1], got {w}"
    if not (0.0 < h <= 1.0):
        return f"h must be within (0, 1], got {h}"
    if x + w > 1.0 + EDGE_TOL:
        return f"box exceeds right edge: x + w = {x + w}"
    if y + h > 1.0 + EDGE_TOL:
        return f"box exceeds bottom edge: y + h = {y + h}"
    return None


def _detection_error(conf: float, mask_area: float | None, w: float, h: float) -> str | None:
    """Why conf and mask_area are no valid InstanceDetection on a box of
    size w by h, or None."""
    if not (0.0 <= conf <= 1.0):
        return f"conf must be within [0, 1], got {conf}"
    if mask_area is not None:
        if not (0.0 < mask_area <= 1.0):
            return f"mask_area must be within (0, 1], got {mask_area}"
        if mask_area > w * h + 1e-6:
            return f"mask_area {mask_area} exceeds box area {w * h}"
    return None


def _scores_error(threat: float, no_threat: float, hand: float) -> str | None:
    """Why the three scores are no valid ClassScores, or None."""
    for name, v in (("threat", threat), ("no_threat", no_threat), ("hand", hand)):
        if not (0.0 <= v <= 1.0):
            return f"{name} must be within [0, 1], got {v}"
    total = threat + no_threat + hand
    if not (1.0 - SCORE_TOL <= total <= 1.0 + SCORE_TOL):
        return f"scores must sum to 1 within {SCORE_TOL}, got {total}"
    return None


def _keypoint_error(name: str, x: float, y: float, conf: float) -> str | None:
    """Why (name, x, y, conf) is no valid PoseKeypoint, or None."""
    if not name:
        return "name must be non-empty"
    if not (0.0 <= x <= 1.0):
        return f"x must be within [0, 1], got {x}"
    if not (0.0 <= y <= 1.0):
        return f"y must be within [0, 1], got {y}"
    if not (0.0 <= conf <= 1.0):
        return f"conf must be within [0, 1], got {conf}"
    return None


def _entries_error(entries: Sized, prefix: str = "") -> str | None:
    """Why entries are too many for a FrameRecord's detections or
    keypoints, after prefix, or None."""
    if len(entries) > MAX_ENTRIES:
        return f"{prefix}expected at most {MAX_ENTRIES} entries, got {len(entries)}"
    return None


def _stamp_error(stream_id: str, frame_id: int, ts_ms: int) -> str | None:
    """Why a FrameRecord's stream_id, frame_id and ts_ms are invalid, or
    None."""
    if not stream_id:
        return "stream_id must be non-empty"
    if not (0 <= frame_id <= _UINT64_MAX):
        return f"frame_id must be a uint64, got {frame_id}"
    if not (0 <= ts_ms <= _UINT64_MAX):
        return f"ts_ms must be a uint64, got {ts_ms}"
    return None


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned box in normalized image coordinates, y down.

    x, y locate the top-left corner; w, h are the (positive) extents. The box
    must fit inside the unit square up to EDGE_TOL.
    """

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        error = _box_error(self.x, self.y, self.w, self.h)
        if error is not None:
            raise ValueError(error)

    def center(self) -> tuple[float, float]:
        """Center point (cx, cy) of the box."""
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)


@dataclass(frozen=True, slots=True)
class InstanceDetection:
    """One labeled box with detection confidence and an optional mask area.

    mask_area, when present, is the fraction of the frame covered by the
    instance mask; a mask cannot meaningfully exceed its own box area.
    """

    label: Label
    box: BoundingBox
    conf: float
    mask_area: float | None = None

    def __post_init__(self) -> None:
        error = _detection_error(self.conf, self.mask_area, self.box.w, self.box.h)
        if error is not None:
            raise ValueError(error)


@dataclass(frozen=True, slots=True)
class ClassScores:
    """Per-frame class probabilities: threat / no threat / hand-only.

    The three scores must be near-normalized (sum within SCORE_TOL of 1).
    """

    threat: float
    no_threat: float
    hand: float

    def __post_init__(self) -> None:
        error = _scores_error(self.threat, self.no_threat, self.hand)
        if error is not None:
            raise ValueError(error)


@dataclass(frozen=True, slots=True)
class PoseKeypoint:
    """One skeletal landmark in normalized coordinates, y down.

    The raw name is preserved; kind() maps it onto the canonical vocabulary
    (wrist, elbow, shoulder) by case-insensitive substring, so model-specific
    names like "left_wrist" or "rightWrist" classify correctly; everything
    else is OTHER.
    """

    name: str
    x: float
    y: float
    conf: float

    def __post_init__(self) -> None:
        error = _keypoint_error(self.name, self.x, self.y, self.conf)
        if error is not None:
            raise ValueError(error)

    def kind(self) -> KeypointKind:
        return _keypoint_kind(self.name)


# The canonical kinds by name, in the order kind() tries them; read once,
# as an Enum member's value is a property.
_KEYPOINT_KINDS = tuple((kind.value, kind)
                        for kind in (KeypointKind.WRIST, KeypointKind.ELBOW, KeypointKind.SHOULDER))


def _keypoint_kind(name: str) -> KeypointKind:
    """PoseKeypoint.kind() of a keypoint named name."""
    lowered = name.lower()
    for value, kind in _KEYPOINT_KINDS:
        if value in lowered:
            return kind
    return KeypointKind.OTHER


@dataclass(frozen=True, slots=True)
class FrameRecord:
    """All model evidence for one frame of one stream.

    A record with no scores, no detections and no keypoints is valid; it
    simply asserts that nothing was observed. frame_id ordering is a stream
    property enforced at ingest, not here.
    """

    stream_id: str
    frame_id: int
    ts_ms: int
    scores: ClassScores | None = None
    detections: tuple[InstanceDetection, ...] = ()
    keypoints: tuple[PoseKeypoint, ...] = ()

    def __post_init__(self) -> None:
        error = (_stamp_error(self.stream_id, self.frame_id, self.ts_ms)
                 or _entries_error(self.detections, "detections: ")
                 or _entries_error(self.keypoints, "keypoints: "))
        if error is not None:
            raise ValueError(error)


_T = TypeVar("_T")


def _trusted(cls: type[_T]) -> Callable[..., _T]:
    """A constructor for the frozen slots dataclass cls that takes every
    field positionally and stores it through its slot descriptor, running
    neither __init__ nor __post_init__. Only for values already checked
    against the class's invariants. The body is generated, as dataclass
    generates __init__, so each call is one allocation and one store per
    field with no loop."""
    names = [f.name for f in fields(cls)]
    env: dict = {"new": object.__new__, "cls": cls}
    body = ""
    for name in names:
        env[f"set_{name}"] = getattr(cls, name).__set__
        body += f"    set_{name}(obj, {name})\n"
    func = f"new_{cls.__name__}"
    exec(f"def {func}({', '.join(names)}):\n    obj = new(cls)\n{body}    return obj\n", env)
    return env[func]


_new_box = _trusted(BoundingBox)
_new_detection = _trusted(InstanceDetection)
_new_scores = _trusted(ClassScores)
_new_keypoint = _trusted(PoseKeypoint)
_new_record = _trusted(FrameRecord)


@dataclass(frozen=True, slots=True)
class ManifestEntry:
    sample_id: str
    label: ManifestLabel


@dataclass(frozen=True)
class ManifestStats:
    """Counts over a manifest; positive_fraction is threat count / total."""

    total: int
    per_label: Mapping[ManifestLabel, int]
    positive_fraction: float

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "per_label": {label.value: self.per_label.get(label, 0) for label in ManifestLabel},
            "positive_fraction": self.positive_fraction,
        }


# The parsers below see only what json.loads builds, whose containers and
# scalars are exactly dict, list, str, int, float, bool and None. So exact
# type tests stand in for isinstance, and `type(v) is int` excludes bool.
# The common case, a float, costs one type test and no call.


class _Invalid(Exception):
    """A schema fault raised before the line number is known. path is
    relative to the part being parsed; each enclosing parser puts its own
    path in front, and _parse_line turns it into a SchemaViolation."""

    def __init__(self, path: str, reason: str) -> None:
        self.path = path
        self.reason = reason


def _expected(path: str, what: str, value: object) -> _Invalid:
    return _Invalid(path, f"expected {what}, got {value!r}")


def _number(value: object, path: str) -> float | int:
    """A JSON number as a float. An integer too large for any float is
    returned as is: it lies outside every range the schema allows, so the
    range check that follows rejects it with its own message."""
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            return value
    if type(value) is float:
        return value
    raise _expected(path, "a number", value)


def _open(path: str) -> ContextManager[BinaryIO]:
    """The bytes of an input; "-" is stdin, which stays open on exit."""
    return contextlib.nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb")


def _utf8(data: bytes, line_no: int) -> str:
    try:
        return data.decode()
    except UnicodeDecodeError as e:
        raise MalformedJson(line_no, str(e)) from None


# The scanner that json.loads runs (C in CPython), called with no wrapper.
_scan_once = json.decoder.JSONDecoder().scan_once


def _json(text: str, line_no: int) -> object:
    """text as one JSON value, what json.loads(text) returns; MalformedJson
    with json.loads's message when it raises."""
    try:
        value, end = _scan_once(text, 0)
        if not text[end:].strip(" \t\n\r"):
            return value
    except (StopIteration, ValueError, RecursionError):
        # StopIteration: no value at the start, leading whitespace included.
        pass
    # json.loads skips leading whitespace, and words each fault.
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        # ValueError: JSONDecodeError, or an integer longer than the
        # interpreter's digit limit. RecursionError: nesting too deep.
        raise MalformedJson(line_no, str(e)) from None


def read_json(path: str) -> object:
    """The whole input at path ("-" = stdin) as one JSON value; MalformedJson
    (line 0) when it is not UTF-8 or not JSON."""
    with _open(path) as fh:
        data = fh.read()
    return _json(_utf8(data, 0), 0)


def read_lines(path: str, parse: Callable[[str, int], _T],
               on_bad: Callable[[ThreatwatchError], None] | None = None) -> Iterator[_T]:
    """parse_lines over the lines at path ("-" = stdin), numbered from 1.
    The input is opened on the first next() and closed when the iterator
    ends or is closed."""
    with _open(path) as fh:
        yield from parse_lines(fh, 1, parse, on_bad)


def chunk_spans(path: str, size: int) -> Iterator[tuple[int, int, int]]:
    """The file at path cut into spans of whole lines of at least size
    bytes (the last may be shorter), as (offset, nbytes, first_line_no),
    lines counted from 1 and ended at LF as in read_lines. The file is read
    once, a block at a time; read_span reads a span's lines back."""
    with open(path, "rb") as fh:
        offset, line_no = 0, 1
        while data := fh.read(size):
            if not data.endswith(b"\n"):
                data += fh.readline()  # the rest of the line; only the last has no LF
            yield offset, len(data), line_no
            offset += len(data)
            line_no += data.count(b"\n")


def read_span(path: str, offset: int, nbytes: int) -> list[bytes]:
    """The raw lines of the span of nbytes at offset in the file at path,
    split as in read_lines; hand them to parse_lines."""
    with open(path, "rb") as fh:
        fh.seek(offset)
        return io.BytesIO(fh.read(nbytes)).readlines()


def parse_lines(lines: Iterable[bytes], first_line_no: int, parse: Callable[[str, int], _T],
                on_bad: Callable[[ThreatwatchError], None] | None = None) -> Iterator[_T]:
    """Yield parse(line, line_no) for each raw line that holds more than
    JSON whitespace, numbered from first_line_no. A line that is not UTF-8
    or that parse rejects raises, or is handed to on_bad when given."""
    for line_no, data in enumerate(lines, start=first_line_no):
        try:
            line = _utf8(data, line_no)
            if line.strip(" \t\r\n"):  # only JSON whitespace makes a line blank
                yield parse(line, line_no)
        except (MalformedJson, SchemaViolation) as exc:
            if on_bad is None:
                raise
            on_bad(exc)


def _parse_line(line: str, line_no: int, build: Callable[[dict], _T]) -> _T:
    """Decode one JSONL line into a JSON object and build a value from it.
    Every fault surfaces as MalformedJson or SchemaViolation."""
    obj = _json(line, line_no)
    if type(obj) is not dict:
        raise MalformedJson(line_no, f"expected a JSON object, got {type(obj).__name__}")
    try:
        return build(obj)
    except _Invalid as e:
        raise SchemaViolation(line_no, e.path, e.reason) from None


def _array(raw: object, parse: Callable[[object], _T], path: str) -> tuple[_T, ...]:
    """Parse each element of a JSON array of at most MAX_ENTRIES; a
    fault's path gets the array's path and the element index in front."""
    if type(raw) is not list:
        raise _expected(path, "an array", raw)
    error = _entries_error(raw)
    if error is not None:
        raise _Invalid(path, error)
    parts: list = []
    append = parts.append
    try:
        for item in raw:
            append(parse(item))
    except _Invalid as e:
        raise _Invalid(f"{path}[{len(parts)}]{e.path}", e.reason) from None
    return tuple(parts)


def _detection(obj: object) -> tuple:
    """A wire detection as (label, x, y, w, h, conf, mask_area)."""
    if type(obj) is not dict:
        raise _expected("", "an object", obj)
    get = obj.get
    label_text = get("label")
    if type(label_text) is not str:
        raise _expected(".label", "a string", label_text)
    label = _LABELS.get(label_text)
    if label is None:
        raise _Invalid(".label", f"unknown label {label_text!r}")
    box_raw = get("box")
    if type(box_raw) is not list or len(box_raw) != 4:
        raise _expected(".box", "[x, y, w, h] numbers", box_raw)
    x, y, w, h = box_raw
    if type(x) is not float or type(y) is not float or type(w) is not float or type(h) is not float:
        try:
            x, y, w, h = [_number(v, ".box") for v in box_raw]
        except _Invalid:
            raise _expected(".box", "[x, y, w, h] numbers", box_raw) from None
    conf = get("conf")
    if type(conf) is not float:
        conf = _number(conf, ".conf")
    mask_area = get("mask_area")
    if mask_area is not None and type(mask_area) is not float:
        mask_area = _number(mask_area, ".mask_area")
    # _box_error and _detection_error in one chain, false for NaN as they
    # are; they word the first fault when it fails.
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0 and 0.0 < w <= 1.0 and 0.0 < h <= 1.0
            and x + w <= 1.0 + EDGE_TOL and y + h <= 1.0 + EDGE_TOL and 0.0 <= conf <= 1.0
            and (mask_area is None or 0.0 < mask_area <= 1.0 and mask_area <= w * h + 1e-6)):
        error = _box_error(x, y, w, h)
        if error is not None:
            raise _Invalid(".box", error)
        raise _Invalid("", _detection_error(conf, mask_area, w, h))
    return label, x, y, w, h, conf, mask_area


def _keypoint(obj: object) -> tuple:
    """A wire keypoint as (name, x, y, conf)."""
    if type(obj) is not dict:
        raise _expected("", "an object", obj)
    get = obj.get
    name = get("name")
    if type(name) is not str:
        raise _expected(".name", "a string", name)
    x = get("x")
    if type(x) is not float:
        x = _number(x, ".x")
    y = get("y")
    if type(y) is not float:
        y = _number(y, ".y")
    conf = get("conf")
    if type(conf) is not float:
        conf = _number(conf, ".conf")
    error = _keypoint_error(name, x, y, conf)
    if error is not None:
        raise _Invalid("", error)
    return name, x, y, conf


def _scores(obj: object) -> tuple[float, float, float]:
    """Wire scores as (threat, no_threat, hand)."""
    if type(obj) is not dict:
        raise _expected("$.scores", "an object", obj)
    get = obj.get
    threat = get("threat")
    if type(threat) is not float:
        threat = _number(threat, "$.scores.threat")
    no_threat = get("no_threat")
    if type(no_threat) is not float:
        no_threat = _number(no_threat, "$.scores.no_threat")
    hand = get("hand")
    if type(hand) is not float:
        hand = _number(hand, "$.scores.hand")
    error = _scores_error(threat, no_threat, hand)
    if error is not None:
        raise _Invalid("$.scores", error)
    return threat, no_threat, hand


def _frame_fields(obj: dict) -> tuple:
    """A wire frame's validated fields, (stream_id, frame_id, ts_ms,
    scores, detections, keypoints): scores as (threat, no_threat, hand) or
    None, one (label, x, y, w, h, conf, mask_area) per detection and one
    (name, x, y, conf) per keypoint, each a tuple. They satisfy every
    invariant of FrameRecord and its parts, so _frame_record builds those
    with no second check, and fusion assesses the fields as they are."""
    get = obj.get
    stream_id = get("stream_id")
    if type(stream_id) is not str:
        raise _expected("$.stream_id", "a string", stream_id)
    frame_id = get("frame_id")
    if type(frame_id) is not int:
        raise _expected("$.frame_id", "an integer", frame_id)
    ts_ms = get("ts_ms")
    if type(ts_ms) is not int:
        raise _expected("$.ts_ms", "an integer", ts_ms)
    scores = get("scores")
    if scores is not None:
        scores = _scores(scores)
    detections = get("detections")
    detections = () if detections is None else _array(detections, _detection, "$.detections")
    keypoints = get("keypoints")
    keypoints = () if keypoints is None else _array(keypoints, _keypoint, "$.keypoints")
    # _array has capped the arrays' lengths.
    error = _stamp_error(stream_id, frame_id, ts_ms)
    if error is not None:
        raise _Invalid("$", error)
    return stream_id, frame_id, ts_ms, scores, detections, keypoints


def _frame_record(obj: dict) -> FrameRecord:
    stream_id, frame_id, ts_ms, scores, detections, keypoints = _frame_fields(obj)
    return _new_record(
        stream_id, frame_id, ts_ms, None if scores is None else _new_scores(*scores),
        tuple([_new_detection(label, _new_box(x, y, w, h), conf, mask_area)
               for label, x, y, w, h, conf, mask_area in detections]),
        tuple([_new_keypoint(*keypoint) for keypoint in keypoints]))


def parse_frame_record(line: str, line_no: int = 0) -> FrameRecord:
    """Parse one JSONL line into a validated FrameRecord.

    line_no is carried into any error for diagnostics; pass the 1-based line
    number when reading a file. Raises MalformedJson when the line is not a
    JSON object, SchemaViolation when a required field is missing, a value is
    out of range, or an enum value is unknown; never anything else.
    """
    return _parse_line(line, line_no, _frame_record)


def serialize_frame_record(record: FrameRecord) -> str:
    """One compact JSON line (no trailing newline), optional fields omitted
    when absent or empty. Round-trips through parse."""
    out: dict = {
        "stream_id": record.stream_id,
        "frame_id": record.frame_id,
        "ts_ms": record.ts_ms,
    }
    if record.scores is not None:
        s = record.scores
        out["scores"] = {"threat": s.threat, "no_threat": s.no_threat, "hand": s.hand}
    if record.detections:
        dets = []
        for d in record.detections:
            dd: dict = {
                "label": d.label.value,
                "box": [d.box.x, d.box.y, d.box.w, d.box.h],
                "conf": d.conf,
            }
            if d.mask_area is not None:
                dd["mask_area"] = d.mask_area
            dets.append(dd)
        out["detections"] = dets
    if record.keypoints:
        out["keypoints"] = [
            {"name": k.name, "x": k.x, "y": k.y, "conf": k.conf} for k in record.keypoints
        ]
    return json.dumps(out, separators=(",", ":"))


def _manifest_entry(obj: dict) -> ManifestEntry:
    sample_id = obj.get("sample_id")
    if type(sample_id) is not str:
        raise _expected("$.sample_id", "a string", sample_id)
    if not sample_id:
        raise _Invalid("$.sample_id", "must be non-empty")
    label_text = obj.get("label")
    if type(label_text) is not str:
        raise _expected("$.label", "a string", label_text)
    label = _MANIFEST_LABELS.get(label_text)
    if label is None:
        raise _Invalid("$.label", f"unknown label {label_text!r}")
    return ManifestEntry(sample_id, label)


def parse_manifest_entry(line: str, line_no: int = 0) -> ManifestEntry:
    """Parse one manifest JSONL line."""
    return _parse_line(line, line_no, _manifest_entry)


def read_manifest(path: str) -> list[ManifestEntry]:
    """Read the manifest entries at path ("-" = stdin); blank lines are
    skipped, and the first bad line raises."""
    return list(read_lines(path, parse_manifest_entry))


def validate_manifest(entries: Iterable[ManifestEntry]) -> ManifestStats:
    """Check uniqueness and compute label counts.

    Raises EmptyManifest for an empty input and DuplicateSampleId on the
    first repeated id. positive_fraction is the exact ratio of THREAT
    entries; display rounding is left to callers.
    """
    seen: set[str] = set()
    counts = {label: 0 for label in ManifestLabel}
    total = 0
    for entry in entries:
        if entry.sample_id in seen:
            raise DuplicateSampleId(entry.sample_id)
        seen.add(entry.sample_id)
        counts[entry.label] += 1
        total += 1
    if total == 0:
        raise EmptyManifest()
    return ManifestStats(
        total=total,
        per_label=counts,
        positive_fraction=counts[ManifestLabel.THREAT] / total,
    )
