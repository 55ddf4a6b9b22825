"""Pluggable frame sources.

The pipeline consumes FrameRecords from a DetectorBackend and does not
care where they come from. open_backend resolves a URI to a backend; it
is the only place the schemes are spelled out. Three ship here:

  * synthetic:<script.json>: a deterministic scenario generator covering
    the five canonical scenes, so the whole pipeline runs and is tested
    without any ML runtime;
  * jsonl:<path>: replay of pre-computed model outputs with validation
    ("-" reads stdin);
  * extern:<name>: hook for real-inference adapters registered at
    runtime; asking for one that is not registered is a clean
    AdapterUnavailable error, not a crash.
"""

from __future__ import annotations

import json
import logging
import random
import sys
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from enum import Enum

from .errors import ThreatwatchError
from .frames import (
    BoundingBox,
    ClassScores,
    FrameRecord,
    InstanceDetection,
    Label,
    MalformedJson,
    PoseKeypoint,
    SchemaViolation,
    parse_frame_record,
)


logger = logging.getLogger(__name__)

REPLAY_SCHEME = "jsonl"
SCHEMES = ("synthetic", REPLAY_SCHEME, "extern")


class BadScript(ThreatwatchError):
    """A scenario script violating its own invariants."""


class UnknownScheme(ThreatwatchError):
    """A backend URI whose scheme is not synthetic/jsonl/extern."""


class AdapterUnavailable(ThreatwatchError):
    """An extern adapter name with no registered factory."""


class Scene(Enum):
    EMPTY = "empty"
    HAND_ONLY = "hand_only"
    KNIFE_ONLY = "knife_only"
    KNIFE_GRASPED = "knife_grasped"
    KNIFE_OVERHAND = "knife_overhand"


_SCENES = {s.value: s for s in Scene}


@dataclass(frozen=True, slots=True)
class Segment:
    scene: Scene
    duration_frames: int
    noise: float = 0.0

    def __post_init__(self) -> None:
        if self.duration_frames < 1:
            raise BadScript(f"duration_frames must be >= 1, got {self.duration_frames}")
        if not (0.0 <= self.noise <= 0.1):
            raise BadScript(f"noise must be within [0, 0.1], got {self.noise}")


@dataclass(frozen=True)
class ScenarioScript:
    segments: tuple[Segment, ...]
    seed: int = 0
    stream_id: str = "synthetic"

    def __post_init__(self) -> None:
        if not self.segments:
            raise BadScript("script must contain at least one segment")
        if not self.stream_id:
            raise BadScript("stream_id must be non-empty")


def script_from_dict(data: dict) -> ScenarioScript:
    """Build a script from its JSON form: {"segments": [{"scene": ...,
    "duration_frames": ..., "noise"?: ...}], "seed"?: ..., "stream_id"?: ...}.
    """
    if not isinstance(data, dict):
        raise BadScript("script must be a JSON object")
    raw_segments = data.get("segments")
    if not isinstance(raw_segments, list) or not raw_segments:
        raise BadScript("script needs a non-empty segments array")
    segments = []
    for i, raw in enumerate(raw_segments):
        if not isinstance(raw, dict):
            raise BadScript(f"segments[{i}] must be an object")
        scene = _SCENES.get(raw.get("scene"))
        if scene is None:
            raise BadScript(f"segments[{i}]: unknown scene {raw.get('scene')!r}")
        duration = raw.get("duration_frames")
        if not isinstance(duration, int) or isinstance(duration, bool):
            raise BadScript(f"segments[{i}]: duration_frames must be an integer")
        noise = raw.get("noise", 0.0)
        if isinstance(noise, bool) or not isinstance(noise, (int, float)):
            raise BadScript(f"segments[{i}]: noise must be a number")
        segments.append(Segment(scene, duration, float(noise)))
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise BadScript("seed must be an integer")
    stream_id = data.get("stream_id", "synthetic")
    if not isinstance(stream_id, str):
        raise BadScript("stream_id must be a string")
    return ScenarioScript(tuple(segments), seed, stream_id)


def load_script(path: str) -> ScenarioScript:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise BadScript(f"{path}: not valid JSON: {exc}") from None
    return script_from_dict(data)


# Fixed per-scene geometry, chosen so each scene lands on exactly one
# level at default thresholds with slack no jitter can erode: overhand
# vertical separation 0.22 (>= 2x the 0.05 minimum plus margin), grasped
# separation 0.02 (well under it), association distances well inside 0.25.
_SCENE_SCORES = {
    Scene.EMPTY: (0.01, 0.98, 0.01),
    Scene.HAND_ONLY: (0.02, 0.08, 0.90),
    Scene.KNIFE_ONLY: (0.92, 0.06, 0.02),
    Scene.KNIFE_GRASPED: (0.95, 0.03, 0.02),
    Scene.KNIFE_OVERHAND: (0.97, 0.02, 0.01),
}
_HAND_BOXES = {
    Scene.HAND_ONLY: BoundingBox(0.44, 0.42, 0.12, 0.14),
    Scene.KNIFE_GRASPED: BoundingBox(0.40, 0.46, 0.10, 0.10),
    Scene.KNIFE_OVERHAND: BoundingBox(0.45, 0.28, 0.10, 0.10),
}
_KNIFE_BOXES = {
    Scene.KNIFE_ONLY: BoundingBox(0.46, 0.50, 0.08, 0.18),
    Scene.KNIFE_GRASPED: BoundingBox(0.51, 0.44, 0.08, 0.18),
    Scene.KNIFE_OVERHAND: BoundingBox(0.46, 0.46, 0.08, 0.18),
}
_WRISTS = {
    Scene.HAND_ONLY: (0.50, 0.52),
    Scene.KNIFE_GRASPED: (0.47, 0.52),
    Scene.KNIFE_OVERHAND: (0.50, 0.36),
}
_FRAME_INTERVAL_MS = 33
_KEYPOINT_CONF = 0.85


def synthesize(script: ScenarioScript, seed: int | None = None) -> Iterator[FrameRecord]:
    """Generate the script's frames in order, frame_id from 1, timestamps
    spaced 33 ms apart. Detection confidences are 0.90 + U[0,1) * noise
    per segment; everything else is fixed per scene, so identical (script,
    seed) yields byte-identical serialized output. seed overrides the
    script's own when given.
    """
    rng = random.Random(script.seed if seed is None else seed)
    frame_id = 0
    for segment in script.segments:
        scores = ClassScores(*_SCENE_SCORES[segment.scene])
        for _ in range(segment.duration_frames):
            frame_id += 1
            detections = []
            hand_box = _HAND_BOXES.get(segment.scene)
            if hand_box is not None:
                conf = 0.90 + rng.random() * segment.noise
                detections.append(
                    InstanceDetection(Label.HAND, hand_box, conf, hand_box.w * hand_box.h * 0.6)
                )
            knife_box = _KNIFE_BOXES.get(segment.scene)
            if knife_box is not None:
                conf = 0.90 + rng.random() * segment.noise
                detections.append(
                    InstanceDetection(Label.KNIFE, knife_box, conf, knife_box.w * knife_box.h * 0.6)
                )
            keypoints = []
            wrist = _WRISTS.get(segment.scene)
            if wrist is not None:
                keypoints.append(PoseKeypoint("right_wrist", wrist[0], wrist[1], _KEYPOINT_CONF))
            yield FrameRecord(
                stream_id=script.stream_id,
                frame_id=frame_id,
                ts_ms=_FRAME_INTERVAL_MS * (frame_id - 1),
                scores=scores,
                detections=tuple(detections),
                keypoints=tuple(keypoints),
            )


class DetectorBackend(ABC):
    """A source of FrameRecords; emitted records must satisfy every
    frame-model invariant. Any evidence channel may be absent."""

    @abstractmethod
    def frames(self) -> Iterator[FrameRecord]:
        """Yield records in stream order."""


class SyntheticBackend(DetectorBackend):
    """Scenario generator backend; emits all three evidence channels."""

    def __init__(self, script: ScenarioScript, seed: int | None = None) -> None:
        self.script = script
        self.seed = seed

    def frames(self) -> Iterator[FrameRecord]:
        return synthesize(self.script, self.seed)


class ReplayBackend(DetectorBackend):
    """Replays a recorded FrameRecord JSONL file, validating every line.

    on_error "raise" propagates the first bad line; "skip" drops bad lines,
    logging each one once, and counts them in .skipped. Nothing is opened
    or read until frames() is iterated, and each line is parsed once per
    pass. A path of "-" reads stdin (single pass); a file can be replayed
    again.
    """

    def __init__(self, path: str, on_error: str = "raise") -> None:
        if on_error not in ("raise", "skip"):
            raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
        self.path = path
        self.on_error = on_error
        self.skipped = 0

    def frames(self) -> Iterator[FrameRecord]:
        if self.path == "-":
            fh = sys.stdin
            close = False
        else:
            fh = open(self.path, encoding="utf-8")
            close = True
        try:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    yield parse_frame_record(line, line_no)
                except (MalformedJson, SchemaViolation) as exc:
                    if self.on_error == "raise":
                        raise
                    self.skipped += 1
                    logger.warning("skipping bad frame line: %s", exc)
        finally:
            if close:
                fh.close()


_EXTERN_ADAPTERS: dict[str, Callable[[str], DetectorBackend]] = {}


def register_extern_adapter(name: str, factory: Callable[[str], DetectorBackend]) -> None:
    """Make `extern:<name>[:arg]` resolvable; the factory receives the
    remainder of the URI after the adapter name ("" when absent)."""
    _EXTERN_ADAPTERS[name] = factory


def open_backend(uri: str, on_error: str = "raise") -> DetectorBackend:
    """Resolve a backend URI: "synthetic:<script.json>", "jsonl:<path>"
    ("-" for stdin), or "extern:<adapter>[:arg]". Raises UnknownScheme for
    anything else and AdapterUnavailable for an unregistered adapter.

    on_error is the ReplayBackend bad-line policy for "jsonl:": "raise"
    stops at the first malformed or invalid line, "skip" logs, counts and
    drops it. The other schemes do not read recorded lines and ignore it.
    """
    scheme, sep, rest = uri.partition(":")
    if not sep:
        raise UnknownScheme(f"backend URI needs a scheme prefix, got {uri!r}")
    if scheme == "synthetic":
        return SyntheticBackend(load_script(rest))
    if scheme == REPLAY_SCHEME:
        return ReplayBackend(rest, on_error)
    if scheme == "extern":
        name, _, arg = rest.partition(":")
        factory = _EXTERN_ADAPTERS.get(name)
        if factory is None:
            raise AdapterUnavailable(
                f"no extern adapter named {name!r} is registered"
            )
        return factory(arg)
    raise UnknownScheme(f"unknown backend scheme {scheme!r}")
