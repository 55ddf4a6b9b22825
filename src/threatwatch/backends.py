"""Pluggable frame sources.

The pipeline consumes FrameRecords from a DetectorBackend and does not
care where they come from. open_backend resolves a URI to a backend; it
is the only place the schemes are spelled out. Three ship here:

  * synthetic:<script.json>: a deterministic scenario generator covering
    the five canonical scenes, so the whole pipeline runs and is tested
    without any ML runtime ("-" reads the script from stdin);
  * jsonl:<path>: replay of pre-computed model outputs with validation
    ("-" reads stdin);
  * extern:<name>: hook for real-inference adapters registered at
    runtime; asking for one that is not registered is a clean
    AdapterUnavailable error, not a crash.
"""

from __future__ import annotations

import logging
import random
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from enum import Enum

from .errors import ThreatwatchError
from .frames import (
    FrameRecord,
    Label,
    MalformedJson,
    _record,
    parse_frame_record,
    read_json,
    read_lines,
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

    @property
    def frame_count(self) -> int:
        """How many frames the script makes."""
        return sum(segment.duration_frames for segment in self.segments)


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
    """Read a script from its JSON file ("-" = stdin)."""
    try:
        data = read_json(path)
    except MalformedJson as exc:
        raise BadScript(f"{path}: not valid JSON: {exc.reason}") from None
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
    Scene.HAND_ONLY: (0.44, 0.42, 0.12, 0.14),
    Scene.KNIFE_GRASPED: (0.40, 0.46, 0.10, 0.10),
    Scene.KNIFE_OVERHAND: (0.45, 0.28, 0.10, 0.10),
}
_KNIFE_BOXES = {
    Scene.KNIFE_ONLY: (0.46, 0.50, 0.08, 0.18),
    Scene.KNIFE_GRASPED: (0.51, 0.44, 0.08, 0.18),
    Scene.KNIFE_OVERHAND: (0.46, 0.46, 0.08, 0.18),
}
_WRISTS = {
    Scene.HAND_ONLY: (0.50, 0.52),
    Scene.KNIFE_GRASPED: (0.47, 0.52),
    Scene.KNIFE_OVERHAND: (0.50, 0.36),
}
_FRAME_INTERVAL_MS = 33
_KEYPOINT_CONF = 0.85


# Frames per span of the script's output; _synthesize_fields' parts are
# whole spans, and the forked workers of score and watch (cli._pool_runs)
# hand the parent one span at a time. On 2 CPUs, score on the benchmark's
# 60k-frame synth-score script, 15 alternating runs per size: 256 to 8,192
# frames all ran at 113-123k fps in the median, within one another's
# quartiles, but the peak RSS (wait4, 3 runs) grew with the parent's span
# buffers: 17.1 MB at 256 and 512, 17.9 at 1,024, 19.0 at 2,048, 25.2 at
# 8,192.
SYNTH_SPAN_FRAMES = 512


def synthesize(script: ScenarioScript, seed: int | None = None) -> Iterator[FrameRecord]:
    """Generate the script's frames in order, frame_id from 1, timestamps
    spaced 33 ms apart. Detection confidences are 0.90 + U[0,1) * noise
    per segment; everything else is fixed per scene, so identical (script,
    seed) yields byte-identical serialized output. seed overrides the
    script's own when given. Each record is built from the frame's fields
    (_synthesize_fields), as parse_frame_record builds one from a line's;
    score and watch assess those fields and build no record."""
    return map(_record, _synthesize_fields(script, seed))


def _synthesize_fields(script: ScenarioScript, seed: int | None = None, part: int = 0,
                       parts: int = 1) -> Iterator[tuple]:
    """The one walk of a script: synthesize's frames as the fields that
    frames._frame_fields gives for each one's JSONL line, (stream_id,
    frame_id, ts_ms, scores, detections, keypoints), with no record built.

    part and parts split the output into spans of SYNTH_SPAN_FRAMES frames
    and keep spans part, part + parts, ...: every other span's draws are
    made and discarded, so each frame is the one the whole run makes, and
    the parts' spans taken in turn are the whole run. The frames of a
    segment share its scores and keypoints. Every value is valid by
    construction: a mask covers 0.6 of its box, and a confidence lies in
    [0.90, 1.0) because noise <= 0.1."""
    draw = random.Random(script.seed if seed is None else seed).random
    stream_id = script.stream_id
    span = SYNTH_SPAN_FRAMES
    last = 0
    for segment in script.segments:
        noise = segment.noise
        scene = segment.scene
        # (label, box, mask_area) per detection, hand first: the order in
        # which each frame draws its confidences.
        templates = [(label, box, box[2] * box[3] * 0.6)
                     for label, box in ((Label.HAND, _HAND_BOXES.get(scene)),
                                        (Label.KNIFE, _KNIFE_BOXES.get(scene)))
                     if box is not None]
        wrist = _WRISTS.get(scene)
        keypoints = () if wrist is None else (("right_wrist", *wrist, _KEYPOINT_CONF),)
        scores = _SCENE_SCORES[scene]
        first = last + 1
        last += segment.duration_frames
        # The segment's frames, cut at the span edges.
        while first <= last:
            end = min(last, (first - 1) // span * span + span)
            if (first - 1) // span % parts == part:
                for fid in range(first, end + 1):
                    yield (stream_id, fid, _FRAME_INTERVAL_MS * (fid - 1), scores,
                           tuple([(label, *box, 0.90 + draw() * noise, mask_area)
                                  for label, box, mask_area in templates]),
                           keypoints)
            else:
                for _ in range(len(templates) * (end - first + 1)):
                    draw()
            first = end + 1


class DetectorBackend(ABC):
    """A source of FrameRecords; emitted records must satisfy every
    frame-model invariant. Any evidence channel may be absent."""

    @abstractmethod
    def frames(self) -> Iterator[FrameRecord]:
        """Yield records in stream order."""


class SyntheticBackend(DetectorBackend):
    """Scenario generator backend; emits all three evidence channels."""

    def __init__(self, script: ScenarioScript) -> None:
        self.script = script

    def frames(self) -> Iterator[FrameRecord]:
        return synthesize(self.script)


class ReplayBackend(DetectorBackend):
    """Replays a recorded FrameRecord JSONL file, validating every line.

    Every bad line, from frames() or a worker process's span, goes through
    bad_line: strict raises it; otherwise it is dropped, logged once and
    counted in .skipped. Nothing is opened or read until frames() is
    iterated, and each line is parsed once per pass. A path of "-" reads
    stdin (single pass); a file can be replayed again.
    """

    def __init__(self, path: str, strict: bool = True) -> None:
        self.path = path
        self.strict = strict
        self.skipped = 0

    def frames(self) -> Iterator[FrameRecord]:
        return read_lines(self.path, parse_frame_record, self.bad_line)

    def bad_line(self, exc: ThreatwatchError) -> None:
        """The bad-line policy for exc, a bad line's error: raise or skip it."""
        if self.strict:
            raise exc
        self.skipped += 1
        logger.warning("skipping bad frame line: %s", exc)


_EXTERN_ADAPTERS: dict[str, Callable[[str], DetectorBackend]] = {}


def register_extern_adapter(name: str, factory: Callable[[str], DetectorBackend]) -> None:
    """Make `extern:<name>[:arg]` resolvable; the factory receives the
    remainder of the URI after the adapter name ("" when absent)."""
    _EXTERN_ADAPTERS[name] = factory


def open_backend(uri: str, strict: bool = True) -> DetectorBackend:
    """Resolve a backend URI: "synthetic:<script.json>", "jsonl:<path>"
    ("-" for stdin), or "extern:<adapter>[:arg]". Raises UnknownScheme for
    anything else and AdapterUnavailable for an unregistered adapter.

    strict is the ReplayBackend bad-line policy (bad_line) for "jsonl:":
    True stops at the first malformed or invalid line, False logs, counts
    and drops it. The other schemes do not read recorded lines and ignore it.
    """
    scheme, sep, rest = uri.partition(":")
    if not sep:
        raise UnknownScheme(f"backend URI needs a scheme prefix, got {uri!r}")
    if scheme == "synthetic":
        return SyntheticBackend(load_script(rest))
    if scheme == REPLAY_SCHEME:
        return ReplayBackend(rest, strict)
    if scheme == "extern":
        name, _, arg = rest.partition(":")
        factory = _EXTERN_ADAPTERS.get(name)
        if factory is None:
            raise AdapterUnavailable(
                f"no extern adapter named {name!r} is registered"
            )
        return factory(arg)
    raise UnknownScheme(f"unknown backend scheme {scheme!r}")
