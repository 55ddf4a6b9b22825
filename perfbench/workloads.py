"""Seeded input generators for the three benchmark workloads.

Each generator writes the input the CLI reads plus a one-frame input of
the same kind (for set-up time), and returns the ground truth the oracle
checks outputs against: every valid frame's designated level, how many
bad lines were injected, and which frames were injected stale. Inputs are
built from fixed scene templates whose level does not depend on jitter,
so the truth follows from the scene alone and never from running the
program under test.

The same seed always gives byte-identical files (random.Random seeded
with a string hashes it with sha512, independent of PYTHONHASHSEED).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("synth-score", "replay-score", "replay-watch")

LEVELS = ("none", "object_present", "grasped", "overhand_threat")
HOT = 2  # levels at or above GRASPED keep an alert open

# Scene templates: classifier scores, hand box, knife box, wrist, level.
# Relative geometry gives each scene one level with wide slack: overhand
# vertical separation 0.22 against the 0.05 minimum, grasped separation
# 0.02, hand-knife center distances far inside 0.25. Translating a whole
# scene keeps all of that.
SCENES = {
    "empty": ((0.01, 0.98, 0.01), None, None, None, 0),
    "hand_only": ((0.02, 0.08, 0.90), (0.44, 0.42, 0.12, 0.14), None, (0.50, 0.52), 0),
    "knife_only": ((0.92, 0.06, 0.02), None, (0.46, 0.50, 0.08, 0.18), None, 1),
    "knife_grasped": ((0.95, 0.03, 0.02), (0.40, 0.46, 0.10, 0.10),
                      (0.51, 0.44, 0.08, 0.18), (0.47, 0.52), 2),
    "knife_overhand": ((0.97, 0.02, 0.01), (0.45, 0.28, 0.10, 0.10),
                       (0.46, 0.46, 0.08, 0.18), (0.50, 0.36), 3),
}
SCENE_NAMES = tuple(SCENES)
COLD_SCENES = ("empty", "hand_only", "knife_only")

FRAME_INTERVAL_MS = 33

# Input sizes. Each full CLI pass takes about 1.5-3 s on a 2-core box, so
# a 30 s run holds 10-15 passes to take medians over.
SYNTH_FRAMES = 60_000
REPLAY_SCORE_LINES = 18_000
REPLAY_WATCH_LINES = 40_000

REPLAY_SCORE_STREAMS = 36
WATCH_LIVE_STREAMS = 40
# At most 9 events per threat stream (3 bursts x raise/escalate/clear),
# so 100 threat streams stay under WebhookSink's 1,000-slot queue and no
# event is dropped whatever the scheduling.
WATCH_MAX_THREAT_STREAMS = 100
WATCH_THREAT_PROB = 0.007
BAD_LINE_PROB = 0.01
STALE_LINE_PROB = 0.005

NON_WRIST_KEYPOINTS = ("nose", "left_shoulder", "right_elbow", "left_hip")


@dataclass
class Truth:
    """What the oracle expects from one pass over the generated input.

    frames lists every valid frame in input order as (stream_id,
    frame_id, ts_ms, level); stale marks the ones fed out of order, which
    `watch` must drop. bad_lines counts the malformed lines, which must
    be skipped.
    """

    frames: list = field(default_factory=list)
    stale: list = field(default_factory=list)
    bad_lines: int = 0
    lines: int = 0
    first_valid_line: int = -1


@dataclass
class Workload:
    name: str
    command: str  # "score" or "watch"
    input_uri: str
    setup_uri: str
    truth: Truth
    files: list


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _r4(value: float) -> float:
    return round(value, 4)


def _qualifying_conf(rng: random.Random) -> float:
    return _r4(0.90 + rng.random() * 0.0999)


def _distractor(rng: random.Random) -> dict:
    """A detection below tau_det (0.90): parsed and validated, but it
    never qualifies, so it cannot move the level."""
    xi = rng.randint(0, 9800)
    yi = rng.randint(0, 9800)
    w = rng.randint(200, min(1200, 10000 - xi)) / 10000
    h = rng.randint(200, min(1200, 10000 - yi)) / 10000
    det = {"label": rng.choice(("hand", "knife")), "box": [xi / 10000, yi / 10000, w, h],
           "conf": _r4(0.05 + rng.random() * 0.80)}
    if rng.random() < 0.5:
        det["mask_area"] = _r4(w * h * 0.5)
    return det


def _frame_dict(rng: random.Random, stream_id: str, frame_id: int, ts_ms: int,
                scene: str, offset: tuple, max_distractors: int,
                extra_keypoint: bool) -> dict:
    scores, hand, knife, wrist, _ = SCENES[scene]
    dx, dy = offset
    # Moves score mass between threat and no_threat; the sum stays 1 and
    # every template keeps its classifier verdict.
    jitter = _r4((rng.random() - 0.5) * 0.008)
    threat, no_threat, hand_score = scores
    record = {
        "stream_id": stream_id,
        "frame_id": frame_id,
        "ts_ms": ts_ms,
        "scores": {"threat": _r4(threat + jitter), "no_threat": _r4(no_threat - jitter),
                   "hand": hand_score},
    }
    detections = []
    for label, box in (("hand", hand), ("knife", knife)):
        if box is not None:
            x, y, w, h = box
            detections.append({"label": label, "box": [_r4(x + dx), _r4(y + dy), w, h],
                               "conf": _qualifying_conf(rng),
                               "mask_area": _r4(w * h * 0.6)})
    for _ in range(rng.randint(0, max_distractors)):
        detections.append(_distractor(rng))
    rng.shuffle(detections)
    if detections:
        record["detections"] = detections
    keypoints = []
    if wrist is not None:
        keypoints.append({"name": "right_wrist", "x": _r4(wrist[0] + dx),
                          "y": _r4(wrist[1] + dy), "conf": 0.85})
    if extra_keypoint:
        keypoints.append({"name": rng.choice(NON_WRIST_KEYPOINTS),
                          "x": _r4(rng.random()), "y": _r4(rng.random()),
                          "conf": _r4(rng.random())})
    if keypoints:
        record["keypoints"] = keypoints
    return record


def _scene_offset(rng: random.Random) -> tuple:
    # Keeps every template box, translated, inside the unit square.
    return (_r4(rng.uniform(-0.35, 0.40)), _r4(rng.uniform(-0.25, 0.30)))


_BAD_KINDS = ("truncated", "array", "no_ts", "string_frame_id", "box_out",
              "unknown_label", "scores_sum", "keypoint_conf", "nan_conf")


def _bad_line(rng: random.Random, record: dict) -> str:
    """A line the parser must reject, derived from an otherwise valid
    record so that it looks like real damage."""
    kind = rng.choice(_BAD_KINDS)
    record = dict(record)
    if kind == "truncated":
        line = _dump(record)
        return line[: len(line) // 2]
    if kind == "array":
        return _dump([record])
    if kind == "no_ts":
        del record["ts_ms"]
    elif kind == "string_frame_id":
        record["frame_id"] = str(record["frame_id"])
    elif kind == "box_out":
        record["detections"] = [{"label": "knife", "box": [0.95, 0.5, 0.1, 0.1], "conf": 0.95}]
    elif kind == "unknown_label":
        record["detections"] = [{"label": "fork", "box": [0.4, 0.4, 0.1, 0.1], "conf": 0.95}]
    elif kind == "scores_sum":
        record["scores"] = {"threat": 0.5, "no_threat": 0.5, "hand": 0.5}
    elif kind == "keypoint_conf":
        record["keypoints"] = [{"name": "nose", "x": 0.5, "y": 0.5, "conf": 1.5}]
    else:
        record["detections"] = [{"label": "knife", "box": [0.4, 0.4, 0.1, 0.2],
                                 "conf": float("nan")}]
    return _dump(record)


def _synth_script(seed: int, per_scene: int) -> dict:
    return {"segments": [{"scene": scene, "duration_frames": per_scene, "noise": 0.02}
                         for scene in SCENE_NAMES],
            "seed": seed, "stream_id": "synthetic"}


def gen_synth_score(seed: int, workdir: Path) -> Workload:
    """Acceptance criterion 8's script shape: five equal scene segments,
    noise 0.02, one stream; the seed drives the confidence noise."""
    per_scene = SYNTH_FRAMES // len(SCENE_NAMES)
    script = workdir / "synth-score.json"
    script.write_text(_dump(_synth_script(seed, per_scene)) + "\n")
    setup = workdir / "synth-score-setup.json"
    setup.write_text(_dump({"segments": [{"scene": "knife_overhand", "duration_frames": 1,
                                          "noise": 0.02}], "seed": seed}) + "\n")
    truth = Truth()
    frame_id = 0
    for scene in SCENE_NAMES:
        level = SCENES[scene][4]
        for _ in range(per_scene):
            frame_id += 1
            truth.frames.append(("synthetic", frame_id, FRAME_INTERVAL_MS * (frame_id - 1), level))
    truth.lines = frame_id
    return Workload("synth-score", "score", f"synthetic:{script}", f"synthetic:{setup}",
                    truth, [script, setup])


class _Stream:
    __slots__ = ("stream_id", "next_fid", "ts_base", "plan", "pos", "offset",
                 "last_valid_fid", "first_fid")

    def __init__(self, stream_id: str, first_fid: int, ts_base: int, plan: list,
                 offset: tuple) -> None:
        self.stream_id = stream_id
        self.next_fid = first_fid
        self.first_fid = first_fid
        self.ts_base = ts_base
        self.plan = plan
        self.pos = 0
        self.offset = offset
        self.last_valid_fid = None


def _write_lines(path: Path, lines: list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _emit(rng: random.Random, stream: _Stream, scene: str, truth: Truth, lines: list,
          max_distractors: int, extra_keypoint: bool, stale_prob: float) -> None:
    """Append one line for `stream`: usually its next valid frame, with
    BAD_LINE_PROB a malformed one (which still uses up a frame_id), and
    with stale_prob a repeat of an earlier frame_id."""
    if stale_prob and stream.last_valid_fid is not None and rng.random() < stale_prob:
        fid = max(stream.first_fid, stream.last_valid_fid - rng.randint(0, 3))
        ts = stream.ts_base + FRAME_INTERVAL_MS * fid
        record = _frame_dict(rng, stream.stream_id, fid, ts, scene, stream.offset,
                             max_distractors, extra_keypoint)
        lines.append(_dump(record))
        truth.stale.append((stream.stream_id, fid, ts, SCENES[scene][4]))
        return
    fid = stream.next_fid
    stream.next_fid += 1
    ts = stream.ts_base + FRAME_INTERVAL_MS * fid
    record = _frame_dict(rng, stream.stream_id, fid, ts, scene, stream.offset,
                         max_distractors, extra_keypoint)
    if rng.random() < BAD_LINE_PROB:
        lines.append(_bad_line(rng, record))
        truth.bad_lines += 1
        return
    if not truth.frames:
        truth.first_valid_line = len(lines)
    lines.append(_dump(record))
    truth.frames.append((stream.stream_id, fid, ts, SCENES[scene][4]))
    stream.last_valid_fid = fid


def _segment_plan(rng: random.Random, length_range: tuple) -> list:
    return [rng.choice(SCENE_NAMES)] * rng.randint(*length_range)


def gen_replay_score(seed: int, workdir: Path) -> Workload:
    """A few dozen interleaved streams, each a chain of scene segments,
    with 0-6 sub-threshold distractor detections and one non-wrist
    keypoint per frame, and about 1% malformed lines."""
    rng = random.Random(f"replay-score:{seed}")
    truth = Truth()
    lines: list = []
    streams = [_Stream(f"cam-{i:02d}", rng.randint(1, 5000), rng.randint(0, 10**9),
                       _segment_plan(rng, (10, 120)), _scene_offset(rng))
               for i in range(REPLAY_SCORE_STREAMS)]
    while len(lines) < REPLAY_SCORE_LINES:
        stream = rng.choice(streams)
        if stream.pos == len(stream.plan):
            stream.plan = _segment_plan(rng, (10, 120))
            stream.pos = 0
            stream.offset = _scene_offset(rng)
        scene = stream.plan[stream.pos]
        stream.pos += 1
        _emit(rng, stream, scene, truth, lines, 6, True, 0.0)
    truth.lines = len(lines)
    path = workdir / "replay-score.jsonl"
    _write_lines(path, lines)
    setup = workdir / "replay-score-setup.jsonl"
    _write_lines(setup, [lines[truth.first_valid_line]])
    return Workload("replay-score", "score", f"jsonl:{path}", f"jsonl:{setup}", truth,
                    [path, setup])


def _threat_plan(rng: random.Random) -> list:
    """Cold lead-in, then 1-3 hot bursts (grasped, sometimes turning
    overhand) separated by cold gaps; gaps shorter than n_clear keep the
    alert open, longer ones clear it."""
    plan = [rng.choice(COLD_SCENES)] * rng.randint(0, 5)
    for _ in range(rng.randint(1, 3)):
        hot = rng.randint(1, 12)
        turn = rng.randint(1, hot) if rng.random() < 0.6 else hot
        plan += ["knife_grasped"] * turn + ["knife_overhand"] * (hot - turn)
        plan += [rng.choice(COLD_SCENES)] * rng.randint(1, 14)
    return plan


def gen_replay_watch(seed: int, workdir: Path) -> Workload:
    """Stream churn: about 15,000 short-lived stream ids with a
    few dozen live at once; rare threat streams that raise, escalate and
    clear alerts; about 1% malformed lines and 0.5% stale frame_ids."""
    rng = random.Random(f"replay-watch:{seed}")
    truth = Truth()
    lines: list = []
    made = 0
    threat_streams = 0

    def new_stream() -> _Stream:
        nonlocal made, threat_streams
        made += 1
        if threat_streams < WATCH_MAX_THREAT_STREAMS and rng.random() < WATCH_THREAT_PROB:
            threat_streams += 1
            plan = _threat_plan(rng)
        else:
            plan = [rng.choice(COLD_SCENES)] * rng.randint(1, 4)
        return _Stream(f"s{made:06d}", rng.randint(1, 1000), rng.randint(0, 10**9), plan,
                       _scene_offset(rng))

    live = [new_stream() for _ in range(WATCH_LIVE_STREAMS)]
    while len(lines) < REPLAY_WATCH_LINES:
        slot = rng.randrange(WATCH_LIVE_STREAMS)
        stream = live[slot]
        scene = stream.plan[stream.pos]
        stream.pos += 1
        _emit(rng, stream, scene, truth, lines, 2, False, STALE_LINE_PROB)
        if stream.pos == len(stream.plan):
            live[slot] = new_stream()
    truth.lines = len(lines)
    path = workdir / "replay-watch.jsonl"
    _write_lines(path, lines)
    setup = workdir / "replay-watch-setup.jsonl"
    _write_lines(setup, [lines[truth.first_valid_line]])
    return Workload("replay-watch", "watch", f"jsonl:{path}", f"jsonl:{setup}", truth,
                    [path, setup])


GENERATORS = {
    "synth-score": gen_synth_score,
    "replay-score": gen_replay_score,
    "replay-watch": gen_replay_watch,
}


def generate(name: str, seed: int, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    return GENERATORS[name](seed, workdir)
