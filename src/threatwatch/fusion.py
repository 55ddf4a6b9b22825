"""Per-frame evidence fusion.

Combines the three evidence channels of a FrameRecord into one graded
ThreatAssessment:

  * classifier scores -> three-class verdict (with an explicit Indeterminate
    outcome for low-margin outputs, since an alerting system should not act
    on coin-flip scores),
  * hand/knife detections -> proximity-paired grasp hypotheses plus the
    overhand geometry check (hand box center above the knife box center by a
    vertical margin, y-down coordinates),
  * pose keypoints -> a wrist gate, reported in the evidence trail, that
    tells a wrist near a knife from a bare fist.

Detection evidence outranks classifier evidence: detections carry
localization, the classifier does not. One body, _fuse, holds the level,
score and evidence rules. It reads the qualifying hands and knives as
(index, conf, cx, cy) and the keypoints as (name, x, y, conf), so it
takes a FrameRecord (assess_frame) and a frame's validated fields
(frames._frame_fields) alike: _assess_fields makes a frame's score line
or watch frame from its fields with no FrameRecord or ThreatAssessment
built, and _assess_line does so for one JSONL line.

Everything here is pure, stateless and assesses one frame at a time; it
reads no file, so frames can be assessed in parallel in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum, IntEnum
from json.encoder import encode_basestring_ascii as _json_str

from .frames import (BoundingBox, ClassScores, FrameRecord, InstanceDetection, KeypointKind, Label,
                     PoseKeypoint, _frame_fields, _keypoint_kind, _parse_line)

# Absolute slack for comparisons against configured thresholds (distance,
# vertical separation, classifier margin), so that decimal-specified
# boundary cases (centers exactly delta_assoc apart, top-two scores exactly
# margin apart) behave as they would in real arithmetic instead of falling
# to float rounding. Same order as the box-extent slack in frames.
GEOM_TOL = 1e-9


class FrameClass(Enum):
    """Classifier verdict for one frame."""

    THREAT = "threat"
    NO_THREAT_NO_HAND = "no_threat_no_hand"
    NO_THREAT_HAND = "no_threat_hand"
    INDETERMINATE = "indeterminate"


class ThreatLevel(IntEnum):
    """Graded assessment levels, ordered by severity."""

    NONE = 0
    OBJECT_PRESENT = 1
    GRASPED = 2
    OVERHAND_THREAT = 3

    @property
    def wire(self) -> str:
        return self.name.lower()


# Disjoint, ordered score bands per level: (low, high).
SCORE_BANDS = {
    ThreatLevel.NONE: (0.0, 0.0),
    ThreatLevel.OBJECT_PRESENT: (0.40, 0.50),
    ThreatLevel.GRASPED: (0.70, 0.80),
    ThreatLevel.OVERHAND_THREAT: (0.90, 1.00),
}


class PoseEvidence(Enum):
    """Outcome of the wrist gate."""

    WRIST_NEAR_KNIFE = "wrist_near_knife"
    WRIST_NO_KNIFE = "wrist_no_knife"
    NO_WRIST = "no_wrist"


@dataclass(frozen=True, slots=True)
class FusionConfig:
    """Fusion thresholds. All values live in [0, 1].

    tau_det is the detection confidence floor (defaults to the 0.90
    certainty bar the detector is expected to clear); the rest are
    engineering knobs with conservative defaults.
    """

    tau_det: float = 0.90
    delta_assoc: float = 0.25
    epsilon_vert: float = 0.05
    tau_pose: float = 0.50
    delta_wrist: float = 0.20
    margin: float = 0.10

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{f.name} must be within [0, 1], got {v}")


@dataclass(frozen=True, slots=True)
class GraspPair:
    """An associated (hand, knife) detection pair: a held-knife hypothesis.

    Indices refer to positions in the source detection list; overhand is
    precomputed under the config the pair was formed with.
    """

    hand: InstanceDetection
    knife: InstanceDetection
    hand_index: int
    knife_index: int
    center_distance: float
    overhand: bool


@dataclass(frozen=True, slots=True)
class ThreatAssessment:
    """Graded verdict for one frame with its evidence trail.

    The score always lies inside the band of its level; evidence is a list
    of compact tags naming what contributed (pairs, the triggering knife,
    the classifier verdict, the pose gate outcome). Evidence is non-empty
    whenever level is above NONE.
    """

    stream_id: str
    frame_id: int
    level: ThreatLevel
    score: float
    evidence: tuple[str, ...]


def classify_scores(scores: ClassScores, cfg: FusionConfig) -> FrameClass:
    """Three-class decision with a margin guard.

    Returns the argmax class when the top score clears the runner-up by at
    least cfg.margin. An exact tie at the top is resolved toward the
    lower-threat class (no-threat-no-hand, then no-threat-hand, then threat);
    anything else inside the margin is INDETERMINATE.
    """
    return _classify(scores.threat, scores.no_threat, scores.hand, cfg)


def _classify(threat: float, no_threat: float, hand: float, cfg: FusionConfig) -> FrameClass:
    """classify_scores on the three scores."""
    # The top two scores, a class taking the lead only when strictly
    # greater: so an exact tie goes to the class tried first.
    if hand > no_threat:
        top_value, top_class, second_value = hand, FrameClass.NO_THREAT_HAND, no_threat
    else:
        top_value, top_class, second_value = no_threat, FrameClass.NO_THREAT_NO_HAND, hand
    if threat > top_value:
        top_value, top_class, second_value = threat, FrameClass.THREAT, top_value
    elif threat > second_value:
        second_value = threat
    if second_value == top_value:
        return top_class
    if top_value - second_value < cfg.margin - GEOM_TOL:
        return FrameClass.INDETERMINATE
    return top_class


def _rises(hand_cy: float, knife_cy: float, cfg: FusionConfig) -> bool:
    """is_overhand's rule on the two box center heights."""
    return knife_cy - hand_cy >= cfg.epsilon_vert - GEOM_TOL


def is_overhand(hand_box: BoundingBox, knife_box: BoundingBox, cfg: FusionConfig) -> bool:
    """True iff the hand center sits above the knife center by at least
    cfg.epsilon_vert (y grows downward). Horizontal offset is not checked;
    association already bounds proximity. Equal centers are non-threatening."""
    return _rises(hand_box.center()[1], knife_box.center()[1], cfg)


# (index, conf, cx, cy) of a detection with conf >= tau_det: its position
# in the frame's detection list and its box center.
_Qualified = tuple[int, float, float, float]
# (distance, hand_idx, knife_idx, hand conf, knife conf, overhand)
_Edge = tuple[float, int, int, float, float, bool]
# (name, x, y, conf) of a keypoint.
_Keypoint = tuple[str, float, float, float]


def _qualifying(detections: tuple[InstanceDetection, ...] | list[InstanceDetection],
                cfg: FusionConfig) -> tuple[list[_Qualified], list[_Qualified]]:
    """The hands and the knives with conf >= cfg.tau_det, each in input order."""
    hands: list[_Qualified] = []
    knives: list[_Qualified] = []
    for i, det in enumerate(detections):
        if det.conf >= cfg.tau_det:
            (hands if det.label is Label.HAND else knives).append((i, det.conf, *det.box.center()))
    return hands, knives


def _keypoint_fields(keypoints: tuple[PoseKeypoint, ...] | list[PoseKeypoint]) -> list[_Keypoint]:
    """The keypoints as (name, x, y, conf), the form _fuse reads."""
    return [(kp.name, kp.x, kp.y, kp.conf) for kp in keypoints]


def _candidate_edges(hands: list[_Qualified], knives: list[_Qualified], cfg: FusionConfig) -> list[_Edge]:
    """All (distance, hand_idx, knife_idx, hand conf, knife conf, overhand)
    pairs of qualifying detections whose centers lie within
    cfg.delta_assoc of each other, in ascending (distance, hand_idx,
    knife_idx) order."""
    limit = cfg.delta_assoc + GEOM_TOL
    edges = []
    for hi, hconf, hcx, hcy in hands:
        for ki, kconf, kcx, kcy in knives:
            dist = math.hypot(kcx - hcx, kcy - hcy)
            if dist <= limit:
                edges.append((dist, hi, ki, hconf, kconf, _rises(hcy, kcy, cfg)))
    # (hand_idx, knife_idx) is unique, so the sort never compares further.
    edges.sort()
    return edges


def _match(edges: list[_Edge]) -> list[_Edge]:
    """Greedy matching over sorted edges, each detection used at most once."""
    used_hands: set[int] = set()
    used_knives: set[int] = set()
    matched = []
    for edge in edges:
        if edge[1] not in used_hands and edge[2] not in used_knives:
            used_hands.add(edge[1])
            used_knives.add(edge[2])
            matched.append(edge)
    return matched


def associate_hand_knife(
    detections: tuple[InstanceDetection, ...] | list[InstanceDetection], cfg: FusionConfig
) -> list[GraspPair]:
    """Pair hands with knives by greedy nearest-center matching.

    Only detections with conf >= cfg.tau_det participate. Candidate pairs
    are those with center distance <= cfg.delta_assoc; matching proceeds in
    ascending distance order (ties broken by lower hand index, then lower
    knife index, in input order) with each detection used at most once.
    """
    edges = _candidate_edges(*_qualifying(detections, cfg), cfg)
    return [GraspPair(detections[hi], detections[ki], hi, ki, dist, overhand)
            for dist, hi, ki, _, _, overhand in _match(edges)]


def pose_gate(keypoints: tuple[PoseKeypoint, ...] | list[PoseKeypoint],
              detections: tuple[InstanceDetection, ...] | list[InstanceDetection],
              cfg: FusionConfig) -> PoseEvidence:
    """Wrist proximity gate.

    NO_WRIST when no wrist keypoint clears cfg.tau_pose; WRIST_NEAR_KNIFE
    when any qualifying wrist lies within cfg.delta_wrist of a qualifying
    knife box center; WRIST_NO_KNIFE otherwise (a bare fist, the benign
    case a knife detector alone would confuse).
    """
    return _wrist_gate(_keypoint_fields(keypoints), _qualifying(detections, cfg)[1], cfg)


def _wrist_gate(keypoints: tuple[_Keypoint, ...] | list[_Keypoint], knives: list[_Qualified],
                cfg: FusionConfig) -> PoseEvidence:
    """pose_gate over the keypoints' fields and the qualifying knives."""
    tau = cfg.tau_pose
    wrists = [(x, y) for name, x, y, conf in keypoints
              if conf >= tau and _keypoint_kind(name) is KeypointKind.WRIST]
    if not wrists:
        return PoseEvidence.NO_WRIST
    limit = cfg.delta_wrist + GEOM_TOL
    for _, _, kcx, kcy in knives:
        for x, y in wrists:
            if math.hypot(x - kcx, y - kcy) <= limit:
                return PoseEvidence.WRIST_NEAR_KNIFE
    return PoseEvidence.WRIST_NO_KNIFE


def assess_frame(record: FrameRecord, cfg: FusionConfig) -> ThreatAssessment:
    """Fuse one frame's evidence into a graded assessment.

    Level resolution, detection evidence dominating classifier evidence:

      1. any qualifying (hand, knife) candidate within delta_assoc that is
         overhand            -> OVERHAND_THREAT
      2. else any grasp pair -> GRASPED
      3. else any qualifying knife detection -> OBJECT_PRESENT
      4. else classifier says THREAT         -> OBJECT_PRESENT
      5. else NONE

    Step 1 intentionally checks every qualifying candidate, not only the
    greedily matched pairs: a closer non-overhand hand must not be able to
    mask an overhand one, which keeps the level monotone in detection
    confidence (raising any conf never lowers the level, removing a
    detection never raises it).

    Each score is its band's floor + 0.10 * strength, in band by
    construction since every strength lies in [0, 1]: the best qualifying
    knife conf (or, classifier-only, the threat probability) for
    OBJECT_PRESENT; the min pair conf of the best pair for GRASPED, or of
    the best overhand candidate for OVERHAND_THREAT.
    """
    hands, knives = _qualifying(record.detections, cfg)
    scores = record.scores
    level, score, evidence = _fuse(
        hands, knives, None if scores is None else (scores.threat, scores.no_threat, scores.hand),
        _keypoint_fields(record.keypoints) if record.keypoints else (), cfg)
    return ThreatAssessment(record.stream_id, record.frame_id, level, score, evidence)


_POSE_TAGS = {gate: f"pose:{gate.value}" for gate in PoseEvidence}


def _fuse(hands: list[_Qualified], knives: list[_Qualified],
          scores: tuple[float, float, float] | None, keypoints: tuple[_Keypoint, ...] | list[_Keypoint],
          cfg: FusionConfig) -> tuple[ThreatLevel, float, tuple[str, ...]]:
    """assess_frame's (level, score, evidence) of a frame with the given
    qualifying hands and knives, scores (threat, no_threat, hand) or None,
    and keypoints: the one fusion body, which both a FrameRecord
    (assess_frame) and a frame's fields (_assess_fields) go through."""
    edges = _candidate_edges(hands, knives, cfg) if hands and knives else ()
    if edges:
        # Every edge set yields at least one pair: GRASPED or above.
        pairs = _match(edges)
        evidence = [f"pair:h{hi}-k{ki}{':overhand' if overhand else ''}" for _, hi, ki, _, _, overhand in pairs]
        # Best overhand candidate across all edges, matched or not: strongest
        # min conf, then lowest hand index, then lowest knife index.
        best_overhand = min(
            ((-min(hconf, kconf), hi, ki) for _, hi, ki, hconf, kconf, overhand in edges if overhand),
            default=None,
        )
        if best_overhand is None:
            level = ThreatLevel.GRASPED
            strength = max(min(hconf, kconf) for _, _, _, hconf, kconf, _ in pairs)
        else:
            level = ThreatLevel.OVERHAND_THREAT
            neg_strength, hi, ki = best_overhand
            strength = -neg_strength
            winning_tag = f"pair:h{hi}-k{ki}:overhand"
            if winning_tag not in evidence:
                evidence.append(winning_tag)
    elif knives:
        # max keeps the first of equally confident knives.
        ki, strength, _, _ = max(knives, key=lambda q: q[1])
        level, evidence = ThreatLevel.OBJECT_PRESENT, [f"knife:k{ki}"]
    elif scores is not None and _classify(*scores, cfg) is FrameClass.THREAT:
        level, strength, evidence = ThreatLevel.OBJECT_PRESENT, scores[0], ["classifier:threat"]
    else:
        return ThreatLevel.NONE, 0.0, ()

    if keypoints:
        evidence.append(_POSE_TAGS[_wrist_gate(keypoints, knives, cfg)])
    return level, SCORE_BANDS[level][0] + 0.10 * strength, tuple(evidence)


_LEVEL_JSON = {level: _json_str(level.wire) for level in ThreatLevel}


def serialize_assessment(assessment: ThreatAssessment) -> str:
    """One compact JSON line (no trailing newline), byte for byte what
    json.dumps gives for the record with separators (",", ":"): strings
    ASCII-escaped as json.dumps does by default, the score as float repr
    (always finite, since it lies inside its level's band)."""
    return _assessment_line(assessment.stream_id, assessment.frame_id, assessment.level,
                            assessment.score, assessment.evidence)


def _assessment_line(stream_id: str, frame_id: int, level: ThreatLevel, score: float,
                     evidence: tuple[str, ...]) -> str:
    """serialize_assessment of the assessment with these fields."""
    return (
        f'{{"stream_id":{_json_str(stream_id)},"frame_id":{frame_id},'
        f'"level":{_LEVEL_JSON[level]},"score":{float.__repr__(score)},'
        f'"evidence":[{",".join(map(_json_str, evidence))}]}}'
    )


def _assess_fields(frame: tuple, cfg: FusionConfig, watch: bool) -> str | tuple:
    """What score or watch makes of one frame given as its validated
    fields (frames._frame_fields), with no record built: for score,
    serialize_assessment(assess_frame(record, cfg)) of the record with
    those fields; for watch, the frame (stream_id, frame_id, ts_ms, level,
    score) of that assessment."""
    stream_id, frame_id, ts_ms, scores, detections, keypoints = frame
    hands: list[_Qualified] = []
    knives: list[_Qualified] = []
    tau = cfg.tau_det
    for i, (label, x, y, w, h, conf, _) in enumerate(detections):
        if conf >= tau:  # as _qualifying, with the box center of BoundingBox.center
            (hands if label is Label.HAND else knives).append((i, conf, x + w / 2.0, y + h / 2.0))
    level, score, evidence = _fuse(hands, knives, scores, keypoints, cfg)
    if watch:
        return stream_id, frame_id, ts_ms, level, score
    return _assessment_line(stream_id, frame_id, level, score, evidence)


def _assess_line(line: str, line_no: int, cfg: FusionConfig, watch: bool) -> str | tuple:
    """_assess_fields of one JSONL frame line numbered line_no. Raises
    what parse_frame_record raises."""
    return _assess_fields(_parse_line(line, line_no, _frame_fields), cfg, watch)
