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
score and evidence rules, on the qualifying hands and knives as (index,
conf, cx, cy) and the keypoints as (name, x, y, conf): assess_frame feeds
it a FrameRecord, and _assess_fields a frame's validated fields
(frames._frame_fields), making a score line, or a watch frame with no
evidence and no wrist gate, with no FrameRecord or ThreatAssessment built;
_assess_line does so for one JSONL line.

Everything here is pure, stateless and assesses one frame at a time; it
reads no file, so frames can be assessed in parallel in any order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum, IntEnum
from json.encoder import encode_basestring_ascii as _json_str
from math import hypot

from .frames import (BoundingBox, ClassScores, FrameRecord, InstanceDetection, Label,
                     PoseKeypoint, _frame_fields, _parse_line)

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


# Read per frame from these globals: on CPython 3.11 an enum member read
# from its class (ThreatLevel.GRASPED) costs about 0.17 µs.
_NONE, _OBJECT_PRESENT, _GRASPED, _OVERHAND = ThreatLevel
_OBJECT_FLOOR, _GRASPED_FLOOR, _OVERHAND_FLOOR = (SCORE_BANDS[level][0] for level in ThreatLevel if level)
_THREAT, _NO_THREAT_NO_HAND, _NO_THREAT_HAND, _INDETERMINATE = FrameClass
_HAND = Label.HAND
_LEVEL_JSON = {level: _json_str(level.wire) for level in ThreatLevel}
_POSE_GATES = tuple(PoseEvidence)
_POSE_TAGS = tuple(f"pose:{gate.value}" for gate in _POSE_GATES)


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
        top_value, top_class, second_value = hand, _NO_THREAT_HAND, no_threat
    else:
        top_value, top_class, second_value = no_threat, _NO_THREAT_NO_HAND, hand
    if threat > top_value:
        top_value, top_class, second_value = threat, _THREAT, top_value
    elif threat > second_value:
        second_value = threat
    if second_value == top_value:
        return top_class
    if top_value - second_value < cfg.margin - GEOM_TOL:
        return _INDETERMINATE
    return top_class


def is_overhand(hand_box: BoundingBox, knife_box: BoundingBox, cfg: FusionConfig) -> bool:
    """True iff the hand center sits above the knife center by at least
    cfg.epsilon_vert (y grows downward). Horizontal offset is not checked;
    association already bounds proximity. Equal centers are non-threatening."""
    return knife_box.center()[1] - hand_box.center()[1] >= cfg.epsilon_vert - GEOM_TOL


_Qualified = tuple[int, float, float, float]  # (index in the frame, conf, cx, cy), conf >= tau_det
_Edge = tuple[float, int, int, float, float, bool]  # (distance, hand_idx, knife_idx, hconf, kconf, overhand)
_Keypoint = tuple[str, float, float, float]  # (name, x, y, conf)


def _qualifying(detections: tuple[InstanceDetection, ...] | list[InstanceDetection],
                cfg: FusionConfig) -> tuple[list[_Qualified], list[_Qualified]]:
    """The hands and the knives with conf >= cfg.tau_det, each in input order."""
    hands, knives = [], []
    for i, det in enumerate(detections):
        if det.conf >= cfg.tau_det:
            (hands if det.label is _HAND else knives).append((i, det.conf, *det.box.center()))
    return hands, knives


def _keypoint_fields(keypoints: tuple[PoseKeypoint, ...] | list[PoseKeypoint]) -> list[_Keypoint]:
    """The keypoints as (name, x, y, conf), the form _fuse reads."""
    return [(kp.name, kp.x, kp.y, kp.conf) for kp in keypoints]


def _candidate_edges(hands: list[_Qualified], knives: list[_Qualified], cfg: FusionConfig) -> list[_Edge]:
    """The edges of the qualifying hands and knives whose centers lie within
    cfg.delta_assoc, hand by hand; overhand is is_overhand's rule."""
    limit = cfg.delta_assoc + GEOM_TOL
    rise = cfg.epsilon_vert - GEOM_TOL
    edges = []
    for hi, hconf, hcx, hcy in hands:
        for ki, kconf, kcx, kcy in knives:
            dist = hypot(kcx - hcx, kcy - hcy)
            if dist <= limit:
                edges.append((dist, hi, ki, hconf, kconf, kcy - hcy >= rise))
    return edges


def _match(edges: list[_Edge]) -> list[_Edge]:
    """Greedy matching in ascending (distance, hand_idx, knife_idx) order, each
    detection used at most once. Sorts edges in place; a lone edge is kept."""
    if len(edges) == 1:
        return edges
    # (hand_idx, knife_idx) is unique, so the sort never compares further.
    edges.sort()
    used_hands, used_knives, matched = set(), set(), []
    for edge in edges:
        if edge[1] not in used_hands and edge[2] not in used_knives:
            used_hands.add(edge[1])
            used_knives.add(edge[2])
            matched.append(edge)
    return matched


def associate_hand_knife(detections: tuple[InstanceDetection, ...] | list[InstanceDetection],
                         cfg: FusionConfig) -> list[GraspPair]:
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
    return _POSE_GATES[_wrist_gate(_keypoint_fields(keypoints), _qualifying(detections, cfg)[1], cfg)]


def _wrist_gate(keypoints: tuple[_Keypoint, ...] | list[_Keypoint], knives: list[_Qualified],
                cfg: FusionConfig) -> int:
    """pose_gate over the keypoints' fields and the qualifying knives, as its
    index in _POSE_GATES. A wrist's lowered name holds "wrist", the first
    kind (KeypointKind.WRIST) that frames._keypoint_kind tries."""
    tau = cfg.tau_pose
    limit = cfg.delta_wrist + GEOM_TOL
    gate = 2
    for name, x, y, conf in keypoints:
        if conf >= tau and "wrist" in name.lower():
            for _, _, kcx, kcy in knives:
                if hypot(x - kcx, y - kcy) <= limit:
                    return 0
            gate = 1
    return gate


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
    c = record.scores
    scores = None if c is None else (c.threat, c.no_threat, c.hand)
    return ThreatAssessment(record.stream_id, record.frame_id, *_fuse(
        *_qualifying(record.detections, cfg), scores, _keypoint_fields(record.keypoints), cfg, True))


def _fuse(hands: list[_Qualified], knives: list[_Qualified],
          scores: tuple[float, float, float] | None, keypoints: tuple[_Keypoint, ...] | list[_Keypoint],
          cfg: FusionConfig, trail: bool) -> tuple[ThreatLevel, float, tuple[str, ...]]:
    """assess_frame's (level, score, evidence) of a frame with the given
    qualifying hands and knives, scores (threat, no_threat, hand) or None,
    and keypoints: the one fusion body, behind assess_frame and
    _assess_fields. With trail false the evidence is () and the wrist gate,
    which changes nothing else, is not run."""
    edges = _candidate_edges(hands, knives, cfg) if hands and knives else None
    if edges:
        # Best overhand candidate across all edges, matched or not: strongest
        # min conf, then lowest hand index, then lowest knife index.
        strength, best = -1.0, None
        for _, hi, ki, hconf, kconf, overhand in edges:
            if overhand:
                conf = hconf if hconf < kconf else kconf
                if conf > strength or conf == strength and (hi, ki) < best:
                    strength, best = conf, (hi, ki)
        pairs = _match(edges) if trail or best is None else ()
        if best is None:
            for _, _, _, hconf, kconf, _ in pairs:  # every edge set yields a pair
                conf = hconf if hconf < kconf else kconf
                if conf > strength:
                    strength = conf
            level, score = _GRASPED, _GRASPED_FLOOR + 0.10 * strength
        else:
            level, score = _OVERHAND, _OVERHAND_FLOOR + 0.10 * strength
        if not trail:
            return level, score, ()
        evidence = [f"pair:h{hi}-k{ki}{':overhand' if overhand else ''}" for _, hi, ki, _, _, overhand in pairs]
        if best is not None and (winning_tag := "pair:h%d-k%d:overhand" % best) not in evidence:
            evidence.append(winning_tag)
    elif knives:
        ki, strength = knives[0][:2]
        for i, conf, _, _ in knives:
            if conf > strength:  # so the first of equally confident knives
                ki, strength = i, conf
        level, score, evidence = _OBJECT_PRESENT, _OBJECT_FLOOR + 0.10 * strength, [f"knife:k{ki}"]
    elif scores is not None and _classify(*scores, cfg) is _THREAT:
        level, score, evidence = _OBJECT_PRESENT, _OBJECT_FLOOR + 0.10 * scores[0], ["classifier:threat"]
    else:
        return _NONE, 0.0, ()
    if not trail:
        return level, score, ()
    if keypoints:
        evidence.append(_POSE_TAGS[_wrist_gate(keypoints, knives, cfg)])
    return level, score, tuple(evidence)


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
        f'"evidence":[{",".join(map(_json_str, evidence)) if evidence else ""}]}}'
    )


def _assess_fields(frame: tuple, cfg: FusionConfig, watch: bool) -> str | tuple:
    """What score or watch makes of one frame given as its validated
    fields (frames._frame_fields), with no record built: for score,
    serialize_assessment(assess_frame(record, cfg)) of the record with
    those fields; for watch, the frame (stream_id, frame_id, ts_ms, level,
    score) of that assessment, for which _fuse writes no evidence and runs
    no wrist gate."""
    stream_id, frame_id, ts_ms, scores, detections, keypoints = frame
    hands, knives = [], []
    tau = cfg.tau_det
    for i, (label, x, y, w, h, conf, _) in enumerate(detections):
        if conf >= tau:  # as _qualifying, with the box center of BoundingBox.center
            (hands if label is _HAND else knives).append((i, conf, x + w / 2.0, y + h / 2.0))
    level, score, evidence = _fuse(hands, knives, scores, keypoints, cfg, not watch)
    if watch:
        return stream_id, frame_id, ts_ms, level, score
    return _assessment_line(stream_id, frame_id, level, score, evidence)


def _assess_line(line: str, line_no: int, cfg: FusionConfig, watch: bool) -> str | tuple:
    """_assess_fields of one JSONL frame line numbered line_no. Raises
    what parse_frame_record raises."""
    return _assess_fields(_parse_line(line, line_no, _frame_fields), cfg, watch)
