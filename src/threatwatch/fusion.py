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
localization, the classifier does not. Everything here is pure and
stateless; frames can be assessed in parallel in any order. score_lines
does so for the worker processes of `score`: it scores one chunk of raw
JSONL lines, and imports nothing beyond this module and frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum, IntEnum
from json.encoder import encode_basestring_ascii as _json_str

from .errors import ThreatwatchError
from .frames import (BoundingBox, ClassScores, FrameRecord, InstanceDetection, KeypointKind, Label,
                     MalformedJson, PoseKeypoint, SchemaViolation, parse_frame_record, parse_lines)

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
    the classifier verdict, the pose gate outcome) and is non-empty whenever
    level is above NONE.
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
    ranked = sorted(
        (
            (scores.no_threat, 0, FrameClass.NO_THREAT_NO_HAND),
            (scores.hand, 1, FrameClass.NO_THREAT_HAND),
            (scores.threat, 2, FrameClass.THREAT),
        ),
        key=lambda t: (-t[0], t[1]),
    )
    top_value, _, top_class = ranked[0]
    second_value = ranked[1][0]
    if second_value == top_value:
        return top_class
    if top_value - second_value < cfg.margin - GEOM_TOL:
        return FrameClass.INDETERMINATE
    return top_class


def is_overhand(hand_box: BoundingBox, knife_box: BoundingBox, cfg: FusionConfig) -> bool:
    """True iff the hand center sits above the knife center by at least
    cfg.epsilon_vert (y grows downward). Horizontal offset is not checked;
    association already bounds proximity. Equal centers are non-threatening.
    """
    return knife_box.center()[1] - hand_box.center()[1] >= cfg.epsilon_vert - GEOM_TOL


# (distance, hand_idx, knife_idx, hand, knife, overhand)
_Edge = tuple[float, int, int, InstanceDetection, InstanceDetection, bool]


def _candidate_edges(
    detections: tuple[InstanceDetection, ...] | list[InstanceDetection], cfg: FusionConfig
) -> list[_Edge]:
    """All (distance, hand_idx, knife_idx, hand, knife, overhand) pairs of
    qualifying detections whose centers lie within cfg.delta_assoc of each
    other, in ascending (distance, hand_idx, knife_idx) order."""
    hands = []
    knives = []
    tau = cfg.tau_det
    for i, det in enumerate(detections):
        if det.conf >= tau:
            (hands if det.label is Label.HAND else knives).append((i, det, det.box.center()))
    if not hands or not knives:
        return []
    limit = cfg.delta_assoc + GEOM_TOL
    edges = []
    for hi, hand, (hcx, hcy) in hands:
        for ki, knife, (kcx, kcy) in knives:
            dist = math.hypot(kcx - hcx, kcy - hcy)
            if dist <= limit:
                edges.append((dist, hi, ki, hand, knife, is_overhand(hand.box, knife.box, cfg)))
    # (hand_idx, knife_idx) is unique, so the sort never compares detections.
    edges.sort()
    return edges


def _match(edges: list[_Edge]) -> list[GraspPair]:
    """Greedy matching over sorted edges, each detection used at most once."""
    used_hands: set[int] = set()
    used_knives: set[int] = set()
    pairs = []
    for dist, hi, ki, hand, knife, overhand in edges:
        if hi in used_hands or ki in used_knives:
            continue
        used_hands.add(hi)
        used_knives.add(ki)
        pairs.append(GraspPair(hand, knife, hi, ki, dist, overhand))
    return pairs


def associate_hand_knife(
    detections: tuple[InstanceDetection, ...] | list[InstanceDetection], cfg: FusionConfig
) -> list[GraspPair]:
    """Pair hands with knives by greedy nearest-center matching.

    Only detections with conf >= cfg.tau_det participate. Candidate pairs
    are those with center distance <= cfg.delta_assoc; matching proceeds in
    ascending distance order (ties broken by lower hand index, then lower
    knife index, in input order) with each detection used at most once.
    """
    return _match(_candidate_edges(detections, cfg))


def pose_gate(
    keypoints: tuple[PoseKeypoint, ...] | list[PoseKeypoint],
    detections: tuple[InstanceDetection, ...] | list[InstanceDetection],
    cfg: FusionConfig,
) -> PoseEvidence:
    """Wrist proximity gate.

    NO_WRIST when no wrist keypoint clears cfg.tau_pose; WRIST_NEAR_KNIFE
    when any qualifying wrist lies within cfg.delta_wrist of a qualifying
    knife box center; WRIST_NO_KNIFE otherwise (a bare fist, the benign
    case a knife detector alone would confuse).
    """
    wrists = [
        kp for kp in keypoints if kp.conf >= cfg.tau_pose and kp.kind() is KeypointKind.WRIST
    ]
    if not wrists:
        return PoseEvidence.NO_WRIST
    limit = cfg.delta_wrist + GEOM_TOL
    for det in detections:
        if det.label is Label.KNIFE and det.conf >= cfg.tau_det:
            kcx, kcy = det.box.center()
            for kp in wrists:
                if math.hypot(kp.x - kcx, kp.y - kcy) <= limit:
                    return PoseEvidence.WRIST_NEAR_KNIFE
    return PoseEvidence.WRIST_NO_KNIFE


def _clamp(value: float, band: tuple[float, float]) -> float:
    lo, hi = band
    return lo if value < lo else hi if value > hi else value


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

    Scores sit inside the level's band: OBJECT_PRESENT at 0.40 + 0.10 * c
    (c = best qualifying knife conf, or the threat probability on the
    classifier-only path), GRASPED at 0.70 + 0.10 * min pair conf over the
    best pair, OVERHAND_THREAT at 0.90 + 0.10 * min pair conf over the best
    overhand candidate, all clamped.
    """
    detections = record.detections
    edges = _candidate_edges(detections, cfg)
    if edges:
        # Every edge set yields at least one pair: GRASPED or above.
        pairs = _match(edges)
        evidence = [f"pair:h{p.hand_index}-k{p.knife_index}{':overhand' if p.overhand else ''}" for p in pairs]
        # Best overhand candidate across all edges, matched or not: strongest
        # min conf, then lowest hand index, then lowest knife index.
        best_overhand = min(
            ((-min(hand.conf, knife.conf), hi, ki) for _, hi, ki, hand, knife, overhand in edges if overhand),
            default=None,
        )
        if best_overhand is None:
            level = ThreatLevel.GRASPED
            strength = max(min(p.hand.conf, p.knife.conf) for p in pairs)
            score = _clamp(0.70 + 0.10 * strength, SCORE_BANDS[level])
        else:
            level = ThreatLevel.OVERHAND_THREAT
            neg_strength, hi, ki = best_overhand
            score = _clamp(0.90 + 0.10 * -neg_strength, SCORE_BANDS[level])
            winning_tag = f"pair:h{hi}-k{ki}:overhand"
            if winning_tag not in evidence:
                evidence.append(winning_tag)
    else:
        best_knife_conf = -1.0
        best_knife_index = -1
        tau = cfg.tau_det
        for i, det in enumerate(detections):
            if det.label is Label.KNIFE and det.conf >= tau and det.conf > best_knife_conf:
                best_knife_conf = det.conf
                best_knife_index = i
        if best_knife_index >= 0:
            level = ThreatLevel.OBJECT_PRESENT
            score = _clamp(0.40 + 0.10 * best_knife_conf, SCORE_BANDS[level])
            evidence = [f"knife:k{best_knife_index}"]
        elif record.scores is not None and classify_scores(record.scores, cfg) is FrameClass.THREAT:
            level = ThreatLevel.OBJECT_PRESENT
            score = _clamp(0.40 + 0.10 * record.scores.threat, SCORE_BANDS[level])
            evidence = ["classifier:threat"]
        else:
            return ThreatAssessment(record.stream_id, record.frame_id, ThreatLevel.NONE, 0.0, ())

    if record.keypoints:
        evidence.append(f"pose:{pose_gate(record.keypoints, detections, cfg).value}")
    return ThreatAssessment(record.stream_id, record.frame_id, level, score, tuple(evidence))


_LEVEL_JSON = {level: _json_str(level.wire) for level in ThreatLevel}


def serialize_assessment(assessment: ThreatAssessment) -> str:
    """One compact JSON line (no trailing newline), byte for byte what
    json.dumps gives for the record with separators (",", ":"): strings
    ASCII-escaped as json.dumps does by default, the score as float repr
    (always finite, since it lies inside its level's band)."""
    return (
        f'{{"stream_id":{_json_str(assessment.stream_id)},"frame_id":{assessment.frame_id},'
        f'"level":{_LEVEL_JSON[assessment.level]},"score":{float.__repr__(assessment.score)},'
        f'"evidence":[{",".join(map(_json_str, assessment.evidence))}]}}'
    )


def score_lines(cfg: FusionConfig, strict: bool, first_line_no: int, lines: list[bytes]
                ) -> tuple[str, int, int, list[ThreatwatchError], ThreatwatchError | None]:
    """Parse, assess and serialize raw JSONL frame lines numbered from
    first_line_no, as `score` does in one process.

    Returns (text, frames, lead, bad, fatal): the assessment lines, each
    ended by LF; how many there are; how many bad lines come before the
    first frame; the bad lines skipped, as exceptions in line order; and,
    when strict, the first bad line's exception, where scoring stopped,
    else None.
    """
    parts: list[str] = []
    bad: list[ThreatwatchError] = []
    lead = 0
    fatal = None
    try:
        for record in parse_lines(lines, first_line_no, parse_frame_record,
                                  None if strict else bad.append):
            if not parts:
                lead = len(bad)
            parts.append(serialize_assessment(assess_frame(record, cfg)))
    except (MalformedJson, SchemaViolation) as exc:
        fatal = exc
    text = "\n".join(parts) + "\n" if parts else ""
    return text, len(parts), lead, bad, fatal
