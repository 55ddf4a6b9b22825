"""Fusion engine: classification, association, overhand rule, pose gate,
and graded frame assessment."""

import math
import random

import pytest

from threatwatch.frames import (
    BoundingBox,
    ClassScores,
    FrameRecord,
    InstanceDetection,
    Label,
    PoseKeypoint,
)
from threatwatch.fusion import (
    SCORE_BANDS,
    FrameClass,
    FusionConfig,
    PoseEvidence,
    ThreatLevel,
    assess_frame,
    associate_hand_knife,
    classify_scores,
    is_overhand,
    pose_gate,
    serialize_assessment,
)

CFG = FusionConfig()


def hand(x, y, w=0.10, h=0.10, conf=0.95):
    return InstanceDetection(Label.HAND, BoundingBox(x, y, w, h), conf)


def knife(x, y, w=0.10, h=0.10, conf=0.93):
    return InstanceDetection(Label.KNIFE, BoundingBox(x, y, w, h), conf)


def record(detections=(), keypoints=(), scores=None, frame_id=1):
    return FrameRecord("s", frame_id, 0, scores=scores,
                       detections=tuple(detections), keypoints=tuple(keypoints))


def test_classify_clear_argmax():
    assert classify_scores(ClassScores(0.98, 0.01, 0.01), CFG) is FrameClass.THREAT


def test_classify_low_margin_is_indeterminate():
    assert classify_scores(ClassScores(0.34, 0.33, 0.33), CFG) is FrameClass.INDETERMINATE


def test_classify_exact_tie_breaks_low():
    assert classify_scores(ClassScores(0.45, 0.45, 0.10), CFG) is FrameClass.NO_THREAT_NO_HAND
    assert classify_scores(ClassScores(0.45, 0.10, 0.45), CFG) is FrameClass.NO_THREAT_HAND
    third = 1.0 / 3.0
    assert classify_scores(ClassScores(third, third, third), CFG) is FrameClass.NO_THREAT_NO_HAND


def test_classify_margin_boundary():
    # margin exactly 0.10 counts as decisive
    assert classify_scores(ClassScores(0.50, 0.40, 0.10), CFG) is FrameClass.THREAT


def test_classify_scale_invariance():
    rng = random.Random(11)
    for _ in range(200):
        raw = [rng.random() + 1e-6 for _ in range(3)]
        total = sum(raw)
        base = ClassScores(raw[0] / total, raw[1] / total, raw[2] / total)
        # renormalizing after a common positive scale is a no-op numerically
        k = rng.uniform(0.1, 10.0)
        scaled = [v * k for v in (base.threat, base.no_threat, base.hand)]
        st = sum(scaled)
        again = ClassScores(scaled[0] / st, scaled[1] / st, scaled[2] / st)
        assert classify_scores(base, CFG) is classify_scores(again, CFG)


def test_associate_distance_gate():
    # centers (0.45, 0.25) and (0.46, 0.55): distance ~0.3002 > 0.25
    far = [hand(0.40, 0.20), knife(0.42, 0.45, w=0.08, h=0.20)]
    assert associate_hand_knife(far, CFG) == []

    # centers (0.45, 0.35) and (0.46, 0.55): distance ~0.2002 <= 0.25
    near = [hand(0.40, 0.30), knife(0.42, 0.45, w=0.08, h=0.20)]
    pairs = associate_hand_knife(near, CFG)
    assert len(pairs) == 1
    assert pairs[0].hand_index == 0
    assert pairs[0].knife_index == 1
    assert math.isclose(pairs[0].center_distance, math.hypot(0.01, 0.20), rel_tol=1e-12)


def test_associate_empty_and_confidence_floor():
    assert associate_hand_knife([], CFG) == []
    low = [hand(0.40, 0.30, conf=0.95), knife(0.42, 0.45, w=0.08, h=0.20, conf=0.85)]
    assert associate_hand_knife(low, CFG) == []


def test_associate_boundary_distance_included():
    # centers exactly 0.25 apart: (0.35, 0.45) to (0.55, 0.60)
    dets = [hand(0.30, 0.40), knife(0.50, 0.55)]
    assert len(associate_hand_knife(dets, CFG)) == 1


def test_associate_each_detection_used_once():
    # one knife, two hands: nearer hand wins, farther hand unmatched
    dets = [hand(0.30, 0.50), hand(0.42, 0.50), knife(0.50, 0.50)]
    pairs = associate_hand_knife(dets, CFG)
    assert len(pairs) == 1
    assert pairs[0].hand_index == 1


def test_associate_tie_breaks_by_input_order():
    # two hands mirrored around the knife at identical distance
    dets = [hand(0.60, 0.50), hand(0.40, 0.50), knife(0.50, 0.50)]
    pairs = associate_hand_knife(dets, CFG)
    assert len(pairs) == 1
    assert pairs[0].hand_index == 0


def test_associate_greedy_two_pairs():
    dets = [hand(0.20, 0.20), knife(0.22, 0.28), hand(0.70, 0.70), knife(0.72, 0.78)]
    pairs = associate_hand_knife(dets, CFG)
    assert {(p.hand_index, p.knife_index) for p in pairs} == {(0, 1), (2, 3)}


def test_is_overhand_rule():
    cfg = CFG
    above = BoundingBox(0.45, 0.25, 0.10, 0.10)   # center (0.5, 0.30)
    below = BoundingBox(0.45, 0.55, 0.10, 0.10)   # center (0.5, 0.60)
    assert is_overhand(above, below, cfg)
    assert not is_overhand(above, above, cfg)
    assert not is_overhand(below, above, cfg)


def test_is_overhand_margin_boundary():
    h = BoundingBox(0.45, 0.25, 0.10, 0.10)       # center y 0.30
    k_at = BoundingBox(0.45, 0.30, 0.10, 0.10)    # center y 0.35, separation 0.05
    k_in = BoundingBox(0.45, 0.29, 0.10, 0.10)    # separation 0.04
    assert is_overhand(h, k_at, CFG)
    assert not is_overhand(h, k_in, CFG)


def test_pose_gate_near_knife():
    kps = [PoseKeypoint("wrist", 0.5, 0.5, 0.9)]
    dets = [knife(0.50, 0.50, w=0.10, h=0.10)]   # center (0.55, 0.55), dist ~0.0707
    assert pose_gate(kps, dets, CFG) is PoseEvidence.WRIST_NEAR_KNIFE


def test_pose_gate_confidence_floor():
    kps = [PoseKeypoint("wrist", 0.5, 0.5, 0.3)]
    dets = [knife(0.50, 0.50)]
    assert pose_gate(kps, dets, CFG) is PoseEvidence.NO_WRIST
    assert pose_gate([], dets, CFG) is PoseEvidence.NO_WRIST


def test_pose_gate_no_knife():
    kps = [PoseKeypoint("wrist", 0.5, 0.5, 0.9)]
    assert pose_gate(kps, [], CFG) is PoseEvidence.WRIST_NO_KNIFE
    low_knife = [knife(0.50, 0.50, conf=0.5)]
    assert pose_gate(kps, low_knife, CFG) is PoseEvidence.WRIST_NO_KNIFE


def test_pose_gate_non_wrist_keypoints_ignored():
    kps = [PoseKeypoint("elbow", 0.5, 0.5, 0.9), PoseKeypoint("nose", 0.5, 0.5, 0.9)]
    assert pose_gate(kps, [knife(0.5, 0.5)], CFG) is PoseEvidence.NO_WRIST


def test_assess_overhand_boundary_case():
    rec = record(detections=[
        hand(0.45, 0.25, conf=0.95),
        knife(0.45, 0.45, w=0.10, h=0.20, conf=0.93),
    ])
    a = assess_frame(rec, CFG)
    assert a.level is ThreatLevel.OVERHAND_THREAT
    assert math.isclose(a.score, 0.993, abs_tol=1e-12)
    assert "pair:h0-k1:overhand" in a.evidence


def test_assess_evidence_free():
    a = assess_frame(record(), CFG)
    assert a.level is ThreatLevel.NONE
    assert a.score == 0.0
    assert a.evidence == ()


def test_assess_classifier_only_escalation():
    rec = record(scores=ClassScores(0.98, 0.01, 0.01))
    a = assess_frame(rec, CFG)
    assert a.level is ThreatLevel.OBJECT_PRESENT
    assert math.isclose(a.score, 0.498, abs_tol=1e-12)
    assert a.evidence == ("classifier:threat",)


def test_assess_knife_only_detection():
    rec = record(detections=[knife(0.40, 0.50, conf=0.93)])
    a = assess_frame(rec, CFG)
    assert a.level is ThreatLevel.OBJECT_PRESENT
    assert math.isclose(a.score, 0.40 + 0.10 * 0.93, abs_tol=1e-12)
    assert a.evidence == ("knife:k0",)


def test_assess_grasp_without_overhand():
    rec = record(detections=[hand(0.40, 0.46), knife(0.51, 0.44, w=0.08, h=0.18)])
    a = assess_frame(rec, CFG)
    assert a.level is ThreatLevel.GRASPED
    assert math.isclose(a.score, 0.70 + 0.10 * 0.93, abs_tol=1e-12)
    assert a.evidence == ("pair:h0-k1",)


def test_assess_detection_outranks_classifier():
    # classifier says benign hand, but a grasped knife is in frame
    rec = record(
        detections=[hand(0.40, 0.46), knife(0.51, 0.44, w=0.08, h=0.18)],
        scores=ClassScores(0.02, 0.08, 0.90),
    )
    assert assess_frame(rec, CFG).level is ThreatLevel.GRASPED


def test_assess_non_threat_classifier_stays_none():
    rec = record(scores=ClassScores(0.01, 0.98, 0.01))
    a = assess_frame(rec, CFG)
    assert a.level is ThreatLevel.NONE
    assert a.evidence == ()


def test_assess_pose_tag_present_when_keypoints_given():
    rec = record(
        detections=[knife(0.40, 0.50, conf=0.93)],
        keypoints=[PoseKeypoint("left_wrist", 0.45, 0.55, 0.9)],
    )
    a = assess_frame(rec, CFG)
    assert "pose:wrist_near_knife" in a.evidence

    bare_fist = record(
        detections=[hand(0.40, 0.50)],
        keypoints=[PoseKeypoint("left_wrist", 0.45, 0.55, 0.9)],
        scores=ClassScores(0.98, 0.01, 0.01),
    )
    b = assess_frame(bare_fist, CFG)
    assert b.level is ThreatLevel.OBJECT_PRESENT
    assert "pose:wrist_no_knife" in b.evidence


def test_assess_closer_benign_hand_cannot_mask_overhand():
    # knife center (0.55, 0.60); hand A overhand at distance 0.25;
    # hand B closer but level with the knife
    dets = [
        hand(0.30, 0.40, conf=0.95),              # center (0.35, 0.45), overhand
        hand(0.44, 0.55, conf=0.99),              # center (0.49, 0.60), not overhand
        knife(0.50, 0.55, conf=0.93),             # center (0.55, 0.60)
    ]
    a = assess_frame(record(detections=dets), CFG)
    assert a.level is ThreatLevel.OVERHAND_THREAT
    assert "pair:h0-k2:overhand" in a.evidence


def test_assess_score_in_band_for_conf_one():
    dets = [hand(0.45, 0.25, conf=1.0), knife(0.45, 0.45, w=0.10, h=0.20, conf=1.0)]
    a = assess_frame(record(detections=dets), CFG)
    assert a.level is ThreatLevel.OVERHAND_THREAT
    assert a.score == 1.0


def test_assess_translation_invariance():
    base = [hand(0.30, 0.20), knife(0.35, 0.40)]
    moved = [hand(0.50, 0.45), knife(0.55, 0.65)]
    a = assess_frame(record(detections=base), CFG)
    b = assess_frame(record(detections=moved), CFG)
    assert a.level is b.level
    assert a.score == b.score


def test_assess_determinism():
    rec = record(
        detections=[hand(0.40, 0.30), knife(0.42, 0.45, w=0.08, h=0.20)],
        keypoints=[PoseKeypoint("wrist", 0.45, 0.5, 0.9)],
        scores=ClassScores(0.7, 0.2, 0.1),
    )
    first = assess_frame(rec, CFG)
    assert all(assess_frame(rec, CFG) == first for _ in range(10))
    assert serialize_assessment(first) == serialize_assessment(assess_frame(rec, CFG))


def test_assessment_wire_format():
    rec = record(detections=[knife(0.40, 0.50, conf=0.93)], frame_id=9)
    import json
    data = json.loads(serialize_assessment(assess_frame(rec, CFG)))
    assert data["stream_id"] == "s"
    assert data["frame_id"] == 9
    assert data["level"] == "object_present"
    assert math.isclose(data["score"], 0.493, abs_tol=1e-12)
    assert data["evidence"] == ["knife:k0"]


def test_level_wire_names():
    assert ThreatLevel.OVERHAND_THREAT.wire == "overhand_threat"
    assert ThreatLevel.NONE < ThreatLevel.OBJECT_PRESENT < ThreatLevel.GRASPED < ThreatLevel.OVERHAND_THREAT


def test_config_validation():
    with pytest.raises(ValueError):
        FusionConfig(tau_det=1.5)
    with pytest.raises(ValueError):
        FusionConfig(margin=-0.1)


def _random_record(rng):
    detections = []
    for _ in range(rng.randrange(0, 4)):
        label = rng.choice((Label.HAND, Label.KNIFE))
        x = rng.uniform(0.0, 0.8)
        y = rng.uniform(0.0, 0.8)
        w = rng.uniform(0.02, 0.2)
        h = rng.uniform(0.02, 0.2)
        detections.append(InstanceDetection(label, BoundingBox(x, y, w, h), rng.random()))
    keypoints = []
    for _ in range(rng.randrange(0, 3)):
        name = rng.choice(("wrist", "left_wrist", "elbow", "nose"))
        keypoints.append(PoseKeypoint(name, rng.random(), rng.random(), rng.random()))
    scores = None
    if rng.random() < 0.5:
        raw = [rng.random() + 1e-9 for _ in range(3)]
        total = sum(raw)
        scores = ClassScores(raw[0] / total, raw[1] / total, raw[2] / total)
    return record(detections=detections, keypoints=keypoints, scores=scores)


def test_score_band_soundness_sample():
    rng = random.Random(3)
    for _ in range(500):
        a = assess_frame(_random_record(rng), CFG)
        lo, hi = SCORE_BANDS[a.level]
        assert lo <= a.score <= hi
        if a.level is not ThreatLevel.NONE:
            assert a.evidence
        else:
            assert a.evidence == ()
