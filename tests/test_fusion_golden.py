"""Fusion golden lines: assess_frame + serialize_assessment output, byte for
byte, for hand-built frames covering distance ties, overhand masking,
sub-threshold detections, the pose gate and classifier-only paths.

Coordinates are binary fractions so that tied center distances are exact.
The expected lines were recorded from the fusion code before its matcher
was shared between associate_hand_knife and assess_frame; any change to a
line is a change in output, not a refactor.
"""

import pytest

from threatwatch.frames import (BoundingBox, ClassScores, FrameRecord, InstanceDetection, Label, PoseKeypoint,
                                serialize_frame_record)
from threatwatch.fusion import (FusionConfig, ThreatAssessment, ThreatLevel, _assess_line, assess_frame,
                                serialize_assessment)

CFG = FusionConfig()


def det(label, cx, cy, conf, w=0.125, h=0.125):
    return InstanceDetection(label, BoundingBox(cx - w / 2, cy - h / 2, w, h), conf)


def H(cx, cy, conf=0.95):
    return det(Label.HAND, cx, cy, conf)


def K(cx, cy, conf=0.93):
    return det(Label.KNIFE, cx, cy, conf)


def wrist(x, y, conf=0.85):
    return PoseKeypoint("right_wrist", x, y, conf)


# (name, detections, keypoints, scores, expected line); frame_id is the
# 1-based position in this table.
CASES = [
    ("tie_two_knives_one_hand", [H(0.5, 0.5), K(0.375, 0.5), K(0.625, 0.5)], [], None,
     '{"stream_id":"golden","frame_id":1,"level":"grasped","score":0.7929999999999999,"evidence":["pair:h0-k1"]}'),
    ("tie_square_overhand_first", [H(0.375, 0.375), K(0.375, 0.5), K(0.5, 0.375), H(0.5, 0.5, conf=0.97)], [], None,
     '{"stream_id":"golden","frame_id":2,"level":"overhand_threat","score":0.993,"evidence":["pair:h0-k1:overhand","pair:h3-k2"]}'),
    ("tie_overhand_strength", [H(0.5, 0.25, conf=0.96), K(0.5, 0.375, conf=0.94), H(0.625, 0.25, conf=0.96), K(0.625, 0.375, conf=0.94)], [], None,
     '{"stream_id":"golden","frame_id":3,"level":"overhand_threat","score":0.994,"evidence":["pair:h0-k1:overhand","pair:h2-k3:overhand"]}'),
    ("unmatched_overhand_outranks_pair", [H(0.5, 0.5, conf=0.99), K(0.5625, 0.5), H(0.5, 0.375, conf=0.91)], [], None,
     '{"stream_id":"golden","frame_id":4,"level":"overhand_threat","score":0.991,"evidence":["pair:h0-k1","pair:h2-k1:overhand"]}'),
    ("grasped_two_pairs", [H(0.25, 0.5, conf=0.92), K(0.25, 0.5), H(0.75, 0.5, conf=0.98), K(0.8125, 0.5, conf=0.97)], [], None,
     '{"stream_id":"golden","frame_id":5,"level":"grasped","score":0.7969999999999999,"evidence":["pair:h0-k1","pair:h2-k3"]}'),
    ("sub_tau_hand_knife_only", [H(0.5, 0.375, conf=0.89), K(0.5, 0.5, conf=0.95)], [], None,
     '{"stream_id":"golden","frame_id":6,"level":"object_present","score":0.495,"evidence":["knife:k1"]}'),
    ("sub_tau_knives_only", [H(0.5, 0.375), K(0.5, 0.5, conf=0.5), K(0.25, 0.25, conf=0.899)], [], ClassScores(0.05, 0.05, 0.9),
     '{"stream_id":"golden","frame_id":7,"level":"none","score":0.0,"evidence":[]}'),
    ("best_knife_first_of_equal", [K(0.25, 0.25, conf=0.94), K(0.75, 0.75, conf=0.96), K(0.5, 0.5, conf=0.96)], [], None,
     '{"stream_id":"golden","frame_id":8,"level":"object_present","score":0.496,"evidence":["knife:k1"]}'),
    ("out_of_range_pair", [H(0.125, 0.125), K(0.875, 0.875)], [], None,
     '{"stream_id":"golden","frame_id":9,"level":"object_present","score":0.49300000000000005,"evidence":["knife:k1"]}'),
    ("near_wrist_overhand", [H(0.5, 0.25), K(0.5, 0.375)], [wrist(0.5, 0.3125), wrist(0.9, 0.9)], None,
     '{"stream_id":"golden","frame_id":10,"level":"overhand_threat","score":0.993,"evidence":["pair:h0-k1:overhand","pose:wrist_near_knife"]}'),
    ("far_wrist_grasped", [H(0.5, 0.5), K(0.5625, 0.5)], [wrist(0.125, 0.125)], None,
     '{"stream_id":"golden","frame_id":11,"level":"grasped","score":0.7929999999999999,"evidence":["pair:h0-k1","pose:wrist_no_knife"]}'),
    ("no_wrist_low_conf_and_elbow", [K(0.5, 0.5)], [wrist(0.5, 0.5, conf=0.3), PoseKeypoint("left_elbow", 0.5, 0.5, 0.99)], None,
     '{"stream_id":"golden","frame_id":12,"level":"object_present","score":0.49300000000000005,"evidence":["knife:k0","pose:no_wrist"]}'),
    ("wrist_near_sub_tau_knife", [K(0.5, 0.5, conf=0.85), K(0.25, 0.25)], [wrist(0.5, 0.5)], None,
     '{"stream_id":"golden","frame_id":13,"level":"object_present","score":0.49300000000000005,"evidence":["knife:k1","pose:wrist_no_knife"]}'),
    ("classifier_only_threat", [], [], ClassScores(0.8, 0.15, 0.05),
     '{"stream_id":"golden","frame_id":14,"level":"object_present","score":0.48000000000000004,"evidence":["classifier:threat"]}'),
    ("classifier_only_threat_with_wrist", [H(0.5, 0.5)], [wrist(0.5, 0.5)], ClassScores(0.7, 0.2, 0.1),
     '{"stream_id":"golden","frame_id":15,"level":"object_present","score":0.47000000000000003,"evidence":["classifier:threat","pose:wrist_no_knife"]}'),
    ("classifier_indeterminate", [], [wrist(0.5, 0.5)], ClassScores(0.40, 0.35, 0.25),
     '{"stream_id":"golden","frame_id":16,"level":"none","score":0.0,"evidence":[]}'),
    ("classifier_margin_tie", [], [], ClassScores(0.45, 0.45, 0.10),
     '{"stream_id":"golden","frame_id":17,"level":"none","score":0.0,"evidence":[]}'),
    ("none_with_keypoints", [H(0.5, 0.5)], [wrist(0.5, 0.5), PoseKeypoint("nose", 0.5, 0.25, 0.9)], ClassScores(0.05, 0.9, 0.05),
     '{"stream_id":"golden","frame_id":18,"level":"none","score":0.0,"evidence":[]}'),
    ("empty", [], [], None,
     '{"stream_id":"golden","frame_id":19,"level":"none","score":0.0,"evidence":[]}'),
]


# Each case as a record (assess_frame), and as a JSONL line (the per-line
# path of the worker processes, which builds no record), id "<name>-jsonl".
GOLDEN_INPUTS = [(frame_id, case, via) for via in ("record", "jsonl")
                 for frame_id, case in enumerate(CASES, start=1)]


@pytest.mark.parametrize("frame_id, case, via", GOLDEN_INPUTS,
                         ids=[c[0] if via == "record" else f"{c[0]}-{via}" for _, c, via in GOLDEN_INPUTS])
def test_golden_assessment_line(frame_id, case, via):
    _, detections, keypoints, scores, expected = case
    record = FrameRecord("golden", frame_id, 33 * frame_id, scores=scores,
                         detections=tuple(detections), keypoints=tuple(keypoints))
    if via == "record":
        assert serialize_assessment(assess_frame(record, CFG)) == expected
    else:
        assert _assess_line(serialize_frame_record(record), frame_id, CFG, False) == expected


# (name, stream_id, frame_id, level, score, evidence, expected line): string
# escaping and number formatting, recorded from json.dumps(...,
# separators=(",", ":")), which serialize_assessment must match byte for
# byte.
ESCAPES = [
    ("quote_backslash", 'cam "a"\\b', 2**64 - 1, ThreatLevel.NONE, 0.0, (),
     '{"stream_id":"cam \\"a\\"\\\\b","frame_id":18446744073709551615,"level":"none","score":0.0,"evidence":[]}'),
    ("control_chars", "cam\x01\t\n\x7f", 0, ThreatLevel.OBJECT_PRESENT, 0.4, ("knife:k0",),
     '{"stream_id":"cam\\u0001\\t\\n\\u007f","frame_id":0,"level":"object_present","score":0.4,"evidence":["knife:k0"]}'),
    ("latin1", "caméra", 7, ThreatLevel.GRASPED, 0.7929999999999999, ("pair:h0-k1", "pose:no_wrist"),
     '{"stream_id":"cam\\u00e9ra","frame_id":7,"level":"grasped","score":0.7929999999999999,"evidence":["pair:h0-k1","pose:no_wrist"]}'),
    ("non_bmp", "cam-\U0001F52A", 12, ThreatLevel.OVERHAND_THREAT, 1.0, ("pair:h0-k1:overhand",),
     '{"stream_id":"cam-\\ud83d\\udd2a","frame_id":12,"level":"overhand_threat","score":1.0,"evidence":["pair:h0-k1:overhand"]}'),
    ("lone_surrogate", "cam\ud800", 1, ThreatLevel.NONE, 0.0, (),
     '{"stream_id":"cam\\ud800","frame_id":1,"level":"none","score":0.0,"evidence":[]}'),
]


@pytest.mark.parametrize("case", ESCAPES, ids=[c[0] for c in ESCAPES])
def test_serialize_assessment_escaping(case):
    _, stream_id, frame_id, level, score, evidence, expected = case
    assessment = ThreatAssessment(stream_id, frame_id, level, score, evidence)
    assert serialize_assessment(assessment) == expected
