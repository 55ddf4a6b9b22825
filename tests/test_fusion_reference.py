"""Fusion against a frozen reference: the fusion body as it stood before it
was made to skip the evidence a watch frame does not write, copied below
line for line, less annotations and docstrings. Every path into today's body, _assess_fields for score and
for watch and assess_frame on the frame's record, must give what the
reference gives, byte for byte.

Coordinates are binary fractions so that tied center distances are exact;
confidences sit on and just under the thresholds, and keypoint names are
matched by substring and case as frames._keypoint_kind matches them.
"""

import math

from hypothesis import given, settings, strategies as st

from threatwatch import frames
from threatwatch.frames import KeypointKind, Label, _keypoint_kind
from threatwatch.fusion import (GEOM_TOL, SCORE_BANDS, FrameClass, FusionConfig, PoseEvidence, ThreatLevel,
                                _assess_fields, _json_str, assess_frame, serialize_assessment)

# ---- The reference, verbatim, with the helpers it reads. ----


def _classify(threat, no_threat, hand, cfg):
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


def _rises(hand_cy, knife_cy, cfg):
    return knife_cy - hand_cy >= cfg.epsilon_vert - GEOM_TOL


def _candidate_edges(hands, knives, cfg):
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


def _match(edges):
    used_hands = set()
    used_knives = set()
    matched = []
    for edge in edges:
        if edge[1] not in used_hands and edge[2] not in used_knives:
            used_hands.add(edge[1])
            used_knives.add(edge[2])
            matched.append(edge)
    return matched


def _wrist_gate(keypoints, knives, cfg):
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


_POSE_TAGS = {gate: f"pose:{gate.value}" for gate in PoseEvidence}


def _fuse(hands, knives, scores, keypoints, cfg):
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


def _assessment_line(stream_id, frame_id, level, score, evidence):
    return (
        f'{{"stream_id":{_json_str(stream_id)},"frame_id":{frame_id},'
        f'"level":{_LEVEL_JSON[level]},"score":{float.__repr__(score)},'
        f'"evidence":[{",".join(map(_json_str, evidence))}]}}'
    )

# ---- The checks. ----


def reference(frame, cfg):
    """The reference's score line and watch frame of one frame's fields."""
    stream_id, frame_id, ts_ms, scores, detections, keypoints = frame
    hands, knives = [], []
    for i, (label, x, y, w, h, conf, _) in enumerate(detections):
        if conf >= cfg.tau_det:
            (hands if label is Label.HAND else knives).append((i, conf, x + w / 2.0, y + h / 2.0))
    level, score, evidence = _fuse(hands, knives, scores, keypoints, cfg)
    return _assessment_line(stream_id, frame_id, level, score, evidence), (stream_id, frame_id, ts_ms, level, score)


def check(frame, cfg):
    line, watch_frame = reference(frame, cfg)
    assert _assess_fields(frame, cfg, False) == line
    got = _assess_fields(frame, cfg, True)
    assert got == watch_frame
    assert type(got[3]) is ThreatLevel
    assert serialize_assessment(assess_frame(frames._record(frame), cfg)) == line


def below(value):
    """The float just under value, kept inside [0, 1]."""
    return max(0.0, math.nextafter(value, 0.0))


# Multiples of 1/64 inside a window a little wider than delta_assoc, so
# that many hands and knives pair up and tied distances are exact.
_coord = st.integers(16, 32).map(lambda i: i / 64)
_side = st.integers(1, 16).map(lambda i: i / 64)
_configs = st.builds(
    FusionConfig,
    tau_det=st.sampled_from([0.90, 0.0, 0.5, 0.93, 1.0]),
    delta_assoc=st.sampled_from([0.25, 0.0, 0.0625, 0.125, 1.0]),
    epsilon_vert=st.sampled_from([0.05, 0.0, 0.03125, 0.2]),
    tau_pose=st.sampled_from([0.50, 0.0, 0.85, 1.0]),
    delta_wrist=st.sampled_from([0.20, 0.0, 0.125, 1.0]),
    margin=st.sampled_from([0.10, 0.0, 0.2, 1.0]),
)
# Ties at the top, top two exactly margin apart in decimal, a clear
# threat, and arbitrary normalized triples.
_fixed_scores = st.sampled_from([(0.45, 0.45, 0.10), (0.45, 0.10, 0.45), (0.10, 0.45, 0.45), (0.55, 0.45, 0.0),
                                 (0.5, 0.4, 0.1), (0.6, 0.3, 0.1), (0.98, 0.01, 0.01), (1 / 3, 1 / 3, 1 / 3)])
_free_scores = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
    lambda ab: (ab[0], (1.0 - ab[0]) * ab[1], (1.0 - ab[0]) * (1.0 - ab[1])))
_names = st.sampled_from(["right_wrist", "LeftWrist", "WRIST", "nose", "left_elbow", "wrist_elbow",
                          "Right_Shoulder"])


@st.composite
def frames_and_configs(draw):
    cfg = draw(_configs)
    conf = st.sampled_from([cfg.tau_det, below(cfg.tau_det), 0.95, 1.0, 0.5]) | st.floats(0.0, 1.0)
    detections = draw(st.lists(st.tuples(st.sampled_from(Label), _coord, _coord, _side, _side, conf,
                                         st.none()), max_size=7))
    keypoint_conf = st.sampled_from([cfg.tau_pose, below(cfg.tau_pose), 0.85, 1.0]) | st.floats(0.0, 1.0)
    keypoints = draw(st.lists(st.tuples(_names, _coord, _coord, keypoint_conf), max_size=3))
    scores = draw(st.none() | _fixed_scores | _free_scores)
    stream_id = draw(st.text(min_size=1, max_size=6))
    frame = (stream_id, draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 2**40)), scores,
             tuple(detections), tuple(keypoints))
    return frame, cfg


@settings(max_examples=1500, deadline=None)
@given(frames_and_configs())
def test_every_path_matches_the_frozen_reference(frame_and_cfg):
    check(*frame_and_cfg)


def det(label, cx, cy, conf, side=0.125):
    return (label, cx - side / 2, cy - side / 2, side, side, conf, None)


def test_an_overhand_candidate_that_loses_the_matching_matches_the_reference():
    # h0 pairs with the closer level knife k1; its overhand candidate k2 is
    # left unmatched yet sets the level. h3 takes k2's place in the pairs.
    frame = ("cam", 7, 0, (0.2, 0.7, 0.1),
             (det(Label.HAND, 0.5, 0.375, 0.95), det(Label.KNIFE, 0.5625, 0.375, 0.93),
              det(Label.KNIFE, 0.5, 0.5, 0.96), det(Label.HAND, 0.5, 0.5625, 0.97)),
             (("right_wrist", 0.5, 0.5, 0.9),))
    line, _ = reference(frame, FusionConfig())
    assert '"level":"overhand_threat"' in line and "pair:h0-k2:overhand" in line
    check(frame, FusionConfig())


def test_a_frame_at_the_cap_matches_the_reference():
    # 128 hands against 128 knives, every center within delta_assoc of every
    # other, the most detections one frame may carry.
    assert frames.MAX_ENTRIES == 256
    hands = [det(Label.HAND, 0.4 + i % 16 / 256, 0.4 + i // 16 / 256, 0.90 + i % 7 / 100) for i in range(128)]
    knives = [det(Label.KNIFE, 0.45 + i % 16 / 256, 0.44 + i // 16 / 256, 0.90 + i % 5 / 100) for i in range(128)]
    frame = ("cap", 1, 0, None, tuple(hands + knives), (("left_wrist", 0.5, 0.5, 0.9),))
    line, _ = reference(frame, FusionConfig())
    # Some knives sit epsilon_vert below a hand and some do not.
    assert '"level":"overhand_threat"' in line and line.count(":overhand") < 128
    assert line.count("pair:h") >= 128
    check(frame, FusionConfig())
