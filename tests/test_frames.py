"""Frame-model parsing, validation and manifest handling."""

import itertools
import json
import math
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from threatwatch import frames
from threatwatch.cli import CHUNK_BYTES
from threatwatch.frames import (
    MAX_ENTRIES,
    BoundingBox,
    ClassScores,
    DuplicateSampleId,
    EmptyManifest,
    FrameRecord,
    InstanceDetection,
    KeypointKind,
    Label,
    MalformedJson,
    ManifestEntry,
    ManifestLabel,
    PoseKeypoint,
    SchemaViolation,
    chunk_spans,
    parse_frame_record,
    parse_lines,
    parse_manifest_entry,
    read_lines,
    read_manifest,
    read_span,
    serialize_frame_record,
    validate_manifest,
)
from threatwatch.fusion import FusionConfig, _assess_line, assess_frame, serialize_assessment


def test_minimal_record_parses():
    rec = parse_frame_record('{"stream_id":"c1","frame_id":1,"ts_ms":0,"detections":[],"keypoints":[]}')
    assert rec.stream_id == "c1"
    assert rec.frame_id == 1
    assert rec.ts_ms == 0
    assert rec.scores is None
    assert rec.detections == ()
    assert rec.keypoints == ()


def test_knife_detection_parses():
    line = '{"stream_id":"c1","frame_id":2,"ts_ms":33,"detections":[{"label":"knife","box":[0.4,0.5,0.1,0.2],"conf":0.93}]}'
    rec = parse_frame_record(line)
    assert len(rec.detections) == 1
    det = rec.detections[0]
    assert det.label is Label.KNIFE
    assert det.conf == 0.93
    assert det.box == BoundingBox(0.4, 0.5, 0.1, 0.2)
    assert det.mask_area is None


def test_unnormalized_scores_rejected():
    line = '{"stream_id":"c1","frame_id":3,"ts_ms":66,"scores":{"threat":0.5,"no_threat":0.6,"hand":0.2}}'
    with pytest.raises(SchemaViolation) as exc_info:
        parse_frame_record(line, line_no=3)
    assert exc_info.value.line_no == 3
    assert "$.scores" in str(exc_info.value)


def test_malformed_json_reports_line():
    with pytest.raises(MalformedJson) as exc_info:
        parse_frame_record("{not json", line_no=7)
    assert exc_info.value.line_no == 7
    assert "line 7" in str(exc_info.value)


def test_unknown_fields_ignored_unknown_labels_rejected():
    line = '{"stream_id":"c1","frame_id":1,"ts_ms":0,"camera_pose":"fixed","detections":[]}'
    assert parse_frame_record(line).frame_id == 1

    bad = '{"stream_id":"c1","frame_id":1,"ts_ms":0,"detections":[{"label":"sword","box":[0.1,0.1,0.1,0.1],"conf":0.9}]}'
    with pytest.raises(SchemaViolation) as exc_info:
        parse_frame_record(bad)
    assert "$.detections[0].label" in str(exc_info.value)


def test_missing_required_field_names_path():
    with pytest.raises(SchemaViolation) as exc_info:
        parse_frame_record('{"frame_id":1,"ts_ms":0}')
    assert "$.stream_id" in str(exc_info.value)


def test_bool_is_not_a_number():
    line = '{"stream_id":"c1","frame_id":1,"ts_ms":0,"detections":[{"label":"hand","box":[0.1,0.1,0.1,0.1],"conf":true}]}'
    with pytest.raises(SchemaViolation):
        parse_frame_record(line)


def test_box_extent_bounds():
    BoundingBox(0.9, 0.9, 0.1, 0.1)
    BoundingBox(0.9, 0.9, 0.1 + 5e-10, 0.1)
    with pytest.raises(ValueError):
        BoundingBox(0.9, 0.9, 0.2, 0.1)
    with pytest.raises(ValueError):
        BoundingBox(-0.1, 0.1, 0.1, 0.1)
    with pytest.raises(ValueError):
        BoundingBox(0.1, 0.1, 0.0, 0.1)


def test_box_center():
    assert BoundingBox(0.4, 0.5, 0.1, 0.2).center() == (0.45, 0.6)


def test_mask_area_bounds():
    box = BoundingBox(0.1, 0.1, 0.2, 0.2)
    InstanceDetection(Label.HAND, box, 0.9, mask_area=0.03)
    InstanceDetection(Label.HAND, box, 0.9, mask_area=box.w * box.h)
    with pytest.raises(ValueError):
        InstanceDetection(Label.HAND, box, 0.9, mask_area=0.08)
    with pytest.raises(ValueError):
        InstanceDetection(Label.HAND, box, 0.9, mask_area=0.0)
    with pytest.raises(ValueError):
        InstanceDetection(Label.HAND, box, 1.2)


def test_scores_tolerance():
    ClassScores(0.333333, 0.333333, 0.333334)
    with pytest.raises(ValueError):
        ClassScores(0.4, 0.4, 0.1)


def test_keypoint_bounds():
    with pytest.raises(ValueError, match=r"^x must be within \[0, 1\], got 1\.5$"):
        PoseKeypoint("right_wrist", 1.5, 0.5, 0.9)


def test_keypoint_kind_mapping():
    assert PoseKeypoint("wrist", 0.5, 0.5, 0.9).kind() is KeypointKind.WRIST
    assert PoseKeypoint("left_wrist", 0.5, 0.5, 0.9).kind() is KeypointKind.WRIST
    assert PoseKeypoint("rightWrist", 0.5, 0.5, 0.9).kind() is KeypointKind.WRIST
    assert PoseKeypoint("Right_Elbow", 0.5, 0.5, 0.9).kind() is KeypointKind.ELBOW
    assert PoseKeypoint("left_shoulder", 0.5, 0.5, 0.9).kind() is KeypointKind.SHOULDER
    assert PoseKeypoint("nose", 0.5, 0.5, 0.9).kind() is KeypointKind.OTHER


def test_full_record_round_trip():
    line = json.dumps({
        "stream_id": "cam-7",
        "frame_id": 41,
        "ts_ms": 1353,
        "scores": {"threat": 0.7, "no_threat": 0.2, "hand": 0.1},
        "detections": [
            {"label": "hand", "box": [0.40, 0.30, 0.10, 0.10], "conf": 0.95},
            {"label": "knife", "box": [0.42, 0.45, 0.08, 0.20], "conf": 0.93, "mask_area": 0.01},
        ],
        "keypoints": [{"name": "right_wrist", "x": 0.45, "y": 0.4, "conf": 0.8}],
    })
    rec = parse_frame_record(line)
    assert parse_frame_record(serialize_frame_record(rec)) == rec


def test_serialization_omits_absent_optionals():
    rec = FrameRecord("c1", 1, 0)
    data = json.loads(serialize_frame_record(rec))
    assert "scores" not in data
    assert "detections" not in data
    assert "keypoints" not in data
    assert parse_frame_record(serialize_frame_record(rec)) == rec


@given(
    x=st.floats(0.0, 0.8), y=st.floats(0.0, 0.8),
    w=st.floats(0.01, 0.2), h=st.floats(0.01, 0.2),
    conf=st.floats(0.0, 1.0),
)
def test_detection_round_trip_property(x, y, w, h, conf):
    rec = FrameRecord(
        "s", 1, 0,
        detections=(InstanceDetection(Label.KNIFE, BoundingBox(x, y, w, h), conf),),
    )
    back = parse_frame_record(serialize_frame_record(rec))
    det = back.detections[0]
    assert det.box == rec.detections[0].box
    assert det.conf == conf


def test_manifest_entry_parse():
    entry = parse_manifest_entry('{"sample_id":"img-1","label":"threat"}')
    assert entry == ManifestEntry("img-1", ManifestLabel.THREAT)
    with pytest.raises(SchemaViolation):
        parse_manifest_entry('{"sample_id":"img-1","label":"weapon"}')
    for line, message in [
        ('{"sample_id":"","label":"threat"}', "line 4: $.sample_id: must be non-empty"),
        ('{"sample_id":"img-1","label":3}', "line 4: $.label: expected a string, got 3"),
    ]:
        with pytest.raises(SchemaViolation) as exc_info:
            parse_manifest_entry(line, 4)
        assert str(exc_info.value) == message


def test_manifest_hostile_line_is_malformed_json():
    with pytest.raises(MalformedJson):
        parse_manifest_entry('{"sample_id":' + "7" * 5000 + ',"label":"threat"}')
    with pytest.raises(MalformedJson):
        parse_manifest_entry("{" * 200_000)


def test_read_manifest_line_numbers_and_blanks(tmp_path):
    path = tmp_path / "labels.jsonl"
    path.write_text('{"sample_id":"a","label":"hand"}\n\n{"sample_id":"b","label":"no_threat"}\n')
    entries = read_manifest(str(path))
    assert [e.sample_id for e in entries] == ["a", "b"]

    path.write_text('{"sample_id":"a","label":"hand"}\n{"oops":1}\n')
    with pytest.raises(SchemaViolation) as exc_info:
        read_manifest(str(path))
    assert exc_info.value.line_no == 2


def test_validate_manifest_stats():
    entries = [ManifestEntry(f"s{i}", ManifestLabel.THREAT if i < 4 else ManifestLabel.HAND)
               for i in range(10)]
    stats = validate_manifest(entries)
    assert stats.total == 10
    assert stats.per_label[ManifestLabel.THREAT] == 4
    assert stats.per_label[ManifestLabel.HAND] == 6
    assert math.isclose(stats.positive_fraction, 0.4)


def test_validate_manifest_all_negative():
    entries = [ManifestEntry(f"s{i}", ManifestLabel.NO_THREAT) for i in range(10)]
    assert validate_manifest(entries).positive_fraction == 0.0


def test_validate_manifest_errors():
    with pytest.raises(EmptyManifest):
        validate_manifest([])
    dupes = [ManifestEntry("same", ManifestLabel.HAND), ManifestEntry("same", ManifestLabel.THREAT)]
    with pytest.raises(DuplicateSampleId) as exc_info:
        validate_manifest(dupes)
    assert "same" in str(exc_info.value)


def test_frame_record_field_validation():
    with pytest.raises(ValueError):
        FrameRecord("", 1, 0)
    with pytest.raises(ValueError):
        FrameRecord("s", -1, 0)
    with pytest.raises(ValueError):
        FrameRecord("s", 2**64, 0)


# One malformed line per rejection on the parse path, with the full error
# text: (name, line, error type, str(error)) for line number 4. Recorded
# from the parser before it validated each field once, so the table pins
# both the messages and the order in which a line's faults are checked.
PARSE_ERRORS = [
    ('not JSON',
     '{not json',
     MalformedJson, 'line 4: malformed JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)'),
    ('trailing data',
     '{"stream_id":"c"} x',
     MalformedJson, 'line 4: malformed JSON: Extra data: line 1 column 19 (char 18)'),
    ('not an object',
     '[1, 2]',
     MalformedJson, 'line 4: malformed JSON: expected a JSON object, got list'),
    ('stream_id missing',
     '{"frame_id":1,"ts_ms":0}',
     SchemaViolation, 'line 4: $.stream_id: expected a string, got None'),
    ('stream_id type',
     '{"stream_id":7,"frame_id":1,"ts_ms":0}',
     SchemaViolation, 'line 4: $.stream_id: expected a string, got 7'),
    ('frame_id type',
     '{"stream_id":"c","frame_id":"1","ts_ms":0}',
     SchemaViolation, "line 4: $.frame_id: expected an integer, got '1'"),
    ('frame_id float',
     '{"stream_id":"c","frame_id":1.0,"ts_ms":0}',
     SchemaViolation, 'line 4: $.frame_id: expected an integer, got 1.0'),
    ('frame_id bool',
     '{"stream_id":"c","frame_id":true,"ts_ms":0}',
     SchemaViolation, 'line 4: $.frame_id: expected an integer, got True'),
    ('ts_ms missing',
     '{"stream_id":"c","frame_id":1}',
     SchemaViolation, 'line 4: $.ts_ms: expected an integer, got None'),
    ('scores object',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"scores":[0.9,0.05,0.05]}',
     SchemaViolation, 'line 4: $.scores: expected an object, got [0.9, 0.05, 0.05]'),
    ('scores.threat type',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"scores":{"threat":"0.9","no_threat":0.05,"hand":0.05}}',
     SchemaViolation, "line 4: $.scores.threat: expected a number, got '0.9'"),
    ('scores.no_threat missing',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"scores":{"threat":0.9,"hand":0.05}}',
     SchemaViolation, 'line 4: $.scores.no_threat: expected a number, got None'),
    ('scores.hand type',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"scores":{"threat":0.9,"no_threat":0.05,"hand":false}}',
     SchemaViolation, 'line 4: $.scores.hand: expected a number, got False'),
    ('scores range',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"scores":{"threat":1.5,"no_threat":-0.25,"hand":-0.25}}',
     SchemaViolation, 'line 4: $.scores: threat must be within [0, 1], got 1.5'),
    ('scores NaN',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"scores":{"threat":0.5,"no_threat":NaN,"hand":0.5}}',
     SchemaViolation, 'line 4: $.scores: no_threat must be within [0, 1], got nan'),
    ('scores sum',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"scores":{"threat":0.5,"no_threat":0.6,"hand":0.2}}',
     SchemaViolation, 'line 4: $.scores: scores must sum to 1 within 1e-06, got 1.3'),
    ('detections array',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"detections":{"label":"knife"}}',
     SchemaViolation, "line 4: $.detections: expected an array, got {'label': 'knife'}"),
    ('detection object',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"detections":["knife"]}',
     SchemaViolation, "line 4: $.detections[0]: expected an object, got 'knife'"),
    ('label type',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"detections":[{"box":[0.4,0.5,0.1,0.2],"conf":0.9}]}',
     SchemaViolation, 'line 4: $.detections[0].label: expected a string, got None'),
    ('unknown label',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"detections":[{"label":"sword","box":[0.4,0.5,0.1,0.2],"conf":0.9}]}',
     SchemaViolation, "line 4: $.detections[0].label: unknown label 'sword'"),
    ('box length',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"detections":[{"label":"knife","box":[0.4,0.5,0.1],"conf":0.9}]}',
     SchemaViolation, 'line 4: $.detections[0].box: expected [x, y, w, h] numbers, got [0.4, 0.5, 0.1]'),
    ('box not a list',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"detections":[{"label":"knife","box":"0.4,0.5,0.1,0.2","conf":0.9}]}',
     SchemaViolation, "line 4: $.detections[0].box: expected [x, y, w, h] numbers, got '0.4,0.5,0.1,0.2'"),
    ('box element type',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"detections":[{"label":"knife","box":[0.4,0.5,true,0.2],"conf":0.9}]}',
     SchemaViolation, 'line 4: $.detections[0].box: expected [x, y, w, h] numbers, got [0.4, 0.5, True, 0.2]'),
    ('box x range',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"detections":[{"label":"knife","box":[1.5,0.5,0.1,0.2],"conf":0.9}]}',
     SchemaViolation, 'line 4: $.detections[0].box: x must be within [0, 1], got 1.5'),
    ('box y range',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"detections":[{"label":"knife","box":[0.4,-0.5,0.1,0.2],"conf":0.9}]}',
     SchemaViolation, 'line 4: $.detections[0].box: y must be within [0, 1], got -0.5'),
    ('box w range',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"detections":[{"label":"knife","box":[0.4,0.5,0,0.2],"conf":0.9}]}',
     SchemaViolation, 'line 4: $.detections[0].box: w must be within (0, 1], got 0.0'),
    ('box h range',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"detections":[{"label":"knife","box":[0.4,0.5,0.1,1.2],"conf":0.9}]}',
     SchemaViolation, 'line 4: $.detections[0].box: h must be within (0, 1], got 1.2'),
    ('box right edge',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"detections":[{"label":"knife","box":[0.95,0.5,0.1,0.2],"conf":0.9}]}',
     SchemaViolation, 'line 4: $.detections[0].box: box exceeds right edge: x + w = 1.05'),
    ('box bottom edge',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"detections":[{"label":"knife","box":[0.4,0.9,0.1,0.2],"conf":0.9}]}',
     SchemaViolation, 'line 4: $.detections[0].box: box exceeds bottom edge: y + h = 1.1'),
    ('conf type',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"detections":[{"label":"knife","box":[0.4,0.5,0.1,0.2],"conf":"high"}]}',
     SchemaViolation, "line 4: $.detections[0].conf: expected a number, got 'high'"),
    ('conf range',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"detections":[{"label":"knife","box":[0.4,0.5,0.1,0.2],"conf":1.5}]}',
     SchemaViolation, 'line 4: $.detections[0]: conf must be within [0, 1], got 1.5'),
    ('mask_area type',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"detections":[{"label":"knife","box":[0.4,0.5,0.1,0.2],"conf":0.9,"mask_area":"big"}]}',
     SchemaViolation, "line 4: $.detections[0].mask_area: expected a number, got 'big'"),
    ('mask_area range',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"detections":[{"label":"knife","box":[0.4,0.5,0.1,0.2],"conf":0.9,"mask_area":0}]}',
     SchemaViolation, 'line 4: $.detections[0]: mask_area must be within (0, 1], got 0.0'),
    ('mask larger than box',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"detections":[{"label":"knife","box":[0.4,0.5,0.1,0.2],"conf":0.9,"mask_area":0.05}]}',
     SchemaViolation, 'line 4: $.detections[0]: mask_area 0.05 exceeds box area 0.020000000000000004'),
    ('second detection index',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"detections":[{"label":"knife","box":[0.4,0.5,0.1,0.2],"conf":0.9},{"label":"hand","box":[0.4,0.5,0.1,0.2],"conf":-1}]}',
     SchemaViolation, 'line 4: $.detections[1]: conf must be within [0, 1], got -1.0'),
    ('keypoints array',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"keypoints":"wrist"}',
     SchemaViolation, "line 4: $.keypoints: expected an array, got 'wrist'"),
    ('keypoint object',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"keypoints":[[0.5,0.5]]}',
     SchemaViolation, 'line 4: $.keypoints[0]: expected an object, got [0.5, 0.5]'),
    ('keypoint name type',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"keypoints":[{"name":3,"x":0.5,"y":0.5,"conf":0.8}]}',
     SchemaViolation, 'line 4: $.keypoints[0].name: expected a string, got 3'),
    ('keypoint x type',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"keypoints":[{"name":"wrist","x":"0.5","y":0.5,"conf":0.8}]}',
     SchemaViolation, "line 4: $.keypoints[0].x: expected a number, got '0.5'"),
    ('keypoint y missing',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"keypoints":[{"name":"wrist","x":0.5,"conf":0.8}]}',
     SchemaViolation, 'line 4: $.keypoints[0].y: expected a number, got None'),
    ('keypoint conf type',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"keypoints":[{"name":"wrist","x":0.5,"y":0.5,"conf":null}]}',
     SchemaViolation, 'line 4: $.keypoints[0].conf: expected a number, got None'),
    ('keypoint x range',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"keypoints":[{"name":"wrist","x":1.01,"y":0.5,"conf":0.8}]}',
     SchemaViolation, 'line 4: $.keypoints[0]: x must be within [0, 1], got 1.01'),
    ('keypoint y range',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"keypoints":[{"name":"wrist","x":0.5,"y":-Infinity,"conf":0.8}]}',
     SchemaViolation, 'line 4: $.keypoints[0]: y must be within [0, 1], got -inf'),
    ('keypoint conf range',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"keypoints":[{"name":"wrist","x":0.5,"y":0.5,"conf":2}]}',
     SchemaViolation, 'line 4: $.keypoints[0]: conf must be within [0, 1], got 2.0'),
    ('keypoint empty name',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"keypoints":[{"name":"","x":0.5,"y":0.5,"conf":0.8}]}',
     SchemaViolation, 'line 4: $.keypoints[0]: name must be non-empty'),
    ('empty stream_id',
     '{"stream_id":"","frame_id":1,"ts_ms":0}',
     SchemaViolation, 'line 4: $: stream_id must be non-empty'),
    ('frame_id above uint64',
     '{"stream_id":"c","frame_id":18446744073709551616,"ts_ms":0}',
     SchemaViolation, 'line 4: $: frame_id must be a uint64, got 18446744073709551616'),
    ('frame_id negative',
     '{"stream_id":"c","frame_id":-1,"ts_ms":0}',
     SchemaViolation, 'line 4: $: frame_id must be a uint64, got -1'),
    ('ts_ms above uint64',
     '{"stream_id":"c","frame_id":1,"ts_ms":18446744073709551616}',
     SchemaViolation, 'line 4: $: ts_ms must be a uint64, got 18446744073709551616'),
    ('order: detection before empty stream_id',
     '{"stream_id":"","frame_id":1,"ts_ms":0,"detections":[{"label":"fork","box":[0.4,0.5,0.1,0.2],"conf":0.9}]}',
     SchemaViolation, "line 4: $.detections[0].label: unknown label 'fork'"),
    ('order: detections before keypoints and ids',
     '{"stream_id":"c","frame_id":-1,"ts_ms":0,"keypoints":[{"name":"wrist","x":0.5,"y":0.5,"conf":0.8}],"detections":[{"label":"knife","box":[0.4,0.5,0.1,0.2],"conf":7}]}',
     SchemaViolation, 'line 4: $.detections[0]: conf must be within [0, 1], got 7.0'),
    ('order: scores before detections',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"scores":{"threat":2,"no_threat":0,"hand":0},"detections":7}',
     SchemaViolation, 'line 4: $.scores: threat must be within [0, 1], got 2.0'),
    ('order: conf type before box range',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"detections":[{"label":"knife","box":[1.5,0.5,0.1,0.2],"conf":"x"}]}',
     SchemaViolation, "line 4: $.detections[0].conf: expected a number, got 'x'"),
    ('order: mask_area type before box range',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"detections":[{"label":"knife","box":[1.5,0.5,0.1,0.2],"conf":0.9,"mask_area":[]}]}',
     SchemaViolation, 'line 4: $.detections[0].mask_area: expected a number, got []'),
    ('order: conf range before mask',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"detections":[{"label":"knife","box":[0.4,0.5,0.1,0.2],"conf":1.5,"mask_area":0.05}]}',
     SchemaViolation, 'line 4: $.detections[0]: conf must be within [0, 1], got 1.5'),
    ('order: keypoint types before empty name',
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"keypoints":[{"name":"","x":"a","y":0.5,"conf":0.8}]}',
     SchemaViolation, "line 4: $.keypoints[0].x: expected a number, got 'a'"),
]


@pytest.mark.parametrize("case", PARSE_ERRORS, ids=[c[0] for c in PARSE_ERRORS])
def test_parse_error_messages(case):
    _, line, error, message = case
    with pytest.raises(error) as exc_info:
        parse_frame_record(line, line_no=4)
    assert type(exc_info.value) is error
    assert str(exc_info.value) == message


# Lines that once escaped the parser as OverflowError, a bare ValueError
# and RecursionError, aborting a whole run. Each is one bad line.
HUGE = "1" + "0" * 400
HOSTILE_LINES = [
    ("number_beyond_float",
     '{"stream_id":"c","frame_id":1,"ts_ms":0,"scores":{"threat":' + HUGE + ',"no_threat":0,"hand":0}}',
     SchemaViolation, f"line 4: $.scores: threat must be within [0, 1], got {HUGE}"),
    ("integer_beyond_digit_limit",
     '{"stream_id":"c","frame_id":' + "7" * 5000 + ',"ts_ms":0}',
     MalformedJson, "line 4: malformed JSON: Exceeds the limit (4300 digits) for integer string "
                    "conversion: value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit"),
    ("nesting_beyond_recursion_limit",
     "[" * 200_000,
     MalformedJson, "line 4: malformed JSON: maximum recursion depth exceeded while decoding a JSON "
                    "array from a unicode string"),
]


@pytest.mark.parametrize("case", HOSTILE_LINES, ids=[c[0] for c in HOSTILE_LINES])
def test_hostile_line_is_a_parse_error(case):
    _, line, error, message = case
    with pytest.raises(error) as exc_info:
        parse_frame_record(line, line_no=4)
    assert str(exc_info.value) == message


@pytest.mark.parametrize("field", ["box", "conf", "mask_area"])
def test_number_beyond_float_in_a_detection(field):
    det = {"label": "knife", "box": [0.4, 0.5, 0.1, 0.2], "conf": 0.9}
    if field == "box":
        det["box"] = [0.4, 0.5, 0.1, 10**400]
    else:
        det[field] = -10**400
    line = json.dumps({"stream_id": "c", "frame_id": 1, "ts_ms": 0, "detections": [det]})
    with pytest.raises(SchemaViolation) as exc_info:
        parse_frame_record(line)
    assert exc_info.value.path == ("$.detections[0].box" if field == "box" else "$.detections[0]")


@pytest.mark.parametrize("field, entry", [
    ("detections", {"label": "knife", "box": [0.4, 0.5, 0.1, 0.2], "conf": 0.9}),
    ("keypoints", {"name": "wrist", "x": 0.5, "y": 0.4, "conf": 0.8}),
])
def test_entries_per_array_are_capped(field, entry):
    def line(n, item=entry):
        return json.dumps({"stream_id": "c", "frame_id": 1, "ts_ms": 0, field: [item] * n})

    assert MAX_ENTRIES == 256
    record = parse_frame_record(line(256))
    entries = getattr(record, field)
    assert len(entries) == 256
    assert FrameRecord("c", 1, 0, **{field: entries}) == record
    message = f"line 4: $.{field}: expected at most 256 entries, got 257"
    for item in (entry, None):  # the length is checked before any element
        with pytest.raises(SchemaViolation) as exc_info:
            parse_frame_record(line(257, item), 4)
        assert str(exc_info.value) == message
    with pytest.raises(ValueError) as exc_info:
        FrameRecord("c", 1, 0, **{field: entries + entries[:1]})
    assert str(exc_info.value) == f"{field}: expected at most 256 entries, got 257"


def test_parse_checks_each_array_length_once(monkeypatch):
    # The parser caps each array before its elements; the record's own check
    # of the lengths stays in FrameRecord.__post_init__.
    checked = []
    entries_error = frames._entries_error

    def counted(entries, prefix=""):
        checked.append(len(entries))
        return entries_error(entries, prefix)

    monkeypatch.setattr(frames, "_entries_error", counted)
    detection = {"label": "knife", "box": [0.4, 0.5, 0.1, 0.2], "conf": 0.9}
    keypoint = {"name": "wrist", "x": 0.5, "y": 0.4, "conf": 0.8}
    line = json.dumps({"stream_id": "c", "frame_id": 1, "ts_ms": 0,
                       "detections": [detection] * 3, "keypoints": [keypoint] * 2})
    parse_frame_record(line)
    assert checked == [3, 2]
    with pytest.raises(SchemaViolation) as exc_info:
        parse_frame_record(json.dumps({"stream_id": "c", "frame_id": 1, "ts_ms": 0,
                                       "detections": [detection] * 257}), 4)
    assert str(exc_info.value) == "line 4: $.detections: expected at most 256 entries, got 257"
    assert checked == [3, 2, 257]


# Hypothesis fuzz: valid wire records, then keys dropped and values
# replaced by wrong types, NaN, infinities, huge integers, bools and nested
# containers, anywhere in the record.

_unit = st.floats(0.0, 1.0)
_name = st.text(min_size=1, max_size=8)


@st.composite
def _wire_scores(draw):
    a, b = sorted((draw(_unit), draw(_unit)))
    return {"threat": a, "no_threat": b - a, "hand": 1.0 - b}


@st.composite
def _wire_detection(draw):
    x, y = draw(st.floats(0.0, 0.9)), draw(st.floats(0.0, 0.9))
    w, h = draw(st.floats(0.01, 1.0 - x)), draw(st.floats(0.01, 1.0 - y))
    det = {"label": draw(st.sampled_from(["hand", "knife"])), "box": [x, y, w, h], "conf": draw(_unit)}
    if draw(st.booleans()):
        det["mask_area"] = w * h * draw(st.floats(0.01, 1.0))
    return det


_wire_keypoint = st.fixed_dictionaries({"name": _name, "x": _unit, "y": _unit, "conf": _unit})

_wire_record = st.fixed_dictionaries(
    {"stream_id": _name, "frame_id": st.integers(0, 2**64 - 1), "ts_ms": st.integers(0, 2**64 - 1)},
    optional={
        "scores": _wire_scores(),
        "detections": st.lists(_wire_detection(), max_size=3),
        "keypoints": st.lists(_wire_keypoint, max_size=3),
    },
)

_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.integers(2**63, 2**1100),
    st.sampled_from([10**400, -10**400, 2**64, -1]),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
)
_hostile = _scalar | st.recursive(
    _scalar, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _slots(value, out):
    """Every (container, key) slot in a JSON tree, outermost first."""
    if isinstance(value, dict):
        for key, child in value.items():
            out.append((value, key))
            _slots(child, out)
    elif isinstance(value, list):
        for i, child in enumerate(value):
            out.append((value, i))
            _slots(child, out)
    return out


def _public_record(obj):
    """The record the public constructors build from a parsed JSON object."""
    scores = obj.get("scores")
    return FrameRecord(
        obj["stream_id"], obj["frame_id"], obj["ts_ms"],
        None if scores is None else ClassScores(float(scores["threat"]), float(scores["no_threat"]), float(scores["hand"])),
        tuple(
            InstanceDetection(Label(d["label"]), BoundingBox(*map(float, d["box"])), float(d["conf"]),
                              None if d.get("mask_area") is None else float(d["mask_area"]))
            for d in obj.get("detections") or ()
        ),
        tuple(PoseKeypoint(k["name"], float(k["x"]), float(k["y"]), float(k["conf"]))
              for k in obj.get("keypoints") or ()),
    )


# The default thresholds, and ones that let every detection pair and
# every keypoint count, so that the fuzzed records reach each fusion rule.
_FUZZ_CONFIGS = (FusionConfig(), FusionConfig(tau_det=0.0, delta_assoc=1.0, tau_pose=0.0, delta_wrist=1.0))


@settings(max_examples=400, deadline=None)
@given(record=_wire_record, data=st.data())
def test_parse_fuzz_mutated_records(record, data):
    for _ in range(data.draw(st.sampled_from([0, 1, 2, 3]))):
        slots = _slots(record, [])
        if not slots:
            break
        container, key = data.draw(st.sampled_from(slots))
        if isinstance(container, dict) and data.draw(st.booleans()):
            del container[key]
        else:
            container[key] = data.draw(_hostile)
    line = json.dumps(record)
    _parses_as_json_loads(line)
    _parses_as_json_loads(line + "\n")
    try:
        parsed = parse_frame_record(line)
    except (MalformedJson, SchemaViolation) as exc:
        # The workers' per-line path rejects the line alike.
        for cfg, watch in itertools.product(_FUZZ_CONFIGS, (False, True)):
            with pytest.raises(type(exc)) as raised:
                _assess_line(line, 0, cfg, watch)
            assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        return
    assert parsed == _public_record(json.loads(line))
    # The workers' per-line path, which builds no record, makes the score
    # line and the watch frame of the parsed record's assessment.
    for cfg in _FUZZ_CONFIGS:
        assessment = assess_frame(parsed, cfg)
        assert _assess_line(line, 0, cfg, False) == serialize_assessment(assessment)
        assert _assess_line(line, 0, cfg, True) == (parsed.stream_id, parsed.frame_id, parsed.ts_ms,
                                                    assessment.level, assessment.score)
    with pytest.raises(FrozenInstanceError):
        parsed.frame_id = 0
    for part in (parsed.scores, *parsed.detections, *(d.box for d in parsed.detections), *parsed.keypoints):
        if part is not None:
            with pytest.raises(FrozenInstanceError):
                setattr(part, type(part).__slots__[0], None)


def _parses_as_json_loads(text):
    """frames._json(text) returns what json.loads(text) returns, or raises
    MalformedJson with its message."""
    try:
        expected = json.loads(text)
    except (ValueError, RecursionError) as exc:
        with pytest.raises(MalformedJson) as raised:
            frames._json(text, 7)
        assert str(raised.value) == f"line 7: malformed JSON: {exc}"
    else:
        value = frames._json(text, 7)
        # repr, as NaN is not equal to itself
        assert type(value) is type(expected) and repr(value) == repr(expected)


@pytest.mark.parametrize("text", [
    '{"a": [1, 2.5, null, true]}', '{"a": 1}\n', '{"a": 1} \t\r\n', "\ufeff{}", " \t{}",
    "\n[1]", "{}x", "{} x", "[1] [2]", '{"a": 1}\u2028', "\x0c{}", "", " ", "nul", '{"a": 1,}',
    "NaN", '{"a": NaN, "b": -Infinity}', '"\\ud800"', "[" * 100_000 + "]" * 100_000,
    "[" * 100_000, "1" * 5_000, '{"a": ' + "9" * 5_000 + "}", "-0.0", "1e999",
], ids=["object", "lf", "trailing_ws", "bom", "leading_ws", "leading_lf", "extra", "extra_after_ws",
        "two_values", "trailing_unicode_space", "leading_form_feed", "empty", "blank", "bad_literal",
        "trailing_comma", "nan", "nan_in_object", "lone_surrogate", "deep", "deep_unclosed",
        "long_int", "long_int_in_object", "negative_zero", "huge_float"])
def test_json_returns_or_words_what_json_loads_does(text):
    _parses_as_json_loads(text)


_GOOD_DETECTION = {"label": "knife", "box": [0.2, 0.3, 0.1, 0.1], "conf": 0.95, "mask_area": 0.005}


@pytest.mark.parametrize("change, where, message", [
    ({"box": [1.5, 0.3, 0.1, 0.1]}, ".box", "x must be within [0, 1], got 1.5"),
    ({"box": [0.2, -0.1, 0.1, 0.1]}, ".box", "y must be within [0, 1], got -0.1"),
    ({"box": [0.2, 0.3, 0.0, 0.1]}, ".box", "w must be within (0, 1], got 0.0"),
    ({"box": [0.2, 0.3, 0.1, 1.5]}, ".box", "h must be within (0, 1], got 1.5"),
    ({"box": [0.75, 0.3, 0.5, 0.1]}, ".box", "box exceeds right edge: x + w = 1.25"),
    ({"box": [0.2, 0.75, 0.1, 0.5]}, ".box", "box exceeds bottom edge: y + h = 1.25"),
    ({"box": [float("nan"), 0.3, 0.1, 0.1]}, ".box", "x must be within [0, 1], got nan"),
    ({"conf": 1.25}, "", "conf must be within [0, 1], got 1.25"),
    ({"conf": float("nan")}, "", "conf must be within [0, 1], got nan"),
    ({"mask_area": 0.0}, "", "mask_area must be within (0, 1], got 0.0"),
    ({"mask_area": 0.5}, "", "mask_area 0.5 exceeds box area 0.010000000000000002"),
    ({"box": [1.5, 0.3, 0.1, 0.1], "conf": 1.25}, ".box", "x must be within [0, 1], got 1.5"),
    ({"conf": 2.0, "mask_area": 0.5}, "", "conf must be within [0, 1], got 2.0"),
], ids=["x", "y", "w", "h", "right_edge", "bottom_edge", "nan_x", "conf", "nan_conf",
        "mask_area_range", "mask_larger_than_box", "box_before_conf", "conf_before_mask"])
def test_each_detection_fault_keeps_its_message(change, where, message):
    detection = {**_GOOD_DETECTION, **change}
    line = json.dumps({"stream_id": "c", "frame_id": 1, "ts_ms": 0,
                       "detections": [_GOOD_DETECTION, detection]})
    with pytest.raises(SchemaViolation) as raised:
        parse_frame_record(line, 3)
    assert str(raised.value) == f"line 3: $.detections[1]{where}: {message}"
    # The constructors give the same message.
    with pytest.raises(ValueError) as built:
        InstanceDetection(Label.KNIFE, BoundingBox(*detection["box"]), detection["conf"],
                          detection["mask_area"])
    assert str(built.value) == message


# Inputs whose line ends a span reader could get wrong.
SPAN_INPUTS = {
    "cr_crlf_form_feed": b"a\rb\n" + b"c\r\n" + b"\x0c\n" + b"d\r\re\r\n" + b"\rf\n",
    "no_trailing_lf": b"a\nb\nlast line",
    "blank_lines": b"\n\n  \n\ta\n\r\n\nb\n\n\n",
    "line_longer_than_a_chunk": b"a\n" + b"x" * (CHUNK_BYTES + 7) + b"\nb\n",
    "empty": b"",
}


@pytest.mark.parametrize("size", [1, 3, 16, CHUNK_BYTES])
@pytest.mark.parametrize("data", SPAN_INPUTS.values(), ids=SPAN_INPUTS)
def test_spans_split_and_number_lines_as_read_lines(tmp_path, data, size):
    path = tmp_path / "frames.jsonl"
    path.write_bytes(data)

    def numbered(line, line_no):
        return line_no, line

    spans = list(chunk_spans(str(path), size))
    from_spans = [item for offset, nbytes, first_line_no in spans
                  for item in parse_lines(read_span(str(path), offset, nbytes), first_line_no,
                                          numbered)]
    assert from_spans == list(read_lines(str(path), numbered))
    # The spans tile the file. Each ends on a line boundary, and each but
    # the last holds at least size bytes.
    ends = list(itertools.accumulate(nbytes for _, nbytes, _ in spans))
    assert [offset for offset, _, _ in spans] == [0, *ends][:len(spans)]
    assert ends[-1:] == ([len(data)] if data else [])
    for end in ends[:-1]:
        assert data[end - 1:end] == b"\n"
    assert all(nbytes >= size for _, nbytes, _ in spans[:-1])
    assert [first for _, _, first in spans] == [data[:offset].count(b"\n") + 1
                                               for offset, _, _ in spans]
