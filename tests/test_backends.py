"""Scenario generator and backend URI resolution."""

import hashlib
import json
import logging
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from threatwatch import backends
from threatwatch.backends import (
    AdapterUnavailable,
    BadScript,
    ReplayBackend,
    ScenarioScript,
    Scene,
    Segment,
    SyntheticBackend,
    UnknownScheme,
    load_script,
    open_backend,
    register_extern_adapter,
    script_from_dict,
    synthesize,
)
from threatwatch.cli import main
from threatwatch.frames import (
    MalformedJson,
    _frame_fields,
    parse_frame_record,
    serialize_frame_record,
)
from threatwatch.fusion import (FusionConfig, ThreatLevel, _assess_fields, assess_frame,
                                serialize_assessment)

CFG = FusionConfig()

SCENE_LEVEL = {
    Scene.EMPTY: ThreatLevel.NONE,
    Scene.HAND_ONLY: ThreatLevel.NONE,
    Scene.KNIFE_ONLY: ThreatLevel.OBJECT_PRESENT,
    Scene.KNIFE_GRASPED: ThreatLevel.GRASPED,
    Scene.KNIFE_OVERHAND: ThreatLevel.OVERHAND_THREAT,
}


def script(*segments, seed=0, stream_id="synthetic"):
    return ScenarioScript(tuple(segments), seed=seed, stream_id=stream_id)


def test_overhand_script_assesses_overhand_every_frame():
    s = script(Segment(Scene.KNIFE_OVERHAND, 5), seed=7)
    records = list(synthesize(s))
    assert len(records) == 5
    assert all(assess_frame(r, CFG).level is ThreatLevel.OVERHAND_THREAT for r in records)


def test_empty_script_is_evidence_quiet():
    records = list(synthesize(script(Segment(Scene.EMPTY, 3))))
    assert len(records) == 3
    assert all(r.detections == () and r.keypoints == () for r in records)
    assert all(assess_frame(r, CFG).level is ThreatLevel.NONE for r in records)


def test_scene_soundness_at_zero_noise():
    for scene, expected in SCENE_LEVEL.items():
        for r in synthesize(script(Segment(scene, 4))):
            assert assess_frame(r, CFG).level is expected, scene


def test_deterministic_output_bytes():
    s = script(Segment(Scene.KNIFE_OVERHAND, 10, noise=0.05),
               Segment(Scene.EMPTY, 5),
               Segment(Scene.KNIFE_GRASPED, 10, noise=0.1), seed=21)
    first = "\n".join(serialize_frame_record(r) for r in synthesize(s))
    second = "\n".join(serialize_frame_record(r) for r in synthesize(s))
    assert first == second
    assert hashlib.sha256(first.encode()).hexdigest() == hashlib.sha256(second.encode()).hexdigest()
    # an explicit seed overrides the script's own
    override = "\n".join(serialize_frame_record(r) for r in synthesize(s, seed=99))
    assert override != first


# A script whose segments start inside and on the edges of 512-frame
# spans, at noise 0, 0.05 and 0.1, and the sha256 of the frames that
# `threatwatch simulate` wrote for it before records were built from the
# walk's fields: it pins the draw order and each mask's 0.6 of its box.
PINNED_SCRIPT = {"seed": 23, "stream_id": "cam-pin", "segments": [
    {"scene": "knife_overhand", "duration_frames": 700, "noise": 0.1},
    {"scene": "empty", "duration_frames": 300, "noise": 0.0},
    {"scene": "knife_grasped", "duration_frames": 600, "noise": 0.05},
    {"scene": "hand_only", "duration_frames": 530, "noise": 0.1},
    {"scene": "knife_only", "duration_frames": 400, "noise": 0.05}]}
PINNED_SHA256 = "a53fdba196212f1c93b1a2673ffb26f7d35026a24eaab3a5f1eda435135de2e3"


def test_simulate_writes_the_pinned_bytes(tmp_path):
    path, out = tmp_path / "script.json", tmp_path / "frames.jsonl"
    path.write_text(json.dumps(PINNED_SCRIPT))
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    data = out.read_bytes()
    assert data.count(b"\n") == 2530
    assert hashlib.sha256(data).hexdigest() == PINNED_SHA256


_segments = st.lists(st.builds(Segment, st.sampled_from(Scene), st.integers(1, 40),
                               st.sampled_from([0.0, 0.05, 0.1])), min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(segments=_segments, script_seed=st.integers(0, 2**32), seed=st.none() | st.integers(0, 99),
       parts=st.integers(1, 4), span=st.integers(1, 50))
def test_parts_taken_span_by_span_are_the_whole_run(segments, script_seed, seed, parts, span):
    s = script(*segments, seed=script_seed)
    with mock.patch.object(backends, "SYNTH_SPAN_FRAMES", span):
        whole = list(backends._synthesize_fields(s, seed))
        pieces = [backends._synthesize_fields(s, seed, part=k, parts=parts) for k in range(parts)]
        interleaved = []
        for first in range(0, len(whole), span):
            part = pieces[first // span % parts]
            interleaved += [next(part) for _ in range(min(span, len(whole) - first))]
        assert all(next(part, None) is None for part in pieces)
    assert interleaved == whole


@settings(max_examples=200, deadline=None)
@given(segments=_segments, script_seed=st.integers(0, 2**32), seed=st.none() | st.integers(0, 99),
       parts=st.integers(1, 4), span=st.integers(1, 50), tau_det=st.floats(0.90, 1.0))
def test_the_workers_fields_are_the_records_field_for_field(segments, script_seed, seed, parts,
                                                            span, tau_det):
    # At tau_det above 0.90 some jittered confidences fail to qualify.
    s = script(*segments, seed=script_seed)
    cfg = FusionConfig(tau_det=tau_det)
    whole = list(synthesize(s, seed))
    with mock.patch.object(backends, "SYNTH_SPAN_FRAMES", span):
        for part in range(parts):
            # The records of part's spans, part, part + parts, ...
            records = [r for r in whole if (r.frame_id - 1) // span % parts == part]
            frames = list(backends._synthesize_fields(s, seed, part, parts))
            # Each frame's fields are what the parser gives for its record's line.
            assert frames == [_frame_fields(json.loads(serialize_frame_record(r))) for r in records]
            for record, frame in zip(records, frames):
                assessment = assess_frame(record, cfg)
                assert _assess_fields(frame, cfg, False) == serialize_assessment(assessment)
                assert _assess_fields(frame, cfg, True) == (
                    record.stream_id, record.frame_id, record.ts_ms, assessment.level,
                    assessment.score)


def test_noise_jitters_confidence_within_bounds():
    s = script(Segment(Scene.KNIFE_ONLY, 50, noise=0.1), seed=3)
    confs = [r.detections[0].conf for r in synthesize(s)]
    assert all(0.90 <= c <= 1.0 for c in confs)
    assert len(set(confs)) > 1
    flat = [r.detections[0].conf for r in synthesize(script(Segment(Scene.KNIFE_ONLY, 5)))]
    assert flat == [0.90] * 5


def test_frame_ids_and_timestamps_continuous_across_segments():
    s = script(Segment(Scene.EMPTY, 2), Segment(Scene.KNIFE_ONLY, 3))
    records = list(synthesize(s))
    assert [r.frame_id for r in records] == [1, 2, 3, 4, 5]
    assert [r.ts_ms for r in records] == [0, 33, 66, 99, 132]
    assert all(r.stream_id == "synthetic" for r in records)


def test_generated_records_survive_wire_round_trip():
    for scene in Scene:
        for r in synthesize(script(Segment(scene, 2, noise=0.05), seed=11)):
            assert parse_frame_record(serialize_frame_record(r)) == r


def test_segment_and_script_validation():
    with pytest.raises(BadScript):
        Segment(Scene.EMPTY, 0)
    with pytest.raises(BadScript):
        Segment(Scene.EMPTY, 3, noise=0.2)
    with pytest.raises(BadScript):
        ScenarioScript(())
    with pytest.raises(BadScript):
        ScenarioScript((Segment(Scene.EMPTY, 1),), stream_id="")


def test_script_from_dict_validation():
    good = script_from_dict({
        "segments": [{"scene": "knife_overhand", "duration_frames": 4, "noise": 0.02}],
        "seed": 5,
        "stream_id": "cam1",
    })
    assert good.segments[0].scene is Scene.KNIFE_OVERHAND
    assert good.seed == 5

    with pytest.raises(BadScript):
        script_from_dict({"segments": []})
    with pytest.raises(BadScript):
        script_from_dict({"segments": [{"scene": "knife_fight", "duration_frames": 1}]})
    with pytest.raises(BadScript):
        script_from_dict({"segments": [{"scene": "empty", "duration_frames": "3"}]})
    with pytest.raises(BadScript):
        script_from_dict({"segments": [{"scene": "empty", "duration_frames": 1}], "seed": "x"})
    with pytest.raises(BadScript):
        script_from_dict([1, 2])
    for data, message in [
        ({"segments": [7]}, "segments[0] must be an object"),
        ({"segments": [{"scene": "empty", "duration_frames": 1, "noise": "x"}]},
         "segments[0]: noise must be a number"),
        ({"segments": [{"scene": "empty", "duration_frames": 1}], "stream_id": 5},
         "stream_id must be a string"),
    ]:
        with pytest.raises(BadScript) as exc_info:
            script_from_dict(data)
        assert str(exc_info.value) == message


def test_load_script_file(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps({
        "segments": [{"scene": "empty", "duration_frames": 2}],
        "seed": 1,
    }))
    assert len(list(synthesize(load_script(str(path))))) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(BadScript):
        load_script(str(bad))


def test_synthetic_backend_capabilities_and_frames():
    backend = SyntheticBackend(script(Segment(Scene.KNIFE_GRASPED, 3), seed=2))
    assert [r.frame_id for r in backend.frames()] == [1, 2, 3]


def _write_jsonl(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_replay_backend_round_trip(tmp_path):
    records = list(synthesize(script(Segment(Scene.KNIFE_OVERHAND, 3), seed=4)))
    path = _write_jsonl(tmp_path, "frames.jsonl", [serialize_frame_record(r) for r in records])
    backend = ReplayBackend(path)
    assert list(backend.frames()) == records
    # file-backed replay can be iterated again
    assert list(backend.frames()) == records


def test_replay_skip_counts_bad_lines(tmp_path, caplog):
    good = '{"stream_id":"c","frame_id":1,"ts_ms":0}'
    path = _write_jsonl(tmp_path, "mixed.jsonl", [good, "{broken", good.replace('"frame_id":1', '"frame_id":2')])
    backend = ReplayBackend(path, strict=False)
    assert [r.frame_id for r in backend.frames()] == [1, 2]
    assert backend.skipped == 1

    strict = ReplayBackend(path, strict=True)
    with pytest.raises(MalformedJson) as exc_info:
        list(strict.frames())
    assert exc_info.value.line_no == 2

    # bad_line, the policy that a worker process's reported lines go
    # through too: strict raises the very error, lenient counts and logs it
    error = MalformedJson(7, "x")
    with pytest.raises(MalformedJson) as exc_info:
        strict.bad_line(error)
    assert exc_info.value is error
    assert strict.skipped == 0
    lenient = ReplayBackend(path, strict=False)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="threatwatch.backends"):
        lenient.bad_line(error)
    assert lenient.skipped == 1
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("threatwatch.backends", "WARNING", f"skipping bad frame line: {error}")]


def test_replay_bad_leading_line_warns_once(tmp_path, caplog):
    good = '{"stream_id":"c","frame_id":1,"ts_ms":0}'
    path = _write_jsonl(tmp_path, "lead.jsonl", ["{broken", good])
    with caplog.at_level(logging.WARNING, logger="threatwatch.backends"):
        backend = ReplayBackend(path, strict=False)
        assert [r.frame_id for r in backend.frames()] == [1]
    warnings = [r for r in caplog.records if r.name == "threatwatch.backends"]
    assert len(warnings) == 1
    assert "line 1" in warnings[0].getMessage()
    assert backend.skipped == 1


def test_open_backend_schemes(tmp_path):
    frames_path = _write_jsonl(tmp_path, "frames.jsonl", ['{"stream_id":"c","frame_id":1,"ts_ms":0}'])
    assert isinstance(open_backend(f"jsonl:{frames_path}"), ReplayBackend)

    script_path = tmp_path / "s.json"
    script_path.write_text(json.dumps({"segments": [{"scene": "empty", "duration_frames": 1}]}))
    assert isinstance(open_backend(f"synthetic:{script_path}"), SyntheticBackend)

    with pytest.raises(UnknownScheme):
        open_backend("frames.jsonl")
    with pytest.raises(UnknownScheme):
        open_backend("ftp:frames.jsonl")
    with pytest.raises(AdapterUnavailable):
        open_backend("extern:onnx")


def test_extern_adapter_registry():
    marker = SyntheticBackend(script(Segment(Scene.EMPTY, 1)))
    seen = {}

    def factory(arg):
        seen["arg"] = arg
        return marker

    register_extern_adapter("fake", factory)
    assert open_backend("extern:fake:gpu0") is marker
    assert seen["arg"] == "gpu0"
    assert open_backend("extern:fake") is marker
    assert seen["arg"] == ""
