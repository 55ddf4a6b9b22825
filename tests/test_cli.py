"""End-to-end command behavior through main(argv)."""

import io
import json
import pathlib
import re
import subprocess
import sys

import pytest

from threatwatch.cli import main
from threatwatch.evaluation import Split, make_splits
from threatwatch.frames import ManifestEntry, ManifestLabel, serialize_frame_record
from threatwatch.backends import ScenarioScript, Scene, Segment, synthesize

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

SUMMARY_RE = re.compile(
    r"summary: frames=(\d+) skipped=(\d+) elapsed_s=([\d.]+) rate_fps=([\d.]+)"
)
WATCH_SUMMARY_RE = re.compile(
    r"summary: frames=(\d+) skipped=(\d+) dropped=(\d+) alerts_raised=(\d+) "
    r"events=(\d+) elapsed_s=([\d.]+) rate_fps=([\d.]+)"
)


def write_manifest(path, entries):
    with open(path, "w", newline="\n") as fh:
        for sample_id, label in entries:
            fh.write(json.dumps({"sample_id": sample_id, "label": label}) + "\n")


def write_script(path, segments, seed=0, stream_id="synthetic"):
    body = {
        "segments": [
            {"scene": scene, "duration_frames": n, "noise": noise}
            for scene, n, noise in segments
        ],
        "seed": seed,
        "stream_id": stream_id,
    }
    path.write_text(json.dumps(body))


def test_validate_prints_stats(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, [("a", "threat"), ("b", "no_threat"), ("c", "hand"), ("d", "threat")])
    assert main(["validate", "--manifest", str(manifest)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["total"] == 4
    assert stats["per_label"] == {"threat": 2, "no_threat": 1, "hand": 1}
    assert stats["positive_fraction"] == 0.5


def test_validate_duplicate_exits_1(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, [("a", "threat"), ("a", "hand")])
    assert main(["validate", "--manifest", str(manifest)]) == 1
    assert "a" in capsys.readouterr().err


def test_validate_missing_file_exits_2(tmp_path, capsys):
    assert main(["validate", "--manifest", str(tmp_path / "nope.jsonl")]) == 2


def test_split_matches_library_and_reruns_identically(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    entries = [(f"s{i:03d}", "threat" if i % 4 == 0 else "no_threat") for i in range(40)]
    write_manifest(manifest, entries)
    out1 = tmp_path / "split1.jsonl"
    out2 = tmp_path / "split2.jsonl"
    assert main(["split", "--manifest", str(manifest), "--seed", "5", "--out", str(out1)]) == 0
    assert main(["split", "--manifest", str(manifest), "--seed", "5", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    rows = [json.loads(line) for line in out1.read_text().splitlines()]
    assert [r["sample_id"] for r in rows] == sorted(r["sample_id"] for r in rows)
    expected = make_splits(
        [ManifestEntry(s, ManifestLabel(l)) for s, l in entries], seed=5
    )
    assert {r["sample_id"]: r["split"] for r in rows} == {
        sid: split.value for sid, split in expected.assignment.items()
    }
    counts = [r["split"] for r in rows]
    assert counts.count("train") == 28
    assert counts.count("val") == 6
    assert counts.count("test") == 6


def test_split_bad_ratio_sum_exits_1(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, [("a", "hand")])
    code = main(["split", "--manifest", str(manifest), "--ratios", "0.5,0.5,0.1"])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_split_non_finite_ratio_exits_1(tmp_path, capsys, bad, position):
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, [("a", "hand"), ("b", "threat")])
    ratios = ["0.5", "0.5", "0.5"]
    ratios[position] = bad
    out = tmp_path / "split.jsonl"
    assert main(["split", "--manifest", str(manifest), "--ratios", ",".join(ratios),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ratios must ") and err.count("\n") == 1
    assert not out.exists()


def test_split_unparseable_ratio_is_usage_error(capsys):
    for ratios, reason in [("a,b,c", "ratios must be numeric"),
                           ("0.5,0.5", "ratios must be three comma-separated numbers")]:
        with pytest.raises(SystemExit) as exited:
            main(["split", "--manifest", "x", "--ratios", ratios])
        assert exited.value.code == 2
        assert reason in capsys.readouterr().err


def test_score_file_to_file(tmp_path, capsys):
    records = list(synthesize(ScenarioScript(
        (Segment(Scene.KNIFE_OVERHAND, 2), Segment(Scene.EMPTY, 1)), seed=3)))
    frames = tmp_path / "frames.jsonl"
    frames.write_text("".join(serialize_frame_record(r) + "\n" for r in records))
    out = tmp_path / "assessments.jsonl"
    assert main(["score", "--input", str(frames), "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["frame_id"] for r in rows] == [1, 2, 3]
    assert [r["level"] for r in rows] == ["overhand_threat", "overhand_threat", "none"]
    match = SUMMARY_RE.search(capsys.readouterr().err)
    assert match is not None
    assert match.group(1) == "3"


def test_score_stdin_stdout(tmp_path, capsys, monkeypatch):
    record = '{"stream_id":"c","frame_id":1,"ts_ms":0,"detections":[{"label":"knife","box":[0.4,0.5,0.1,0.2],"conf":0.93}]}'
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(record.encode() + b"\n")))
    assert main(["score", "--input", "-", "--out", "-"]) == 0
    captured = capsys.readouterr()
    row = json.loads(captured.out)
    assert row["level"] == "object_present"
    assert SUMMARY_RE.search(captured.err)


def test_score_skips_bad_lines_by_default(tmp_path, capsys):
    frames = tmp_path / "frames.jsonl"
    frames.write_text('{"stream_id":"c","frame_id":1,"ts_ms":0}\n{broken\n')
    out = tmp_path / "out.jsonl"
    assert main(["score", "--input", str(frames), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1
    match = SUMMARY_RE.search(capsys.readouterr().err)
    assert match.group(2) == "1"


@pytest.mark.parametrize("bad, strict_error", [
    (b'{"stream_id":"c","frame_id":2,"ts_ms":33,"scores":{"threat":1' + b"0" * 400 + b',"no_threat":0,"hand":0}}',
     "line 2: $.scores: threat must be within"),
    (b'{"stream_id":"c","frame_id":' + b"7" * 5000 + b',"ts_ms":33}', "line 2: malformed JSON: "),
    (b"[" * 200_000, "line 2: malformed JSON: "),
    (b'{"stream_id":"c\xff","frame_id":2,"ts_ms":33}', "line 2: malformed JSON: "),
    (json.dumps({"stream_id": "c", "frame_id": 2, "ts_ms": 33, "detections": [
        {"label": "knife", "box": [0.4, 0.5, 0.1, 0.2], "conf": 0.93}] * 257}).encode(),
     "line 2: $.detections: expected at most 256 entries, got 257"),
    (json.dumps({"stream_id": "c", "frame_id": 2, "ts_ms": 33, "keypoints": [
        {"name": "wrist", "x": 0.5, "y": 0.4, "conf": 0.8}] * 257}).encode(),
     "line 2: $.keypoints: expected at most 256 entries, got 257"),
    # str.strip() clears these, but none is JSON whitespace: not blank lines
    (b"\x0c", "line 2: malformed JSON: "),
    ("\x85".encode(), "line 2: malformed JSON: "),
    (b"\x1c", "line 2: malformed JSON: "),
], ids=["number_beyond_float", "integer_beyond_digit_limit", "nesting_beyond_recursion_limit",
        "byte_not_utf8", "detections_beyond_limit", "keypoints_beyond_limit",
        "form_feed_line", "next_line_line", "file_separator_line"])
def test_hostile_line_is_skipped_not_fatal(tmp_path, capsys, monkeypatch, bad, strict_error):
    data = b'{"stream_id":"c","frame_id":1,"ts_ms":0}\n' + bad + b'\n{"stream_id":"c","frame_id":3,"ts_ms":66}\n'
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(data)
    outputs = []
    for source in (str(frames), "-"):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert main(["score", "--input", source, "--out", str(tmp_path / "out.jsonl")]) == 0
        assert SUMMARY_RE.search(capsys.readouterr().err).group(1, 2) == ("2", "1")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert main(["watch", "--input", source, "--alerts", str(tmp_path / "alerts.jsonl")]) == 0
        assert WATCH_SUMMARY_RE.search(capsys.readouterr().err).group(1, 2) == ("2", "1")
        outputs.append(((tmp_path / "out.jsonl").read_bytes(), (tmp_path / "alerts.jsonl").read_bytes()))
    assert outputs[0] == outputs[1]
    assert main(["score", "--input", str(frames), "--out", str(tmp_path / "out.jsonl"), "--strict"]) == 1
    assert f"error: {strict_error}" in capsys.readouterr().err


def test_crlf_frames_score_like_lf(tmp_path, capsys):
    records = list(synthesize(ScenarioScript(
        (Segment(Scene.KNIFE_OVERHAND, 3), Segment(Scene.HAND_ONLY, 2)), seed=5)))
    lf = "".join(serialize_frame_record(r) + "\n" for r in records)
    outputs = []
    for name, text in (("lf", lf), ("crlf", lf.replace("\n", "\r\n"))):
        frames = tmp_path / f"{name}.jsonl"
        frames.write_bytes(text.encode())
        out = tmp_path / f"{name}.out"
        assert main(["score", "--input", str(frames), "--out", str(out), "--strict"]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] != b""
    capsys.readouterr()
    # a lone CR ends no line: the two records below are one malformed line
    frames = tmp_path / "cr.jsonl"
    frames.write_bytes(lf.replace("\n", "\r", 1).encode())
    assert main(["score", "--input", str(frames), "--out", str(tmp_path / "cr.out")]) == 0
    assert SUMMARY_RE.search(capsys.readouterr().err).group(1, 2) == (str(len(records) - 2), "1")


def test_score_strict_aborts_on_bad_line(tmp_path, capsys):
    frames = tmp_path / "frames.jsonl"
    frames.write_text('{"stream_id":"c","frame_id":1,"ts_ms":0}\n{broken\n')
    code = main(["score", "--input", str(frames), "--out", str(tmp_path / "o.jsonl"), "--strict"])
    assert code == 1
    assert "line 2" in capsys.readouterr().err


def test_score_non_uri_input_is_a_jsonl_path(tmp_path, capsys, monkeypatch):
    (tmp_path / "ftp:frames.jsonl").write_text('{"stream_id":"c","frame_id":1,"ts_ms":0}\n')
    monkeypatch.chdir(tmp_path)
    assert main(["score", "--input", "ftp:frames.jsonl", "--out", "a.jsonl"]) == 0
    assert main(["score", "--input", "jsonl:ftp:frames.jsonl", "--out", "b.jsonl"]) == 0
    assert (tmp_path / "a.jsonl").read_text() == (tmp_path / "b.jsonl").read_text() != ""
    # a scheme name without its colon is a path as well
    (tmp_path / "synthetic").write_text('{"stream_id":"c","frame_id":1,"ts_ms":0}\n')
    assert main(["score", "--input", "synthetic", "--out", "c.jsonl"]) == 0
    assert (tmp_path / "c.jsonl").read_text() == (tmp_path / "a.jsonl").read_text()


def test_watch_input_that_is_also_the_output_is_refused(tmp_path, capsys):
    records = list(synthesize(ScenarioScript((Segment(Scene.KNIFE_OVERHAND, 5),), seed=3)))
    data = "".join(serialize_frame_record(r) + "\n" for r in records)
    frames = tmp_path / "frames.jsonl"
    frames.write_text(data)
    link = tmp_path / "link.jsonl"
    link.symlink_to(frames)
    for source, alerts in ((str(frames), str(frames)), (f"jsonl:{link}", str(frames)),
                           (str(frames), str(tmp_path / "." / "link.jsonl"))):
        assert main(["watch", "--input", source, "--alerts", alerts]) == 1
        assert capsys.readouterr().err == f"error: input and output are the same file: {alerts}\n"
        assert frames.read_text() == data
    # a different file, or stdout, is fine
    assert main(["watch", "--input", f"jsonl:{link}", "--alerts", "-"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[0])["kind"] == "raised"


def test_score_missing_input_exits_2(tmp_path, capsys):
    assert main(["score", "--input", str(tmp_path / "ghost.jsonl"), "--out", "-"]) == 2


@pytest.mark.parametrize("command, out_flag", [("score", "--out"), ("watch", "--alerts")])
def test_missing_input_leaves_existing_out_untouched(tmp_path, capsys, command, out_flag):
    out = tmp_path / "out.jsonl"
    out.write_text("earlier run\n")
    assert main([command, "--input", str(tmp_path / "ghost.jsonl"), out_flag, str(out)]) == 2
    assert out.read_text() == "earlier run\n"


@pytest.mark.parametrize("stdin_input", ["-", "jsonl:-", "synthetic:-"])
@pytest.mark.parametrize("config_by", ["flag", "env"])
@pytest.mark.parametrize("command, out_flag", [("score", "--out"), ("watch", "--alerts")])
def test_config_and_input_both_on_stdin_rejected(tmp_path, capsys, monkeypatch, command, out_flag,
                                                  config_by, stdin_input):
    out = tmp_path / "out.jsonl"
    out.write_text("earlier run\n")
    stdin = io.BytesIO(b"{}\n")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(stdin))
    argv = [command, "--input", stdin_input, out_flag, str(out)]
    if config_by == "flag":
        argv += ["--config", "-"]
    else:
        monkeypatch.setenv("THREATWATCH_CONFIG", "-")
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: config and input cannot both come from stdin"]
    assert stdin.tell() == 0
    assert out.read_text() == "earlier run\n"


def test_unwritable_out_exits_2_and_closes_input(tmp_path, capsys, monkeypatch):
    frames = tmp_path / "frames.jsonl"
    frames.write_text('{"stream_id":"c","frame_id":1,"ts_ms":0}\n')
    opened = []

    def recording_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr("threatwatch.frames.open", recording_open, raising=False)
    # a directory cannot be opened for writing, whatever the permissions
    assert main(["score", "--input", str(frames), "--out", str(tmp_path)]) == 2
    assert opened
    assert all(fh.closed for fh in opened)


def test_score_synthetic_uri(tmp_path, capsys):
    script = tmp_path / "s.json"
    write_script(script, [("knife_grasped", 4, 0.0)])
    assert main(["score", "--input", f"synthetic:{script}", "--out", "-"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["level"] for r in rows] == ["grasped"] * 4


def test_watch_overhand_lifecycle(tmp_path, capsys):
    script = tmp_path / "s.json"
    write_script(script, [("knife_overhand", 5, 0.0)], stream_id="cam1")
    assert main(["watch", "--input", f"synthetic:{script}", "--alerts", "-"]) == 0
    captured = capsys.readouterr()
    events = [json.loads(line) for line in captured.out.splitlines()]
    assert [e["kind"] for e in events] == ["raised", "escalated", "cleared"]
    assert [e["frame_id"] for e in events] == [3, 4, 5]
    assert all(e["alert_id"] == "cam1:3" for e in events)
    assert events[2]["level"] == "overhand_threat"
    match = WATCH_SUMMARY_RE.search(captured.err)
    assert match is not None
    assert match.group(1) == "5"
    assert match.group(4) == "1"
    assert match.group(5) == "3"


def test_watch_empty_scene_no_events(tmp_path, capsys):
    script = tmp_path / "s.json"
    write_script(script, [("empty", 6, 0.0)])
    assert main(["watch", "--input", f"synthetic:{script}", "--alerts", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    match = WATCH_SUMMARY_RE.search(captured.err)
    assert match.group(5) == "0"
    assert "webhook:" not in captured.err


def test_watch_drops_out_of_order_frames(tmp_path, capsys):
    line1 = '{"stream_id":"c","frame_id":5,"ts_ms":0}'
    line2 = '{"stream_id":"c","frame_id":4,"ts_ms":33}'
    frames = tmp_path / "frames.jsonl"
    frames.write_text(line1 + "\n" + line2 + "\n")
    assert main(["watch", "--input", str(frames), "--alerts", "-"]) == 0
    match = WATCH_SUMMARY_RE.search(capsys.readouterr().err)
    assert match.group(3) == "1"


def test_watch_webhook_failure_does_not_lose_events(tmp_path, capsys):
    script = tmp_path / "s.json"
    write_script(script, [("knife_overhand", 5, 0.0)])
    alerts = tmp_path / "alerts.jsonl"
    code = main(["watch", "--input", f"synthetic:{script}", "--alerts", str(alerts),
                 "--webhook", "http://127.0.0.1:9/hook"])
    assert code == 0
    assert len(alerts.read_text().splitlines()) == 3
    assert "webhook: delivered=0 failed=3 dropped=0" in capsys.readouterr().err.splitlines()


def test_eval_table_against_fixture(capsys):
    code = main([
        "eval",
        "--pred", str(FIXTURES / "reported_accuracy_predictions.jsonl"),
        "--labels", str(FIXTURES / "reported_accuracy_labels.jsonl"),
        "--format", "table",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert re.search(r"Threat\s+0\.98\s+534", out)
    assert re.search(r"No Threat\s+0\.97\s+531", out)
    assert re.search(r"Hand\s+0\.96\s+23", out)


def test_eval_json_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main([
        "eval",
        "--pred", str(FIXTURES / "reported_accuracy_predictions.jsonl"),
        "--labels", str(FIXTURES / "reported_accuracy_labels.jsonl"),
        "--report", str(report_path),
        "--format", "json",
    ])
    assert code == 0
    data = json.loads(report_path.read_text())
    assert data["total"] == 1088
    assert data["matrix"]["labels"] == ["threat", "no_threat", "hand"]
    assert data["sources"]["predictions"].endswith("reported_accuracy_predictions.jsonl")
    by_label = {c["label"]: c for c in data["classes"]}
    assert by_label["threat"]["correct"] == 524


def test_eval_both_inputs_on_stdin_rejected(tmp_path, capsys, monkeypatch):
    stdin = io.BytesIO(b'{"sample_id":"a","label":"threat"}\n')
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(stdin))
    report = tmp_path / "report.txt"
    assert main(["eval", "--pred", "-", "--labels", "-", "--report", str(report)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: predictions and labels cannot both come from stdin"]
    assert stdin.tell() == 0
    assert not report.exists()


def test_eval_unknown_sample_exits_1(tmp_path, capsys):
    labels = tmp_path / "labels.jsonl"
    preds = tmp_path / "preds.jsonl"
    write_manifest(labels, [("a", "threat")])
    preds.write_text('{"sample_id":"zz","predicted":"threat"}\n')
    assert main(["eval", "--pred", str(preds), "--labels", str(labels)]) == 1
    assert "zz" in capsys.readouterr().err


HOSTILE_DOCUMENTS = [
    b'{"segments": [{"scene": "empty", "duration_frames": ' + b"7" * 5000 + b"}]}",
    b"[" * 200_000,
    b'{"segments": [{"scene": "empty", "duration_frames": 1}], "stream_id": "\xff"}',
]
HOSTILE_IDS = ["integer_beyond_digit_limit", "nesting_beyond_recursion_limit", "byte_not_utf8"]


def error_lines(err):
    return [line for line in err.splitlines() if line.startswith("error:")]


@pytest.mark.parametrize("bad", [b'{"sample_id":"a","predicted":' + b"7" * 5000 + b"}",
                                 b"[" * 200_000,
                                 b'{"sample_id":"\xff","predicted":"threat"}'], ids=HOSTILE_IDS)
def test_eval_hostile_prediction_is_malformed_json(tmp_path, capsys, bad):
    labels = tmp_path / "labels.jsonl"
    write_manifest(labels, [("a", "threat")])
    preds = tmp_path / "preds.jsonl"
    preds.write_bytes(bad + b"\n")
    assert main(["eval", "--pred", str(preds), "--labels", str(labels)]) == 1
    [line] = error_lines(capsys.readouterr().err)
    assert line.startswith("error: line 1: malformed JSON: ")


def test_validate_undecodable_manifest_is_malformed_json(tmp_path, capsys):
    labels = tmp_path / "labels.jsonl"
    labels.write_bytes(b'{"sample_id":"\xff","label":"threat"}\n')
    assert main(["validate", "--manifest", str(labels)]) == 1
    [line] = error_lines(capsys.readouterr().err)
    assert line.startswith("error: line 1: malformed JSON: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("bad", HOSTILE_DOCUMENTS, ids=HOSTILE_IDS)
def test_hostile_script_and_config_are_not_valid_json(tmp_path, capsys, bad):
    path = tmp_path / "bad.json"
    path.write_bytes(bad)
    assert main(["simulate", "--scenario", str(path), "--out", "-"]) == 1
    [line] = error_lines(capsys.readouterr().err)
    assert line.startswith(f"error: {path}: not valid JSON: ")
    script = tmp_path / "s.json"
    write_script(script, [("empty", 1, 0.0)])
    assert main(["score", "--input", f"synthetic:{script}", "--config", str(path), "--out", "-"]) == 1
    [line] = error_lines(capsys.readouterr().err)
    assert line.startswith("error: config is not valid JSON: ")


def test_script_from_stdin(tmp_path, capsys, monkeypatch):
    script = tmp_path / "s.json"
    write_script(script, [("knife_grasped", 2, 0.02)], seed=4)
    for by_path, by_stdin in ((["simulate", "--scenario", str(script)], ["simulate", "--scenario", "-"]),
                              (["score", "--input", f"synthetic:{script}"], ["score", "--input", "synthetic:-"])):
        outputs = []
        for argv in (by_path, by_stdin):
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(script.read_bytes())))
            assert main(argv + ["--out", "-"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != ""


def test_simulate_deterministic_and_seed_override(tmp_path):
    script = tmp_path / "s.json"
    write_script(script, [("knife_overhand", 4, 0.05)], seed=9)
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    out3 = tmp_path / "c.jsonl"
    assert main(["simulate", "--scenario", str(script), "--out", str(out1)]) == 0
    assert main(["simulate", "--scenario", str(script), "--out", str(out2)]) == 0
    assert main(["simulate", "--scenario", str(script), "--seed", "10", "--out", str(out3)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() != out3.read_bytes()
    assert len(out1.read_text().splitlines()) == 4


def test_simulate_bad_script_exits_1(tmp_path, capsys):
    script = tmp_path / "s.json"
    script.write_text(json.dumps({"segments": [{"scene": "empty", "duration_frames": 0}]}))
    assert main(["simulate", "--scenario", str(script), "--out", "-"]) == 1


def test_config_controls_temporal_thresholds(tmp_path, capsys):
    script = tmp_path / "s.json"
    write_script(script, [("knife_grasped", 1, 0.0)], stream_id="cam")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"temporal": {"n_raise": 1, "n_clear": 1}}))
    assert main(["watch", "--input", f"synthetic:{script}", "--config", str(config),
                 "--alerts", "-"]) == 0
    events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [e["kind"] for e in events] == ["raised", "cleared"]
    assert events[0]["frame_id"] == 1


def test_config_env_var_fallback(tmp_path, capsys, monkeypatch):
    script = tmp_path / "s.json"
    write_script(script, [("knife_grasped", 2, 0.0)])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"fusion": {"tau_det": 0.99}}))
    monkeypatch.setenv("THREATWATCH_CONFIG", str(config))
    # conf 0.90 detections fall below the raised floor; only the classifier fires
    assert main(["score", "--input", f"synthetic:{script}", "--out", "-"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["level"] for r in rows] == ["object_present", "object_present"]
    assert all(r["evidence"][0] == "classifier:threat" for r in rows)


def test_config_unknown_key_exits_1(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"fusion": {"tau_detection": 0.9}}))
    script = tmp_path / "s.json"
    write_script(script, [("empty", 1, 0.0)])
    code = main(["score", "--input", f"synthetic:{script}", "--config", str(config), "--out", "-"])
    assert code == 1
    assert "tau_detection" in capsys.readouterr().err


def test_config_invalid_value_exits_1(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"temporal": {"n_raise": 0}}))
    script = tmp_path / "s.json"
    write_script(script, [("empty", 1, 0.0)])
    assert main(["watch", "--input", f"synthetic:{script}", "--config", str(config),
                 "--alerts", "-"]) == 1


def test_shell_pipeline_matches_in_process(tmp_path):
    script = tmp_path / "s.json"
    write_script(script, [("knife_overhand", 6, 0.03), ("empty", 4, 0.0)], seed=13)

    frames = tmp_path / "frames.jsonl"
    staged = tmp_path / "staged.jsonl"
    assert main(["simulate", "--scenario", str(script), "--out", str(frames)]) == 0
    assert main(["score", "--input", str(frames), "--out", str(staged)]) == 0

    piped = subprocess.run(
        f'"{sys.executable}" -m threatwatch simulate --scenario "{script}" --out - | '
        f'"{sys.executable}" -m threatwatch score --input - --out -',
        shell=True, capture_output=True, text=True, check=True,
    )
    assert piped.stdout == staged.read_text()
    assert "summary:" in piped.stderr
