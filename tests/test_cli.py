"""End-to-end command behavior through main(argv)."""

import io
import json
import pathlib
import re
import subprocess
import sys

import pytest

from threatwatch import backends
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


def test_split_unparseable_ratio_is_usage_error(tmp_path):
    with pytest.raises(SystemExit):
        main(["split", "--manifest", "x", "--ratios", "a,b,c"])


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
    monkeypatch.setattr(sys, "stdin", io.StringIO(record + "\n"))
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


def test_score_missing_input_exits_2(tmp_path, capsys):
    assert main(["score", "--input", str(tmp_path / "ghost.jsonl"), "--out", "-"]) == 2


@pytest.mark.parametrize("command, out_flag", [("score", "--out"), ("watch", "--alerts")])
def test_missing_input_leaves_existing_out_untouched(tmp_path, capsys, command, out_flag):
    out = tmp_path / "out.jsonl"
    out.write_text("earlier run\n")
    assert main([command, "--input", str(tmp_path / "ghost.jsonl"), out_flag, str(out)]) == 2
    assert out.read_text() == "earlier run\n"


def test_unwritable_out_exits_2_and_closes_input(tmp_path, capsys, monkeypatch):
    frames = tmp_path / "frames.jsonl"
    frames.write_text('{"stream_id":"c","frame_id":1,"ts_ms":0}\n')
    opened = []

    def recording_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(backends, "open", recording_open, raising=False)
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


def test_eval_unknown_sample_exits_1(tmp_path, capsys):
    labels = tmp_path / "labels.jsonl"
    preds = tmp_path / "preds.jsonl"
    write_manifest(labels, [("a", "threat")])
    preds.write_text('{"sample_id":"zz","predicted":"threat"}\n')
    assert main(["eval", "--pred", str(preds), "--labels", str(labels)]) == 1
    assert "zz" in capsys.readouterr().err


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
