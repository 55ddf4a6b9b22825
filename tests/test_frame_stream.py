"""The frame stream that score and watch read: assess_span's runs cut at
bad lines, what a one-process run loads, and a stdin input that is the
output file."""

import gc
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from threatwatch.cli import assess_span, main
from threatwatch.frames import chunk_spans, parse_frame_record
from threatwatch.fusion import FusionConfig, ThreatLevel, assess_frame

ROOT = pathlib.Path(__file__).resolve().parent.parent

_SCENES = [
    [],
    [{"label": "knife", "box": [0.46, 0.50, 0.08, 0.18], "conf": 0.95}],
    [{"label": "hand", "box": [0.45, 0.28, 0.10, 0.10], "conf": 0.95},
     {"label": "knife", "box": [0.46, 0.46, 0.08, 0.18], "conf": 0.95}],
]


def _frame(frame_id):
    return json.dumps({"stream_id": f"s{frame_id % 2}", "frame_id": frame_id,
                       "ts_ms": 33 * frame_id, "detections": _SCENES[frame_id % 3]}) + "\n"


# Bad lines at the start, two adjacent ones, one between frames, and one
# at the end: a malformed line and a schema violation of each kind.
_LINES = ["{broken\n", _frame(1), _frame(2), '{"stream_id":"x"}\n', "[1]\n", _frame(3),
          "{nope\n", _frame(4), _frame(5), _frame(6), '{"frame_id":-1}\n']
_BAD_LINE_NOS = [i + 1 for i, line in enumerate(_LINES) if '"detections"' not in line]


@pytest.fixture
def frames_file(tmp_path):
    path = tmp_path / "frames.jsonl"
    path.write_text("".join(_LINES))
    return path


def test_score_runs_are_cut_at_each_bad_line(frames_file, tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    assert main(["score", "--input", str(frames_file), "--out", str(out)]) == 0
    capsys.readouterr()
    runs, bad = assess_span(FusionConfig(), False, str(frames_file), 0,
                            frames_file.stat().st_size, 1)
    assert [exc.line_no for exc in bad] == _BAD_LINE_NOS
    assert len(runs) == len(bad) + 1
    assert [count for _, count in runs] == [0, 2, 0, 1, 3, 0]
    assert [text.count("\n") for text, _ in runs] == [count for _, count in runs]
    assert "".join(text for text, _ in runs) == out.read_text()


def test_watch_runs_are_frames_cut_at_each_bad_line(frames_file):
    cfg = FusionConfig()
    runs, bad = assess_span(cfg, True, str(frames_file), 0, frames_file.stat().st_size, 1)
    assert [exc.line_no for exc in bad] == _BAD_LINE_NOS
    assert len(runs) == len(bad) + 1
    assert [count for _, count in runs] == [0, 2, 0, 1, 3, 0]
    rows = [row for frames, count in runs for row in frames]
    expected = []
    for line_no, line in enumerate(_LINES, 1):
        if line_no not in _BAD_LINE_NOS:
            record = parse_frame_record(line, line_no)
            assessment = assess_frame(record, cfg)
            expected.append((record.stream_id, record.frame_id, record.ts_ms,
                             assessment.level, assessment.score))
    assert rows == expected
    assert all(type(level) is ThreatLevel for _, _, _, level, _ in rows)
    assert all(len(frames) == count for frames, count in runs)


@pytest.mark.parametrize("watch", [False, True], ids=["score", "watch"])
def test_a_span_with_bad_lines_leaves_no_cycle(frames_file, watch):
    # A bad line's traceback or context would hold the parser's frame, and
    # so the span's lines, in a cycle with the runs.
    gc.collect()
    gc.disable()
    try:
        runs, bad = assess_span(FusionConfig(), watch, str(frames_file), 0,
                                frames_file.stat().st_size, 1)
        assert len(bad) == len(_BAD_LINE_NOS)
        del runs, bad
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("size", [1, 40, 200])
def test_runs_of_small_spans_join_to_those_of_one_span(frames_file, size):
    path = str(frames_file)
    whole, _ = assess_span(FusionConfig(), False, path, 0, frames_file.stat().st_size, 1)
    parts = [assess_span(FusionConfig(), False, path, *span) for span in chunk_spans(path, size)]
    assert len(parts) > 1
    assert [exc.line_no for _, bad in parts for exc in bad] == _BAD_LINE_NOS
    assert all(len(runs) == len(bad) + 1 for runs, bad in parts)
    assert ("".join(text for runs, _ in parts for text, _ in runs)
            == "".join(text for text, _ in whole))


# Runs one command through cli.main, then prints the pool modules loaded.
_LOADED = """\
import sys
from threatwatch import cli
code = cli.main(sys.argv[1:])
print([m for m in ("multiprocessing", "concurrent.futures", "pickle") if m in sys.modules])
sys.exit(code)
"""


@pytest.mark.parametrize("command, out", [("score", "--out"), ("watch", "--alerts")])
def test_one_process_run_loads_no_pool_modules(frames_file, tmp_path, command, out):
    done = subprocess.run([sys.executable, "-c", _LOADED, command, "--input", str(frames_file),
                           out, str(tmp_path / "out.jsonl")],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("command, out", [("score", "--out"), ("watch", "--alerts")])
def test_stdin_from_the_output_file_is_refused_untouched(frames_file, tmp_path, command, out):
    data = frames_file.read_bytes()
    other = tmp_path / "other.jsonl"
    other.write_text("earlier run\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "threatwatch", command, "--input", "-", out]
    with open(frames_file, "rb") as stdin:
        done = subprocess.run([*argv, str(frames_file)], stdin=stdin, capture_output=True,
                              text=True, timeout=60, env=env)
    assert done.returncode == 1
    assert done.stderr == f"error: input and output are the same file: {frames_file}\n"
    assert frames_file.read_bytes() == data
    # another existing output file is written as usual
    with open(frames_file, "rb") as stdin:
        done = subprocess.run([*argv, str(other)], stdin=stdin, capture_output=True, text=True,
                              timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert other.read_text() != "earlier run\n"


def test_stdin_with_no_file_descriptor_is_not_checked(frames_file, tmp_path, monkeypatch,
                                                      capsys):
    out = tmp_path / "out.jsonl"
    out.write_text("earlier run\n")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(frames_file.read_bytes())))
    assert main(["score", "--input", "-", "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 6
    assert "skipped=5" in capsys.readouterr().err
