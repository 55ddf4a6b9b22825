"""Tests of the benchmark itself: generator determinism, the oracle's
sensitivity, and short smoke runs against the checkout's program.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import workloads
from run import ROOT, SPEC_PATH

SPEC = json.loads(SPEC_PATH.read_text())
END_TO_END = [metric["name"] for metric in SPEC["end_to_end"]]
PER_LAYER = [metric["name"] for metric in SPEC["per_layer"]]


def _files(workload: workloads.Workload) -> dict:
    return {path.name: path.read_bytes() for path in workload.files}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_byte_identical_per_seed(tmp_path, name):
    first = workloads.generate(name, 7, tmp_path / "a")
    again = workloads.generate(name, 7, tmp_path / "b")
    other = workloads.generate(name, 8, tmp_path / "c")
    assert _files(first) == _files(again)
    assert first.truth == again.truth
    assert _files(first) != _files(other)


def _score_output(truth: workloads.Truth) -> list:
    return [json.dumps({"stream_id": s, "frame_id": f, "level": workloads.LEVELS[level]})
            for s, f, _, level in truth.frames]


def _encode(lines: list) -> bytes:
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture(scope="module")
def replay_score(tmp_path_factory):
    return workloads.generate("replay-score", 3, tmp_path_factory.mktemp("score")).truth


@pytest.fixture(scope="module")
def replay_watch(tmp_path_factory):
    truth = workloads.generate("replay-watch", 3, tmp_path_factory.mktemp("watch")).truth
    events = oracle.reference_events(truth)
    lines = [json.dumps(dict(zip(("stream_id", "alert_id", "kind", "frame_id", "ts_ms",
                                  "level"), event))) for event in events]
    summary = {"frames": len(truth.frames) + len(truth.stale), "skipped": truth.bad_lines,
               "dropped": len(truth.stale), "events": len(events)}
    return truth, events, lines, summary


def test_oracle_accepts_the_designated_score_output(replay_score):
    lines = _score_output(replay_score)
    assert oracle.check_score(_encode(lines), replay_score,
                              {"skipped": replay_score.bad_lines}) == 0


def test_oracle_flags_a_flipped_level(replay_score):
    lines = _score_output(replay_score)
    record = json.loads(lines[100])
    record["level"] = "none" if record["level"] != "none" else "grasped"
    lines[100] = json.dumps(record)
    assert oracle.check_score(_encode(lines), replay_score,
                              {"skipped": replay_score.bad_lines}) == 1


def test_oracle_flags_a_wrongly_skipped_line(replay_score):
    lines = _score_output(replay_score)
    del lines[200]
    assert oracle.check_score(_encode(lines), replay_score,
                              {"skipped": replay_score.bad_lines + 1}) == 2


def test_oracle_flags_an_accepted_bad_line(replay_score):
    lines = _score_output(replay_score)
    lines.insert(5, json.dumps({"stream_id": "cam-00", "frame_id": -1, "level": "none"}))
    assert oracle.check_score(_encode(lines), replay_score,
                              {"skipped": replay_score.bad_lines}) == 1


def test_oracle_accepts_the_reference_watch_output(replay_watch):
    truth, events, lines, summary = replay_watch
    assert 100 < len(events) < 1000
    assert oracle.check_watch(_encode(lines), truth, summary, events, lines) == 0


def test_oracle_flags_a_missing_webhook_delivery(replay_watch):
    truth, events, lines, summary = replay_watch
    assert oracle.check_watch(_encode(lines), truth, summary, events, lines[1:]) == 1


def test_oracle_flags_a_wrong_alert_level(replay_watch):
    truth, events, lines, summary = replay_watch
    record = json.loads(lines[0])
    record["level"] = "object_present"
    flipped = [json.dumps(record)] + lines[1:]
    assert oracle.check_watch(_encode(flipped), truth, summary, events, flipped) == 2


def test_oracle_flags_a_stale_frame_that_was_not_dropped(replay_watch):
    truth, events, lines, summary = replay_watch
    miscounted = dict(summary, dropped=summary["dropped"] - 1)
    assert oracle.check_watch(_encode(lines), truth, miscounted, events, lines) == 1


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=180)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_passes_oracle_and_golden(name):
    done = _run("--workload", name, "--seed", "0", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(END_TO_END)
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_and_accounts_for_frame_time():
    done = _run("--workload", "replay-watch", "--seed", "1", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(PER_LAYER)
    layers = sum(metrics[f"{layer}.self_us"]
                 for layer in ("frames", "backends", "fusion", "alerts", "webhook"))
    assert layers + metrics["cli.other_us"] == pytest.approx(metrics["cli.frame_us.mean"])
    assert metrics["cli.other_us"] < 0.25 * metrics["cli.frame_us.mean"]
    assert metrics["webhook.delivered"] == (metrics["alerts.raised"] + metrics["alerts.escalated"]
                                            + metrics["alerts.cleared"])
    assert metrics["webhook.burst_delivered"] + metrics["webhook.burst_dropped"] == 1500


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "synth-score", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
