"""score and watch on worker processes: the same bytes, warnings, counts
and exit codes as in one process, bounded workers and chunks in flight,
a bounded failure when a worker dies, and no fork while watch's webhook
thread runs; and score on a synthetic: script in forked workers, with
the same bytes as one process and no worker left behind.

Each test forces the path it wants: a small CHUNK_BYTES and
POOL_MIN_CHUNKS (SYNTH_SPAN_FRAMES and SYNTH_POOL_MIN_FRAMES for a
synthetic: script) and two usable CPUs select the worker pool, one usable
CPU the one-process loop. The usable CPUs are set through
os.sched_getaffinity, which is added where the platform lacks it
(macOS). The pool runs under each start method the chooser can pick
here, forced through its thread count: one thread picks fork on Linux,
two threads pick spawn.
"""

import concurrent.futures
import gc
import http.server
import importlib.util
import io
import itertools
import json
import logging
import multiprocessing
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import threading

import pytest

from threatwatch import backends, cli
from threatwatch.backends import Scene, open_backend
from threatwatch.cli import main
from threatwatch.frames import chunk_spans
from threatwatch.fusion import FusionConfig, ThreatLevel

ROOT = pathlib.Path(__file__).resolve().parent.parent

SUMMARY_RE = re.compile(r"summary: frames=(\d+) skipped=(\d+) elapsed_s=[\d.]+ rate_fps=[\d.]+")
TIMINGS_RE = re.compile(r" elapsed_s=[\d.]+ rate_fps=[\d.]+$")

# The start methods the chooser can pick on this platform.
START_METHODS = ("fork", "spawn") if sys.platform == "linux" else ("spawn",)


def _force(monkeypatch, method):
    """Make cli._pool_start_method pick method, through the thread count
    it reads: one thread for fork, two for spawn."""
    monkeypatch.setattr(threading, "active_count", lambda: 1 if method == "fork" else 2)
    assert cli._pool_start_method() == method


def _line(frame_id, **extra):
    return json.dumps({"stream_id": "c", "frame_id": frame_id, "ts_ms": 33 * frame_id,
                       "detections": [{"label": "knife", "box": [0.4, 0.5, 0.1, 0.2],
                                       "conf": 0.93}], **extra}).encode()


# One line of each kind the reader treats specially, between good lines.
HOSTILE = b"".join([
    _line(1) + b"\n",
    b'{"stream_id":"c\xff","frame_id":2,"ts_ms":33}\n',   # not UTF-8
    _line(3) + b"\r\n",                                  # CRLF
    _line(4)[:-1] + b',\r"x":0}\n',                       # lone CR inside a line
    b"\n",
    b"   \n",
    b'{"stream_id":"c","frame_id":5,"ts_ms":1e999}\n',
    b'{"stream_id":"c","frame_id":' + b"7" * 5000 + b',"ts_ms":0}\n',
    b"[" * 200_000 + b"\n",
    _line(6) + b"\n",
    b"{broken\n",
    b"\n",
    _line(7),                                            # no LF at the end
])


def _main(argv, monkeypatch, caplog, capsys, cpus, chunk_bytes=cli.CHUNK_BYTES, min_chunks=2,
          method=None):
    """main(argv) with cpus usable CPUs, the given chunk size, the fewest
    chunks for the pool under either start method (None: the shipped
    ones) and the pool started by method (None: as the chooser finds);
    returns the exit code, the warnings logged and stderr."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(cli, "CHUNK_BYTES", chunk_bytes)
    if min_chunks is not None:
        monkeypatch.setattr(cli, "POOL_MIN_CHUNKS", {"fork": min_chunks, "spawn": min_chunks})
    if method is not None:
        _force(monkeypatch, method)
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        code = main(argv)
    warnings = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
    return code, warnings, capsys.readouterr().err


def _run(argv, monkeypatch, caplog, capsys, cpus, chunk_bytes=cli.CHUNK_BYTES, min_chunks=2,
         method=None):
    """_main(...)'s observables except timings, for score."""
    code, warnings, err = _main(argv, monkeypatch, caplog, capsys, cpus, chunk_bytes, min_chunks,
                                method)
    summary = SUMMARY_RE.search(err)
    errors = [line for line in err.splitlines() if not line.startswith("summary: ")]
    return code, summary and summary.groups(), warnings, errors


def _untimed(err):
    """stderr's lines without the summary's timings."""
    return [TIMINGS_RE.sub("", line) for line in err.splitlines()]


def _score_every_way(tmp_path, data, monkeypatch, caplog, capsys, chunk_bytes, extra=(),
                     min_chunks=2):
    """score data in one process, then in the pool under each of
    START_METHODS, each into its own --out, which a test may fill
    beforehand: out1.jsonl, out2-fork.jsonl, out2-spawn.jsonl. Returns
    each run's observables and output bytes, the one-process run first."""
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(data)
    results = []
    for cpus, method, name in [(1, None, "out1"),
                               *((2, m, f"out2-{m}") for m in START_METHODS)]:
        out = tmp_path / f"{name}.jsonl"
        seen = _run(["score", "--input", str(frames), "--out", str(out), *extra],
                    monkeypatch, caplog, capsys, cpus, chunk_bytes, min_chunks, method)
        results.append((seen, out.read_bytes() if out.exists() else None))
    return results


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed0_replay_score_input_matches_one_process(tmp_path, monkeypatch, caplog, capsys):
    workload = _load_workloads().generate("replay-score", 0, tmp_path / "in")
    data = pathlib.Path(workload.input_uri.partition(":")[2]).read_bytes()
    # large enough for the pool at the shipped chunk size and thresholds
    assert len(data) >= max(cli.POOL_MIN_CHUNKS.values()) * cli.CHUNK_BYTES
    serial, *pools = _score_every_way(tmp_path, data, monkeypatch, caplog, capsys,
                                      cli.CHUNK_BYTES, min_chunks=None)
    assert pools == [serial] * len(START_METHODS)
    (code, summary, warnings, errors), out = serial
    assert code == 0 and errors == []
    assert summary == (str(len(out.splitlines())), str(workload.truth.bad_lines))
    assert len(warnings) == workload.truth.bad_lines > 0


@pytest.mark.parametrize("chunk_bytes", [1, 600, 4096, 200_000])
def test_hostile_lines_match_one_process(tmp_path, monkeypatch, caplog, capsys, chunk_bytes):
    serial, *pools = _score_every_way(tmp_path, HOSTILE, monkeypatch, caplog, capsys,
                                      chunk_bytes)
    assert pools == [serial] * len(START_METHODS)
    (code, summary, warnings, _), out = serial
    assert code == 0
    assert summary == ("5", "5")
    assert [w[0] for w in warnings] == ["threatwatch.backends"] * 5
    assert out.count(b"\n") == 5


@pytest.mark.parametrize("chunk_bytes", [1, 2 * 170, 3 * 170 - 1, 3 * 170 + 1])
def test_lines_either_side_of_a_chunk_boundary(tmp_path, monkeypatch, caplog, capsys,
                                               chunk_bytes):
    # 170-byte lines, every third one bad: boundaries fall before, on and
    # after a bad line.
    lines = []
    for i in range(1, 31):
        line = _line(i) if i % 3 else b"{" + b"x" * 100
        lines.append(line.ljust(169) + b"\n")
    serial, *pools = _score_every_way(tmp_path, b"".join(lines), monkeypatch, caplog,
                                      capsys, chunk_bytes)
    assert pools == [serial] * len(START_METHODS)
    assert serial[0][1] == ("20", "10")


@pytest.mark.parametrize("first_bad", [1, 2, 40])
def test_strict_stops_at_the_first_bad_line(tmp_path, monkeypatch, caplog, capsys, first_bad):
    lines = [_line(i) + b"\n" for i in range(1, 60)]
    lines[first_bad - 1] = b"{broken\n"
    lines[50] = b"[1]\n"
    for name in ("out1", *(f"out2-{m}" for m in START_METHODS)):
        (tmp_path / f"{name}.jsonl").write_text("earlier run\n")
    serial, *pools = _score_every_way(tmp_path, b"".join(lines), monkeypatch, caplog,
                                      capsys, 200, ["--strict"])
    assert pools == [serial] * len(START_METHODS)
    (code, summary, warnings, errors), out = serial
    assert code == 1 and summary is None and warnings == []
    assert errors == [f"error: line {first_bad}: malformed JSON: "
                      "Expecting property name enclosed in double quotes: "
                      "line 1 column 2 (char 1)"]
    if first_bad == 1:
        assert out == b"earlier run\n"
    else:
        assert out.count(b"\n") == first_bad - 1


def test_strict_raises_the_first_of_two_bad_lines_in_one_span(tmp_path, monkeypatch, caplog,
                                                               capsys):
    # A worker reports every bad line of its span; the parent's policy
    # raises the first and logs neither.
    lines = [_line(i) + b"\n" for i in range(1, 40)]
    lines[9:11] = [b"{broken\n", b"[1]\n"]
    serial, *pools = _score_every_way(tmp_path, b"".join(lines), monkeypatch, caplog, capsys,
                                      2000, ["--strict"])
    spans = list(chunk_spans(str(tmp_path / "frames.jsonl"), 2000))
    assert len(spans) > 1 and spans[0][2] < 10 < 11 < spans[1][2]
    assert pools == [serial] * len(START_METHODS)
    (code, summary, warnings, errors), out = serial
    assert code == 1 and summary is None and warnings == []
    assert errors == ["error: line 10: malformed JSON: "
                      "Expecting property name enclosed in double quotes: "
                      "line 1 column 2 (char 1)"]
    assert [json.loads(line)["frame_id"] for line in out.splitlines()] == list(range(1, 10))


def test_missing_input_exits_2_and_leaves_out_untouched(tmp_path, monkeypatch, caplog, capsys):
    out = tmp_path / "out.jsonl"
    out.write_text("earlier run\n")
    seen = _run(["score", "--input", str(tmp_path / "ghost.jsonl"), "--out", str(out)],
                monkeypatch, caplog, capsys, 2, 1)
    assert seen[0] == 2
    assert out.read_text() == "earlier run\n"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_input_that_is_also_out_is_refused_untouched(tmp_path, monkeypatch, caplog, capsys, cpus):
    data = b"".join(_line(i) + b"\n" for i in range(1, 40))
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(data)
    (tmp_path / "link.jsonl").symlink_to(frames)
    for source, out in ((str(frames), str(frames)), (f"jsonl:{frames}", str(frames)),
                        (str(tmp_path / "link.jsonl"), str(frames)),
                        (str(frames), str(tmp_path / "." / "frames.jsonl"))):
        seen = _run(["score", "--input", source, "--out", out], monkeypatch, caplog, capsys,
                    cpus, 300)
        assert seen == (1, None, [], [f"error: input and output are the same file: {out}"])
        assert frames.read_bytes() == data
    assert multiprocessing.active_children() == []


def test_unwritable_out_exits_2_and_closes_input(tmp_path, monkeypatch, caplog, capsys):
    # bad lines before and after the first frame: only those before it are
    # read ahead, and warned about, before --out fails to open
    data = b"{a\n" + b"".join(_line(i) + b"\n" + b"{b\n" for i in range(1, 40))
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(data)
    opened = []

    def recording_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr("threatwatch.frames.open", recording_open, raising=False)
    # a directory cannot be opened for writing, whatever the permissions
    argv = ["score", "--input", str(frames), "--out", str(tmp_path)]
    serial = _run(argv, monkeypatch, caplog, capsys, 1, 300)
    for method in START_METHODS:
        assert _run(argv, monkeypatch, caplog, capsys, 2, 300, method=method) == serial
    assert serial[0] == 2 and len(serial[2]) == 1
    assert serial[3][0].startswith("i/o error: ")
    assert len(opened) == 1 + len(START_METHODS) and all(fh.closed for fh in opened)
    assert multiprocessing.active_children() == []


class _RecordingPool(concurrent.futures.ProcessPoolExecutor):
    """Records its size, the processes it started and the most chunks
    submitted whose result was not yet taken."""

    made = []

    def __init__(self, max_workers, **kwargs):
        super().__init__(max_workers, **kwargs)
        self.max_workers = max_workers
        self.started = self.outstanding = self.peak_outstanding = 0
        self.made.append(self)

    def submit(self, fn, *args):
        future = super().submit(fn, *args)
        self.started = max(self.started, len(multiprocessing.active_children()))
        self.outstanding += 1
        self.peak_outstanding = max(self.peak_outstanding, self.outstanding)
        result = future.result

        def taken(timeout=None):
            self.outstanding -= 1
            return result(timeout)

        future.result = taken
        return future


@pytest.mark.parametrize("cpus, lines, chunk_bytes, workers", [(2, 200, 1, 2), (4, 3, 150, 3)])
def test_workers_and_chunks_in_flight_are_bounded(tmp_path, monkeypatch, caplog, capsys,
                                                  cpus, lines, chunk_bytes, workers):
    # 135-byte lines: a 1-byte chunk is one line, a 150-byte chunk two
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(b"".join(_line(i) + b"\n" for i in range(1, lines + 1)))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    for method in START_METHODS:
        monkeypatch.setattr(_RecordingPool, "made", [])
        code, summary, _, _ = _run(["score", "--input", str(frames), "--out", os.devnull],
                                   monkeypatch, caplog, capsys, cpus, chunk_bytes, method=method)
        assert (code, summary) == (0, (str(lines), "0"))
        [pool] = _RecordingPool.made
        assert pool.max_workers == workers
        assert 1 <= pool.started <= workers
        assert pool.peak_outstanding <= workers + 1
        assert pool.outstanding == 0
        assert multiprocessing.active_children() == []


def test_only_a_large_regular_jsonl_file_gets_workers(tmp_path, monkeypatch):
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(_line(1) + b"\n" + _line(2) + b"\n")
    script = tmp_path / "s.json"
    script.write_text(json.dumps({"segments": [{"scene": "empty", "duration_frames": 1}]}))
    monkeypatch.setattr(cli, "CHUNK_BYTES", frames.stat().st_size // 2 + 1)
    monkeypatch.setattr(cli, "POOL_MIN_CHUNKS", {"fork": 2, "spawn": 3})
    cpus = {1: 0, 2: 2, 8: 2}  # two chunks: never more workers than chunks
    for n, workers in cpus.items():
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=n: set(range(n)),
                            raising=False)
        assert cli._pool_workers(open_backend(f"jsonl:{frames}"), "fork") == workers
        # fewer chunks than spawn's threshold
        assert cli._pool_workers(open_backend(f"jsonl:{frames}"), "spawn") == 0
    for uri in ("jsonl:-", f"jsonl:{tmp_path}", f"jsonl:{tmp_path / 'ghost'}",
                f"synthetic:{script}"):
        assert cli._pool_workers(open_backend(uri), "fork") == 0
    monkeypatch.setattr(cli, "CHUNK_BYTES", frames.stat().st_size)  # one chunk
    assert cli._pool_workers(open_backend(f"jsonl:{frames}"), "fork") == 0
    # A synthetic script of 12 frames, three spans of 4, takes forked
    # workers from SYNTH_POOL_MIN_FRAMES frames, one a span on 8 CPUs, and
    # never spawned ones.
    script.write_text(json.dumps({"segments": [{"scene": "empty", "duration_frames": 11},
                                               {"scene": "hand_only", "duration_frames": 1}]}))
    monkeypatch.setattr(backends, "SYNTH_SPAN_FRAMES", 4)
    for min_frames, method, workers in ((13, "fork", 0), (12, "fork", 3), (12, "spawn", 0)):
        monkeypatch.setattr(cli, "SYNTH_POOL_MIN_FRAMES", min_frames)
        assert cli._pool_workers(open_backend(f"synthetic:{script}"), method) == workers


def test_shipped_threshold_keeps_small_files_in_one_process(tmp_path, monkeypatch):
    # 2 MiB for a forked pool, 8 MiB for a spawned one
    assert (cli.CHUNK_BYTES, cli.POOL_MIN_CHUNKS) == (256 * 1024, {"fork": 8, "spawn": 32})
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    frames = tmp_path / "frames.jsonl"
    for method, min_chunks in cli.POOL_MIN_CHUNKS.items():
        for size, workers in ((min_chunks - 1) * cli.CHUNK_BYTES, 0), \
                (min_chunks * cli.CHUNK_BYTES, 2):
            with open(frames, "wb") as fh:
                fh.truncate(size)  # sparse: only the size is read
            assert cli._pool_workers(open_backend(f"jsonl:{frames}"), method) == workers


@pytest.mark.parametrize("cpu_count, workers", [(None, 0), (1, 0), (2, 2), (8, 3)])
def test_cpu_count_stands_in_where_affinity_is_unknown(tmp_path, monkeypatch, caplog, capsys,
                                                       cpu_count, workers):
    # os.sched_getaffinity exists only on some platforms (Linux, not
    # macOS or Windows); without it every CPU counts
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(HOSTILE)
    out = tmp_path / "out.jsonl"
    argv = ["score", "--input", str(frames), "--out", str(out)]
    serial = _run(argv, monkeypatch, caplog, capsys, 1, 600), out.read_bytes()
    monkeypatch.setattr(cli, "CHUNK_BYTES", len(HOSTILE) // 3 + 1)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    for method in START_METHODS:
        _force(monkeypatch, method)
        assert cli._pool_workers(open_backend(f"jsonl:{frames}"), method) == workers
        out.unlink()
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            code = main(argv)
        err = capsys.readouterr().err
        seen = (code, SUMMARY_RE.search(err).groups(),
                [(r.name, r.levelname, r.getMessage()) for r in caplog.records],
                [line for line in err.splitlines() if not line.startswith("summary: ")])
        assert (seen, out.read_bytes()) == serial
        assert multiprocessing.active_children() == []


# Runs the command in the arguments after its first three: with CPUS
# usable CPUs, 100-byte chunks and pool thresholds of 2 chunks, the pool
# started by METHOD (forced through the thread count) and, for ACTION
# "die", workers that exit at once. It writes "head" to stdout, unflushed,
# before running; logs each pool's start method on stderr; and ends by
# printing how many child processes are left and, for ACTION "forks", how
# many threads ran at each fork or, for ACTION "ssl", whether ssl was loaded.
RUNNER = """\
import multiprocessing
import os
import sys
import threading

from threatwatch import cli


def die(*args):
    os._exit(3)


def logged(method, get_context=multiprocessing.get_context):
    print(f"pool: {method}", file=sys.stderr)
    return get_context(method)


if __name__ == "__main__":
    cpus, method, action, *argv = sys.argv[1:]
    if action == "die":
        cli.assess_span = die
    forks = []
    if action == "forks":
        os.register_at_fork(before=lambda count=threading.active_count: forks.append(count()))
    cli.CHUNK_BYTES = 100
    cli.POOL_MIN_CHUNKS = {"fork": 2, "spawn": 2}
    os.sched_getaffinity = lambda pid: set(range(int(cpus)))
    threading.active_count = lambda: 1 if method == "fork" else 2
    multiprocessing.get_context = logged
    sys.stdout.write("head\\n")
    code = cli.main(argv)
    print(len(multiprocessing.active_children()), file=sys.stderr)
    if action == "forks":
        print(f"threads at each fork: {forks}", file=sys.stderr)
    if action == "ssl":
        print(f"ssl loaded: {'ssl' in sys.modules}", file=sys.stderr)
    sys.exit(code)
"""


def _run_script(tmp_path, cpus, method, action, *argv):
    runner = tmp_path / "runner.py"
    runner.write_text(RUNNER)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(runner), str(cpus), method, action, *argv],
                          capture_output=True, env=env, timeout=60)


def test_worker_death_exits_1_without_hanging(tmp_path):
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(b"".join(_line(i) + b"\n" for i in range(1, 50)))
    for method, (command, out) in itertools.product(START_METHODS, [("score", "--out"),
                                                                     ("watch", "--alerts")]):
        done = _run_script(tmp_path, 2, method, "die", command, "--input", str(frames),
                           out, str(tmp_path / "out.jsonl"))
        assert done.returncode == 1
        assert done.stdout == b"head\n"
        pool, error, left = done.stderr.decode().splitlines()
        assert pool == f"pool: {method}"
        assert error.startswith(f"error: a {command} worker process died: ")
        assert left == "0"


@pytest.mark.skipif("fork" not in START_METHODS, reason="the pool forks only on Linux")
def test_stdout_from_the_forked_pool_matches_one_process(tmp_path):
    # Children forked with "head" still buffered would write it again if
    # they flushed it; the pool's fork flushes first, and its workers
    # leave through os._exit.
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(HOSTILE)
    argv = ["score", "--input", str(frames), "--out", "-"]
    serial = _run_script(tmp_path, 1, "fork", "score", *argv)
    forked = _run_script(tmp_path, 2, "fork", "score", *argv)
    assert serial.returncode == forked.returncode == 0
    assert forked.stdout == serial.stdout
    assert serial.stdout.startswith(b"head\n{") and serial.stdout.count(b"head") == 1
    assert serial.stdout.count(b"\n") == 6
    pools = [line for line in forked.stderr.decode().splitlines() if line.startswith("pool: ")]
    assert pools == ["pool: fork"]


def test_pool_forks_only_on_linux_with_one_thread(monkeypatch):
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    for platform, method in [("linux", "fork"), ("darwin", "spawn"), ("win32", "spawn")]:
        monkeypatch.setattr(sys, "platform", platform)
        assert cli._pool_start_method() == method
    monkeypatch.setattr(sys, "platform", "linux")
    monkeypatch.setattr(threading, "active_count", lambda: 2)
    assert cli._pool_start_method() == "spawn"


def test_a_live_thread_keeps_the_pool_on_spawn(tmp_path, monkeypatch, caplog, capsys):
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(HOSTILE)
    out = tmp_path / "out.jsonl"
    argv = ["score", "--input", str(frames), "--out", str(out)]
    serial = _run(argv, monkeypatch, caplog, capsys, 1, 600), out.read_bytes()
    get_context, started = multiprocessing.get_context, []
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: started.append(method) or get_context(method))
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert cli._pool_start_method() == "spawn"
        pooled = _run(argv, monkeypatch, caplog, capsys, 2, 600), out.read_bytes()
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert started == ["spawn"]
    assert pooled == serial
    assert multiprocessing.active_children() == []


# Detections that assess to each level: a lone knife is cold
# (object_present), a hand holding it hot (grasped), and a hand above it
# overhand (overhand_threat).
_HAND = {"label": "hand", "conf": 0.95}
_KNIFE = {"label": "knife", "conf": 0.95}
_SCENES = {
    "cold": [dict(_KNIFE, box=[0.46, 0.50, 0.08, 0.18])],
    "hot": [dict(_HAND, box=[0.40, 0.46, 0.10, 0.10]), dict(_KNIFE, box=[0.51, 0.44, 0.08, 0.18])],
    "overhand": [dict(_HAND, box=[0.45, 0.28, 0.10, 0.10]),
                 dict(_KNIFE, box=[0.46, 0.46, 0.08, 0.18])],
}
# One alert: raised on the third hot frame, escalated, then cleared by the
# tenth cold frame.
_PLAN = ["cold"] * 2 + ["hot"] * 4 + ["overhand"] + ["hot"] * 2 + ["cold"] * 11


def _frame(stream_id, frame_id, scene):
    return json.dumps({"stream_id": stream_id, "frame_id": frame_id, "ts_ms": 33 * frame_id,
                       "detections": _SCENES[scene]}).encode() + b"\n"


def _streams():
    """Three streams, each through _PLAN at its own phase, interleaved
    line by line, after two long bad lines; with a stale frame_id every
    sixth step and a bad line every fifth."""
    lines = [b"{" + b"x" * 600 + b"\n"] * 2
    for step in range(2 * len(_PLAN)):
        for k, stream_id in enumerate("xyz"):
            lines.append(_frame(stream_id, step + 1, _PLAN[(step + 4 * k) % len(_PLAN)]))
        if step % 6 == 3:
            lines.append(_frame("x", step + 1, "hot"))  # frame_id not after the last
        if step % 5 == 2:
            lines.append(b"{broken\n")
    return b"".join(lines)


def _watch_every_way(tmp_path, data, monkeypatch, caplog, capsys, chunk_bytes, min_chunks=2):
    """watch data in one process, then in a pool of one worker and of two
    under each of START_METHODS, each into its own --alerts. Returns each
    run's exit code, warnings, stderr lines without timings and alerts
    bytes, the one-process run first, and the start methods of the pools
    the later runs made."""
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(data)
    get_context, started = multiprocessing.get_context, []
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: started.append(method) or get_context(method))
    pool_workers = cli._pool_workers
    runs, pools = [], []
    for cpus, method, workers in [(1, None, 0),
                                  *((2, m, w) for m in START_METHODS for w in (1, 2))]:
        monkeypatch.setattr(cli, "_pool_workers",
                            lambda backend, method, w=workers: min(pool_workers(backend, method), w))
        alerts = tmp_path / f"alerts-{method}-{workers}.jsonl"
        started.clear()
        code, warnings, err = _main(["watch", "--input", str(frames), "--alerts", str(alerts)],
                                    monkeypatch, caplog, capsys, cpus, chunk_bytes, min_chunks,
                                    method)
        runs.append((code, warnings, _untimed(err),
                     alerts.read_bytes() if alerts.exists() else None))
        if cpus > 1:
            pools.append(tuple(started))
        assert multiprocessing.active_children() == []
    return runs, pools


# The pools _watch_every_way's later runs make when the input takes the pool.
WATCH_POOLS = [(m,) for m in START_METHODS for _ in (1, 2)]


def test_seed0_replay_watch_input_matches_one_process(tmp_path, monkeypatch, caplog, capsys):
    workload = _load_workloads().generate("replay-watch", 0, tmp_path / "in")
    data = pathlib.Path(workload.input_uri.partition(":")[2]).read_bytes()
    assert len(data) >= max(cli.POOL_MIN_CHUNKS.values()) * cli.CHUNK_BYTES
    (serial, *pooled), pools = _watch_every_way(tmp_path, data, monkeypatch, caplog, capsys,
                                                cli.CHUNK_BYTES, min_chunks=None)
    assert pools == WATCH_POOLS
    assert pooled == [serial] * len(WATCH_POOLS)
    code, warnings, err, alerts = serial
    truth = workload.truth
    events = alerts.splitlines()
    raised = sum(b'"kind":"raised"' in event for event in events)
    assert code == 0 and raised > 0
    assert err == [f"summary: frames={len(truth.frames) + len(truth.stale)} "
                   f"skipped={truth.bad_lines} dropped={len(truth.stale)} "
                   f"alerts_raised={raised} events={len(events)}"]
    assert len(warnings) == truth.bad_lines + len(truth.stale)


@pytest.mark.parametrize("chunk_bytes", [1, 300, 1000, 5000])
def test_watch_chunk_boundaries_match_one_process(tmp_path, monkeypatch, caplog, capsys,
                                                  chunk_bytes):
    # Boundaries fall inside hot streaks and between a stale frame and the
    # frame it repeats; the first chunks hold only bad lines, up to 1,000
    # bytes. HOSTILE adds a fourth stream of hostile lines.
    data = _streams() + HOSTILE
    (serial, *pooled), pools = _watch_every_way(tmp_path, data, monkeypatch, caplog, capsys,
                                                chunk_bytes)
    assert pools == WATCH_POOLS
    assert pooled == [serial] * len(WATCH_POOLS)
    code, warnings, err, alerts = serial
    assert code == 0
    # 120 frames of three streams plus 7 stale ones; 10 bad lines; HOSTILE
    # adds 5 frames and 5 bad lines
    assert err == ["summary: frames=132 skipped=15 dropped=7 alerts_raised=6 events=17"]
    kinds = [name for name, _, _ in warnings]
    assert kinds.count("threatwatch.backends") == 15 and kinds.count("threatwatch.alerts") == 7
    # the warnings of both kinds interleave
    assert kinds.index("threatwatch.alerts") < len(kinds) - 1 - kinds[::-1].index(
        "threatwatch.backends")


@pytest.mark.parametrize("method", START_METHODS)
def test_watch_pool_frames_equal_one_process_frames(tmp_path, monkeypatch, caplog, method):
    # The frames watch feeds its alert tracker, not only the bytes it
    # writes: an int level from the pool would serialize alike.
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(_streams() + HOSTILE)
    monkeypatch.setattr(cli, "CHUNK_BYTES", 300)
    monkeypatch.setattr(cli, "POOL_MIN_CHUNKS", {"fork": 2, "spawn": 2})
    _force(monkeypatch, method)
    seen = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)),
                            raising=False)
        backend = open_backend(f"jsonl:{frames}", False)
        assert bool(cli._pool_workers(backend, method)) == (cpus == 2)
        with caplog.at_level(logging.WARNING), cli._assessed(backend, FusionConfig(),
                                                            "watch") as assessed:
            seen.append(list(assessed))
    serial, pooled = seen
    assert len(serial) == 132  # stale frames included: the tracker drops them
    assert pooled == serial
    assert [tuple(map(type, frame)) for frame in serial + pooled] == (
        [(str, int, int, ThreatLevel, float)] * 2 * len(serial))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("data, pools", [(b"{x\n" * 40 + b"[1]\n" + b"\n", WATCH_POOLS),
                                         (b"", [()] * len(WATCH_POOLS))],
                         ids=["all_bad", "empty"])
def test_watch_of_no_frames_matches_one_process(tmp_path, monkeypatch, caplog, capsys, data,
                                                pools):
    # An empty file has no chunk, so it never takes the pool.
    (serial, *pooled), made = _watch_every_way(tmp_path, data, monkeypatch, caplog, capsys, 10)
    assert made == pools
    assert pooled == [serial] * len(WATCH_POOLS)
    code, warnings, err, alerts = serial
    skipped = data.count(b"\n") - 1 if data else 0
    assert (code, len(warnings), alerts) == (0, skipped, b"")
    assert err == [f"summary: frames=0 skipped={skipped} dropped=0 alerts_raised=0 events=0"]


def test_watch_of_a_missing_input_leaves_alerts_untouched(tmp_path, monkeypatch, caplog,
                                                          capsys):
    alerts = tmp_path / "alerts.jsonl"
    alerts.write_text("earlier run\n")
    for cpus in (1, 2):
        code, warnings, err = _main(["watch", "--input", str(tmp_path / "ghost.jsonl"),
                                     "--alerts", str(alerts)], monkeypatch, caplog, capsys,
                                    cpus, 1)
        assert (code, warnings) == (2, [])
        assert [line.split(":")[0] for line in err.splitlines()] == ["i/o error"]
        assert alerts.read_text() == "earlier run\n"
    assert multiprocessing.active_children() == []


def test_watch_input_that_is_also_alerts_is_refused_untouched(tmp_path, monkeypatch, caplog,
                                                              capsys):
    data = _streams()
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(data)
    for cpus in (1, 2):
        seen = _main(["watch", "--input", str(frames), "--alerts", str(frames)], monkeypatch,
                     caplog, capsys, cpus, 300)
        assert seen == (1, [], f"error: input and output are the same file: {frames}\n")
        assert frames.read_bytes() == data
    assert multiprocessing.active_children() == []


class _Receiver(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        self.server.bodies.append(self.rfile.read(int(self.headers["Content-Length"])))
        self.send_response(200)
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def receiver():
    """A webhook endpoint on loopback, served from a thread of this
    process; the commands under test run in a child process, which holds
    no thread of it."""
    server = http.server.HTTPServer(("127.0.0.1", 0), _Receiver)
    server.bodies = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_watch_webhook_from_the_pool_matches_one_process(tmp_path, receiver):
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(_streams())
    url = f"http://127.0.0.1:{receiver.server_address[1]}/hook"
    runs = []
    for cpus, method in [(1, START_METHODS[0]), *((2, m) for m in START_METHODS)]:
        done = _run_script(tmp_path, cpus, method, "ssl", "watch", "--input", str(frames),
                           "--alerts", "-", "--webhook", url)
        err = [line for line in _untimed(done.stderr.decode()) if not line.startswith("pool: ")]
        runs.append((done.returncode, done.stdout, err, receiver.bodies[:]))
        receiver.bodies.clear()
        pools = [line for line in done.stderr.decode().splitlines() if line.startswith("pool: ")]
        assert pools == ([f"pool: {method}"] if cpus > 1 else [])
    serial, *pooled = runs
    assert pooled == [serial] * len(START_METHODS)
    code, stdout, err, bodies = serial
    assert code == 0 and stdout.startswith(b"head\n")
    assert bodies == stdout.splitlines()[1:] and len(bodies) == 17
    # an http:// webhook loads no ssl
    assert err[-4:] == ["summary: frames=127 skipped=10 dropped=7 alerts_raised=6 events=17",
                        "webhook: delivered=17 failed=0 dropped=0", "0", "ssl loaded: False"]


@pytest.mark.skipif("fork" not in START_METHODS, reason="the pool forks only on Linux")
def test_watch_forks_its_workers_before_the_webhook_thread_starts(tmp_path, receiver):
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(_streams())
    url = f"http://127.0.0.1:{receiver.server_address[1]}/hook"
    done = _run_script(tmp_path, 2, "fork", "forks", "watch", "--input", str(frames),
                       "--alerts", os.devnull, "--webhook", url)
    assert done.returncode == 0, done.stderr
    lines = done.stderr.decode().splitlines()
    assert lines[0] == "pool: fork"
    assert lines[-3:-1] == ["webhook: delivered=17 failed=0 dropped=0", "0"]
    # the real thread count, not the one forced to pick fork
    assert lines[-1] == "threads at each fork: [1, 1]"


def _forks(monkeypatch):
    """The pids of the processes os.fork makes from now on. Only those can
    be checked for reaping: a spawned pool's resource tracker, started by
    an earlier test, stays a child of this process."""
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _reaped(pids):
    """Each of pids has been waited for."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _script(noises, durations=(8, 5, 11, 3, 20), seed=5):
    """A script of the five scenes with the given durations and noises
    (cycled). The defaults start segments on the edges of 8-frame spans
    (frames 9 and 25) and inside spans (frames 14 and 28), over 47 frames."""
    return {"segments": [{"scene": scene.value, "duration_frames": frames, "noise": noise}
                         for scene, frames, noise in zip(Scene, durations,
                                                         itertools.cycle(noises))],
            "seed": seed}


def _score_synthetic(tmp_path, uri, monkeypatch, caplog, capsys, cpus, span=8, min_frames=2,
                     method="fork", stdin=None, out=None):
    """score uri with cpus usable CPUs, spans of span frames, the synthetic
    pool from min_frames frames (None: the shipped threshold), the pool
    started by method (None: as the chooser finds) and stdin's bytes, if
    given. Returns _run's observables, the output bytes (None for an out
    given) and the number of forks; no worker is left."""
    monkeypatch.setattr(backends, "SYNTH_SPAN_FRAMES", span)
    if min_frames is not None:
        monkeypatch.setattr(cli, "SYNTH_POOL_MIN_FRAMES", min_frames)
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin)))
    forks = _forks(monkeypatch)
    path = out or tmp_path / f"out-{cpus}.jsonl"
    seen = _run(["score", "--input", uri, "--out", str(path)], monkeypatch, caplog, capsys, cpus,
                method=method)
    gc.collect()  # an unclosed pipe warns here
    _reaped(forks)
    return seen, None if out else path.read_bytes(), len(forks)


def _score_synthetic_both_ways(tmp_path, uri, monkeypatch, caplog, capsys, cpus=2, **kwargs):
    """_score_synthetic on one CPU, then on cpus CPUs."""
    return [_score_synthetic(tmp_path, uri, monkeypatch, caplog, capsys, n, **kwargs)
            for n in (1, cpus)]


fork_only = pytest.mark.skipif("fork" not in START_METHODS, reason="only Linux forks workers")


@fork_only
@pytest.mark.parametrize("noises", [(0.0,), (0.1,), (0.0, 0.1, 0.05)],
                         ids=["noise_0", "noise_0.1", "mixed"])
@pytest.mark.parametrize("cpus", [2, 3])
def test_synthetic_spans_match_one_process(tmp_path, monkeypatch, caplog, capsys, noises, cpus):
    script = tmp_path / "script.json"
    script.write_text(json.dumps(_script(noises)))
    serial, pooled = _score_synthetic_both_ways(tmp_path, f"synthetic:{script}", monkeypatch,
                                                caplog, capsys, cpus)
    assert (serial[2], pooled[2]) == (0, cpus)
    assert pooled[:2] == serial[:2]
    (code, summary, warnings, errors), out, _ = serial
    assert (code, summary, warnings, errors) == (0, ("47", "0"), [], [])
    assert [json.loads(line)["frame_id"] for line in out.splitlines()] == list(range(1, 48))


@fork_only
def test_synthetic_stdin_script_matches_one_process(tmp_path, monkeypatch, caplog, capsys):
    data = json.dumps(_script((0.1, 0.0), seed=9)).encode()
    serial, pooled = _score_synthetic_both_ways(tmp_path, "synthetic:-", monkeypatch, caplog,
                                                capsys, stdin=data)
    assert (serial[2], pooled[2]) == (0, 2)
    assert pooled[:2] == serial[:2] and serial[0][:2] == (0, ("47", "0"))


@fork_only
def test_seed0_synth_score_input_matches_one_process(tmp_path, monkeypatch, caplog, capsys):
    # the shipped span size and threshold
    workload = _load_workloads().generate("synth-score", 0, tmp_path / "in")
    serial, pooled = _score_synthetic_both_ways(tmp_path, workload.input_uri, monkeypatch, caplog,
                                                capsys, span=backends.SYNTH_SPAN_FRAMES,
                                                min_frames=None)
    assert (serial[2], pooled[2]) == (0, 2)
    assert pooled[:2] == serial[:2]
    assert serial[0][1] == (str(len(workload.truth.frames)), "0")


@fork_only
def test_a_script_one_frame_short_of_the_threshold_stays_in_one_process(tmp_path, monkeypatch,
                                                                        caplog, capsys):
    script = tmp_path / "script.json"
    for frames, forks in ((cli.SYNTH_POOL_MIN_FRAMES - 1, 0), (cli.SYNTH_POOL_MIN_FRAMES, 2)):
        script.write_text(json.dumps(_script((0.1,), (frames - 1, 1))))
        serial, pooled = _score_synthetic_both_ways(tmp_path, f"synthetic:{script}", monkeypatch,
                                                    caplog, capsys, span=backends.SYNTH_SPAN_FRAMES,
                                                    min_frames=None)
        assert (serial[2], pooled[2]) == (0, forks)
        assert pooled[:2] == serial[:2] and serial[0][1] == (str(frames), "0")


def test_a_live_thread_keeps_a_synthetic_script_in_one_process(tmp_path, monkeypatch, caplog,
                                                               capsys):
    script = tmp_path / "script.json"
    script.write_text(json.dumps(_script((0.1,))))
    get_context, started = multiprocessing.get_context, []
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: started.append(method) or get_context(method))
    serial = _score_synthetic(tmp_path, f"synthetic:{script}", monkeypatch, caplog, capsys, 1,
                              method=None)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert cli._pool_start_method() == "spawn"
        pooled = _score_synthetic(tmp_path, f"synthetic:{script}", monkeypatch, caplog, capsys, 2,
                                  method=None)
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert (serial[2], pooled[2], started) == (0, 0, [])
    assert pooled[:2] == serial[:2]


@fork_only
def test_watch_on_a_synthetic_script_stays_in_one_process(tmp_path, monkeypatch, caplog, capsys):
    script = tmp_path / "script.json"
    script.write_text(json.dumps(_script((0.1,), (30, 30, 30, 30, 30))))
    monkeypatch.setattr(backends, "SYNTH_SPAN_FRAMES", 8)
    monkeypatch.setattr(cli, "SYNTH_POOL_MIN_FRAMES", 2)
    forks = _forks(monkeypatch)
    runs = []
    for cpus in (1, 2):
        alerts = tmp_path / f"alerts-{cpus}.jsonl"
        code, warnings, err = _main(["watch", "--input", f"synthetic:{script}", "--alerts",
                                     str(alerts)], monkeypatch, caplog, capsys, cpus, method="fork")
        runs.append((code, warnings, _untimed(err), alerts.read_bytes()))
    assert forks == []
    assert runs[0] == runs[1]
    code, warnings, err, alerts = runs[0]
    assert code == 0 and b'"kind":"raised"' in alerts
    assert err == ["summary: frames=150 skipped=0 dropped=0 alerts_raised=1 events=3"]


@fork_only
def test_synthetic_worker_death_exits_1_and_reaps_every_worker(tmp_path, monkeypatch, caplog,
                                                               capsys):
    # Worker 0 of 2 dies in its second span (frames 17-24), after writing
    # its first.
    parent, assess = os.getpid(), cli.assess_frame

    def dying(record, cfg):
        if record.frame_id == 20 and os.getpid() != parent:
            os._exit(1)
        return assess(record, cfg)

    monkeypatch.setattr(cli, "assess_frame", dying)
    script = tmp_path / "script.json"
    script.write_text(json.dumps(_script((0.1,))))
    (code, summary, warnings, errors), out, forks = _score_synthetic(
        tmp_path, f"synthetic:{script}", monkeypatch, caplog, capsys, 2)
    assert (code, summary, warnings, forks) == (1, None, [], 2)
    assert errors == ["error: a score worker process died: its output ended after frame 16 "
                      "of 47"]
    assert [json.loads(line)["frame_id"] for line in out.splitlines()] == list(range(1, 17))


@fork_only
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_synthetic_out_to_a_full_device_exits_2_and_reaps_every_worker(tmp_path, monkeypatch,
                                                                       caplog, capsys):
    # The first write to /dev/full fails a few spans in, while the workers
    # still have most of the 3,000 frames to make.
    script = tmp_path / "script.json"
    script.write_text(json.dumps(_script((0.1,), (600,) * 5)))
    (code, summary, warnings, errors), _, forks = _score_synthetic(
        tmp_path, f"synthetic:{script}", monkeypatch, caplog, capsys, 2, out="/dev/full")
    assert (code, summary, warnings, forks) == (2, None, [], 2)
    assert len(errors) == 1 and errors[0].startswith("i/o error: ")
