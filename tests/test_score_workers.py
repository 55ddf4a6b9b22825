"""score on worker processes: the same bytes, warnings, counts and exit
codes as in one process, bounded workers and chunks in flight, and a
bounded failure when a worker dies.

Each test forces the path it wants: a small CHUNK_BYTES and
POOL_MIN_CHUNKS and two usable CPUs select the worker pool, one usable
CPU the one-process loop. The pool runs under each start method the
chooser can pick here, forced through its thread count: one thread picks
fork on Linux under Python 3.11 or later, two threads pick spawn.
"""

import concurrent.futures
import importlib.util
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

from threatwatch import cli
from threatwatch.backends import open_backend
from threatwatch.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent

SUMMARY_RE = re.compile(r"summary: frames=(\d+) skipped=(\d+) elapsed_s=[\d.]+ rate_fps=[\d.]+")

# The start methods the chooser can pick on this platform.
START_METHODS = (("fork", "spawn") if sys.platform == "linux" and sys.version_info >= (3, 11)
                 else ("spawn",))


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


def _run(argv, monkeypatch, caplog, capsys, cpus, chunk_bytes=cli.CHUNK_BYTES, min_chunks=2,
         method=None):
    """main(argv) with cpus usable CPUs, the given chunk size, the fewest
    chunks for the pool under either start method (None: the shipped
    ones) and the pool started by method (None: as the chooser finds);
    returns everything a caller can observe except timings."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(cli, "CHUNK_BYTES", chunk_bytes)
    if min_chunks is not None:
        monkeypatch.setattr(cli, "POOL_MIN_CHUNKS", {"fork": min_chunks, "spawn": min_chunks})
    if method is not None:
        _force(monkeypatch, method)
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        code = main(argv)
    err = capsys.readouterr().err
    summary = SUMMARY_RE.search(err)
    warnings = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
    errors = [line for line in err.splitlines() if not line.startswith("summary: ")]
    return code, summary and summary.groups(), warnings, errors


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
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=n: set(range(n)))
        assert cli._score_workers(open_backend(f"jsonl:{frames}"), "fork") == workers
        # fewer chunks than spawn's threshold
        assert cli._score_workers(open_backend(f"jsonl:{frames}"), "spawn") == 0
    for uri in ("jsonl:-", f"jsonl:{tmp_path}", f"jsonl:{tmp_path / 'ghost'}",
                f"synthetic:{script}"):
        assert cli._score_workers(open_backend(uri), "fork") == 0
    monkeypatch.setattr(cli, "CHUNK_BYTES", frames.stat().st_size)  # one chunk
    assert cli._score_workers(open_backend(f"jsonl:{frames}"), "fork") == 0


def test_shipped_threshold_keeps_small_files_in_one_process(tmp_path, monkeypatch):
    # 2 MiB for a forked pool, 8 MiB for a spawned one
    assert (cli.CHUNK_BYTES, cli.POOL_MIN_CHUNKS) == (256 * 1024, {"fork": 8, "spawn": 32})
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    frames = tmp_path / "frames.jsonl"
    for method, min_chunks in cli.POOL_MIN_CHUNKS.items():
        for size, workers in ((min_chunks - 1) * cli.CHUNK_BYTES, 0), \
                (min_chunks * cli.CHUNK_BYTES, 2):
            with open(frames, "wb") as fh:
                fh.truncate(size)  # sparse: only the size is read
            assert cli._score_workers(open_backend(f"jsonl:{frames}"), method) == workers


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
        assert cli._score_workers(open_backend(f"jsonl:{frames}"), method) == workers
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


# Runs `score` with the arguments after its first three: with CPUS usable
# CPUs, 100-byte chunks and pool thresholds of 2 chunks, the pool started
# by METHOD (forced through the thread count) and, for ACTION "die",
# workers that exit at once. It writes "head" to stdout, unflushed, before
# scoring; logs each pool's start method on stderr; and ends by printing
# how many child processes are left.
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
        cli.score_lines = die
    cli.CHUNK_BYTES = 100
    cli.POOL_MIN_CHUNKS = {"fork": 2, "spawn": 2}
    os.sched_getaffinity = lambda pid: set(range(int(cpus)))
    threading.active_count = lambda: 1 if method == "fork" else 2
    multiprocessing.get_context = logged
    sys.stdout.write("head\\n")
    code = cli.main(argv)
    print(len(multiprocessing.active_children()), file=sys.stderr)
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
    for method in START_METHODS:
        done = _run_script(tmp_path, 2, method, "die", "score", "--input", str(frames),
                           "--out", str(tmp_path / "out.jsonl"))
        assert done.returncode == 1
        assert done.stdout == b"head\n"
        pool, error, left = done.stderr.decode().splitlines()
        assert pool == f"pool: {method}"
        assert error.startswith("error: a score worker process died: ")
        assert left == "0"


@pytest.mark.skipif("fork" not in START_METHODS, reason="the pool forks only on Linux, 3.11+")
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


def test_pool_forks_only_on_linux_from_311_with_one_thread(monkeypatch):
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    monkeypatch.setattr(sys, "platform", "linux")
    with monkeypatch.context() as patched:
        patched.setattr(sys, "version_info", (3, 11, 0, "final", 0))
        assert cli._pool_start_method() == "fork"
        patched.setattr(sys, "version_info", (3, 10, 13, "final", 0))
        assert cli._pool_start_method() == "spawn"
    for platform in ("darwin", "win32"):
        monkeypatch.setattr(sys, "platform", platform)
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
