"""score and watch on forked worker processes, for a large JSONL file and
for a synthetic: script: the same bytes, warnings, counts and
exit codes as in one process, bounded workers and spans in flight, a
bounded failure when a worker dies, no fork while a thread runs, and no
worker left behind.

Each test forces the path it wants: a small CHUNK_BYTES and
POOL_MIN_CHUNKS (SYNTH_SPAN_FRAMES and SYNTH_POOL_MIN_FRAMES for a
synthetic: script) and two usable CPUs select the workers, one usable CPU
the one-process loop. The usable CPUs are set through
os.sched_getaffinity, which is added where the platform lacks it
(macOS). Workers fork on Linux only; elsewhere every run stays in one
process, and the tests that need a fork are skipped.
"""

import errno
import gc
import http.server
import importlib.util
import io
import itertools
import json
import logging
import os
import pathlib
import re
import subprocess
import sys
import threading
import time

import pytest

from threatwatch import backends, cli
from threatwatch.alerts import AlertTracker, TemporalConfig, serialize_alert_event
from threatwatch.backends import Scene, load_script, open_backend, script_from_dict, synthesize
from threatwatch.cli import main
from threatwatch.errors import ThreatwatchError
from threatwatch.frames import chunk_spans
from threatwatch.fusion import FusionConfig, ThreatLevel, assess_frame, serialize_assessment

ROOT = pathlib.Path(__file__).resolve().parent.parent

SUMMARY_RE = re.compile(r"summary: frames=(\d+) skipped=(\d+) elapsed_s=[\d.]+ rate_fps=[\d.]+")
TIMINGS_RE = re.compile(r" elapsed_s=[\d.]+ rate_fps=[\d.]+$")

LINUX = sys.platform == "linux"
fork_only = pytest.mark.skipif(not LINUX, reason="workers fork only on Linux")

# One entry per fork of this process. A hook of os.register_at_fork cannot
# be removed, so this one is registered once, at import.
_FORKED = []
os.register_at_fork(after_in_parent=lambda: _FORKED.append(None))


def _no_child():
    """Every child of this process has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def _main(argv, monkeypatch, caplog, capsys, cpus, chunk_bytes=cli.CHUNK_BYTES, min_chunks=2):
    """main(argv) with cpus usable CPUs, the given chunk size and the fewest
    chunks for the workers (None: the shipped threshold); returns the exit
    code, the warnings logged and stderr."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(cli, "CHUNK_BYTES", chunk_bytes)
    if min_chunks is not None:
        monkeypatch.setattr(cli, "POOL_MIN_CHUNKS", min_chunks)
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        code = main(argv)
    warnings = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
    return code, warnings, capsys.readouterr().err


def _run(argv, monkeypatch, caplog, capsys, cpus, chunk_bytes=cli.CHUNK_BYTES, min_chunks=2):
    """_main(...)'s observables except timings, for score."""
    code, warnings, err = _main(argv, monkeypatch, caplog, capsys, cpus, chunk_bytes, min_chunks)
    summary = SUMMARY_RE.search(err)
    errors = [line for line in err.splitlines() if not line.startswith("summary: ")]
    return code, summary and summary.groups(), warnings, errors


def _untimed(err):
    """stderr's lines without the summary's timings."""
    return [TIMINGS_RE.sub("", line) for line in err.splitlines()]


def _score_every_way(tmp_path, data, monkeypatch, caplog, capsys, chunk_bytes, extra=(),
                     min_chunks=2):
    """score data in one process, then on two CPUs, which forks workers on
    Linux, each into its own --out, which a test may fill beforehand:
    out1.jsonl, out2.jsonl. Returns each run's observables and output
    bytes, the one-process run first; checks that only the second run
    forked, where it can, and that no child is left."""
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(data)
    results = []
    for cpus in (1, 2):
        out = tmp_path / f"out{cpus}.jsonl"
        forked = len(_FORKED)
        seen = _run(["score", "--input", str(frames), "--out", str(out), *extra],
                    monkeypatch, caplog, capsys, cpus, chunk_bytes, min_chunks)
        assert (len(_FORKED) > forked) == (cpus == 2 and LINUX)
        _no_child()
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
    # large enough for the workers at the shipped chunk size and threshold
    assert len(data) >= cli.POOL_MIN_CHUNKS * cli.CHUNK_BYTES
    forked = len(_FORKED)
    serial, pooled = _score_every_way(tmp_path, data, monkeypatch, caplog, capsys,
                                      cli.CHUNK_BYTES, min_chunks=None)
    assert len(_FORKED) - forked == (2 if LINUX else 0)
    assert pooled == serial
    (code, summary, warnings, errors), out = serial
    assert code == 0 and errors == []
    assert summary == (str(len(out.splitlines())), str(workload.truth.bad_lines))
    assert len(warnings) == workload.truth.bad_lines > 0


@pytest.mark.parametrize("chunk_bytes", [1, 600, 4096, 200_000])
def test_hostile_lines_match_one_process(tmp_path, monkeypatch, caplog, capsys, chunk_bytes):
    serial, pooled = _score_every_way(tmp_path, HOSTILE, monkeypatch, caplog, capsys,
                                      chunk_bytes)
    assert pooled == serial
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
    serial, pooled = _score_every_way(tmp_path, b"".join(lines), monkeypatch, caplog,
                                      capsys, chunk_bytes)
    assert pooled == serial
    assert serial[0][1] == ("20", "10")


@pytest.mark.parametrize("first_bad", [1, 2, 40])
def test_strict_stops_at_the_first_bad_line(tmp_path, monkeypatch, caplog, capsys, first_bad):
    lines = [_line(i) + b"\n" for i in range(1, 60)]
    lines[first_bad - 1] = b"{broken\n"
    lines[50] = b"[1]\n"
    for name in ("out1", "out2"):
        (tmp_path / f"{name}.jsonl").write_text("earlier run\n")
    serial, pooled = _score_every_way(tmp_path, b"".join(lines), monkeypatch, caplog,
                                      capsys, 200, ["--strict"])
    assert pooled == serial
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
    serial, pooled = _score_every_way(tmp_path, b"".join(lines), monkeypatch, caplog, capsys,
                                      2000, ["--strict"])
    spans = list(chunk_spans(str(tmp_path / "frames.jsonl"), 2000))
    assert len(spans) > 1 and spans[0][2] < 10 < 11 < spans[1][2]
    assert pooled == serial
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
    _no_child()


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
    _no_child()


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
    forked = len(_FORKED)
    assert _run(argv, monkeypatch, caplog, capsys, 2, 300) == serial
    assert len(_FORKED) - forked == (2 if LINUX else 0)
    assert serial[0] == 2 and len(serial[2]) == 1
    assert serial[3][0].startswith("i/o error: ")
    # the workers' own opens happen in their processes
    assert len(opened) == 2 and all(fh.closed for fh in opened)
    _no_child()


def _pipe_filling_frames(tmp_path, lines):
    """A frames file of lines longer than a pipe and the parent's read
    buffer hold: a worker blocks in the write of such a line's payload
    until the parent reads it."""
    import fcntl

    read_fd, write_fd = os.pipe()
    capacity = fcntl.fcntl(read_fd, fcntl.F_GETPIPE_SZ)
    os.close(read_fd)
    os.close(write_fd)
    stream_id = b'"%s"' % (b"c" * (capacity + 2 * io.DEFAULT_BUFFER_SIZE))
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(b"".join(_line(i).replace(b'"c"', stream_id) + b"\n"
                                for i in range(1, lines + 1)))
    return frames


@fork_only
@pytest.mark.parametrize("cpus, lines, chunk_bytes, workers", [(2, 200, 1, 2), (4, 3, 150, 3)])
def test_workers_and_chunks_in_flight_are_bounded(tmp_path, monkeypatch, cpus, lines, chunk_bytes,
                                                  workers):
    # Long lines (_pipe_filling_frames), one to a span. min(CPUs, chunks)
    # workers, but no more than spans: 3 lines are 3 spans but more than 4
    # chunks by size.
    frames = _pipe_filling_frames(tmp_path, lines)
    started = tmp_path / "started"
    assess = cli.assess_span

    def counted(*args):
        with open(started, "ab") as log:
            log.write(b".")
        return assess(*args)

    monkeypatch.setattr(cli, "assess_span", counted)
    monkeypatch.setattr(cli, "CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(cli, "POOL_MIN_CHUNKS", 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    forked = len(_FORKED)
    with cli._assessed(open_backend(f"jsonl:{frames}", False), FusionConfig(), "score") as runs:
        assert len(_FORKED) - forked == workers
        # The read-ahead took span 0; each worker may have made one more
        # span, and then waits for the parent to read it.
        time.sleep(0.5)
        assert 1 <= len(started.read_bytes()) <= 1 + workers
        assert sum(count for _, count in runs) == lines
    assert started.read_bytes() == b"." * lines
    _no_child()


def test_only_a_large_regular_jsonl_file_gets_workers(tmp_path, monkeypatch):
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(_line(1) + b"\n" + _line(2) + b"\n")
    script = tmp_path / "s.json"
    script.write_text(json.dumps({"segments": [{"scene": "empty", "duration_frames": 1}]}))
    monkeypatch.setattr(cli, "_may_fork", lambda: True)
    monkeypatch.setattr(cli, "CHUNK_BYTES", frames.stat().st_size // 2 + 1)
    monkeypatch.setattr(cli, "POOL_MIN_CHUNKS", 2)
    cpus = {1: 0, 2: 2, 8: 2}  # two chunks: never more workers than chunks
    for n, workers in cpus.items():
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=n: set(range(n)),
                            raising=False)
        assert cli._pool_workers(open_backend(f"jsonl:{frames}")) == workers
    monkeypatch.setattr(cli, "POOL_MIN_CHUNKS", 3)  # fewer chunks than the threshold
    assert cli._pool_workers(open_backend(f"jsonl:{frames}")) == 0
    monkeypatch.setattr(cli, "POOL_MIN_CHUNKS", 2)
    for uri in ("jsonl:-", f"jsonl:{tmp_path}", f"jsonl:{tmp_path / 'ghost'}",
                f"synthetic:{script}"):
        assert cli._pool_workers(open_backend(uri)) == 0
    monkeypatch.setattr(cli, "CHUNK_BYTES", frames.stat().st_size)  # one chunk
    assert cli._pool_workers(open_backend(f"jsonl:{frames}")) == 0
    # A synthetic script of 12 frames, three spans of 4, takes workers from
    # SYNTH_POOL_MIN_FRAMES frames, one a span on 8 CPUs.
    script.write_text(json.dumps({"segments": [{"scene": "empty", "duration_frames": 11},
                                               {"scene": "hand_only", "duration_frames": 1}]}))
    monkeypatch.setattr(backends, "SYNTH_SPAN_FRAMES", 4)
    for min_frames, workers in ((13, 0), (12, 3)):
        monkeypatch.setattr(cli, "SYNTH_POOL_MIN_FRAMES", min_frames)
        assert cli._pool_workers(open_backend(f"synthetic:{script}")) == workers
    # Where this process may not fork, nothing takes workers.
    monkeypatch.setattr(cli, "_may_fork", lambda: False)
    assert cli._pool_workers(open_backend(f"synthetic:{script}")) == 0
    monkeypatch.setattr(cli, "CHUNK_BYTES", 1)
    assert cli._pool_workers(open_backend(f"jsonl:{frames}")) == 0


def test_shipped_threshold_keeps_small_files_in_one_process(tmp_path, monkeypatch):
    # more than 768 KiB
    assert (cli.CHUNK_BYTES, cli.POOL_MIN_CHUNKS) == (256 * 1024, 4)
    monkeypatch.setattr(cli, "_may_fork", lambda: True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    frames = tmp_path / "frames.jsonl"
    for size, workers in ((3 * cli.CHUNK_BYTES, 0), (3 * cli.CHUNK_BYTES + 1, 2)):
        with open(frames, "wb") as fh:
            fh.truncate(size)  # sparse: only the size is read
        assert cli._pool_workers(open_backend(f"jsonl:{frames}")) == workers


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
    assert cli._pool_workers(open_backend(f"jsonl:{frames}")) == (workers if LINUX else 0)
    out.unlink()
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        code = main(argv)
    err = capsys.readouterr().err
    seen = (code, SUMMARY_RE.search(err).groups(),
            [(r.name, r.levelname, r.getMessage()) for r in caplog.records],
            [line for line in err.splitlines() if not line.startswith("summary: ")])
    assert (seen, out.read_bytes()) == serial
    _no_child()


# Runs the command in the arguments after its first two: with CPUS usable
# CPUs, 100-byte chunks, a threshold of 2 chunks, 8-frame synthetic spans
# from 2 frames and, for ACTION "die", JSONL workers that exit at once. It writes "head" to stdout, unflushed,
# before running, and ends by printing on stderr the number of threads at
# each fork, whether a child is left and, for ACTION "ssl", whether ssl was
# loaded.
RUNNER = """\
import os
import sys
import threading

from threatwatch import backends, cli


def die(*args):
    os._exit(3)


cpus, action, *argv = sys.argv[1:]
if action == "die":
    cli.assess_span = die
forks = []
os.register_at_fork(before=lambda count=threading.active_count: forks.append(count()))
cli.CHUNK_BYTES = 100
cli.POOL_MIN_CHUNKS = 2
backends.SYNTH_SPAN_FRAMES = 8
cli.SYNTH_POOL_MIN_FRAMES = 2
os.sched_getaffinity = lambda pid: set(range(int(cpus)))
sys.stdout.write("head\\n")
code = cli.main(argv)
print(f"threads at each fork: {forks}", file=sys.stderr)
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child is left", file=sys.stderr)
except ChildProcessError:
    print("no child is left", file=sys.stderr)
if action == "ssl":
    print(f"ssl loaded: {'ssl' in sys.modules}", file=sys.stderr)
sys.exit(code)
"""


def _run_script(tmp_path, cpus, action, *argv):
    runner = tmp_path / "runner.py"
    runner.write_text(RUNNER)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(runner), str(cpus), action, *argv],
                          capture_output=True, env=env, timeout=60)


@fork_only
def test_worker_death_exits_1_without_hanging(tmp_path):
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(b"".join(_line(i) + b"\n" for i in range(1, 50)))
    for command, out in [("score", "--out"), ("watch", "--alerts")]:
        done = _run_script(tmp_path, 2, "die", command, "--input", str(frames),
                           out, str(tmp_path / "out.jsonl"))
        assert done.returncode == 1
        assert done.stdout == b"head\n"
        assert done.stderr.decode().splitlines() == [
            f"error: a {command} worker process died: its output ended before line 1",
            "threads at each fork: [1, 1]", "no child is left"]


@fork_only
def test_worker_killed_inside_a_payload_exits_with_the_line_it_lost(tmp_path, monkeypatch):
    # Worker 1 of 2 is killed once part of span 1's pickle is in its pipe:
    # the parent reads a pickle that is cut short. The parent reads only
    # once the worker is dead, since a killed writer still fills a pipe
    # that is being drained; WNOWAIT leaves it for the parent to reap.
    import fcntl
    import signal
    import termios

    frames = _pipe_filling_frames(tmp_path, 3)
    fork, pipe, pids, read_fds = os.fork, os.pipe, [], []

    def recorded_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def recorded_pipe():
        fds = pipe()
        read_fds.append(fds[0])
        return fds

    def queued(fd):
        return int.from_bytes(fcntl.ioctl(fd, termios.FIONREAD, bytes(4)), sys.byteorder)

    monkeypatch.setattr(os, "fork", recorded_fork)
    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(cli, "CHUNK_BYTES", 1)
    monkeypatch.setattr(cli, "POOL_MIN_CHUNKS", 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(ThreatwatchError) as raised:
        with cli._assessed(open_backend(f"jsonl:{frames}", False), FusionConfig(),
                           "score") as runs:
            assert len(pids) == len(read_fds) == 2
            deadline = time.monotonic() + 30
            while queued(read_fds[1]) <= 8:  # more than the pickle's first bytes
                assert time.monotonic() < deadline
                time.sleep(0.01)
            os.kill(pids[1], signal.SIGKILL)
            os.waitid(os.P_PID, pids[1], os.WEXITED | os.WNOWAIT)
            list(runs)
    assert str(raised.value) == "a score worker process died: its output ended before line 2"
    _no_child()


@fork_only
def test_a_failed_fork_leaks_no_pipe_and_leaves_no_child(tmp_path, monkeypatch, caplog, capsys):
    # The second fork fails after the first worker has started.
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(b"".join(_line(i) + b"\n" for i in range(1, 50)))
    fork, forks = os.fork, []

    def failing_fork():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    descriptors = len(os.listdir("/proc/self/fd"))
    code, warnings, err = _main(["score", "--input", str(frames), "--out",
                                 str(tmp_path / "out.jsonl")], monkeypatch, caplog, capsys, 2,
                                300)
    assert (code, warnings, len(forks)) == (2, [], 2)
    assert len(err.splitlines()) == 1 and err.startswith("i/o error: ")
    assert len(os.listdir("/proc/self/fd")) == descriptors
    _no_child()


@fork_only
def test_stdout_from_the_forked_pool_matches_one_process(tmp_path):
    # Children forked with "head" still buffered would write it again if
    # they flushed it; the workers leave through os._exit.
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(HOSTILE)
    argv = ["score", "--input", str(frames), "--out", "-"]
    serial = _run_script(tmp_path, 1, "score", *argv)
    forked = _run_script(tmp_path, 2, "score", *argv)
    assert serial.returncode == forked.returncode == 0
    assert forked.stdout == serial.stdout
    assert serial.stdout.startswith(b"head\n{") and serial.stdout.count(b"head") == 1
    assert serial.stdout.count(b"\n") == 6
    assert forked.stderr.decode().splitlines()[-2:] == ["threads at each fork: [1, 1]",
                                                        "no child is left"]


def test_pool_forks_only_on_linux_with_one_thread(monkeypatch):
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    for platform, may in [("linux", True), ("darwin", False), ("win32", False)]:
        monkeypatch.setattr(sys, "platform", platform)
        assert cli._may_fork() is may
    monkeypatch.setattr(sys, "platform", "linux")
    monkeypatch.setattr(threading, "active_count", lambda: 2)
    assert cli._may_fork() is False


def test_a_live_thread_keeps_a_large_file_in_one_process(tmp_path, monkeypatch, caplog, capsys):
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(HOSTILE)
    out = tmp_path / "out.jsonl"
    argv = ["score", "--input", str(frames), "--out", str(out)]
    serial = _run(argv, monkeypatch, caplog, capsys, 1, 600), out.read_bytes()
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    forked = len(_FORKED)
    try:
        assert cli._may_fork() is False
        pooled = _run(argv, monkeypatch, caplog, capsys, 2, 600), out.read_bytes()
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert len(_FORKED) == forked
    assert pooled == serial


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
    """watch data in one process, then on two CPUs with at most one worker
    and at most two, each into its own --alerts. Returns each run's exit
    code, warnings, stderr lines without timings and alerts bytes, the
    one-process run first, and the forks of the later runs; no child is
    left."""
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(data)
    pool_workers = cli._pool_workers
    runs, forks = [], []
    for cpus, workers in [(1, 0), (2, 1), (2, 2)]:
        monkeypatch.setattr(cli, "_pool_workers",
                            lambda backend, w=workers: min(pool_workers(backend), w))
        alerts = tmp_path / f"alerts-{workers}.jsonl"
        forked = len(_FORKED)
        code, warnings, err = _main(["watch", "--input", str(frames), "--alerts", str(alerts)],
                                    monkeypatch, caplog, capsys, cpus, chunk_bytes, min_chunks)
        runs.append((code, warnings, _untimed(err),
                     alerts.read_bytes() if alerts.exists() else None))
        if cpus > 1:
            forks.append(len(_FORKED) - forked)
        _no_child()
    return runs, forks


# The forks of _watch_every_way's later runs when the input takes workers.
WATCH_FORKS = [1, 2] if LINUX else [0, 0]


def test_seed0_replay_watch_input_matches_one_process(tmp_path, monkeypatch, caplog, capsys):
    workload = _load_workloads().generate("replay-watch", 0, tmp_path / "in")
    data = pathlib.Path(workload.input_uri.partition(":")[2]).read_bytes()
    assert len(data) >= cli.POOL_MIN_CHUNKS * cli.CHUNK_BYTES
    (serial, *pooled), forks = _watch_every_way(tmp_path, data, monkeypatch, caplog, capsys,
                                                cli.CHUNK_BYTES, min_chunks=None)
    assert forks == WATCH_FORKS
    assert pooled == [serial] * 2
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
    (serial, *pooled), forks = _watch_every_way(tmp_path, data, monkeypatch, caplog, capsys,
                                                chunk_bytes)
    assert forks == WATCH_FORKS
    assert pooled == [serial] * 2
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


def test_watch_pool_frames_equal_one_process_frames(tmp_path, monkeypatch, caplog):
    # The frames watch feeds its alert tracker, not only the bytes it
    # writes: an int level from the workers would serialize alike. Both
    # inputs' workers send the same frame tuples.
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(_streams() + HOSTILE)
    script = tmp_path / "script.json"
    script.write_text(json.dumps(_script((0.1, 0.0))))
    monkeypatch.setattr(cli, "CHUNK_BYTES", 300)
    monkeypatch.setattr(cli, "POOL_MIN_CHUNKS", 2)
    monkeypatch.setattr(backends, "SYNTH_SPAN_FRAMES", 8)
    monkeypatch.setattr(cli, "SYNTH_POOL_MIN_FRAMES", 2)
    # stale frames included: the tracker drops them
    for uri, count in ((f"jsonl:{frames}", 132), (f"synthetic:{script}", 47)):
        seen = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, cpus=cpus: set(range(cpus)), raising=False)
            backend = open_backend(uri, False)
            assert bool(cli._pool_workers(backend)) == (cpus == 2 and LINUX)
            with caplog.at_level(logging.WARNING), cli._assessed(backend, FusionConfig(),
                                                                "watch") as assessed:
                seen.append(list(assessed))
        serial, pooled = seen
        assert len(serial) == count
        assert pooled == serial
        assert [tuple(map(type, frame)) for frame in serial + pooled] == (
            [(str, int, int, ThreatLevel, float)] * 2 * len(serial))
    _no_child()


@pytest.mark.parametrize("data, forks", [(b"{x\n" * 40 + b"[1]\n" + b"\n", WATCH_FORKS),
                                         (b"", [0, 0])],
                         ids=["all_bad", "empty"])
def test_watch_of_no_frames_matches_one_process(tmp_path, monkeypatch, caplog, capsys, data,
                                                forks):
    # An empty file has no chunk, so it never takes workers.
    (serial, *pooled), made = _watch_every_way(tmp_path, data, monkeypatch, caplog, capsys, 10)
    assert made == forks
    assert pooled == [serial] * 2
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
    _no_child()


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
    _no_child()


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
    for cpus in (1, 2):
        done = _run_script(tmp_path, cpus, "ssl", "watch", "--input", str(frames),
                           "--alerts", "-", "--webhook", url)
        err = _untimed(done.stderr.decode())
        assert err[-3] == ("threads at each fork: [1, 1]" if cpus > 1 and LINUX
                           else "threads at each fork: []")
        del err[-3]
        runs.append((done.returncode, done.stdout, err, receiver.bodies[:]))
        receiver.bodies.clear()
    serial, pooled = runs
    assert pooled == serial
    code, stdout, err, bodies = serial
    assert code == 0 and stdout.startswith(b"head\n")
    assert bodies == stdout.splitlines()[1:] and len(bodies) == 17
    # an http:// webhook loads no ssl
    assert err[-4:] == ["summary: frames=127 skipped=10 dropped=7 alerts_raised=6 events=17",
                        "webhook: delivered=17 failed=0 dropped=0", "no child is left",
                        "ssl loaded: False"]


@fork_only
def test_watch_forks_its_workers_before_the_webhook_thread_starts(tmp_path, receiver):
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(_streams())
    script = tmp_path / "script.json"
    script.write_text(json.dumps(_script((0.1,), (30, 30, 30, 30, 30))))
    url = f"http://127.0.0.1:{receiver.server_address[1]}/hook"
    for source, events in ((str(frames), 17), (f"synthetic:{script}", 3)):
        done = _run_script(tmp_path, 2, "forks", "watch", "--input", source,
                           "--alerts", os.devnull, "--webhook", url)
        assert done.returncode == 0, done.stderr
        assert done.stderr.decode().splitlines()[-3:] == [
            f"webhook: delivered={events} failed=0 dropped=0", "threads at each fork: [1, 1]",
            "no child is left"]


def test_watch_on_a_live_pipe_alerts_before_its_input_ends(tmp_path, receiver):
    # watch reads stdin line by line: the third hot frame raises the alert
    # while stdin stays open, and no read-ahead holds the POST back.
    url = f"http://127.0.0.1:{receiver.server_address[1]}/hook"
    with subprocess.Popen([sys.executable, "-m", "threatwatch", "watch", "--input", "-",
                           "--alerts", str(tmp_path / "alerts.jsonl"), "--webhook", url],
                          stdin=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src"))) as watch:
        try:
            watch.stdin.write(b"".join(_frame("cam", frame_id, "hot") for frame_id in (1, 2, 3)))
            watch.stdin.flush()
            deadline = time.monotonic() + 10
            while not receiver.bodies and time.monotonic() < deadline:
                time.sleep(0.01)
            assert watch.poll() is None
            assert [json.loads(body)["kind"] for body in receiver.bodies] == ["raised"]
            _, err = watch.communicate(timeout=60)  # closes stdin
        finally:
            watch.kill()
    assert watch.returncode == 0
    assert err.decode().splitlines()[-1] == "webhook: delivered=2 failed=0 dropped=0"
    assert [json.loads(body)["kind"] for body in receiver.bodies] == ["raised", "cleared"]


def _script(noises, durations=(8, 5, 11, 3, 20), seed=5):
    """A script of the five scenes with the given durations and noises
    (cycled). The defaults start segments on the edges of 8-frame spans
    (frames 9 and 25) and inside spans (frames 14 and 28), over 47 frames."""
    return {"segments": [{"scene": scene.value, "duration_frames": frames, "noise": noise}
                         for scene, frames, noise in zip(Scene, durations,
                                                         itertools.cycle(noises))],
            "seed": seed}


def _record_reference(script, watch=False):
    """What score writes for script, a ScenarioScript, or for watch its
    alert events, made one record at a time: serialize_assessment of
    assess_frame for each record of synthesize(script), at the default
    config."""
    cfg = FusionConfig()
    assessed = [(r, assess_frame(r, cfg)) for r in synthesize(script)]
    if not watch:
        return "".join(serialize_assessment(a) + "\n" for _, a in assessed).encode()
    tracker = AlertTracker(TemporalConfig())
    events = [tracker.feed(r.stream_id, r.frame_id, r.ts_ms, a.level, a.score)
              for r, a in assessed]
    events = [e for e in events if e is not None] + tracker.flush_all()
    return "".join(serialize_alert_event(e) + "\n" for e in events).encode()


def _score_synthetic(tmp_path, uri, monkeypatch, caplog, capsys, cpus, span=8, min_frames=2,
                     stdin=None, out=None):
    """score uri with cpus usable CPUs, spans of span frames, the synthetic
    workers from min_frames frames (None: the shipped threshold) and
    stdin's bytes, if given. Returns _run's observables, the output bytes
    (None for an out given) and the number of forks; no worker is left."""
    monkeypatch.setattr(backends, "SYNTH_SPAN_FRAMES", span)
    if min_frames is not None:
        monkeypatch.setattr(cli, "SYNTH_POOL_MIN_FRAMES", min_frames)
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin)))
    forked = len(_FORKED)
    path = out or tmp_path / f"out-{cpus}.jsonl"
    seen = _run(["score", "--input", uri, "--out", str(path)], monkeypatch, caplog, capsys, cpus)
    gc.collect()  # an unclosed pipe warns here
    _no_child()
    return seen, None if out else path.read_bytes(), len(_FORKED) - forked


def _score_synthetic_both_ways(tmp_path, uri, monkeypatch, caplog, capsys, cpus=2, **kwargs):
    """_score_synthetic on one CPU, then on cpus CPUs."""
    return [_score_synthetic(tmp_path, uri, monkeypatch, caplog, capsys, n, **kwargs)
            for n in (1, cpus)]


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
    assert out == _record_reference(load_script(str(script)))


@fork_only
def test_synthetic_stdin_script_matches_one_process(tmp_path, monkeypatch, caplog, capsys):
    data = json.dumps(_script((0.1, 0.0), seed=9)).encode()
    serial, pooled = _score_synthetic_both_ways(tmp_path, "synthetic:-", monkeypatch, caplog,
                                                capsys, stdin=data)
    assert (serial[2], pooled[2]) == (0, 2)
    assert pooled[:2] == serial[:2] and serial[0][:2] == (0, ("47", "0"))
    assert serial[1] == _record_reference(script_from_dict(json.loads(data)))


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
    assert serial[1] == _record_reference(load_script(workload.input_uri.partition(":")[2]))


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
    serial = _score_synthetic(tmp_path, f"synthetic:{script}", monkeypatch, caplog, capsys, 1)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert cli._may_fork() is False
        pooled = _score_synthetic(tmp_path, f"synthetic:{script}", monkeypatch, caplog, capsys, 2)
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert (serial[2], pooled[2]) == (0, 0)
    assert pooled[:2] == serial[:2]


def _watch_synthetic(tmp_path, uri, monkeypatch, caplog, capsys, span=8, min_frames=2):
    """watch uri on one CPU, then on two, with spans of span frames and the
    synthetic workers from min_frames frames (None: the shipped threshold).
    Returns each run's exit code, warnings, stderr lines without timings
    and alerts bytes, and the forks of each run; no worker is left."""
    monkeypatch.setattr(backends, "SYNTH_SPAN_FRAMES", span)
    if min_frames is not None:
        monkeypatch.setattr(cli, "SYNTH_POOL_MIN_FRAMES", min_frames)
    runs, forks = [], []
    for cpus in (1, 2):
        alerts = tmp_path / f"alerts-{cpus}.jsonl"
        forked = len(_FORKED)
        code, warnings, err = _main(["watch", "--input", uri, "--alerts", str(alerts)],
                                    monkeypatch, caplog, capsys, cpus)
        forks.append(len(_FORKED) - forked)
        runs.append((code, warnings, _untimed(err), alerts.read_bytes()))
        _no_child()
    return runs, forks


@fork_only
def test_watch_on_a_synthetic_script_matches_one_process(tmp_path, monkeypatch, caplog, capsys):
    script = tmp_path / "script.json"
    script.write_text(json.dumps(_script((0.1,), (30, 30, 30, 30, 30))))
    runs, forks = _watch_synthetic(tmp_path, f"synthetic:{script}", monkeypatch, caplog, capsys)
    assert forks == [0, 2]
    assert runs[0] == runs[1]
    code, warnings, err, alerts = runs[0]
    assert code == 0 and b'"kind":"raised"' in alerts
    assert err == ["summary: frames=150 skipped=0 dropped=0 alerts_raised=1 events=3"]
    assert alerts == _record_reference(load_script(str(script)), watch=True)


@fork_only
def test_watch_on_the_seed0_synth_score_script_matches_one_process(tmp_path, monkeypatch, caplog,
                                                                    capsys):
    # the shipped span size and threshold
    workload = _load_workloads().generate("synth-score", 0, tmp_path / "in")
    runs, forks = _watch_synthetic(tmp_path, workload.input_uri, monkeypatch, caplog, capsys,
                                   span=backends.SYNTH_SPAN_FRAMES, min_frames=None)
    assert forks == [0, 2]
    assert runs[0] == runs[1]
    code, warnings, err, alerts = runs[0]
    assert code == 0 and warnings == [] and b'"kind":"raised"' in alerts
    assert err[0].startswith(f"summary: frames={len(workload.truth.frames)} skipped=0 ")
    assert alerts == _record_reference(load_script(workload.input_uri.partition(":")[2]),
                                       watch=True)


@pytest.mark.parametrize("durations", [(8, 5, 11, 3, 20),
                                       (1000, 1000, 1000, 1000, cli.SYNTH_POOL_MIN_FRAMES - 4000)],
                         ids=["short", "pool_threshold"])
def test_synthetic_input_in_one_process_builds_no_record(tmp_path, monkeypatch, caplog, capsys,
                                                         durations):
    script = tmp_path / "script.json"
    script.write_text(json.dumps(_script((0.1, 0.0, 0.05), durations)))
    reference = {command: _record_reference(load_script(str(script)), command == "watch")
                 for command in ("score", "watch")}

    def no_record(*args):
        raise AssertionError("a FrameRecord was built")

    monkeypatch.setattr(cli, "_may_fork", lambda: False)
    monkeypatch.setattr(backends.SyntheticBackend, "frames", no_record)
    monkeypatch.setattr("threatwatch.frames._new_record", no_record)
    forked = len(_FORKED)
    for command, flag in (("score", "--out"), ("watch", "--alerts")):
        out = tmp_path / f"{command}.jsonl"
        code, warnings, _ = _main([command, "--input", f"synthetic:{script}", flag, str(out)],
                                  monkeypatch, caplog, capsys, 2)
        assert (code, warnings) == (0, [])
        assert out.read_bytes() == reference[command]
    assert len(_FORKED) == forked


def _die_at_frame_20(monkeypatch):
    """Worker 0 of 2 dies in its second span of 8 frames (frames 17-24),
    after writing its first: the workers assess each frame's fields
    through cli._assess_fields."""
    parent, assess = os.getpid(), cli._assess_fields

    def dying(frame, cfg, watch):
        if frame[1] == 20 and os.getpid() != parent:
            os._exit(1)
        return assess(frame, cfg, watch)

    monkeypatch.setattr(cli, "_assess_fields", dying)


@fork_only
def test_synthetic_worker_death_exits_1_and_reaps_every_worker(tmp_path, monkeypatch, caplog,
                                                               capsys):
    _die_at_frame_20(monkeypatch)
    script = tmp_path / "script.json"
    script.write_text(json.dumps(_script((0.1,))))
    (code, summary, warnings, errors), out, forks = _score_synthetic(
        tmp_path, f"synthetic:{script}", monkeypatch, caplog, capsys, 2)
    assert (code, summary, warnings, forks) == (1, None, [], 2)
    assert errors == ["error: a score worker process died: its output ended after frame 16 "
                      "of 47"]
    assert [json.loads(line)["frame_id"] for line in out.splitlines()] == list(range(1, 17))


@fork_only
def test_synthetic_watch_worker_death_exits_1_and_reaps_every_worker(tmp_path, monkeypatch,
                                                                     caplog, capsys):
    _die_at_frame_20(monkeypatch)
    script = tmp_path / "script.json"
    script.write_text(json.dumps(_script((0.1,))))
    runs, forks = _watch_synthetic(tmp_path, f"synthetic:{script}", monkeypatch, caplog, capsys)
    assert forks == [0, 2]
    code, warnings, err, _ = runs[1]
    assert (code, warnings) == (1, [])
    assert err == ["error: a watch worker process died: its output ended after frame 16 of 47"]


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
