"""End-to-end benchmark of `threatwatch score` and `threatwatch watch`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program under test is the
checkout's own src/ (no install needed, stdlib only). The seed generates
the workload's input files under .perfbench_work/; the CLI sees only those
files. Every pass is a closed loop: the CLI reads a pre-generated file as
fast as it can, one child process at a time.

Workloads (see BENCHMARK.json for why each exists):
  synth-score   score --input synthetic:  five equal scene segments, noise
                0.02, one stream (acceptance criterion 8's script, 60k
                frames); no JSON parse.
  replay-score  score --input jsonl:  36 interleaved streams, 0-6
                sub-threshold distractor detections per frame, ~1% bad lines.
  replay-watch  watch --input jsonl: --webhook to a single-threaded loopback
                receiver in this process; ~15k short-lived streams, rare
                threat bursts, ~1% bad lines, ~0.5% stale frame_ids.

--trace 0 repeats (one-frame set-up pass, full pass) until --seconds have
passed and reports medians:
  frames_per_s  frames / loop time, from the CLI's summary line
  wall_s        launch-to-exit wall time of a full pass
  setup_s       wall time of the same command on a one-frame input
  peak_rss_mb   peak RSS of a full pass (wait4 rusage, see launch.py)
  ok_frac       operations (input lines plus webhook events) whose outcome
                matched the oracle, over operations attempted; the error
                fraction is 1 - ok_frac = failed / attempted

--trace 1 alternates untraced passes with traced replays of the same
input (tracer.py) until --seconds have passed, and reports the per-layer
metrics of the traced pass with the median frame time, plus cli.import_ms,
trace.overhead_frac (1 - median traced / median untraced frames_per_s)
and, on replay-watch, a webhook burst probe. Layers that a workload does
not run report 0.

Every pass is checked: score lines against each frame's designated level,
watch events against a hysteresis reference, webhook deliveries against
events emitted, and, for the seed golden.json names (the default seed),
the output's sha256 against the hash recorded there. The last line of
stdout is the JSON result; the line before it records the environment,
which is also saved with the raw per-pass numbers under
.perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import http.server
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN_PATH = HERE / "golden.json"

CHILD_TIMEOUT_S = 60
IMPORT_SAMPLES = 5
BURST_EVENTS = 1500  # more than WebhookSink's 1,000-slot queue

# Metric names and units, as declared in the benchmark's spec.
SPEC_PATH = ROOT / "BENCHMARK.json"

_SUMMARY = re.compile(
    r"summary: frames=(?P<frames>\d+) skipped=(?P<skipped>\d+) "
    r"(?:dropped=(?P<dropped>\d+) alerts_raised=\d+ events=(?P<events>\d+) )?"
    r"elapsed_s=[\d.]+ rate_fps=(?P<rate>[\d.]+)")


class BenchError(Exception):
    """The program under test could not be run or did not finish."""


class Receiver:
    """Single-threaded HTTP endpoint on 127.0.0.1 that records each POST
    body, served from one background thread."""

    def __init__(self) -> None:
        bodies = self._bodies = []

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self) -> None:
                length = int(self.headers.get("Content-Length") or 0)
                bodies.append(self.rfile.read(length).decode("utf-8", "replace"))
                self.send_response(200)
                self.send_header("Content-Length", "0")
                self.end_headers()

            def log_message(self, *args) -> None:
                pass

        self._server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()
        self.url = f"http://127.0.0.1:{self._server.server_port}/alerts"

    def take(self) -> list:
        """Bodies received since the last take(). Call only while no child
        is running, so none is half-recorded."""
        taken = self._bodies[:]
        del self._bodies[:]
        return taken

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("THREATWATCH_CONFIG", "PYTHONPATH", "PYTHONSTARTUP", "PYTHONHOME")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list, stderr_path: Path) -> tuple:
    """Run one child to completion through launch.py; returns (wall
    seconds, peak RSS in MB, stderr)."""
    with open(stderr_path, "wb") as err:
        launched = subprocess.run(
            [sys.executable, "-I", "-S", str(HERE / "launch.py"), str(CHILD_TIMEOUT_S), *argv],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err, env=child_env(),
            cwd=ROOT, timeout=CHILD_TIMEOUT_S + 30, check=False)
    stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
    try:
        report = json.loads(launched.stdout)
    except ValueError:
        report = {"exit": launched.returncode}
    if launched.returncode != 0 or report["exit"] != 0:
        raise BenchError(f"{' '.join(argv[1:4])}... exited {report['exit']}:\n{stderr[-2000:]}")
    return report["wall_s"], report["maxrss_kb"] / 1024, stderr


def parse_summary(stderr: str) -> dict:
    matches = list(_SUMMARY.finditer(stderr))
    if not matches:
        raise BenchError(f"no summary line in:\n{stderr[-2000:]}")
    m = matches[-1]
    return {"frames": int(m["frames"]), "skipped": int(m["skipped"]),
            "dropped": int(m["dropped"] or 0), "events": int(m["events"] or 0),
            "rate_fps": float(m["rate"])}


class Bench:
    """One workload's generated input, its oracle, and the passes run
    over it."""

    def __init__(self, name: str, seed: int) -> None:
        self.seed = seed
        self.dir = WORK / "inputs" / name
        self.workload = workloads.generate(name, seed, self.dir)
        self.watch = self.workload.command == "watch"
        self.expected_events = oracle.reference_events(self.workload.truth) if self.watch else []
        golden = json.loads(GOLDEN_PATH.read_text())
        self.golden = golden["sha256"].get(name) if seed == golden["seed"] else None
        self.receiver = Receiver() if self.watch else None
        self.checked: dict = {}
        self.attempted = 0
        self.failed = 0
        self.output_sha256: set = set()

    def close(self) -> None:
        if self.receiver is not None:
            self.receiver.close()

    def cli_args(self, input_uri: str, out: Path) -> list:
        if self.watch:
            return ["watch", "--input", input_uri, "--alerts", str(out),
                    "--webhook", self.receiver.url]
        return ["score", "--input", input_uri, "--out", str(out)]

    def setup_pass(self) -> float:
        out = self.dir / "setup-out.jsonl"
        wall, _, stderr = run_child(
            [sys.executable, "-m", "threatwatch", *self.cli_args(self.workload.setup_uri, out)],
            self.dir / "setup-stderr.txt")
        if self.receiver is not None:
            self.receiver.take()
        if parse_summary(stderr)["frames"] != 1:
            raise BenchError("set-up pass did not process exactly one frame")
        return wall

    def full_pass(self, traced: bool = False) -> dict:
        out = self.dir / ("traced-out.jsonl" if traced else "out.jsonl")
        args = self.cli_args(self.workload.input_uri, out)
        if traced:
            metrics_path = self.dir / "layers.json"
            argv = [sys.executable, str(HERE / "tracer.py"), "run",
                    str(self.dir / "spans.tsv"), str(metrics_path), "--", *args]
        else:
            argv = [sys.executable, "-m", "threatwatch", *args]
        wall, peak_rss_mb, stderr = run_child(argv, self.dir / "stderr.txt")
        summary = parse_summary(stderr)
        self.check(out.read_bytes(), summary)
        result = {"wall_s": wall, "frames_per_s": summary["rate_fps"],
                  "peak_rss_mb": peak_rss_mb}
        if traced:
            result["layers"] = json.loads(metrics_path.read_text())
        return result

    def check(self, output: bytes, summary: dict) -> None:
        truth = self.workload.truth
        sha = hashlib.sha256(output).hexdigest()
        self.output_sha256.add(sha)
        if self.watch:
            errors = oracle.check_watch(output, truth, summary, self.expected_events,
                                        self.receiver.take())
            attempted = truth.lines + len(self.expected_events)
        else:
            key = (sha, summary["skipped"])
            if key not in self.checked:
                self.checked[key] = oracle.check_score(output, truth, summary)
            errors = self.checked[key]
            attempted = truth.lines
        if self.golden is not None and sha != self.golden:
            errors += 1
        self.attempted += attempted
        self.failed += errors

    def burst(self) -> dict:
        path = self.dir / "burst.json"
        run_child([sys.executable, str(HERE / "tracer.py"), "burst", self.receiver.url,
                   str(BURST_EVENTS), str(path)], self.dir / "burst-stderr.txt")
        self.receiver.take()
        return json.loads(path.read_text())


def import_ms() -> float:
    code = ("import time; t = time.perf_counter(); import threatwatch.cli; "
            "print((time.perf_counter() - t) * 1e3)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                             capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                             check=True)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def measure(bench: Bench, seconds: float) -> tuple:
    bench.setup_pass()  # warm-up: compiles bytecode, fills the page cache
    setups, passes = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        setups.append(bench.setup_pass())
        passes.append(bench.full_pass())
    ok_frac = max(0.0, 1.0 - bench.failed / bench.attempted)
    metrics = {
        "frames_per_s": statistics.median(p["frames_per_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_frac": ok_frac,
    }
    return metrics, {"setup_s": setups, "passes": passes}


def measure_traced(bench: Bench, seconds: float) -> tuple:
    bench.setup_pass()
    metrics = {"cli.import_ms": import_ms()}
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(bench.full_pass())
        traced.append(bench.full_pass(traced=True))
    # All layer figures come from one traced pass, the one with the median
    # frame time, so that its per-frame self times still add up.
    by_frame_time = sorted(traced, key=lambda p: p["layers"]["cli.frame_us.mean"])
    metrics.update(by_frame_time[(len(traced) - 1) // 2]["layers"])
    metrics["trace.overhead_frac"] = 1.0 - (
        statistics.median(p["frames_per_s"] for p in traced)
        / statistics.median(p["frames_per_s"] for p in untraced))
    burst = bench.burst() if bench.watch else {}
    for name in ("webhook.burst_delivered", "webhook.burst_dropped", "webhook.posts_per_s"):
        metrics[name] = burst.get(name, 0)
    return metrics, {"untraced": untraced, "traced": traced, "burst": burst}


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without running git (which
    would search parent directories)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "threatwatch").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "threatwatch" / "cli.py").is_file():
        print(f"error: no threatwatch sources under {SRC}", file=sys.stderr)
        return 2

    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "python": platform.python_version(),
           "implementation": platform.python_implementation(),
           "nproc": len(os.sched_getaffinity(0)), "loadavg_start": loadavg(),
           "git_commit": git_commit(), "src_sha256": src_sha256()}
    bench = Bench(args.workload, args.seed)
    try:
        if args.trace:
            metrics, raw = measure_traced(bench, args.seconds)
        else:
            metrics, raw = measure(bench, args.seconds)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    env["loadavg_end"] = loadavg()
    env["output_sha256"] = sorted(bench.output_sha256)

    spec = json.loads(SPEC_PATH.read_text())["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in spec}
    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "result": result, "raw": raw}, indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
