"""Command-line pipeline wiring.

Subcommands:

  validate : check a labeled manifest, print its stats
  split    : deterministic train/val/test assignment from a manifest
  score    : per-frame fused assessments from any frame source
  watch    : assessments + temporal alert events, optional webhook
  eval     : confusion-matrix report from predictions vs. a manifest
  simulate : render a scenario script to FrameRecord JSONL

Every path flag accepts "-" for stdin/stdout so commands compose as shell
pipelines; at most one input of a command reads stdin. Exit codes: 0
success, 1 domain or validation error, 2 I/O error. score and watch end
with a machine-parseable one-line summary on stderr (frames=...
rate_fps=...); watch with a webhook adds a "webhook: delivered=..." line.

score and watch each run one loop over one stream of assessed frames
(_assessed). Worker processes are used only where this process may fork
(Linux, one thread) and use two CPUs or more; they are forked here, each
with its own pipe (_forked). A JSONL file of more than 768 KiB
(POOL_MIN_CHUNKS chunks of CHUNK_BYTES or more) or a synthetic: script of
SYNTH_POOL_MIN_FRAMES frames or more is assessed in min(usable CPUs,
spans) workers (_pool_runs), each taking every workers-th span: a byte
range of the file, cut by the parent before the fork, or
backends.SYNTH_SPAN_FRAMES frames of the script. Each span comes back as
runs of frames cut at its bad lines (assess_span), which go through the
backend's bad-line policy between the runs. A worker sends each span's
runs (_packed) and bad lines to its pipe as one plain pickle, which this
module alone writes and reads; watch forks the workers before its
webhook thread starts. Any other synthetic: script runs the same spans
in this process, so synthetic: input is assessed from its fields and
builds no FrameRecord on any number of CPUs. Everything else, every JSONL
input where this process may not fork included, is read and assessed in
this process, one record at a time. So the output, warnings, counts and
errors are the same either way.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import logging
import os
import stat
import sys
import threading
import time
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, ContextManager, Iterator, TextIO

# ReplayBackend is named only as backends.ReplayBackend: perfbench's tracer
# wraps a cli.ReplayBackend as a function when there is one.
from . import backends
from .alerts import AlertEvent, AlertKind, AlertTracker, TemporalConfig, serialize_alert_event
from .backends import (
    REPLAY_SCHEME,
    SCHEMES,
    DetectorBackend,
    load_script,
    open_backend,
    synthesize,
)
from .errors import ThreatwatchError
from .frames import (MalformedJson, chunk_spans, parse_lines, read_json, read_lines, read_manifest,
                     read_span, serialize_frame_record, validate_manifest)
from .fusion import FusionConfig, _assess_fields, _assess_line, assess_frame, serialize_assessment

logger = logging.getLogger(__name__)

CONFIG_ENV_VAR = "THREATWATCH_CONFIG"

_LOG_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO,
               "warning": logging.WARNING, "error": logging.ERROR}


class BadConfig(ThreatwatchError):
    """A config file that is not valid JSON or has unknown/invalid keys."""


@dataclass(frozen=True)
class PipelineConfig:
    """Runtime settings, loaded from one JSON file. Every key is optional;
    omitted ones take the library defaults. Unknown keys are rejected so a
    typo cannot silently run with defaults."""

    fusion: FusionConfig = field(default_factory=FusionConfig)
    temporal: TemporalConfig = field(default_factory=TemporalConfig)
    webhook_url: str | None = None
    log_level: str = "warning"


def _check_keys(data: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise BadConfig(f"unknown {where} key(s): {', '.join(unknown)}")


def _section(data: dict, where: str, cls: type):
    """The config section data[where] as a cls, cls() when absent. Its keys
    are cls's fields; a field whose default is an int takes integers only,
    every other field any number."""
    raw = data.get(where, {})
    if not isinstance(raw, dict):
        raise BadConfig(f"config.{where} must be an object")
    defaults = {f.name: f.default for f in fields(cls)}
    _check_keys(raw, set(defaults), where)
    for key, value in raw.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise BadConfig(f"{where}.{key} must be a number")
        if isinstance(defaults[key], int) and not isinstance(value, int):
            raise BadConfig(f"{where}.{key} must be an integer")
    try:
        return cls(**raw)
    except ValueError as exc:
        raise BadConfig(str(exc)) from None


def pipeline_config_from_dict(data: dict) -> PipelineConfig:
    if not isinstance(data, dict):
        raise BadConfig("config must be a JSON object")
    top = fields(PipelineConfig)
    _check_keys(data, {f.name for f in top}, "config")
    # The sections are the fields with a factory: fusion, then temporal.
    sections = {f.name: _section(data, f.name, f.default_factory)
                for f in top if f.default_factory is not MISSING}

    webhook_url = data.get("webhook_url")
    if webhook_url is not None and not isinstance(webhook_url, str):
        raise BadConfig("config.webhook_url must be a string or null")

    log_level = data.get("log_level", "warning")
    if not isinstance(log_level, str) or log_level.lower() not in _LOG_LEVELS:
        raise BadConfig(f"config.log_level must be one of {sorted(_LOG_LEVELS)}")

    return PipelineConfig(**sections, webhook_url=webhook_url, log_level=log_level.lower())


def load_pipeline_config(path: str | None, stdin_taken: bool) -> PipelineConfig:
    """Load config from --config, else from $THREATWATCH_CONFIG, else
    defaults. stdin_taken says the frames come from stdin, so a config
    path of "-" is refused before either is read."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    if path is None:
        return PipelineConfig()
    if path == "-" and stdin_taken:
        raise BadConfig("config and input cannot both come from stdin")
    try:
        data = read_json(path)
    except MalformedJson as exc:
        raise BadConfig(f"config is not valid JSON: {exc.reason}") from None
    return pipeline_config_from_dict(data)


def _out_stream(path: str) -> ContextManager[TextIO]:
    """The text output at path; "-" is stdout, which stays open on exit."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="\n")


# The --input values that read stdin: a bare "-" replays it as JSONL.
_STDIN_INPUTS = ("-", f"{REPLAY_SCHEME}:-", "synthetic:-")
# The --input prefixes that name a backend; any other value is a JSONL path.
_URI_PREFIXES = tuple(f"{scheme}:" for scheme in SCHEMES)


def _run_config(args: argparse.Namespace) -> PipelineConfig:
    """The config of a score or watch run, with its log level applied."""
    config = load_pipeline_config(args.config, stdin_taken=args.input in _STDIN_INPUTS)
    logging.getLogger().setLevel(_LOG_LEVELS[config.log_level])
    return config


def _open_input(uri: str, strict: bool, out_path: str) -> DetectorBackend:
    """The backend of --input; an input that is not a backend URI is read
    as a JSONL path. A JSONL input that is the out_path file, stdin
    included, is refused before either is opened: opening out_path would
    truncate it. A stdin with no file descriptor is not checked."""
    if not uri.startswith(_URI_PREFIXES):
        uri = f"{REPLAY_SCHEME}:{uri}"
    backend = open_backend(uri, strict)
    if isinstance(backend, backends.ReplayBackend) and out_path != "-":
        try:  # a file that is missing, no stdin or one with no descriptor: not the same
            same = os.path.samestat(os.fstat(sys.stdin.fileno()) if backend.path == "-"
                                    else os.stat(backend.path), os.stat(out_path))
        except (AttributeError, OSError, ValueError):
            same = False
        if same:
            raise ThreatwatchError(f"input and output are the same file: {out_path}")
    return backend


def cmd_validate(args: argparse.Namespace) -> int:
    stats = validate_manifest(read_manifest(args.manifest))
    print(json.dumps(stats.to_dict(), indent=2))
    return 0


def _parse_ratios(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("ratios must be three comma-separated numbers")
    try:
        a, b, c = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("ratios must be numeric") from None
    return a, b, c


def cmd_split(args: argparse.Namespace) -> int:
    # evaluation is imported by the two commands that use it only, so that
    # score and watch do not load it.
    from .evaluation import make_splits

    assignment = make_splits(read_manifest(args.manifest), args.seed, args.ratios)
    with _out_stream(args.out) as out:
        for sample_id in sorted(assignment.assignment):
            record = {"sample_id": sample_id,
                      "split": assignment.assignment[sample_id].value}
            out.write(json.dumps(record, separators=(",", ":")) + "\n")
    return 0


# Bytes of raw lines per chunk that score and watch hand a worker process.
CHUNK_BYTES = 256 * 1024
# The fewest chunks of a JSONL file that score and watch run in worker
# processes, so a file of more than 768 KiB; a smaller file does not win
# back their start-up. On a 2-vCPU host, line-aligned prefixes of the
# seed-0 benchmark inputs, 16 alternating pairs of one-process and forked
# runs at each size, timing cli.main (the 768 KiB prefix is 3 chunks, the
# 1 MiB one 4):
# - score, replay-score input, in two sets: the pool won 6 pairs at 384
#   KiB, 12 and 7 at 512 KiB, 14 and 11 at 768 KiB, 16 and 15 at 1 MiB
#   (15-17% faster in the median), 16 and 16 at 1.5 MiB, 16 at 2 and at
#   3 MiB.
# - watch, replay-watch input without its webhook: the pool won 12 pairs
#   at 512 KiB, 14 at 768 KiB, 16 at 1 MiB (31% faster), 1.5 and 2 MiB.
POOL_MIN_CHUNKS = 4
# The fewest frames of a synthetic: script that score and watch run in
# worker processes. On a 2-vCPU host, five-scene scripts at noise 0.02,
# two sets of 16 alternating one-process and forked score pairs at each
# size: the pool won 1 and 1 pairs at 5,000 frames, 1 and 0 at 6,000, 1
# and 1 at 8,000, 0 and 0 at 10,000, 0 and 1 at 15,000, 1 and 1 at 20,000,
# 14 and 16 at 30,000, 16 and 14 at 40,000, 15 and 16 at 60,000. One
# process won 13 pairs at two adjacent sizes in both sets up to 20,000
# frames, and the pool from 30,000, so the value is 30,000. In two earlier
# passes the pool won at most 8 pairs of a set from 5,000 to 8,000 frames,
# and they split from 10,000 to 20,000 (13 and 13 at 10,000 in one, 0 and
# 2 in the other).
SYNTH_POOL_MIN_FRAMES = 30000


def _may_fork() -> bool:
    """Whether score and watch may fork worker processes: on Linux, while
    this process runs one thread. Forking a process that holds threads can
    deadlock the child, and macOS's system libraries are unsafe across
    fork."""
    return sys.platform == "linux" and threading.active_count() == 1


def _pool_workers(backend: DetectorBackend) -> int:
    """How many worker processes score or watch backend's frames, when this
    process may fork and may use two CPUs or more: for a JSONL replay of a
    regular file of POOL_MIN_CHUNKS chunks or more, min(CPUs, chunks); for
    a synthetic script of SYNTH_POOL_MIN_FRAMES frames or more, min(CPUs,
    spans of SYNTH_SPAN_FRAMES). Otherwise 0, and the command runs in this
    process. Where the OS does not report which CPUs the process may use,
    all of them count."""
    if not _may_fork():
        return 0
    if isinstance(backend, backends.SyntheticBackend):
        if backend.script.frame_count < SYNTH_POOL_MIN_FRAMES:
            return 0
        units = -(-backend.script.frame_count // backends.SYNTH_SPAN_FRAMES)
    elif isinstance(backend, backends.ReplayBackend) and backend.path != "-":
        try:
            info = os.stat(backend.path)
        except OSError:
            return 0  # the one-process path reports it
        units = -(-info.st_size // CHUNK_BYTES)
        if not stat.S_ISREG(info.st_mode) or units < POOL_MIN_CHUNKS:
            return 0
    else:
        return 0
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return min(cpus, units) if cpus >= 2 else 0


def _forked(work: Callable[[int], Iterator], spans: int, workers: int, command: str,
            lost: Callable[[int], str]) -> Iterator:
    """The results of spans 0 to spans - 1 in order, made by workers
    processes forked here. Worker k pickles the results of work(k), spans
    k, k + workers, ..., to its own pipe, one pickle each, and leaves
    through os._exit, so it runs none of this process's exit
    handlers and flushes none of its buffers. The parent reads span j's
    result from pipe j % workers; a pipe that ends early means its worker
    died, which ends the run with one error that names the command and,
    through lost(j), where the output stopped. When the generator ends or
    is closed, or a fork fails, the pipes are closed, which ends a worker
    still running at its next write, and every worker is reaped."""
    # Imported here, so that one-process runs do not load it.
    import pickle

    pids: list[int] = []
    pipes: list = []
    try:
        for part in range(workers):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            # The parent's write end closes after the fork, or when it fails.
            with open(write_fd, "wb") as out:
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        # No worker holds a read end, so closing the parent's
                        # ends every worker at its next write.
                        for pipe in pipes:
                            pipe.close()
                        # map: no result stays alive once it is pickled.
                        for _ in map(pickle.dump, work(part), itertools.repeat(out)):
                            out.flush()
                        code = 0
                    finally:
                        os._exit(code)
            pids.append(pid)
        for j in range(spans):
            try:
                result = pickle.load(pipes[j % workers])
            except (EOFError, pickle.UnpicklingError):
                raise ThreatwatchError(f"a {command} worker process died: {lost(j)}") from None
            yield result
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def assess_span(cfg: FusionConfig, watch: bool, path: str, offset: int, nbytes: int,
                first_line_no: int
                ) -> tuple[list[tuple[str | list, int]], list[ThreatwatchError]]:
    """Parse and assess the frame lines of one span of the file at path
    (frames.chunk_spans), numbered from first_line_no, as score (watch
    False) or watch does in one process, but from each line's validated
    fields (fusion._assess_line), with no FrameRecord or ThreatAssessment
    built.

    Returns (runs, bad): the span's frames cut at each bad line, len(bad)
    + 1 runs packed by _packed; and those lines' exceptions, in line
    order, for the caller's bad-line policy to skip or raise.
    """
    frames: list = []
    runs = [frames]
    bad: list[ThreatwatchError] = []

    def cut(exc: ThreatwatchError) -> None:
        nonlocal frames
        # Its traceback and context hold parse_lines' frame, which holds the
        # span's lines and this closure: a cycle that would keep the span
        # alive until a full collection.
        exc.__context__ = None
        bad.append(exc.with_traceback(None))
        frames = []
        runs.append(frames)

    assess = functools.partial(_assess_line, cfg=cfg, watch=watch)
    for frame in parse_lines(read_span(path, offset, nbytes), first_line_no, assess, cut):
        frames.append(frame)
    return _packed(runs, watch), bad


def _packed(runs: list[list], watch: bool) -> list[tuple[str | list, int]]:
    """Runs of score lines or watch frames as _forked sends them, each as
    (frames, count). A run's frames are, for score, its assessment lines
    as one string, each ended by LF; for watch, its frame tuples as they
    are. A synthetic: script's spans are packed so in this process too."""
    if watch:
        return [(run, len(run)) for run in runs]
    return [("\n".join(run) + "\n" if run else "", len(run)) for run in runs]


def _pool_runs(backend: DetectorBackend, cfg: FusionConfig, workers: int,
               command: str) -> Iterator[tuple]:
    """command's frames of backend's input, in input order, as _assessed
    gives them, assessed by cfg one span at a time in up to workers forked
    processes (_forked), or, for a synthetic script when workers is 0, in
    this process with no fork: a byte range of CHUNK_BYTES of a JSONL file
    (assess_span), which the parent cuts before the fork, or
    backends.SYNTH_SPAN_FRAMES frames of a synthetic script, which worker
    k makes as part k of backends._synthesize_fields. Either way each
    frame is assessed from its fields and no FrameRecord or
    ThreatAssessment is built: a JSONL line's fields as the parser checks
    them, a script's frames made as fields. A span comes back as runs
    (_packed) cut at its bad lines; empty runs are skipped, and a watch
    run's frames are given one by one. The bad line after each run goes to
    backend.bad_line when the next run is taken, so in line order among
    the frames the caller takes; a strict backend raises it, which ends
    the runs and the workers.

    The workers share the parent's imported modules: on the 10 MB
    replay-score input, the parent peaks at about 17.5 MB RSS and each of
    two workers at 14.9 MB, against 17.1 MB for one process."""
    watch = command == "watch"
    if isinstance(backend, backends.SyntheticBackend):
        script, size = backend.script, backends.SYNTH_SPAN_FRAMES
        spans = range(0, script.frame_count, size)
        lost = lambda j: f"its output ended after frame {spans[j]} of {script.frame_count}"

        def assess(part: int) -> Iterator[tuple]:
            frames = backends._synthesize_fields(script, part=part, parts=parts)
            for _ in spans[part::parts]:
                run = [_assess_fields(frame, cfg, watch) for frame in itertools.islice(frames, size)]
                yield _packed([run], watch), []
    else:
        path = backend.path
        spans = list(chunk_spans(path, CHUNK_BYTES))
        lost = lambda j: f"its output ended before line {spans[j][2]}"

        def assess(part: int) -> Iterator[tuple]:
            return (assess_span(cfg, watch, path, *span) for span in spans[part::parts])
    workers = min(workers, len(spans))
    parts = workers or 1  # with no workers, this process takes every span
    results = _forked(assess, len(spans), workers, command, lost) if workers else assess(0)
    with contextlib.closing(results):
        for runs, bad in results:
            for run, exc in itertools.zip_longest(runs, bad):
                if run[1]:
                    if watch:
                        yield from run[0]
                    else:
                        yield run
                if exc is not None:
                    backend.bad_line(exc)


@contextlib.contextmanager
def _assessed(backend: DetectorBackend, cfg: FusionConfig,
              command: str) -> Iterator[Iterator[tuple]]:
    """backend's frames assessed by cfg, in input order, for watch as
    (stream_id, frame_id, ts_ms, level, score) per frame, for score as
    runs of (text, count), the assessment lines of count frames. A
    synthetic script is assessed from its fields, span by span, in forked
    worker processes when it is long, else here, and a large JSONL file in
    forked workers too: _pool_runs gives their frames in this form.
    Anything else, a small JSONL file, stdin or an extern: backend, is
    assessed here, one record at a time. Read ahead to the first frame, so
    a missing or bad input fails before the caller creates any output
    file; a replay's bad lines before it go through backend.bad_line on
    the way, from either path. The source is closed on exit, which also
    closes the input file when the output cannot open, and ends and reaps
    the workers."""
    workers = _pool_workers(backend)
    by_span = workers or isinstance(backend, backends.SyntheticBackend)
    source = _pool_runs(backend, cfg, workers, command) if by_span else backend.frames()
    try:
        if by_span:
            assessed = source
        # One record at a time, through this module's assess_frame and
        # serialize_assessment: perfbench's tracer times each call there.
        elif command == "watch":
            assessed = ((record.stream_id, record.frame_id, record.ts_ms, assessment.level,
                         assessment.score)
                        for record in source for assessment in (assess_frame(record, cfg),))
        else:
            assessed = ((serialize_assessment(assess_frame(record, cfg)) + "\n", 1)
                        for record in source)
        first = next(assessed, None)
        yield assessed if first is None else itertools.chain((first,), assessed)
    finally:
        if hasattr(source, "close"):
            source.close()


def _print_summary(started: float, frames: int, backend: DetectorBackend, **counts: int) -> None:
    """Print the stderr summary line of a score or watch run begun at
    perf_counter() value started, with counts after frames and skipped."""
    elapsed = time.perf_counter() - started
    rate = frames / elapsed if elapsed > 0 else 0.0
    extra = "".join(f"{name}={count} " for name, count in counts.items())
    print(f"summary: frames={frames} skipped={getattr(backend, 'skipped', 0)} {extra}"
          f"elapsed_s={elapsed:.3f} rate_fps={rate:.1f}", file=sys.stderr)


def cmd_score(args: argparse.Namespace) -> int:
    fusion_cfg = _run_config(args).fusion
    frames = 0
    started = time.perf_counter()
    backend = _open_input(args.input, args.strict, args.out)
    with _assessed(backend, fusion_cfg, args.command) as runs, _out_stream(args.out) as out:
        write = out.write
        for text, count in runs:
            write(text)
            frames += count
    _print_summary(started, frames, backend)
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    config = _run_config(args)
    webhook_url = args.webhook or config.webhook_url
    tracker = AlertTracker(config.temporal)
    frames = raised = events = 0

    def alert_events(assessed: Iterator[tuple]) -> Iterator[AlertEvent]:
        """Each frame's event, then the Cleared events of the final flush."""
        nonlocal frames
        for frame in assessed:
            frames += 1
            event = tracker.feed(*frame)
            if event is not None:
                yield event
        yield from tracker.flush_all()

    if webhook_url:
        # Imported only when used, with the socket module it posts through;
        # only an https:// connection imports ssl.
        from .webhook import WebhookSink
    started = time.perf_counter()
    backend = _open_input(args.input, False, args.alerts)
    # The workers, if any, are forked in the read-ahead, before the sink
    # starts its thread.
    with (_assessed(backend, config.fusion, args.command) as assessed,
          WebhookSink(webhook_url) if webhook_url else contextlib.nullcontext() as sink,
          _out_stream(args.alerts) as out):
        for event in alert_events(assessed):
            events += 1
            if event.kind is AlertKind.RAISED:
                raised += 1
            out.write(serialize_alert_event(event) + "\n")
            if sink is not None:
                sink.send(event)
    _print_summary(started, frames, backend, dropped=tracker.dropped, alerts_raised=raised,
                   events=events)
    if sink is not None:
        print(f"webhook: delivered={sink.delivered} failed={sink.failed} "
              f"dropped={sink.dropped}", file=sys.stderr)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from .evaluation import confusion_matrix, parse_prediction, per_class_accuracy, render_report

    if args.pred == "-" and args.labels == "-":
        raise ThreatwatchError("predictions and labels cannot both come from stdin")
    labels = read_manifest(args.labels)
    predictions = list(read_lines(args.pred, parse_prediction))
    matrix = confusion_matrix(predictions, labels)
    report = per_class_accuracy(matrix, sources=(args.labels, args.pred))
    with _out_stream(args.report) as out:
        out.write(render_report(report, args.format) + "\n")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    script = load_script(args.scenario)
    with _out_stream(args.out) as out:
        write = out.write
        for record in synthesize(script, args.seed):
            write(serialize_frame_record(record))
            write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threatwatch",
        description="Streaming knife-threat assessment pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a manifest and print stats")
    p.add_argument("--manifest", required=True, help="manifest JSONL path ('-' = stdin)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("split", help="deterministic train/val/test assignment")
    p.add_argument("--manifest", required=True, help="manifest JSONL path ('-' = stdin)")
    p.add_argument("--seed", type=int, default=0, help="shuffle seed (default 0)")
    p.add_argument("--ratios", type=_parse_ratios, default=(0.70, 0.15, 0.15),
                   help="train,val,test fractions (default 0.70,0.15,0.15)")
    p.add_argument("--out", default="-", help="output JSONL path ('-' = stdout)")
    p.set_defaults(func=cmd_split)

    score = sub.add_parser("score", help="per-frame fused assessments")
    watch = sub.add_parser("watch", help="assessments + temporal alert events")
    for p in (score, watch):
        p.add_argument("--input", required=True,
                       help=f"frame source: a {'/'.join(_URI_PREFIXES)} URI; anything else is "
                            "a JSONL path; a path of '-' (also in synthetic:-) is stdin")
        p.add_argument("--config", default=None,
                       help=f"pipeline config JSON (default ${CONFIG_ENV_VAR})")
    score.add_argument("--out", default="-", help="assessments JSONL ('-' = stdout)")
    score.add_argument("--strict", action="store_true",
                       help="abort on the first malformed input line instead of "
                            "skipping it with a warning")
    score.set_defaults(func=cmd_score)
    watch.add_argument("--alerts", default="-", help="alert events JSONL ('-' = stdout)")
    watch.add_argument("--webhook", default=None,
                       help="POST each alert event to this URL (overrides config)")
    watch.set_defaults(func=cmd_watch)

    p = sub.add_parser("eval", help="score predictions against a manifest")
    p.add_argument("--pred", required=True, help="predictions JSONL ('-' = stdin)")
    p.add_argument("--labels", required=True, help="manifest JSONL ('-' = stdin)")
    p.add_argument("--report", default="-", help="report output ('-' = stdout)")
    p.add_argument("--format", choices=("json", "table"), default="table",
                   help="report format (default table)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="render a scenario script to frames")
    p.add_argument("--scenario", required=True, help="scenario JSON path ('-' = stdin)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the script's seed")
    p.add_argument("--out", default="-", help="frames JSONL ('-' = stdout)")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ThreatwatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
