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
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, field, fields
from typing import Iterator, TextIO

from .alerts import AlertEvent, AlertKind, AlertTracker, TemporalConfig, serialize_alert_event
from .backends import (
    REPLAY_SCHEME,
    SCHEMES,
    DetectorBackend,
    UnknownScheme,
    load_script,
    open_backend,
    synthesize,
)
from .errors import ThreatwatchError
from .evaluation import (
    confusion_matrix,
    make_splits,
    parse_prediction,
    per_class_accuracy,
    render_report,
)
from .frames import (FrameRecord, MalformedJson, read_json, read_lines, read_manifest,
                     serialize_frame_record, validate_manifest)
from .fusion import FusionConfig, assess_frame, serialize_assessment
from .webhook import WebhookSink

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


def _numeric_fields(data: dict, where: str, integer: bool = False) -> dict:
    out = {}
    for key, value in data.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise BadConfig(f"{where}.{key} must be a number")
        if integer and not isinstance(value, int):
            raise BadConfig(f"{where}.{key} must be an integer")
        out[key] = value
    return out


def pipeline_config_from_dict(data: dict) -> PipelineConfig:
    if not isinstance(data, dict):
        raise BadConfig("config must be a JSON object")
    _check_keys(data, {"fusion", "temporal", "webhook_url", "log_level"}, "config")

    fusion = FusionConfig()
    if "fusion" in data:
        raw = data["fusion"]
        if not isinstance(raw, dict):
            raise BadConfig("config.fusion must be an object")
        _check_keys(raw, {f.name for f in fields(FusionConfig)}, "fusion")
        try:
            fusion = FusionConfig(**_numeric_fields(raw, "fusion"))
        except ValueError as exc:
            raise BadConfig(str(exc)) from None

    temporal = TemporalConfig()
    if "temporal" in data:
        raw = data["temporal"]
        if not isinstance(raw, dict):
            raise BadConfig("config.temporal must be an object")
        _check_keys(raw, {f.name for f in fields(TemporalConfig)}, "temporal")
        try:
            temporal = TemporalConfig(**_numeric_fields(raw, "temporal", integer=True))
        except ValueError as exc:
            raise BadConfig(str(exc)) from None

    webhook_url = data.get("webhook_url")
    if webhook_url is not None and not isinstance(webhook_url, str):
        raise BadConfig("config.webhook_url must be a string or null")

    log_level = data.get("log_level", "warning")
    if not isinstance(log_level, str) or log_level.lower() not in _LOG_LEVELS:
        raise BadConfig(f"config.log_level must be one of {sorted(_LOG_LEVELS)}")

    return PipelineConfig(fusion, temporal, webhook_url, log_level.lower())


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


@contextlib.contextmanager
def _out_stream(path: str) -> Iterator[TextIO]:
    if path == "-":
        yield sys.stdout
    else:
        fh = open(path, "w", encoding="utf-8", newline="\n")
        try:
            yield fh
        finally:
            fh.close()


# The --input values that read stdin: a bare "-" replays it as JSONL.
_STDIN_INPUTS = ("-", f"{REPLAY_SCHEME}:-", "synthetic:-")


def _run_config(args: argparse.Namespace) -> PipelineConfig:
    """The config of a score or watch run, with its log level applied."""
    config = load_pipeline_config(args.config, stdin_taken=args.input in _STDIN_INPUTS)
    logging.getLogger().setLevel(_LOG_LEVELS[config.log_level])
    return config


@contextlib.contextmanager
def _input_frames(uri: str, on_error: str) -> Iterator[tuple[DetectorBackend, Iterator[FrameRecord]]]:
    """Open --input and read ahead to its first record, so a missing or bad
    input fails before the caller creates any output file. An input that is
    not a backend URI is read as a JSONL path. The records are closed on
    exit, which also closes the input file when the output cannot open."""
    try:
        backend = open_backend(uri, on_error)
    except UnknownScheme:
        backend = open_backend(f"{REPLAY_SCHEME}:{uri}", on_error)
    records = backend.frames()
    try:
        first = next(records, None)
        yield backend, records if first is None else itertools.chain((first,), records)
    finally:
        if hasattr(records, "close"):
            records.close()


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
    assignment = make_splits(read_manifest(args.manifest), args.seed, args.ratios)
    with _out_stream(args.out) as out:
        for sample_id in sorted(assignment.assignment):
            record = {"sample_id": sample_id,
                      "split": assignment.assignment[sample_id].value}
            out.write(json.dumps(record, separators=(",", ":")) + "\n")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    fusion_cfg = _run_config(args).fusion
    frames = 0
    started = time.perf_counter()
    with (_input_frames(args.input, "raise" if args.strict else "skip") as (backend, records),
          _out_stream(args.out) as out):
        write = out.write
        for record in records:
            frames += 1
            write(serialize_assessment(assess_frame(record, fusion_cfg)))
            write("\n")
    elapsed = time.perf_counter() - started
    skipped = getattr(backend, "skipped", 0)
    rate = frames / elapsed if elapsed > 0 else 0.0
    print(
        f"summary: frames={frames} skipped={skipped} "
        f"elapsed_s={elapsed:.3f} rate_fps={rate:.1f}",
        file=sys.stderr,
    )
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    config = _run_config(args)
    webhook_url = args.webhook or config.webhook_url
    tracker = AlertTracker(config.temporal)
    fusion_cfg = config.fusion
    frames = 0
    raised = 0
    events = 0

    def alert_events(records: Iterator[FrameRecord]) -> Iterator[AlertEvent]:
        """Each frame's event, then the Cleared events of the final flush."""
        nonlocal frames
        for record in records:
            frames += 1
            event = tracker.feed(assess_frame(record, fusion_cfg), record.ts_ms)
            if event is not None:
                yield event
        yield from tracker.flush_all()

    started = time.perf_counter()
    with (_input_frames(args.input, "skip") as (backend, records),
          WebhookSink(webhook_url) if webhook_url else contextlib.nullcontext() as sink,
          _out_stream(args.alerts) as out):
        for event in alert_events(records):
            events += 1
            if event.kind is AlertKind.RAISED:
                raised += 1
            out.write(serialize_alert_event(event) + "\n")
            if sink is not None:
                sink.send(event)
    elapsed = time.perf_counter() - started
    skipped = getattr(backend, "skipped", 0)
    rate = frames / elapsed if elapsed > 0 else 0.0
    print(
        f"summary: frames={frames} skipped={skipped} dropped={tracker.dropped} "
        f"alerts_raised={raised} events={events} "
        f"elapsed_s={elapsed:.3f} rate_fps={rate:.1f}",
        file=sys.stderr,
    )
    if sink is not None:
        print(f"webhook: delivered={sink.delivered} failed={sink.failed} "
              f"dropped={sink.dropped}", file=sys.stderr)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
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


_INPUT_HELP = (f"frame source: a {'/'.join(s + ':' for s in SCHEMES)} URI; anything "
               "else is a JSONL path; a path of '-' (also in synthetic:-) is stdin")


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

    p = sub.add_parser("score", help="per-frame fused assessments")
    p.add_argument("--input", required=True, help=_INPUT_HELP)
    p.add_argument("--config", default=None,
                   help=f"pipeline config JSON (default ${CONFIG_ENV_VAR})")
    p.add_argument("--out", default="-", help="assessments JSONL ('-' = stdout)")
    p.add_argument("--strict", action="store_true",
                   help="abort on the first malformed input line instead of "
                        "skipping it with a warning")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("watch", help="assessments + temporal alert events")
    p.add_argument("--input", required=True, help=_INPUT_HELP)
    p.add_argument("--config", default=None,
                   help=f"pipeline config JSON (default ${CONFIG_ENV_VAR})")
    p.add_argument("--alerts", default="-", help="alert events JSONL ('-' = stdout)")
    p.add_argument("--webhook", default=None,
                   help="POST each alert event to this URL (overrides config)")
    p.set_defaults(func=cmd_watch)

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
