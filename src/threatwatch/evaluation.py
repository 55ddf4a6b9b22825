"""Dataset splits and per-class accuracy scoring.

Two independent jobs share this module: carving a labeled manifest into
train/val/test splits with a fully pinned shuffle (same manifest, seed and
ratios give the identical assignment on every platform and Python
version), and scoring a predictions file against a manifest into a 3x3
confusion matrix with per-class accuracy (recall) reporting.

The shuffle deliberately avoids random.Random: its sequence is not a
stability guarantee we want to depend on. Instead a splitmix64 generator
drives a Fisher-Yates shuffle over the lexicographically sorted sample
ids; both algorithm and constants are spelled out below and are part of
the wire contract.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

from .errors import ThreatwatchError
from .frames import (
    MalformedJson,
    ManifestEntry,
    ManifestLabel,
    SchemaViolation,
    validate_manifest,
)


class BadRatios(ThreatwatchError):
    """Split ratios that are non-positive or do not sum to 1."""


class MissingPrediction(ThreatwatchError):
    def __init__(self, sample_id: str) -> None:
        super().__init__(f"no prediction for labeled sample {sample_id!r}")
        self.sample_id = sample_id


class UnknownSample(ThreatwatchError):
    def __init__(self, sample_id: str) -> None:
        super().__init__(f"prediction for unknown sample {sample_id!r}")
        self.sample_id = sample_id


class DuplicatePrediction(ThreatwatchError):
    def __init__(self, sample_id: str) -> None:
        super().__init__(f"multiple predictions for sample {sample_id!r}")
        self.sample_id = sample_id


class Split(Enum):
    TRAIN = "train"
    VAL = "val"
    TEST = "test"


class PredictedLabel(Enum):
    """Model output for one sample; INDETERMINATE is counted as NO_THREAT
    when scoring (the safe class; the report format has no abstain column).
    """

    THREAT = "threat"
    NO_THREAT = "no_threat"
    HAND = "hand"
    INDETERMINATE = "indeterminate"


_PREDICTED = {p.value: p for p in PredictedLabel}

# Row/column order of the confusion matrix.
CLASS_ORDER = (ManifestLabel.THREAT, ManifestLabel.NO_THREAT, ManifestLabel.HAND)
_CLASS_INDEX = {label: i for i, label in enumerate(CLASS_ORDER)}
_DISPLAY = {
    ManifestLabel.THREAT: "Threat",
    ManifestLabel.NO_THREAT: "No Threat",
    ManifestLabel.HAND: "Hand",
}

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: 64-bit state advances by the golden-gamma constant
    0x9E3779B97F4A7C15; output mixes with xor-shifts 30/27/31 and the
    multipliers 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB. Chosen for the
    contract because it is tiny, well known, and trivially portable.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def _shuffle(items: list, rng: SplitMix64) -> None:
    """In-place Fisher-Yates, high index down, j = next() % (i + 1)."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.next() % (i + 1)
        items[i], items[j] = items[j], items[i]


@dataclass(frozen=True)
class SplitAssignment:
    """Result of make_splits: split per sample_id plus the inputs that
    produced it, so the assignment can be regenerated and checked."""

    assignment: dict[str, Split]
    seed: int
    ratios: tuple[float, float, float]

    def counts(self) -> dict[Split, int]:
        out = {split: 0 for split in Split}
        for split in self.assignment.values():
            out[split] += 1
        return out


def make_splits(
    manifest: list[ManifestEntry],
    seed: int,
    ratios: tuple[float, float, float] = (0.70, 0.15, 0.15),
) -> SplitAssignment:
    """Deterministically partition a manifest into train/val/test.

    Sample ids are sorted lexicographically, shuffled by Fisher-Yates
    under splitmix64(seed), then cut at floor(r_train * N) and
    floor(r_val * N); the remainder is the test split.

    Raises BadRatios for non-positive ratios or a sum off 1 by more than
    1e-9; manifest validation errors propagate.
    """
    if len(ratios) != 3 or any(r <= 0.0 for r in ratios):
        raise BadRatios(f"ratios must be three positive fractions, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise BadRatios(f"ratios must sum to 1, got {sum(ratios)!r}")
    validate_manifest(manifest)

    ids = sorted(entry.sample_id for entry in manifest)
    rng = SplitMix64(seed)
    _shuffle(ids, rng)

    n = len(ids)
    n_train = math.floor(ratios[0] * n)
    n_val = math.floor(ratios[1] * n)
    assignment: dict[str, Split] = {}
    for i, sample_id in enumerate(ids):
        if i < n_train:
            assignment[sample_id] = Split.TRAIN
        elif i < n_train + n_val:
            assignment[sample_id] = Split.VAL
        else:
            assignment[sample_id] = Split.TEST
    return SplitAssignment(assignment, seed, (ratios[0], ratios[1], ratios[2]))


@dataclass(frozen=True)
class ConfusionMatrix:
    """3x3 counts, rows = true label, columns = predicted label, both in
    CLASS_ORDER (Threat, NoThreat, Hand)."""

    counts: tuple[tuple[int, int, int], ...]

    def value(self, true: ManifestLabel, predicted: ManifestLabel) -> int:
        return self.counts[_CLASS_INDEX[true]][_CLASS_INDEX[predicted]]

    def row_sum(self, true: ManifestLabel) -> int:
        return sum(self.counts[_CLASS_INDEX[true]])

    def col_sum(self, predicted: ManifestLabel) -> int:
        j = _CLASS_INDEX[predicted]
        return sum(row[j] for row in self.counts)

    def trace(self) -> int:
        return sum(self.counts[i][i] for i in range(3))

    def total(self) -> int:
        return sum(sum(row) for row in self.counts)


def confusion_matrix(
    predictions: list[tuple[str, PredictedLabel]],
    labels: list[ManifestEntry],
) -> ConfusionMatrix:
    """Accumulate predictions against ground truth.

    Every labeled sample must be predicted exactly once and every
    prediction must name a labeled sample; INDETERMINATE counts as
    NO_THREAT. Raises UnknownSample, DuplicatePrediction,
    MissingPrediction (first offender in manifest order), or manifest
    validation errors.
    """
    validate_manifest(labels)
    truth = {entry.sample_id: entry.label for entry in labels}

    cells = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    seen: set[str] = set()
    for sample_id, predicted in predictions:
        true_label = truth.get(sample_id)
        if true_label is None:
            raise UnknownSample(sample_id)
        if sample_id in seen:
            raise DuplicatePrediction(sample_id)
        seen.add(sample_id)
        if predicted is PredictedLabel.INDETERMINATE:
            pred_label = ManifestLabel.NO_THREAT
        else:
            pred_label = ManifestLabel(predicted.value)
        cells[_CLASS_INDEX[true_label]][_CLASS_INDEX[pred_label]] += 1

    if len(seen) != len(truth):
        for entry in labels:
            if entry.sample_id not in seen:
                raise MissingPrediction(entry.sample_id)

    return ConfusionMatrix(tuple(tuple(row) for row in cells))


@dataclass(frozen=True)
class ClassReport:
    """One row of the per-class table. accuracy is per-class recall
    (correct / samples of that true class); precision is None when the
    class was never predicted."""

    label: ManifestLabel
    samples: int
    correct: int
    accuracy: float
    precision: float | None


@dataclass(frozen=True)
class EvalReport:
    matrix: ConfusionMatrix
    classes: tuple[ClassReport, ...]
    overall_accuracy: float
    total: int
    sources: tuple[str, str] | None = None


def per_class_accuracy(matrix: ConfusionMatrix, sources: tuple[str, str] | None = None) -> EvalReport:
    """Summarize a confusion matrix. Classes with zero samples are left
    out of the per-class list entirely rather than reported as 0/0."""
    classes = []
    for label in CLASS_ORDER:
        samples = matrix.row_sum(label)
        if samples == 0:
            continue
        correct = matrix.value(label, label)
        predicted = matrix.col_sum(label)
        precision = correct / predicted if predicted > 0 else None
        classes.append(ClassReport(label, samples, correct, correct / samples, precision))
    total = matrix.total()
    overall = matrix.trace() / total if total > 0 else 0.0
    return EvalReport(matrix, tuple(classes), overall, total, sources)


def render_report(report: EvalReport, fmt: str) -> str:
    """Render as "json" (full precision, machine-readable, round-trips
    through report_from_json) or "table" (CLASS / ACCURACY / # SAMPLES
    columns, accuracies shown to two decimals)."""
    if fmt == "json":
        return json.dumps(_report_to_dict(report), indent=2)
    if fmt == "table":
        lines = [f"{'CLASS':<12}{'ACCURACY':>10}{'# SAMPLES':>12}"]
        for cls in report.classes:
            lines.append(
                f"{_DISPLAY[cls.label]:<12}{cls.accuracy:>10.2f}{cls.samples:>12}"
            )
        lines.append("")
        lines.append(
            f"overall accuracy {report.overall_accuracy:.4f} over {report.total} samples"
        )
        return "\n".join(lines)
    raise ValueError(f"unknown report format {fmt!r}")


def _report_to_dict(report: EvalReport) -> dict:
    out = {
        "matrix": {
            "labels": [label.value for label in CLASS_ORDER],
            "counts": [list(row) for row in report.matrix.counts],
        },
        "classes": [
            {
                "label": cls.label.value,
                "samples": cls.samples,
                "correct": cls.correct,
                "accuracy": cls.accuracy,
                "precision": cls.precision,
            }
            for cls in report.classes
        ],
        "overall_accuracy": report.overall_accuracy,
        "total": report.total,
        "sources": None,
    }
    if report.sources is not None:
        out["sources"] = {"labels": report.sources[0], "predictions": report.sources[1]}
    return out


def report_from_json(text: str) -> EvalReport:
    """Inverse of render_report(..., "json")."""
    data = json.loads(text)
    counts = tuple(tuple(int(v) for v in row) for row in data["matrix"]["counts"])
    classes = tuple(
        ClassReport(
            ManifestLabel(c["label"]),
            int(c["samples"]),
            int(c["correct"]),
            float(c["accuracy"]),
            None if c["precision"] is None else float(c["precision"]),
        )
        for c in data["classes"]
    )
    sources = None
    if data.get("sources") is not None:
        sources = (data["sources"]["labels"], data["sources"]["predictions"])
    return EvalReport(
        ConfusionMatrix(counts),
        classes,
        float(data["overall_accuracy"]),
        int(data["total"]),
        sources,
    )


def parse_prediction(line: str, line_no: int = 0) -> tuple[str, PredictedLabel]:
    """Parse one predictions-JSONL line: {"sample_id": ..., "predicted":
    "threat"|"no_threat"|"hand"|"indeterminate"}. Unknown fields are
    ignored; unknown predicted values are rejected."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedJson(line_no, str(exc)) from None
    if not isinstance(data, dict):
        raise SchemaViolation(line_no, "$", "expected a JSON object")
    sample_id = data.get("sample_id")
    if not isinstance(sample_id, str) or not sample_id:
        raise SchemaViolation(line_no, "$.sample_id", "expected a non-empty string")
    raw = data.get("predicted")
    if not isinstance(raw, str):
        raise SchemaViolation(line_no, "$.predicted", "expected a string")
    predicted = _PREDICTED.get(raw)
    if predicted is None:
        raise SchemaViolation(line_no, "$.predicted", f"unknown predicted label {raw!r}")
    return sample_id, predicted
