"""Split generation and confusion-matrix scoring."""

import json
import math
import pathlib
import random
from collections import Counter

import pytest

from threatwatch.evaluation import (
    CLASS_ORDER,
    BadRatios,
    DuplicatePrediction,
    MissingPrediction,
    PredictedLabel,
    Split,
    SplitMix64,
    UnknownSample,
    confusion_matrix,
    make_splits,
    parse_prediction,
    per_class_accuracy,
    render_report,
)
from threatwatch.frames import DuplicateSampleId, EmptyManifest, ManifestEntry, ManifestLabel

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def manifest(n, label=ManifestLabel.NO_THREAT):
    return [ManifestEntry(f"sample{i:05d}", label) for i in range(n)]


def test_splitmix64_mixing_reference():
    # independent recount of the documented recipe for one hand-checked
    # seed: state += 0x9E3779B97F4A7C15; two xor-multiply rounds; final
    # xor-shift by 31
    mask = (1 << 64) - 1
    state = (12345 + 0x9E3779B97F4A7C15) & mask
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    expected_first = z ^ (z >> 31)

    rng = SplitMix64(12345)
    assert rng.next() == expected_first
    # outputs stay within 64 bits and the stream is reproducible
    rng_a, rng_b = SplitMix64(7), SplitMix64(7)
    seq_a = [rng_a.next() for _ in range(100)]
    seq_b = [rng_b.next() for _ in range(100)]
    assert seq_a == seq_b
    assert all(0 <= v <= mask for v in seq_a)
    assert len(set(seq_a)) == 100


def test_split_counts_follow_floor_rule():
    counts = make_splits(manifest(20), seed=1).counts()
    assert counts == {Split.TRAIN: 14, Split.VAL: 3, Split.TEST: 3}


def test_split_counts_large_manifest():
    counts = make_splits(manifest(12799), seed=9).counts()
    assert counts[Split.TRAIN] == 8959
    assert counts[Split.VAL] == 1919
    assert counts[Split.TEST] == 1921
    assert sum(counts.values()) == 12799


def test_split_determinism():
    a = make_splits(manifest(500), seed=42)
    b = make_splits(manifest(500), seed=42)
    assert a.assignment == b.assignment
    c = make_splits(manifest(500), seed=43)
    assert a.assignment != c.assignment


def test_split_partition_property():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(3, 200)
        entries = manifest(n)
        assignment = make_splits(entries, seed=rng.randint(0, 2**64)).assignment
        assert sorted(assignment) == sorted(e.sample_id for e in entries)
        counts = Counter(assignment.values())
        assert counts[Split.TRAIN] == math.floor(0.70 * n)
        assert counts[Split.VAL] == math.floor(0.15 * n)
        assert sum(counts.values()) == n


def test_split_order_independence():
    entries = manifest(50)
    shuffled = list(entries)
    random.Random(3).shuffle(shuffled)
    assert make_splits(entries, seed=5).assignment == make_splits(shuffled, seed=5).assignment


def test_bad_ratios():
    with pytest.raises(BadRatios):
        make_splits(manifest(10), seed=0, ratios=(0.5, 0.5, 0.1))
    with pytest.raises(BadRatios):
        make_splits(manifest(10), seed=0, ratios=(0.9, 0.1, 0.0))
    with pytest.raises(BadRatios):
        make_splits(manifest(10), seed=0, ratios=(1.0, -0.1, 0.1))
    for bad in (math.nan, math.inf, -math.inf):
        for position in range(3):
            ratios = [0.5, 0.25, 0.25]
            ratios[position] = bad
            with pytest.raises(BadRatios, match="^ratios must be three positive fractions"):
                make_splits(manifest(10), seed=0, ratios=tuple(ratios))


def test_split_manifest_validation():
    with pytest.raises(EmptyManifest):
        make_splits([], seed=0)
    dupes = [ManifestEntry("x", ManifestLabel.HAND), ManifestEntry("x", ManifestLabel.HAND)]
    with pytest.raises(DuplicateSampleId):
        make_splits(dupes, seed=0)


def test_confusion_all_correct():
    labels = [ManifestEntry(f"s{i}", CLASS_ORDER[i % 3]) for i in range(10)]
    preds = [(e.sample_id, PredictedLabel(e.label.value)) for e in labels]
    matrix = confusion_matrix(preds, labels)
    assert matrix.trace() == 10
    assert matrix.total() == 10


def test_confusion_counts_cells():
    labels = [ManifestEntry("a", ManifestLabel.THREAT), ManifestEntry("b", ManifestLabel.HAND)]
    preds = [("a", PredictedLabel.HAND), ("b", PredictedLabel.HAND)]
    matrix = confusion_matrix(preds, labels)
    assert matrix.value(ManifestLabel.THREAT, ManifestLabel.HAND) == 1
    assert matrix.value(ManifestLabel.HAND, ManifestLabel.HAND) == 1
    assert matrix.trace() == 1


def test_confusion_indeterminate_counts_as_no_threat():
    labels = [ManifestEntry("a", ManifestLabel.THREAT)]
    matrix = confusion_matrix([("a", PredictedLabel.INDETERMINATE)], labels)
    assert matrix.value(ManifestLabel.THREAT, ManifestLabel.NO_THREAT) == 1


def test_confusion_input_errors():
    labels = [ManifestEntry("a", ManifestLabel.THREAT), ManifestEntry("b", ManifestLabel.HAND)]
    with pytest.raises(UnknownSample) as exc_info:
        confusion_matrix([("x", PredictedLabel.HAND)], labels)
    assert exc_info.value.sample_id == "x"
    with pytest.raises(DuplicatePrediction):
        confusion_matrix([("a", PredictedLabel.HAND), ("a", PredictedLabel.HAND)], labels)
    with pytest.raises(MissingPrediction) as exc_info:
        confusion_matrix([("a", PredictedLabel.THREAT)], labels)
    assert exc_info.value.sample_id == "b"


def test_per_class_report_fixture_values():
    labels = [parse_prediction_line_as_entry(line)
              for line in (FIXTURES / "reported_accuracy_labels.jsonl").read_text().splitlines()]
    preds = [parse_prediction(line, i + 1)
             for i, line in enumerate((FIXTURES / "reported_accuracy_predictions.jsonl").read_text().splitlines())]
    report = per_class_accuracy(confusion_matrix(preds, labels))
    by_label = {c.label: c for c in report.classes}
    threat = by_label[ManifestLabel.THREAT]
    no_threat = by_label[ManifestLabel.NO_THREAT]
    hand = by_label[ManifestLabel.HAND]
    assert (threat.samples, threat.correct) == (534, 524)
    assert (no_threat.samples, no_threat.correct) == (531, 515)
    assert (hand.samples, hand.correct) == (23, 22)
    assert round(threat.accuracy, 2) == 0.98
    assert round(no_threat.accuracy, 2) == 0.97
    assert round(hand.accuracy, 2) == 0.96
    assert report.total == 1088


def parse_prediction_line_as_entry(line):
    data = json.loads(line)
    return ManifestEntry(data["sample_id"], ManifestLabel(data["label"]))


def test_per_class_perfect_and_zeroed():
    labels = [ManifestEntry(f"s{i}", CLASS_ORDER[i % 3]) for i in range(9)]
    perfect = [(e.sample_id, PredictedLabel(e.label.value)) for e in labels]
    report = per_class_accuracy(confusion_matrix(perfect, labels))
    assert all(c.accuracy == 1.0 for c in report.classes)
    assert report.overall_accuracy == 1.0

    # hand entirely misclassified, the others untouched
    skewed = [(e.sample_id,
               PredictedLabel.THREAT if e.label is ManifestLabel.HAND
               else PredictedLabel(e.label.value))
              for e in labels]
    report = per_class_accuracy(confusion_matrix(skewed, labels))
    by_label = {c.label: c for c in report.classes}
    assert by_label[ManifestLabel.HAND].accuracy == 0.0
    assert by_label[ManifestLabel.THREAT].accuracy == 1.0
    assert by_label[ManifestLabel.NO_THREAT].accuracy == 1.0


def test_zero_sample_class_absent():
    labels = [ManifestEntry("a", ManifestLabel.THREAT), ManifestEntry("b", ManifestLabel.THREAT)]
    preds = [("a", PredictedLabel.THREAT), ("b", PredictedLabel.HAND)]
    report = per_class_accuracy(confusion_matrix(preds, labels))
    assert [c.label for c in report.classes] == [ManifestLabel.THREAT]
    table = render_report(report, "table")
    assert "No Threat" not in table
    assert "Hand" not in table


def test_brute_force_oracle_equivalence():
    rng = random.Random(31)
    label_pool = list(ManifestLabel)
    pred_pool = list(PredictedLabel)
    for _ in range(50):
        n = rng.randint(1, 50)
        labels = [ManifestEntry(f"s{i}", rng.choice(label_pool)) for i in range(n)]
        preds = [(e.sample_id, rng.choice(pred_pool)) for e in labels]
        report = per_class_accuracy(confusion_matrix(preds, labels))

        # independent recount straight from the pairs
        effective = {
            sid: (ManifestLabel.NO_THREAT if p is PredictedLabel.INDETERMINATE
                  else ManifestLabel(p.value))
            for sid, p in preds
        }
        truth = {e.sample_id: e.label for e in labels}
        for cls in report.classes:
            in_class = [sid for sid, lab in truth.items() if lab is cls.label]
            correct = sum(1 for sid in in_class if effective[sid] is cls.label)
            assert cls.samples == len(in_class)
            assert cls.correct == correct
            assert math.isclose(cls.accuracy, correct / len(in_class))
        overall = sum(1 for sid, lab in truth.items() if effective[sid] is lab) / n
        assert math.isclose(report.overall_accuracy, overall)
        assert report.matrix.total() == n


def test_relabeling_invariance():
    rng = random.Random(13)
    labels = [ManifestEntry(f"s{i}", rng.choice(list(ManifestLabel))) for i in range(30)]
    preds = [(e.sample_id, rng.choice(list(PredictedLabel))) for e in labels]
    base = per_class_accuracy(confusion_matrix(preds, labels))

    renamed = {e.sample_id: f"x{i:03d}" for i, e in enumerate(labels)}
    labels2 = [ManifestEntry(renamed[e.sample_id], e.label) for e in labels]
    preds2 = [(renamed[sid], p) for sid, p in preds]
    again = per_class_accuracy(confusion_matrix(preds2, labels2))
    assert again.matrix == base.matrix
    assert again.classes == base.classes


def test_render_table_shape():
    labels = [parse_prediction_line_as_entry(line)
              for line in (FIXTURES / "reported_accuracy_labels.jsonl").read_text().splitlines()]
    preds = [parse_prediction(line) for line
             in (FIXTURES / "reported_accuracy_predictions.jsonl").read_text().splitlines()]
    table = render_report(per_class_accuracy(confusion_matrix(preds, labels)), "table")
    lines = table.splitlines()
    assert lines[0].split() == ["CLASS", "ACCURACY", "#", "SAMPLES"]
    assert lines[1].split() == ["Threat", "0.98", "534"]
    assert lines[2].split() == ["No", "Threat", "0.97", "531"]
    assert lines[3].split() == ["Hand", "0.96", "23"]


def test_render_json_round_trip():
    labels = [ManifestEntry(f"s{i}", CLASS_ORDER[i % 3]) for i in range(12)]
    rng = random.Random(2)
    preds = [(e.sample_id, rng.choice(list(PredictedLabel))) for e in labels]
    report = per_class_accuracy(confusion_matrix(preds, labels),
                                sources=("labels.jsonl", "preds.jsonl"))
    data = json.loads(render_report(report, "json"))
    assert data == {
        "matrix": {"labels": [label.value for label in CLASS_ORDER],
                   "counts": [list(row) for row in report.matrix.counts]},
        "classes": [{"label": cls.label.value, "samples": cls.samples, "correct": cls.correct,
                     "accuracy": cls.accuracy, "precision": cls.precision}
                    for cls in report.classes],
        "overall_accuracy": report.overall_accuracy,
        "total": report.total,
        "sources": {"labels": "labels.jsonl", "predictions": "preds.jsonl"},
    }
    unsourced = per_class_accuracy(report.matrix)
    assert json.loads(render_report(unsourced, "json"))["sources"] is None
    with pytest.raises(ValueError):
        render_report(report, "yaml")


def test_parse_prediction_lines():
    sid, pred = parse_prediction('{"sample_id":"img9","predicted":"indeterminate"}', 4)
    assert sid == "img9"
    assert pred is PredictedLabel.INDETERMINATE
    from threatwatch.frames import MalformedJson, SchemaViolation
    with pytest.raises(SchemaViolation):
        parse_prediction('{"sample_id":"img9","predicted":"maybe"}', 4)
    with pytest.raises(SchemaViolation):
        parse_prediction('{"predicted":"hand"}', 4)
    with pytest.raises(SchemaViolation, match=r"^line 4: \$\.predicted: expected a string$"):
        parse_prediction('{"sample_id":"img9","predicted":["hand"]}', 4)
    with pytest.raises(MalformedJson, match=r"^line 4: malformed JSON: expected a JSON object, got list$"):
        parse_prediction('[{"sample_id":"img9","predicted":"hand"}]', 4)
