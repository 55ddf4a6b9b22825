"""The package surface: public names, what an import loads, the module
entry point, and errors that cross a process boundary."""

import importlib
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import threatwatch
from threatwatch.alerts import OutOfOrderFrame
from threatwatch.backends import AdapterUnavailable, BadScript, UnknownScheme
from threatwatch.cli import BadConfig
from threatwatch.errors import ThreatwatchError
from threatwatch.evaluation import BadRatios, DuplicatePrediction, MissingPrediction, UnknownSample
from threatwatch.frames import DuplicateSampleId, EmptyManifest, MalformedJson, SchemaViolation

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# The public names of the package, as listed by its __all__ before the
# names were resolved lazily.
PUBLIC = """
AdapterUnavailable AlertEvent AlertKind AlertPhase AlertState AlertTracker BadRatios BadScript
BoundingBox ClassReport ClassScores ConfusionMatrix DetectorBackend DuplicatePrediction
DuplicateSampleId EmptyManifest EvalReport FrameClass FrameRecord FusionConfig GraspPair
InstanceDetection KeypointKind Label MalformedJson ManifestEntry ManifestLabel ManifestStats
MissingPrediction OutOfOrderFrame PoseEvidence PoseKeypoint PredictedLabel ReplayBackend
ScenarioScript Scene SchemaViolation Segment Split SplitAssignment SyntheticBackend
TemporalConfig ThreatAssessment ThreatLevel ThreatwatchError UnknownSample UnknownScheme
WebhookSink assess_frame associate_hand_knife classify_scores confusion_matrix flush
is_overhand load_script make_splits new_state open_backend parse_frame_record
parse_manifest_entry parse_prediction per_class_accuracy pose_gate read_manifest
register_extern_adapter render_report report_from_json serialize_alert_event
serialize_assessment serialize_frame_record step synthesize validate_manifest
""".split()


def _python(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)


def test_public_names_resolve_to_their_defining_objects():
    assert threatwatch.__all__ == PUBLIC
    for name in PUBLIC:
        namespace = {}
        exec(f"from threatwatch import {name}", namespace)
        value = namespace[name]
        assert value is getattr(threatwatch, name)
        assert value is getattr(importlib.import_module(value.__module__), name)
        assert value.__module__.startswith("threatwatch.")
    for module in ("alerts", "backends", "errors", "evaluation", "frames", "fusion", "webhook"):
        assert getattr(threatwatch, module) is importlib.import_module(f"threatwatch.{module}")
    with pytest.raises(AttributeError):
        threatwatch.no_such_name


def test_star_import_and_version():
    namespace = {}
    exec("from threatwatch import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert threatwatch.__version__ == "0.1.0"


def test_importing_a_submodule_loads_no_http_client():
    done = _python("import sys, threatwatch.frames, threatwatch.fusion, threatwatch.cli\n"
                   "print(sorted(m for m in ('threatwatch.webhook', 'urllib.request', 'ssl')"
                   " if m in sys.modules))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_importing_main_module_runs_nothing():
    done = _python("import threatwatch.__main__")
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


ERRORS = [
    MalformedJson(3, "x"),
    SchemaViolation(4, "$.scores", "threat must be within [0, 1], got 2.0"),
    EmptyManifest(),
    DuplicateSampleId("img_1"),
    OutOfOrderFrame("cam", 5, 7),
    MissingPrediction("a"),
    UnknownSample("b"),
    DuplicatePrediction("c"),
    BadRatios("ratios must sum to 1"),
    BadScript("no segments"),
    UnknownScheme("unknown backend scheme 'ftp'"),
    AdapterUnavailable("no extern adapter named 'x' is registered"),
    BadConfig("unknown config key(s): x"),
    ThreatwatchError("plain"),
]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_type_is_covered():
    assert {type(e) for e in ERRORS} == {ThreatwatchError, *_subclasses(ThreatwatchError)}


@pytest.mark.parametrize("error", ERRORS, ids=lambda e: type(e).__name__)
def test_error_survives_pickling(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy) == vars(error)
