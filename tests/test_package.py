"""The package surface: public names, what an import loads, the module
entry point, and errors that cross a process boundary."""

import ast
import importlib
import os
import pathlib
import pickle
import re
import subprocess
import sys
import tomllib

import pytest

import threatwatch
from threatwatch.alerts import OutOfOrderFrame
from threatwatch.backends import AdapterUnavailable, BadScript, UnknownScheme
from threatwatch.cli import BadConfig, main
from threatwatch.errors import ThreatwatchError
from threatwatch.evaluation import BadRatios, DuplicatePrediction, MissingPrediction, UnknownSample
from threatwatch.frames import DuplicateSampleId, EmptyManifest, MalformedJson, SchemaViolation

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The public names of the package, as listed by its __all__ before the
# names were resolved lazily, less AlertPhase and report_from_json, which
# only tests used.
PUBLIC = """
AdapterUnavailable AlertEvent AlertKind AlertState AlertTracker BadRatios BadScript
BoundingBox ClassReport ClassScores ConfusionMatrix DetectorBackend DuplicatePrediction
DuplicateSampleId EmptyManifest EvalReport FrameClass FrameRecord FusionConfig GraspPair
InstanceDetection KeypointKind Label MalformedJson ManifestEntry ManifestLabel ManifestStats
MissingPrediction OutOfOrderFrame PoseEvidence PoseKeypoint PredictedLabel ReplayBackend
ScenarioScript Scene SchemaViolation Segment Split SplitAssignment SyntheticBackend
TemporalConfig ThreatAssessment ThreatLevel ThreatwatchError UnknownSample UnknownScheme
WebhookSink assess_frame associate_hand_knife classify_scores confusion_matrix flush
is_overhand load_script make_splits new_state open_backend parse_frame_record
parse_manifest_entry parse_prediction per_class_accuracy pose_gate read_manifest
register_extern_adapter render_report serialize_alert_event
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
    # nor an executor, which nothing imports, nor evaluation, which only
    # split and eval use
    done = _python("import sys, threatwatch.frames, threatwatch.fusion, threatwatch.cli\n"
                   "print(sorted(m for m in ('threatwatch.webhook', 'urllib.request', 'ssl',"
                   " 'http.client', 'multiprocessing', 'concurrent.futures.process',"
                   " 'threatwatch.evaluation')"
                   " if m in sys.modules))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_fusion_loads_only_frames_and_errors_of_the_package():
    done = _python("import sys, threatwatch.fusion\n"
                   "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'threatwatch'))")
    assert done.returncode == 0, done.stderr
    loaded = ["threatwatch", "threatwatch.errors", "threatwatch.frames", "threatwatch.fusion"]
    assert done.stdout == f"{loaded}\n"


# Runs score, then watch, on a file and on a synthetic: script that take
# the forked workers, then prints the forks made and which executor modules
# are loaded.
_WORKERS = """\
import os, sys
from threatwatch import backends, cli
forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(None))
cli.CHUNK_BYTES, cli.POOL_MIN_CHUNKS = 100, 2
backends.SYNTH_SPAN_FRAMES, cli.SYNTH_POOL_MIN_FRAMES = 8, 2
os.sched_getaffinity = lambda pid: {0, 1}
*inputs, out = sys.argv[1:]
for source in inputs:
    for argv in (["score", "--out"], ["watch", "--alerts"]):
        assert cli.main([argv[0], "--input", source, argv[1], out]) == 0
print(len(forks), [m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules])
"""


@pytest.mark.skipif(sys.platform != "linux", reason="workers fork only on Linux")
def test_worker_runs_load_no_executor(tmp_path):
    frames = tmp_path / "frames.jsonl"
    frames.write_text("".join(f'{{"stream_id":"c","frame_id":{i},"ts_ms":{33 * i}}}\n'
                              for i in range(1, 40)))
    script = tmp_path / "script.json"
    script.write_text('{"segments":[{"scene":"knife_grasped","duration_frames":40}]}')
    done = subprocess.run([sys.executable, "-c", _WORKERS, str(frames), f"synthetic:{script}",
                           os.devnull],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "8 []\n"


def test_webhook_posts_without_urllib_request():
    # nor ssl, which only an https:// connection imports
    done = _python("import sys, threatwatch.webhook\n"
                   "print(sorted(m for m in ('urllib.request', 'urllib.error', 'ssl')"
                   " if m in sys.modules))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_webhook_leaves_https_to_other_code():
    done = _python("import threatwatch.webhook, http.client, urllib.request\n"
                   "print(http.client.HTTPSConnection.__name__, urllib.request.HTTPSHandler.__name__)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "HTTPSConnection HTTPSHandler\n"


def test_package_imports_only_the_standard_library():
    modules = sorted((SRC / "threatwatch").glob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, f"{path.name}: import {name}"


def test_importing_main_module_runs_nothing():
    done = _python("import threatwatch.__main__")
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


def _project():
    """pyproject.toml's [project] table."""
    return tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]


def test_console_script_is_cli_main():
    module, _, name = _project()["scripts"]["threatwatch"].partition(":")
    assert getattr(importlib.import_module(module), name) is main


def test_python_floor_is_the_lowest_ci_version():
    requires = _project()["requires-python"]
    floor = re.fullmatch(r">=(\d+)\.(\d+)", requires)
    assert floor, requires
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    versions = [tuple(map(int, v)) for line in workflow.splitlines()
                if line.strip().startswith("python-version:")
                for v in re.findall(r'"(\d+)\.(\d+)"', line)]
    assert versions
    assert min(versions) == tuple(map(int, floor.groups()))


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
