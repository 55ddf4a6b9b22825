"""Streaming knife-threat assessment.

Fuses per-frame classifier scores, hand/knife detections and pose
keypoints into graded threat assessments, debounces them into alert
lifecycle events, and ships the evaluation harness and synthetic scenario
generator used to test the whole pipeline without any ML runtime.

The public names below load their submodule on first use (PEP 562), so
importing one submodule, as a worker process does, does not import the
others; the webhook's HTTP client in particular.
"""

import importlib

_EXPORTS = {
    "alerts": (
        "AlertEvent", "AlertKind", "AlertState", "AlertTracker", "OutOfOrderFrame",
        "TemporalConfig", "flush", "new_state", "serialize_alert_event", "step",
    ),
    "backends": (
        "AdapterUnavailable", "BadScript", "DetectorBackend", "ReplayBackend",
        "ScenarioScript", "Scene", "Segment", "SyntheticBackend", "UnknownScheme",
        "load_script", "open_backend", "register_extern_adapter", "synthesize",
    ),
    "errors": ("ThreatwatchError",),
    "evaluation": (
        "BadRatios", "ClassReport", "ConfusionMatrix", "DuplicatePrediction",
        "EvalReport", "MissingPrediction", "PredictedLabel", "Split",
        "SplitAssignment", "UnknownSample", "confusion_matrix", "make_splits",
        "parse_prediction", "per_class_accuracy", "render_report",
    ),
    "frames": (
        "BoundingBox", "ClassScores", "DuplicateSampleId", "EmptyManifest",
        "FrameRecord", "InstanceDetection", "KeypointKind", "Label", "MalformedJson",
        "ManifestEntry", "ManifestLabel", "ManifestStats", "PoseKeypoint",
        "SchemaViolation", "parse_frame_record", "parse_manifest_entry",
        "read_manifest", "serialize_frame_record", "validate_manifest",
    ),
    "fusion": (
        "FrameClass", "FusionConfig", "GraspPair", "PoseEvidence",
        "ThreatAssessment", "ThreatLevel", "assess_frame", "associate_hand_knife",
        "classify_scores", "is_overhand", "pose_gate", "serialize_assessment",
    ),
    "webhook": ("WebhookSink",),
}

# Public name -> the submodule that defines it.
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, which `import threatwatch` used to load
        return importlib.import_module(f".{name}", __name__)
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
