"""trackfuse: training-free fusion of multi-object tracking results.

Pools the trajectories of several trackers, merges the ones that agree
spatio-temporally, suppresses redundant boxes and short leftovers, and
ships with CLEAR/IDF1 evaluation plus a synthetic scenario harness.

The package exports what a user of the whole pipeline needs. The single
stages, geometry and random streams stay importable from their modules
(``trackfuse.ensemble``, ``trackfuse.interpolate``, ``trackfuse.geometry``,
``trackfuse.metrics``, ``trackfuse.synth``, ``trackfuse.rng``).
"""

from .ensemble import EnsembleConfig, MergeMode, ensemble_pipeline
from .io import ParseError, load_trackset, parse_trackset, save_trackset, serialize_trackset
from .metrics import ClearScores, EvalReport, IdentityScores, evaluate
from .model import BoundingBox, Detection, TrackSet, Trajectory
from .synth import ScenarioSpec, TrackerDegradation, complementary_pair, generate_scenario

__version__ = "0.1.0"

__all__ = [
    "BoundingBox",
    "ClearScores",
    "Detection",
    "EnsembleConfig",
    "EvalReport",
    "IdentityScores",
    "MergeMode",
    "ParseError",
    "ScenarioSpec",
    "TrackSet",
    "TrackerDegradation",
    "Trajectory",
    "complementary_pair",
    "ensemble_pipeline",
    "evaluate",
    "generate_scenario",
    "load_trackset",
    "parse_trackset",
    "save_trackset",
    "serialize_trackset",
    "__version__",
]
