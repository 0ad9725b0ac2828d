"""Fingerprint-fusion indoor localization toolkit.

Pipeline: simulate multipath array snapshots per room grid, extract the
six-family fingerprint group (GOOF), train one random forest per family,
and fuse the per-sample predictions with sliding-window entropy/mode
(SWIM) fusion. The package exports the names of the README quick start;
everything else is imported from its submodule.
"""

from .experiments import ExperimentConfig
from .fingerprints import build_goof
from .forest import WeakLearnerSpec
from .fusion import prediction_probability, swim

__version__ = "0.1.0"
