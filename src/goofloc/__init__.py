"""Fingerprint-fusion indoor localization toolkit.

Pipeline: simulate multipath array snapshots per room grid, extract the
six-family fingerprint group (GOOF), train one random forest per family,
and fuse the per-sample predictions with sliding-window entropy/mode
(SWIM) fusion.
"""

from .channel import (
    NOISELESS,
    ArrayGeometry,
    NoiseSpec,
    PathSet,
    Scenario,
    SnapshotBlock,
    add_noise,
    generate_paths,
    geometry_to_channel,
    make_grid_scenario,
    steering_vector,
    synthesize_snapshots,
)
from .dataset import load_snapshot_dataset, save_snapshot_dataset
from .errors import (
    ConfigError,
    DegenerateGeometryError,
    DegenerateInputError,
    FormatError,
    NumericalFailure,
)
from .experiments import (
    ExperimentConfig,
    Report,
    emit_report,
    ingest_recorded_dataset,
    load_report,
    merge_reports,
    run_forest_sweep,
    run_snr_sweep,
    simulate_cell,
)
from .fingerprints import (
    KIND_ORDER,
    FingerprintKind,
    Goof,
    build_goof,
    est_covariance,
    est_flom,
    est_foc,
    est_psd,
    est_signal_subspace,
    extract_rss,
    load_goof,
    save_goof,
    vectorize,
)
from .forest import (
    ClassifierBank,
    Forest,
    PredictionMatrix,
    TreeNode,
    WeakLearnerSpec,
    deserialize_forest,
    information_gain,
    load_bank,
    node_counts,
    predict_forest,
    predict_matrix,
    save_bank,
    serialize_forest,
    shannon_entropy,
    train_bank,
    train_forest,
    train_tree,
)
from .fusion import (
    FusionResult,
    FusionWindow,
    classifier_entropy,
    constrained_mode,
    full_matrix_mode,
    prediction_probability,
    select_classifier,
    swim,
)

__version__ = "0.1.0"
