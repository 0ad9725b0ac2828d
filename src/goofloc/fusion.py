"""Sliding-window entropy/mode fusion of the prediction matrix.

Given the Z x H matrix of per-sample grid predictions, each length-W
window picks the classifier whose predictions are most stable (minimum
entropy) and then returns the label with the highest count in the whole
window among the labels that classifier produced. W = Z degenerates to a
single full-matrix estimate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .forest import PredictionMatrix, shannon_entropy
from .textio import fmt_value


@dataclass
class FusionWindow:
    """Window length W over Z samples; U = Z - W + 1 window positions."""

    window_length: int
    sample_count: int

    def __post_init__(self):
        if not 1 <= self.window_length <= self.sample_count:
            raise ValueError("need 1 <= window_length <= sample_count")

    @property
    def prediction_count(self) -> int:
        return self.sample_count - self.window_length + 1


@dataclass
class FusionResult:
    """Per-window fused labels and which classifier each window trusted."""

    labels: np.ndarray  # (U,) fused grid labels
    selected: np.ndarray  # (U,) chosen classifier column indices (0-based)
    window_length: int
    rho: float | None = None  # filled in once the true label is known

    @property
    def prediction_count(self) -> int:
        return self.labels.shape[0]


def _as_matrix(b) -> np.ndarray:
    mat = b.matrix if isinstance(b, PredictionMatrix) else np.asarray(b)
    mat = np.asarray(mat, dtype=int)
    if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
        raise ValueError("prediction matrix must be a nonempty Z x H matrix")
    return mat


def classifier_entropy(predictions, class_count: int) -> float:
    """Entropy in bits of one classifier's predictions over the samples."""
    arr = np.asarray(predictions, dtype=int).ravel()
    if arr.size == 0:
        raise ValueError("predictions must be nonempty")
    return shannon_entropy(arr, class_count)


def select_classifier(window: np.ndarray, class_count: int | None = None) -> int:
    """Column index (0-based) with minimum prediction entropy; ties go to
    the smallest index."""
    mat = _as_matrix(window)
    q = int(mat.max()) if class_count is None else class_count
    entropies = [classifier_entropy(mat[:, g], q) for g in range(mat.shape[1])]
    return int(np.argmin(entropies))


def constrained_mode(window: np.ndarray, selected_column) -> int:
    """Most frequent label in the window among those the selected
    classifier produced; ties go to the smallest label."""
    mat = _as_matrix(window)
    candidates = np.unique(np.asarray(selected_column, dtype=int))
    counts = {int(c): int((mat == c).sum()) for c in candidates}
    best = max(counts.values())
    return min(label for label, count in counts.items() if count == best)


def swim(b, window_length: int, class_count: int | None = None) -> FusionResult:
    """Slide a length-W window down the sample axis and fuse each window.

    Emits U = Z - W + 1 predictions; every prediction is a label that the
    selected classifier produced inside its own window.
    """
    mat = _as_matrix(b)
    z = mat.shape[0]
    if not 1 <= window_length <= z:
        raise ConfigError("window", f"window length {window_length} outside 1..{z}")
    q = int(mat.max()) if class_count is None else class_count
    u = z - window_length + 1
    labels = np.empty(u, dtype=int)
    selected = np.empty(u, dtype=int)
    for i in range(u):
        sub = mat[i : i + window_length]
        g = select_classifier(sub, q)
        selected[i] = g
        labels[i] = constrained_mode(sub, sub[:, g])
    return FusionResult(labels=labels, selected=selected, window_length=window_length)


def full_matrix_mode(b, class_count: int | None = None) -> int:
    """Single-estimate baseline: the window is the whole matrix."""
    mat = _as_matrix(b)
    return int(swim(mat, mat.shape[0], class_count).labels[0])


def prediction_probability(labels, true_label: int) -> float:
    """Fraction of fused predictions equal to the true grid label."""
    arr = np.asarray(labels, dtype=int).ravel()
    if arr.size == 0:
        raise ValueError("labels must be nonempty")
    return float((arr == true_label).mean())


def fusion_report_rows(results: dict, window_length: int, kind_names) -> list[str]:
    """Structured-text rows, one per grid: (grid, W, U, rho, histogram of
    selected classifiers across windows)."""
    rows = []
    for grid in sorted(results):
        result = results[grid]
        hist = Counter(kind_names[int(g)] for g in result.selected)
        hist_text = ",".join(f"{name}:{hist[name]}" for name in sorted(hist))
        rows.append(
            f"grid={grid} w={window_length} u={result.prediction_count} "
            f"rho={fmt_value(result.rho)} selected={hist_text}"
        )
    return rows
