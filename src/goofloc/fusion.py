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
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .forest import shannon_entropy
from .textio import fmt_value


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
    mat = np.asarray(b, dtype=int)
    if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
        raise ValueError("prediction matrix must be a nonempty Z x H matrix")
    return mat


@lru_cache(maxsize=1 << 12)
def _entropy_of_counts(key: bytes) -> float:
    """:func:`shannon_entropy` of the labels whose nonzero counts, in label
    order, are the leading nonzero ``intp`` words of ``key``. The float is
    the one that function returns for those labels under any class count,
    since it sums over the nonzero counts alone, in label order."""
    counts = np.frombuffer(key, dtype=np.intp)
    counts = counts[counts > 0]
    return shannon_entropy(np.repeat(np.arange(1, counts.size + 1), counts), counts.size)


def swim(b, window_length: int, class_count: int | None = None) -> FusionResult:
    """Slide a length-W window down the sample axis and fuse each window.

    Emits U = Z - W + 1 predictions. Each window trusts the classifier
    whose predictions in it have the least entropy (the first on a tie)
    and fuses to the most frequent label of the window among those that
    classifier produced (the smallest on a tie).

    All windows are counted at once: differences of running one-hot label
    counts give the (U, H, L) counts of each window and column over the
    L distinct labels of the matrix in label order, so a large label costs
    nothing. Each column's entropy is looked up by its nonzero counts in
    label order, so it is the exact float :func:`shannon_entropy` returns
    for that column and ties in the minimum break as they do there.
    """
    mat = _as_matrix(b)
    z, h = mat.shape
    if not 1 <= window_length <= z:
        raise ConfigError("window", f"window length {window_length} outside 1..{z}")
    values, index = np.unique(mat, return_inverse=True)
    if values[0] < 1 or (class_count is not None and values[-1] > class_count):
        raise ValueError("labels must lie in 1..class_count")
    top = values.size
    running = np.zeros((z + 1, h, top), dtype=np.intp)
    np.cumsum(index.reshape(z, h, 1) == np.arange(top), axis=0, out=running[1:])
    counts = running[window_length:] - running[:-window_length]  # (U, H, top)
    u = counts.shape[0]
    # each (window, column)'s nonzero counts first, in label order; a
    # window holds at most W distinct labels
    rows = counts.reshape(u * h, top)
    width = min(window_length, top)
    first = np.argsort(rows == 0, axis=1, kind="stable")[:, :width]
    packed = rows[np.arange(u * h)[:, None], first]
    keys = packed.view(np.dtype((np.void, packed.itemsize * width))).ravel().tolist()
    entropies = np.array([_entropy_of_counts(key) for key in keys])
    selected = entropies.reshape(u, h).argmin(axis=1)  # first minimum: smallest column
    produced = counts[np.arange(u), selected] > 0
    # first maximum: the smallest label among the most frequent
    labels = values[np.where(produced, counts.sum(axis=1), -1).argmax(axis=1)]
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
