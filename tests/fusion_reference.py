"""Naive reference for SWIM, kept beside the tests that compare against it.

``select_classifier`` and ``constrained_mode`` fuse one window as the paper
states the rule: trust the column of least prediction entropy, then take
the most frequent label of the window among those that column produced.
``reference_swim`` applies them to every window in turn; the batched
``goofloc.fusion.swim`` must select the same columns and fuse the same
labels.
"""

import numpy as np

from goofloc.forest import shannon_entropy
from goofloc.fusion import _as_matrix


def select_classifier(window: np.ndarray, class_count: int | None = None) -> int:
    """Column index (0-based) with minimum prediction entropy; ties go to
    the smallest index. Each label counts as its rank among the distinct
    labels, which keeps every entropy's float, however large the label."""
    mat = _as_matrix(window)
    values, index = np.unique(mat, return_inverse=True)
    if values[0] < 1 or (class_count is not None and values[-1] > class_count):
        raise ValueError("labels must lie in 1..class_count")
    index = index.reshape(mat.shape) + 1
    entropies = [shannon_entropy(index[:, g], values.size) for g in range(mat.shape[1])]
    return int(np.argmin(entropies))


def constrained_mode(window: np.ndarray, selected_column) -> int:
    """Most frequent label in the window among those the selected
    classifier produced; ties go to the smallest label."""
    mat = _as_matrix(window)
    candidates = np.unique(np.asarray(selected_column, dtype=int))
    counts = {int(c): int((mat == c).sum()) for c in candidates}
    best = max(counts.values())
    return min(label for label, count in counts.items() if count == best)


def reference_swim(b, window_length, class_count=None):
    """SWIM one window at a time: :func:`select_classifier`, then
    :func:`constrained_mode` on the selected column."""
    mat = np.asarray(b, dtype=int)
    q = int(mat.max()) if class_count is None else class_count
    labels, selected = [], []
    for u in range(mat.shape[0] - window_length + 1):
        window = mat[u : u + window_length]
        g = select_classifier(window, q)
        selected.append(g)
        labels.append(constrained_mode(window, window[:, g]))
    return np.array(labels), np.array(selected)
