"""Naive references for the forest, kept beside the tests that compare
against them.

``reference_table`` grows trees depth first, one node at a time, and
tests every candidate threshold sample by sample. It reads the same keyed
draws as the level-wise trainer in ``goofloc.forest``, so the two must
build identical node tables. ``predict_forest`` walks one sample down one
tree at a time.
"""

import numpy as np

from goofloc.forest import (
    PRIMITIVES,
    _child_keys,
    _forest_draws,
    _node_draws,
    _split_gain,
    _xlogx,
)


def _best_split(x_node, y_node, key, spec, q, xlogx):
    """Highest-gain candidate split of one node, or None if none gains."""
    feats, weights, u = (a[0] for a in _node_draws(np.array([key]), x_node.shape[1], spec))
    proj = (x_node[:, feats] * weights).sum(axis=2)  # (n, m)
    lo, hi = proj.min(axis=0), proj.max(axis=0)
    cut = lo[:, None] + (hi - lo)[:, None] * u  # (m, t)
    go_right = proj[:, :, None] >= cut[None, :, :]  # (n, m, t)
    onehot = np.eye(q, dtype=np.int64)[y_node - 1]
    right = np.einsum("nmt,nq->qmt", go_right.astype(np.int64), onehot)
    gain = _split_gain(right[None], onehot.sum(axis=0)[None, :, None, None], xlogx)[0]
    ci, ti = np.unravel_index(np.argmax(gain), gain.shape)
    if gain[ci, ti] <= 1e-12:
        return None
    return feats[ci], weights[ci], cut[ci, ti], go_right[:, ci, ti]


def _grow(x, y, idx, key, level, depth_limit, spec, q, xlogx, rows):
    """Append the pre-order rows of the subtree over sample rows ``idx``."""
    hist = np.bincount(y[idx] - 1, minlength=q)
    found = None
    if level < depth_limit and idx.size >= 2 and (hist > 0).sum() > 1:
        found = _best_split(x[idx], y[idx], key, spec, q, xlogx)
    if found is None:
        arity = PRIMITIVES[spec.primitive]
        rows.append([(0,) * arity, (0.0,) * arity, 0.0, 0, hist])
        return
    feats, weights, threshold, go_right = found
    left_key, right_key = _child_keys(np.array([key, key]), np.array([0, 1]))
    at = len(rows)
    rows.append([feats, weights, threshold, 0, np.zeros(q, dtype=np.int64)])
    _grow(x, y, idx[~go_right], left_key, level + 1, depth_limit, spec, q, xlogx, rows)
    rows[at][3] = len(rows) - at
    _grow(x, y, idx[go_right], right_key, level + 1, depth_limit, spec, q, xlogx, rows)


def reference_table(x, y, boots, keys, depth_limit, spec, q) -> dict:
    """Node table of the trees over rows ``boots[i]`` from root keys
    ``keys[i]``, grown one tree and one node at a time."""
    xlogx = _xlogx(boots.shape[1])
    rows, roots = [], []
    for boot, key in zip(boots, keys):
        roots.append(len(rows))
        _grow(x, y, boot, key, 1, depth_limit, spec, q, xlogx, rows)
    features, weights, threshold, right, histogram = (np.array(c) for c in zip(*rows))
    return {
        "features": features, "weights": weights, "threshold": threshold, "right": right,
        "histogram": histogram, "roots": np.array(roots),
    }


def reference_forest(samples, labels, tree_count, depth_limit, spec, seed, class_count=None):
    """Reference node table of ``train_forest`` with the same arguments."""
    x = np.asarray(samples, dtype=float)
    y = np.asarray(labels, dtype=int)
    q = int(y.max()) if class_count is None else class_count
    boots, keys = _forest_draws(seed, tree_count, len(y))
    return reference_table(x, y, boots, keys, depth_limit, spec, q)


def tree_vote(tree, x) -> int:
    """Walk one sample down one tree, a row at a time."""
    row = 0
    while tree.right[row]:
        proj = sum(w * x[f] for f, w in zip(tree.features[row], tree.weights[row]))
        row += int(tree.right[row]) if proj >= tree.threshold[row] else 1
    return int(tree.histogram[row].argmax()) + 1


def predict_forest(forest, features) -> int:
    """Grid label for a single feature vector (majority vote)."""
    x = np.asarray(features, dtype=float).ravel()
    if x.shape[0] != forest.feature_dim:
        raise ValueError(f"expected {forest.feature_dim} features, got {x.shape[0]}")
    votes = np.bincount(
        [tree_vote(tree, x) for tree in forest.trees], minlength=forest.class_count + 1
    )[1:]
    return int(votes.argmax()) + 1
