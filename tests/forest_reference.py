"""Naive references for the forest, kept beside the tests that compare
against them.

``reference_table`` grows trees depth first, one node at a time, tests
every candidate threshold sample by sample and lays each tree out in level
order with a plain queue. It reads the same keyed draws as the level-wise
trainer in ``goofloc.forest``, so the two must build identical node
tables; ``train_tree`` grows one tree with the
level-wise trainer, and ``node_counts`` and ``information_gain`` are the
full-tree sizes and the split gain spelled out; ``split_gain`` is the gain
over count arrays with one lookup per entropy term, which the trainer's
table lookup must equal bit for bit. ``predict_forest`` walks
one sample down one tree at a time, counting the splits before a row to
find its children; ``nonfinite_probe`` makes samples
whose projections include NaN and infinities. ``reference_serialize_forest``
is the retired ``GOOF-FOREST 1`` text form, one record per node in
pre-order: a canonical dump of a forest's trees, whose digest pins trained
trees whatever the table layout and file format.
"""

from collections import deque

import numpy as np

from goofloc.forest import (
    PRIMITIVES,
    Forest,
    _child_keys,
    _fit_levels,
    _forest_draws,
    _node_draws,
    _training_set,
    _xlogx,
)
from goofloc.fusion import shannon_entropy
from goofloc.textio import write_document


def _class_sum(values: np.ndarray) -> np.ndarray:
    """Sum over axis 1 (classes), one class at a time in class order, so
    classes with zero terms can be left out without changing a bit."""
    total = values[:, 0]
    for i in range(1, values.shape[1]):
        total = total + values[:, i]
    return total


def split_gain(part: np.ndarray, parent: np.ndarray, xlogx: np.ndarray) -> np.ndarray:
    """Information gain in bits of splitting the class counts ``parent``
    into ``part`` and the rest, classes along axis 1; 0 where either is
    empty. Every entropy term is its own lookup in ``xlogx``, summed in the
    order ``goofloc.forest._split_gain`` sums its pair lookups."""
    rest = parent - part
    n = parent.sum(axis=1)
    n_part = part.sum(axis=1)
    n_rest = n - n_part
    children = xlogx[n_part] + xlogx[n_rest] - _class_sum(xlogx[part] + xlogx[rest])
    gain = (xlogx[n] - _class_sum(xlogx[parent]) - children) / n
    return np.where((n_part > 0) & (n_rest > 0), gain, 0.0)


def _best_split(x_node, y_node, key, spec, q, xlogx):
    """Highest-gain candidate split of one node, or None if none gains."""
    feats, weights, u = (a[0] for a in _node_draws(np.array([key]), x_node.shape[1], spec))
    proj = (x_node[:, feats] * weights).sum(axis=2)  # (n, m)
    lo, hi = proj.min(axis=0), proj.max(axis=0)
    cut = lo[:, None] + (hi - lo)[:, None] * u  # (m, t)
    go_right = proj[:, :, None] >= cut[None, :, :]  # (n, m, t)
    onehot = np.eye(q, dtype=np.int64)[y_node - 1]
    right = np.einsum("nmt,nq->qmt", go_right.astype(np.int64), onehot)
    gain = split_gain(right[None], onehot.sum(axis=0)[None, :, None, None], xlogx)[0]
    ci, ti = np.unravel_index(np.argmax(gain), gain.shape)
    if gain[ci, ti] <= 1e-12:
        return None
    return feats[ci], weights[ci], cut[ci, ti], go_right[:, ci, ti]


def _grow(x, y, idx, key, level, depth_limit, spec, q, xlogx):
    """The subtree over sample rows ``idx``: a leaf's row, or a split's row
    and its left and right subtrees."""
    hist = np.bincount(y[idx] - 1, minlength=q)
    found = None
    if level < depth_limit and idx.size >= 2 and (hist > 0).sum() > 1:
        found = _best_split(x[idx], y[idx], key, spec, q, xlogx)
    if found is None:
        arity = PRIMITIVES[spec.primitive]
        return [(0,) * arity, (0.0,) * arity, 0.0, False, hist], None, None
    feats, weights, threshold, go_right = found
    left_key, right_key = _child_keys(np.array([key, key]), np.array([0, 1]))
    return (
        [feats, weights, threshold, True, np.zeros(q, dtype=np.int64)],
        _grow(x, y, idx[~go_right], left_key, level + 1, depth_limit, spec, q, xlogx),
        _grow(x, y, idx[go_right], right_key, level + 1, depth_limit, spec, q, xlogx),
    )


def reference_table(x, y, boots, keys, depth_limit, spec, q) -> dict:
    """Node table of the trees over rows ``boots[i]`` from root keys
    ``keys[i]``, grown one tree and one node at a time, each tree's rows
    taken off a queue in level order."""
    xlogx = _xlogx(boots.shape[1])
    rows, roots = [], []
    for boot, key in zip(boots, keys):
        roots.append(len(rows))
        queue = deque([_grow(x, y, boot, key, 1, depth_limit, spec, q, xlogx)])
        while queue:
            row, *subtrees = queue.popleft()
            rows.append(row)
            queue.extend(subtree for subtree in subtrees if subtree)
    features, weights, threshold, split, histogram = (np.array(c) for c in zip(*rows))
    return {
        "features": features, "weights": weights, "threshold": threshold, "split": split,
        "histogram": histogram, "roots": np.array(roots),
    }


def reference_forest(samples, labels, tree_count, depth_limit, spec, seed, class_count=None):
    """Reference node table of ``train_forest`` with the same arguments."""
    x = np.asarray(samples, dtype=float)
    y = np.asarray(labels, dtype=int)
    q = int(y.max()) if class_count is None else class_count
    boots, keys = _forest_draws(seed, tree_count, len(y))
    return reference_table(x, y, boots, keys, depth_limit, spec, q)


def train_tree(samples, labels, spec, depth_limit, rng, class_count=None) -> Forest:
    """Grow one decision tree on all samples with the level-wise trainer,
    from a root key drawn from ``rng``: a one-tree forest whose seed, 0,
    played no part (the key came from ``rng``)."""
    x, y, q = _training_set(samples, labels, 1, depth_limit, spec, class_count)
    keys = rng.integers(0, 2**64, size=1, dtype=np.uint64)
    table = _fit_levels(x, y, np.arange(len(y))[None], keys, depth_limit, spec, q)
    return Forest(**table, depth_limit=depth_limit, feature_dim=x.shape[1], seed=0, spec=spec)


def node_counts(depth_limit: int) -> tuple[int, int, int]:
    """(internal, leaf, total) node counts of a full binary tree with
    ``depth_limit`` levels."""
    if depth_limit < 1:
        raise ValueError("depth_limit must be >= 1")
    leaves = 2 ** (depth_limit - 1)
    return leaves - 1, leaves, 2**depth_limit - 1


def information_gain(parent, left, right) -> float:
    """Entropy drop of splitting ``parent`` into ``left`` and ``right``."""
    parent = np.asarray(parent, dtype=int).ravel()
    left = np.asarray(left, dtype=int).ravel()
    right = np.asarray(right, dtype=int).ravel()
    if left.size + right.size != parent.size or not np.array_equal(
        np.sort(parent), np.sort(np.concatenate([left, right]))
    ):
        raise ValueError("left and right must partition parent")
    q = int(parent.max())
    h_parent = shannon_entropy(parent, q)
    h_left = shannon_entropy(left, q) if left.size else 0.0
    h_right = shannon_entropy(right, q) if right.size else 0.0
    return h_parent - (left.size * h_left + right.size * h_right) / parent.size


def children(tree, row: int) -> tuple[int, int]:
    """Left and right child of a split row of one tree: the k-th split's
    children follow the root and the 2k children of the splits before it."""
    left = 1 + 2 * int(np.count_nonzero(tree.split[:row]))
    return left, left + 1


def tree_vote(tree, x) -> int:
    """Walk one sample down one tree, a row at a time."""
    row = 0
    while tree.split[row]:
        proj = sum(w * x[f] for f, w in zip(tree.features[row], tree.weights[row]))
        row = children(tree, row)[int(proj >= tree.threshold[row])]
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


def nonfinite_probe(dim: int, seed: int) -> np.ndarray:
    """Samples around the training data, about a tenth of the features
    NaN and a tenth each +inf and -inf."""
    rng = np.random.default_rng(seed)
    x = 2.0 * rng.standard_normal((80, dim))
    roll = rng.random(x.shape)
    x[roll < 0.1] = np.nan
    x[(roll >= 0.1) & (roll < 0.2)] = np.inf
    x[(roll >= 0.2) & (roll < 0.3)] = -np.inf
    x[:20] = rng.standard_normal((20, dim))  # some samples stay finite
    return x


def reference_serialize_forest(forest) -> str:
    """The ``GOOF-FOREST 1`` text of a forest: its header fields, then one
    record per node, each tree in pre-order after a ``tree i`` record;
    byte-identical for identical trees."""
    header = {
        "kind": forest.kind.value if forest.kind else "none",
        "class_count": forest.class_count,
        "depth_limit": forest.depth_limit,
        "tree_count": forest.tree_count,
        "feature_dim": forest.feature_dim,
        "seed": forest.seed,
        "primitive": forest.spec.primitive,
        "feature_subspace": forest.spec.feature_subspace_size or 0,
        "threshold_candidates": forest.spec.threshold_candidates,
    }
    records = []

    def dump(tree, row):
        if tree.split[row]:
            idx = ",".join(map(str, tree.features[row].tolist()))
            w = ",".join(v.hex() for v in tree.weights[row].tolist())
            records.append(f"split {idx} {w} {float(tree.threshold[row]).hex()}")
            for child in children(tree, row):
                dump(tree, child)
        else:
            records.append("leaf " + " ".join(map(str, tree.histogram[row].tolist())))

    for i, tree in enumerate(forest.trees):
        records.append(f"tree {i}")
        dump(tree, 0)
    return write_document("GOOF-FOREST", 1, header, records)
