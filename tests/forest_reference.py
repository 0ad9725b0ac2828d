"""Naive references for the forest, kept beside the tests that compare
against them.

``reference_table`` grows trees depth first, one node at a time, and
tests every candidate threshold sample by sample. It reads the same keyed
draws as the level-wise trainer in ``goofloc.forest``, so the two must
build identical node tables; ``train_tree`` grows one tree with the
level-wise trainer, and ``node_counts`` and ``information_gain`` are the
full-tree sizes and the split gain spelled out. ``predict_forest`` walks
one sample down one tree at a time. ``reference_serialize_forest`` and
``reference_deserialize_forest`` are the ``GOOF-FOREST 1`` codec one
table row, and one record, at a time.
"""

import numpy as np

from goofloc.errors import FormatError
from goofloc.fingerprints import FingerprintKind
from goofloc.forest import (
    _COLUMNS,
    FOREST_MAGIC,
    FOREST_VERSION,
    PRIMITIVES,
    Forest,
    Tree,
    WeakLearnerSpec,
    _child_keys,
    _fit_levels,
    _forest_draws,
    _node_draws,
    _split_gain,
    _training_set,
    _xlogx,
    shannon_entropy,
)
from goofloc.textio import comma_list, convert, one_of, positive_int, read_document, write_document


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


def train_tree(samples, labels, spec, depth_limit, rng, class_count=None) -> Tree:
    """Grow one decision tree on all samples with the level-wise trainer,
    from a root key drawn from ``rng``."""
    x, y, q = _training_set(samples, labels, class_count)
    keys = rng.integers(0, 2**64, size=1, dtype=np.uint64)
    table = _fit_levels(x, y, np.arange(len(y))[None], keys, depth_limit, spec, q)
    return Tree(*(table[name] for name in _COLUMNS))


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


def _rows_table(rows: list, class_count: int) -> dict:
    """Node-table columns of ``[features, weights, threshold, right,
    histogram]`` rows; split rows (histogram None) count no samples."""
    features, weights, threshold, right, hists = zip(*rows)
    zero = np.zeros(class_count, dtype=np.int64)
    return {
        "features": np.array(features, dtype=np.intp),
        "weights": np.array(weights, dtype=float),
        "threshold": np.array(threshold, dtype=float),
        "right": np.array(right, dtype=np.intp),
        "histogram": np.array([zero if h is None else h for h in hists], dtype=np.int64),
    }


def reference_serialize_forest(forest) -> str:
    """Lossless structured-text form, one record per table row in
    pre-order; byte-identical for identical forests."""
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
    heads = {root: i for i, root in enumerate(forest.roots.tolist())}
    records = []
    rows = zip(*(getattr(forest, name).tolist() for name in _COLUMNS))
    for row, (feats, weights, threshold, right, hist) in enumerate(rows):
        if row in heads:
            records.append(f"tree {heads[row]}")
        if right:
            idx = ",".join(map(str, feats))
            w = ",".join(v.hex() for v in weights)
            records.append(f"split {idx} {w} {threshold.hex()}")
        else:
            records.append("leaf " + " ".join(map(str, hist)))
    return write_document(FOREST_MAGIC, FOREST_VERSION, header, records)


def reference_deserialize_forest(raw):
    """Read a :func:`reference_serialize_forest` document (bytes or str). Records
    fill the table in order; a stack holds the splits whose left subtree
    is open (on a ``None`` for the tree), and the leaf that closes one
    sets that split's right-child offset."""
    doc = read_document(raw, FOREST_MAGIC, FOREST_VERSION)
    kind = doc.get("kind", lambda text: None if text == "none" else FingerprintKind(text), None)
    class_count = doc.get("class_count", positive_int)
    feature_dim = doc.get("feature_dim", positive_int)
    tree_count = doc.get("tree_count", positive_int)
    spec = WeakLearnerSpec(
        primitive=doc.get("primitive", one_of(*PRIMITIVES), "axis_aligned_stump"),
        feature_subspace_size=doc.get("feature_subspace", int, 0) or None,
        threshold_candidates=doc.get("threshold_candidates", positive_int, 10),
    )
    arity = PRIMITIVES[spec.primitive]
    rows, roots, open_splits = [], [], []
    for line, text in doc.records:
        tag, *parts = text.split()
        if not open_splits:
            if text != f"tree {len(roots)}":
                raise FormatError(f"line {line}: expected 'tree {len(roots)}', got {text!r}")
            roots.append(len(rows))
            open_splits.append(None)
        elif tag == "leaf" and len(parts) == class_count:
            hist = convert(parts, lambda p: np.array(p, dtype=int), "leaf", line)
            rows.append([(0,) * arity, (0.0,) * arity, 0.0, 0, hist])
            at = open_splits.pop()
            if at is not None:
                rows[at][3] = len(rows) - at
        elif tag == "split" and len(parts) == 3:
            feats = convert(parts[0], comma_list(np.intp), "feature indices", line)
            weights = convert(parts[1], comma_list(float.fromhex), "weights", line)
            if not len(feats) == len(weights) == arity or not all(
                0 <= f < feature_dim for f in feats
            ):
                raise FormatError(f"line {line}: bad split features {parts[0]!r} {parts[1]!r}")
            threshold = convert(parts[2], float.fromhex, "threshold", line)
            open_splits.append(len(rows))
            rows.append([feats, weights, threshold, 0, None])
        else:
            raise FormatError(f"line {line}: bad node record {text!r}")
    if open_splits or len(roots) != tree_count:
        raise FormatError(f"{len(roots)} whole trees, but tree_count={tree_count}")
    return Forest(
        **_rows_table(rows, class_count),
        roots=np.array(roots, dtype=np.intp),
        depth_limit=doc.get("depth_limit", positive_int),
        feature_dim=feature_dim,
        seed=doc.get("seed", int),
        spec=spec,
        kind=kind,
    )
