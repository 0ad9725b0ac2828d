"""Random-forest classifier bank, implemented from scratch.

One forest is trained per fingerprint family. Trees grow by drawing a
random feature subspace and random thresholds at every node and keeping
the candidate with the largest Shannon information gain; leaves store
class histograms. Prediction is majority vote over the trees, ties broken
toward the smallest grid label.

A forest is one node table: flat arrays over every tree's nodes in
pre-order, tree after tree. A split row's left child is the next row and
its right child lies ``right`` rows further on; a leaf row has
``right == 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError
from .fingerprints import KIND_ORDER, FingerprintKind, Goof
from .textio import (
    comma_list, convert, one_of, positive_int, read_artifact, read_document, write_document,
)

# split primitive -> feature indices (and weights) per split
PRIMITIVES = {"axis_aligned_stump": 1, "oriented_hyperplane_2d": 2}


def node_counts(depth_limit: int) -> tuple[int, int, int]:
    """(internal, leaf, total) node counts of a full binary tree with
    ``depth_limit`` levels."""
    if depth_limit < 1:
        raise ValueError("depth_limit must be >= 1")
    leaves = 2 ** (depth_limit - 1)
    return leaves - 1, leaves, 2**depth_limit - 1


def shannon_entropy(labels, class_count: int) -> float:
    """Entropy in bits of the empirical label distribution; empty -> 0."""
    arr = np.asarray(labels, dtype=int).ravel()
    if arr.size == 0:
        return 0.0
    if arr.min() < 1 or arr.max() > class_count:
        raise ValueError("labels must lie in 1..class_count")
    counts = np.bincount(arr, minlength=class_count + 1)[1:]
    p = counts[counts > 0] / arr.size
    return float(-(p * np.log2(p)).sum())


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


@dataclass
class WeakLearnerSpec:
    """Per-node split primitive and its randomization budget."""

    primitive: str = "axis_aligned_stump"
    feature_subspace_size: int | None = None  # None -> ceil(sqrt(dim))
    threshold_candidates: int = 10

    def __post_init__(self):
        if self.primitive not in PRIMITIVES:
            raise ConfigError("primitive", f"unknown primitive {self.primitive!r}")
        if self.threshold_candidates < 1:
            raise ConfigError("threshold_candidates", "must be >= 1")

    def subspace(self, dim: int) -> int:
        m = self.feature_subspace_size
        if m is None:
            m = math.ceil(math.sqrt(dim))
        if not 1 <= m <= dim:
            raise ConfigError("feature_subspace", f"size {m} outside 1..{dim}")
        return m


_COLUMNS = ("features", "weights", "threshold", "right", "histogram")


@dataclass
class Tree:
    """The rows of one tree in a node table (views into the forest's)."""

    features: np.ndarray  # (n, arity) feature indices of a split row
    weights: np.ndarray  # (n, arity) projection weights of a split row
    threshold: np.ndarray  # (n,) samples with projection >= threshold go right
    right: np.ndarray  # (n,) rows from a split to its right child; 0 at a leaf
    histogram: np.ndarray  # (n, class_count) class counts of a leaf row

    @property
    def is_leaf(self) -> bool:
        """True when the whole tree is one leaf."""
        return not self.right[0]

    def node_count(self) -> int:
        return len(self.right)

    def depth(self) -> int:
        """Levels on the longest root-to-leaf path."""
        level, rows = 0, np.zeros(1, dtype=int)
        while rows.size:
            level += 1
            step = self.right[rows]
            rows = rows[step > 0]
            rows = np.concatenate([rows + 1, rows + step[step > 0]])
        return level


def _table(rows: list, class_count: int) -> dict:
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


def _hist_entropy(hist: np.ndarray, totals: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        p = hist / totals[..., None]
        terms = np.where(hist > 0, p * np.log2(p), 0.0)
    return -terms.sum(axis=-1)


def _candidate_projections(x_node, spec: WeakLearnerSpec, rng):
    """Projections, (m, arity) feature indices and weights of m random
    candidates."""
    dim = x_node.shape[1]
    m = spec.subspace(dim)
    if spec.primitive == "axis_aligned_stump":
        feats = rng.choice(dim, size=m, replace=False)
        return x_node[:, feats], feats[:, None], np.ones((m, 1))
    if dim < 2:
        raise ValueError("oriented_hyperplane_2d needs at least 2 features")
    feats = np.array([rng.choice(dim, size=2, replace=False) for _ in range(m)])
    angles = rng.uniform(0.0, 2.0 * math.pi, m)
    weights = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return (x_node[:, feats] * weights).sum(axis=2), feats, weights


def _best_split(x_node, onehot_node, spec: WeakLearnerSpec, rng):
    """Highest-gain candidate split, or None if no candidate improves.

    Candidates that leave a child empty count as gain 0 and are never
    chosen over a real split.
    """
    n = x_node.shape[0]
    proj, feats, weights = _candidate_projections(x_node, spec, rng)
    lo, hi = proj.min(axis=0), proj.max(axis=0)
    thresholds = rng.uniform(lo, hi, size=(spec.threshold_candidates, len(feats))).T
    go_right = proj[:, :, None] >= thresholds[None, :, :]  # (n, m, t)
    right_hist = np.tensordot(go_right.astype(float), onehot_node, axes=([0], [0]))
    parent_hist = onehot_node.sum(axis=0)
    left_hist = parent_hist[None, None, :] - right_hist
    n_right = right_hist.sum(axis=-1)
    n_left = n - n_right
    h_parent = _hist_entropy(parent_hist, np.array(float(n)))
    child_cost = (
        n_left * _hist_entropy(left_hist, n_left) + n_right * _hist_entropy(right_hist, n_right)
    ) / n
    gain = h_parent - child_cost
    gain = np.where((n_left > 0) & (n_right > 0), gain, 0.0)
    best = np.unravel_index(np.argmax(gain), gain.shape)
    if gain[best] <= 1e-12:
        return None
    ci, ti = best
    return feats[ci], weights[ci], float(thresholds[ci, ti]), go_right[:, ci, ti]


def _grow(x, onehot, labels, idx, depth, depth_limit, spec, rng, rows) -> None:
    """Append the pre-order rows of the subtree over samples ``idx``."""
    hist = np.bincount(labels[idx], minlength=onehot.shape[1] + 1)[1:]
    found = None
    if depth < depth_limit and idx.size >= 2 and (hist > 0).sum() > 1:
        found = _best_split(x[idx], onehot[idx], spec, rng)
    if found is None:
        arity = PRIMITIVES[spec.primitive]
        rows.append([(0,) * arity, (0.0,) * arity, 0.0, 0, hist])
        return
    feats, w, threshold, go_right = found
    at = len(rows)
    rows.append([feats, w, threshold, 0, None])
    _grow(x, onehot, labels, idx[~go_right], depth + 1, depth_limit, spec, rng, rows)
    rows[at][3] = len(rows) - at
    _grow(x, onehot, labels, idx[go_right], depth + 1, depth_limit, spec, rng, rows)


def train_tree(
    samples,
    labels,
    spec: WeakLearnerSpec,
    depth_limit: int,
    rng: np.random.Generator,
    class_count: int | None = None,
) -> Tree:
    """Grow one decision tree; path lengths never exceed ``depth_limit``.

    Growth stops early on purity or when fewer than two samples remain;
    the full-tree node count from :func:`node_counts` stays the hard cap.
    """
    x = np.asarray(samples, dtype=float)
    y = np.asarray(labels, dtype=int)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[0] != y.shape[0]:
        raise ValueError("need >= 1 sample with one label per sample")
    if depth_limit < 1:
        raise ConfigError("depth_limit", "must be >= 1")
    q = int(y.max()) if class_count is None else class_count
    if y.min() < 1 or y.max() > q:
        raise ValueError("labels must lie in 1..class_count")
    onehot = np.zeros((x.shape[0], q))
    onehot[np.arange(x.shape[0]), y - 1] = 1.0
    rows = []
    _grow(x, onehot, y, np.arange(x.shape[0]), 1, depth_limit, spec, rng, rows)
    return Tree(**_table(rows, q))


@dataclass
class Forest:
    """A trained forest for one fingerprint family: one node table with
    the columns of :class:`Tree` over all trees, and each tree's first row."""

    features: np.ndarray
    weights: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    histogram: np.ndarray
    roots: np.ndarray  # (T,) row of each tree's root
    depth_limit: int
    feature_dim: int
    seed: int
    spec: WeakLearnerSpec = field(default_factory=WeakLearnerSpec)
    kind: FingerprintKind | None = None

    @property
    def class_count(self) -> int:
        return self.histogram.shape[1]

    @property
    def tree_count(self) -> int:
        return len(self.roots)

    @property
    def trees(self) -> list[Tree]:
        ends = [*self.roots[1:], len(self.right)]
        columns = [getattr(self, name) for name in _COLUMNS]
        return [Tree(*(c[a:b] for c in columns)) for a, b in zip(self.roots, ends)]

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        """Majority-vote labels for an (n, dim) sample matrix. All trees
        descend together: an (n, T) matrix of rows moves one level per
        step until every entry is a leaf (at most ``depth_limit - 1``)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.feature_dim:
            raise ValueError(f"expected (n, {self.feature_dim}) features")
        n, q = x.shape[0], self.class_count
        sample = np.arange(n)[:, None]
        node = np.tile(self.roots, (n, 1))
        while (step := self.right[node]).any():
            proj = (x[sample[..., None], self.features[node]] * self.weights[node]).sum(axis=2)
            node += np.where(proj >= self.threshold[node], step, step > 0)
        labels = self.histogram[node].argmax(axis=2)  # 0-based
        votes = np.bincount((labels + q * sample).ravel(), minlength=n * q).reshape(n, q)
        return votes.argmax(axis=1) + 1  # first max: smallest label wins ties


def _tree_vote(tree: Tree, x: np.ndarray) -> int:
    """Reference walk of one sample down one tree, a row at a time."""
    row = 0
    while tree.right[row]:
        proj = sum(w * x[f] for f, w in zip(tree.features[row], tree.weights[row]))
        row += int(tree.right[row]) if proj >= tree.threshold[row] else 1
    return int(tree.histogram[row].argmax()) + 1


def train_forest(
    samples,
    labels,
    tree_count: int,
    depth_limit: int,
    spec: WeakLearnerSpec,
    seed: int,
    class_count: int | None = None,
    kind: FingerprintKind | None = None,
) -> Forest:
    """Train ``tree_count`` trees on bootstrap resamples.

    Each tree gets its own rng stream derived from ``seed``, so training
    is a deterministic function of (data, hyperparameters, seed).
    """
    x = np.asarray(samples, dtype=float)
    y = np.asarray(labels, dtype=int)
    if tree_count < 1:
        raise ConfigError("tree_count", "must be >= 1")
    q = int(y.max()) if class_count is None else class_count
    n = x.shape[0]
    trees = []
    for child in np.random.SeedSequence(seed).spawn(tree_count):
        rng = np.random.default_rng(child)
        boot = rng.integers(0, n, size=n)
        trees.append(train_tree(x[boot], y[boot], spec, depth_limit, rng, class_count=q))
    sizes = [tree.node_count() for tree in trees]
    return Forest(
        **{name: np.concatenate([getattr(t, name) for t in trees]) for name in _COLUMNS},
        roots=np.cumsum([0, *sizes[:-1]]),
        depth_limit=depth_limit,
        feature_dim=x.shape[1],
        seed=seed,
        spec=spec,
        kind=kind,
    )


def predict_forest(forest: Forest, features) -> int:
    """Grid label for a single feature vector (majority vote)."""
    x = np.asarray(features, dtype=float).ravel()
    if x.shape[0] != forest.feature_dim:
        raise ValueError(f"expected {forest.feature_dim} features, got {x.shape[0]}")
    votes = np.bincount(
        [_tree_vote(tree, x) for tree in forest.trees], minlength=forest.class_count + 1
    )[1:]
    return int(votes.argmax()) + 1


@dataclass
class PredictionMatrix:
    """Z test samples by H classifiers of predicted grid labels."""

    matrix: np.ndarray  # (Z, H) int
    true_label: int | None = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=int)
        if self.matrix.ndim != 2:
            raise ValueError("prediction matrix must be 2-D")


@dataclass
class ClassifierBank:
    """One trained forest per fingerprint kind, in the fixed kind order."""

    forests: dict  # FingerprintKind -> Forest

    def __post_init__(self):
        missing = [k.value for k in KIND_ORDER if k not in self.forests]
        if missing:
            raise ValueError(f"bank is missing forests for: {', '.join(missing)}")


def key_seed(*key: int) -> int:
    """One integer seed drawn from the seed sequence of ``key``."""
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def train_bank(
    goof: Goof,
    tree_count: int,
    depth_limit: int,
    spec: WeakLearnerSpec,
    seed: int | tuple[int, ...],
    class_count: int | None = None,
) -> ClassifierBank:
    """Train the whole bank from a training fingerprint store.

    ``seed`` is an int or a key tuple of ints (such as a sweep cell key);
    forest i is seeded from ``(*key, 100 + i)``.
    """
    key = tuple(seed) if isinstance(seed, tuple) else (seed,)
    forests = {}
    for i, kind in enumerate(KIND_ORDER):
        x, y = goof.stack(kind)
        forests[kind] = train_forest(
            x, y, tree_count, depth_limit, spec, key_seed(*key, 100 + i),
            class_count=class_count, kind=kind,
        )
    return ClassifierBank(forests=forests)


def predict_matrix(bank: ClassifierBank, samples_by_kind, true_label=None) -> PredictionMatrix:
    """Prediction matrix B for aligned per-kind test samples.

    ``samples_by_kind`` maps every kind to an equal-length sequence of
    feature vectors; row z collects each classifier's label for sample z.
    """
    xs = [np.asarray(samples_by_kind[kind], dtype=float) for kind in KIND_ORDER]
    if len({len(x) for x in xs}) != 1:
        raise ValueError("every kind must supply the same number of test samples")
    if len(xs[0]) < 1:
        raise ValueError("need at least one test sample")
    cols = [bank.forests[kind].predict_batch(x) for kind, x in zip(KIND_ORDER, xs)]
    return PredictionMatrix(matrix=np.stack(cols, axis=1), true_label=true_label)


FOREST_MAGIC = "GOOF-FOREST"
FOREST_VERSION = 1


def serialize_forest(forest: Forest) -> str:
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


def deserialize_forest(raw) -> Forest:
    """Read a :func:`serialize_forest` document (bytes or str). Records
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
        **_table(rows, class_count),
        roots=np.array(roots, dtype=np.intp),
        depth_limit=doc.get("depth_limit", positive_int),
        feature_dim=feature_dim,
        seed=doc.get("seed", int),
        spec=spec,
        kind=kind,
    )


def save_bank(bank: ClassifierBank, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for kind in KIND_ORDER:
        path = directory / f"forest_{kind.value}.txt"
        path.write_text(serialize_forest(bank.forests[kind]), encoding="utf-8")


def load_bank(directory) -> ClassifierBank:
    forests = {}
    for kind in KIND_ORDER:
        path = Path(directory) / f"forest_{kind.value}.txt"
        forests[kind] = deserialize_forest(read_artifact(path))
    return ClassifierBank(forests=forests)
