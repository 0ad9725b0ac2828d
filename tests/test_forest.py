"""Random forest: entropy/gain arithmetic, training, voting, serialization."""

import dataclasses
import hashlib
import math
import os
import threading
import time
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from goofloc import WeakLearnerSpec, build_goof
from goofloc import forest as forest_module
from goofloc.errors import ConfigError, FormatError, NumericalFailure
from goofloc.fingerprints import KIND_ORDER, FingerprintKind
from goofloc.forest import (
    _COLUMNS,
    PRIMITIVES,
    ClassifierBank,
    Forest,
    _pair_table,
    _split_gain,
    _xlogx,
    deserialize_forest,
    key_seed,
    load_bank,
    predict_matrix,
    save_bank,
    serialize_forest,
    train_bank,
    train_forest,
)
from goofloc.fusion import shannon_entropy

from forest_reference import (
    information_gain,
    node_counts,
    nonfinite_probe,
    predict_forest,
    reference_forest,
    reference_serialize_forest,
    reference_table,
    split_gain,
    train_tree,
    tree_vote,
)


class TestNodeCounts:
    def test_depth_eight(self):
        assert node_counts(8) == (127, 128, 255)

    def test_depth_one_single_leaf(self):
        assert node_counts(1) == (0, 1, 1)

    def test_depth_three(self):
        assert node_counts(3) == (3, 4, 7)

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            node_counts(0)


class TestShannonEntropy:
    def test_pure_set_is_zero(self):
        assert shannon_entropy([3, 3, 3], 5) == 0.0
        assert math.copysign(1.0, shannon_entropy([6, 6, 6], 16)) == 1.0  # not -0.0

    def test_even_two_class_split(self):
        assert shannon_entropy([1, 2, 1, 2], 2) == pytest.approx(1.0)

    def test_hand_computed_mixture(self):
        # {1,1,2,3}: -(0.5*log2(0.5) + 2*0.25*log2(0.25)) = 1.5
        assert shannon_entropy([1, 1, 2, 3], 3) == pytest.approx(1.5)

    def test_empty_set_is_zero(self):
        assert shannon_entropy([], 4) == 0.0

    def test_label_range_enforced(self):
        with pytest.raises(ValueError):
            shannon_entropy([0, 1], 4)


class TestInformationGain:
    def test_pure_split_of_even_parent(self):
        assert information_gain([1, 1, 2, 2], [1, 1], [2, 2]) == pytest.approx(1.0)

    def test_degenerate_split_gains_nothing(self):
        assert information_gain([1, 2, 1, 2], [1, 2, 1, 2], []) == pytest.approx(0.0)

    def test_uninformative_split(self):
        assert information_gain([1, 1, 2, 2], [1, 2], [1, 2]) == pytest.approx(0.0)

    def test_gain_bounded_by_parent_entropy(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            parent = rng.integers(1, 5, size=12)
            cut = int(rng.integers(0, 13))
            perm = rng.permutation(12)
            left, right = parent[perm[:cut]], parent[perm[cut:]]
            gain = information_gain(parent, left, right)
            assert -1e-12 <= gain <= shannon_entropy(parent, 4) + 1e-12

    def test_non_partition_rejected(self):
        with pytest.raises(ValueError):
            information_gain([1, 2, 3], [1, 2], [2])


def two_blob_data(n=40, gap=2.0, seed=0):
    rng = np.random.default_rng(seed)
    x1 = rng.normal(0.0, 0.1, size=(n // 2, 1))
    x2 = rng.normal(gap, 0.1, size=(n // 2, 1))
    x = np.vstack([x1, x2])
    y = np.array([1] * (n // 2) + [2] * (n // 2))
    return x, y


class TestTrainTree:
    def test_one_stump_separates_gapped_classes(self):
        x, y = two_blob_data()
        tree = train_tree(x, y, WeakLearnerSpec(), 2, np.random.default_rng(1))
        pred = np.array([tree_vote(tree, row) for row in x])
        assert (pred == y).all()

    def test_single_sample_is_a_leaf(self):
        tree = train_tree([[0.5]], [3], WeakLearnerSpec(), 8, np.random.default_rng(2), class_count=4)
        assert tree.node_count() == 1
        assert tree_vote(tree, np.array([0.5])) == 3

    def test_four_corner_blobs(self):
        rng = np.random.default_rng(3)
        centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        x = np.vstack([c + rng.normal(0, 0.1, size=(30, 2)) for c in centers])
        y = np.repeat([1, 2, 3, 4], 30)
        tree = train_tree(x, y, WeakLearnerSpec(), 8, np.random.default_rng(4))
        pred = np.array([tree_vote(tree, row) for row in x])
        assert (pred == y).mean() >= 0.99

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((200, 3))
        y = rng.integers(1, 9, size=200)
        for depth in (1, 2, 4, 8):
            tree = train_tree(x, y, WeakLearnerSpec(), depth, np.random.default_rng(6))
            assert tree.depth() <= depth
            assert tree.node_count() <= node_counts(depth)[2]

    def test_leaf_histograms_count_reaching_samples(self):
        x, y = two_blob_data(n=20)
        tree = train_tree(x, y, WeakLearnerSpec(), 4, np.random.default_rng(7))
        assert tree.node_count() > 1
        assert int(tree.histogram[~tree.split].sum()) == 20
        assert not tree.histogram[tree.split].any()  # split rows count nothing

    def test_identical_features_make_a_leaf(self):
        x = np.zeros((6, 2))
        y = np.array([1, 1, 2, 2, 3, 3])
        tree = train_tree(x, y, WeakLearnerSpec(), 8, np.random.default_rng(8))
        assert tree.node_count() == 1
        assert tree_vote(tree, np.zeros(2)) == 1  # tie -> smallest label

    def test_oriented_hyperplane_on_diagonal_classes(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, size=(200, 2))
        y = np.where(x[:, 0] + x[:, 1] > 0, 1, 2)
        spec = WeakLearnerSpec(primitive="oriented_hyperplane_2d", threshold_candidates=20)
        forest = train_forest(x, y, 20, 6, spec, seed=10)
        assert (forest.predict_batch(x) == y).mean() >= 0.97


class TestTrainForest:
    def test_fixed_seed_byte_reproducible(self):
        x, y = two_blob_data(n=30)
        a = train_forest(x, y, 7, 4, WeakLearnerSpec(), seed=99)
        b = train_forest(x, y, 7, 4, WeakLearnerSpec(), seed=99)
        assert serialize_forest(a) == serialize_forest(b)

    def test_different_seeds_differ(self):
        x, y = two_blob_data(n=30)
        a = train_forest(x, y, 7, 4, WeakLearnerSpec(), seed=1)
        b = train_forest(x, y, 7, 4, WeakLearnerSpec(), seed=2)
        assert serialize_forest(a) != serialize_forest(b)

    def test_single_tree_forest_equals_its_tree(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((60, 4))
        y = rng.integers(1, 5, size=60)
        forest = train_forest(x, y, 1, 6, WeakLearnerSpec(), seed=12)
        tree = forest.trees[0]
        single = np.array([tree_vote(tree, row) for row in x])
        assert np.array_equal(forest.predict_batch(x), single)

    def test_bootstrap_preserves_cardinality(self):
        x, y = two_blob_data(n=24)
        forest = train_forest(x, y, 5, 6, WeakLearnerSpec(), seed=13)
        for tree in forest.trees:
            assert int(tree.histogram[~tree.split].sum()) == 24

    def test_batch_and_single_prediction_agree(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((50, 3))
        y = rng.integers(1, 4, size=50)
        forest = train_forest(x, y, 9, 5, WeakLearnerSpec(), seed=15)
        batch = forest.predict_batch(x)
        single = np.array([predict_forest(forest, row) for row in x])
        assert np.array_equal(batch, single)


def table_of(forest) -> dict:
    return {name: getattr(forest, name) for name in (*_COLUMNS, "roots")}


def assert_tables_equal(forest, table):
    for name, column in table_of(forest).items():
        assert np.array_equal(column, table[name]), name


def assert_whole_bootstrap(forest, n):
    """Each tree's leaves count all n bootstrap draws; split rows count none."""
    for tree in forest.trees:
        assert int(tree.histogram[~tree.split].sum()) == n
        assert not tree.histogram[tree.split].any()


EDGE_CASES = [
    pytest.param({"n": 1, "class_count": 3, "leaves": True}, id="one-sample"),
    pytest.param({"labels": 1, "class_count": 1, "leaves": True}, id="one-class"),
    pytest.param({"labels": 3, "class_count": 4, "leaves": True}, id="one-class-of-four"),
    pytest.param({"features": 0.0, "leaves": True}, id="identical-features"),
    pytest.param({"depth_limit": 1, "leaves": True}, id="depth-limit-1"),
    pytest.param({"tree_count": 1}, id="one-tree"),
    pytest.param({"feature_subspace_size": 3}, id="subspace-is-dim"),
    pytest.param({"threshold_candidates": 1}, id="one-threshold"),
]


class TestSplitGain:
    """The trainer's pair-table gain against one lookup per entropy term."""

    @pytest.mark.parametrize("seed", range(4))
    def test_pair_lookup_equals_the_naive_gain_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        t, q, k, m = 6, 5, 7, 4
        parent = rng.integers(0, 9, size=(1, q, k, 1))
        parent[:, rng.random((q, k)) < 0.3] = 0  # classes a node does not hold
        parent[:, q - 2 :, : k // 2] = 0  # classes half the nodes lack
        parent[:, 0] += 1  # no node is empty
        parent[:, :, k - 1] = 0
        parent[:, 0, k - 1] = 40  # one node of a single class
        part = np.minimum(rng.integers(0, 12, size=(t, q, k, m)), parent)
        part[0] = 0  # every sample on one side
        part[-1] = parent
        n = parent.sum(axis=1).ravel()
        xlogx = _xlogx(int(n.max()))
        lookup = _pair_table(np.concatenate([parent.ravel(), n]), xlogx)
        # the trainer's layout: each node's held classes packed, node by node
        held = parent[0, :, :, 0].T > 0  # (k, q)
        packed = part.transpose(0, 2, 1, 3)[:, held]  # (t, S, m)
        owner = np.nonzero(held)[0]
        gain = _split_gain(packed, parent[0, :, :, 0].T[held], owner, n, xlogx, lookup)
        naive = split_gain(part, parent, xlogx)
        assert gain.tobytes() == naive.tobytes()
        assert not gain[0].any() and not gain[-1].any() and not gain[:, k - 1].any()
        assert (gain > 0).any()

    def test_pair_table_holds_each_count_once(self):
        xlogx = _xlogx(9)
        table, at = _pair_table(np.array([3, 9, 3, 0, 5]), xlogx)
        assert table.size == (0 + 1) + (3 + 1) + (5 + 1) + (9 + 1)
        for r in (0, 3, 5, 9):
            for p in range(r + 1):
                assert table[at[r] + p] == xlogx[p] + xlogx[r - p]


class TestLevelWiseTrainer:
    """The level-wise trainer against the recursive reference grower in
    forest_reference.py. Both read the same position-keyed draws, so their
    node tables must be identical, not merely alike."""

    @pytest.mark.parametrize("classes", [1, 2, 6])
    @pytest.mark.parametrize("primitive", list(PRIMITIVES))
    @pytest.mark.parametrize("depth", range(1, 9))
    def test_table_equals_reference(self, depth, primitive, classes):
        rng = np.random.default_rng(100 + depth)
        x = rng.standard_normal((50, 5))
        y = rng.integers(1, classes + 1, size=50)
        spec = WeakLearnerSpec(primitive=primitive)
        forest = train_forest(x, y, 6, depth, spec, seed=depth, class_count=classes)
        assert_tables_equal(forest, reference_forest(x, y, 6, depth, spec, depth, classes))
        assert_whole_bootstrap(forest, 50)

    # one node per chunk, a few nodes, the default, a whole level per chunk
    @pytest.mark.parametrize("cells", [1, 400, forest_module._CHUNK_CELLS, 1 << 20])
    def test_chunking_changes_nothing(self, monkeypatch, cells):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((120, 9))
        y = rng.integers(1, 9, size=120)
        monkeypatch.setattr(forest_module, "_CHUNK_CELLS", cells)
        for primitive in PRIMITIVES:
            spec = WeakLearnerSpec(primitive=primitive)
            forest = train_forest(x, y, 8, 7, spec, seed=3)
            assert_tables_equal(forest, reference_forest(x, y, 8, 7, spec, 3))

    def test_chunk_bound_caps_the_working_set(self, monkeypatch):
        # a psdf-shaped training set: 16 grids x 12 groups, 224 features
        rng = np.random.default_rng(0)
        y = np.repeat(np.arange(1, 17), 12)
        x = rng.standard_normal((16, 224))[y - 1] + rng.standard_normal((192, 224))
        use_cpus(monkeypatch, 1)  # every tree in this process
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            train_forest(x, y, 40, 8, WeakLearnerSpec(), seed=1, class_count=16)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # measured 4.7 MB; building the compare for all t thresholds at once,
        # a (t, pairs, candidates) array, peaks at 8.1 MB under the same bound
        assert peak < 6_000_000

    def test_chunks_hold_only_the_held_class_slots(self, monkeypatch):
        # the psdf-shaped set above, where padding each node of a chunk to
        # its most mixed one scores 120,120 class cells to hold 65,670
        rng = np.random.default_rng(0)
        y = np.repeat(np.arange(1, 17), 12)
        x = rng.standard_normal((16, 224))[y - 1] + rng.standard_normal((192, 224))
        use_cpus(monkeypatch, 1)
        held, slots = [], []
        split_level, split_gain = forest_module._split_level, forest_module._split_gain

        def level_spy(x, rows, label, node, hist, keys, search, *rest):
            held.append(int((hist[search] > 0).sum()))
            return split_level(x, rows, label, node, hist, keys, search, *rest)

        def gain_spy(left, parent, owner, *rest):
            assert left.shape[1] == parent.size == owner.size
            slots.append(parent.size)
            return split_gain(left, parent, owner, *rest)

        monkeypatch.setattr(forest_module, "_split_level", level_spy)
        monkeypatch.setattr(forest_module, "_split_gain", gain_spy)
        train_forest(x, y, 40, 8, WeakLearnerSpec(), seed=1, class_count=16)
        assert sum(slots) == sum(held) > 0

    @pytest.mark.parametrize("thresholds", [1, 10])
    @pytest.mark.parametrize("primitive", list(PRIMITIVES))
    def test_ties_follow_draw_order(self, primitive, thresholds):
        # few distinct values, each row three times and one constant column:
        # many candidate thresholds cut alike and share one gain, so the
        # first maximum in draw order picks the split
        rng = np.random.default_rng(41)
        x = np.repeat(rng.integers(0, 3, size=(16, 5)).astype(float), 3, axis=0)
        x[:, 2] = 1.5
        y = np.repeat(rng.integers(1, 5, size=16), 3)
        spec = WeakLearnerSpec(primitive=primitive, feature_subspace_size=3,
                               threshold_candidates=thresholds)
        forest = train_forest(x, y, 6, 6, spec, seed=5)
        assert_tables_equal(forest, reference_forest(x, y, 6, 6, spec, 5))
        assert forest.split.any()

    @pytest.mark.parametrize("primitive", list(PRIMITIVES))
    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_edge_case(self, case, primitive):
        rng = np.random.default_rng(21)
        n = case.get("n", 30)
        x = np.full((n, 3), case["features"]) if "features" in case else rng.normal(size=(n, 3))
        y = np.full(n, case["labels"]) if "labels" in case else rng.integers(1, 4, size=n)
        spec = WeakLearnerSpec(
            primitive=primitive,
            feature_subspace_size=case.get("feature_subspace_size"),
            threshold_candidates=case.get("threshold_candidates", 10),
        )
        args = (case.get("tree_count", 4), case.get("depth_limit", 5), spec, 9)
        forest = train_forest(x, y, *args, class_count=case.get("class_count"))
        assert_tables_equal(forest, reference_forest(x, y, *args, case.get("class_count")))
        assert forest.tree_count == args[0]
        assert_whole_bootstrap(forest, n)
        if case.get("leaves"):
            assert not forest.split.any()  # every tree is a single leaf

    def test_train_tree_draws_its_root_key_from_rng(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((40, 4))
        y = rng.integers(1, 5, size=40)
        spec = WeakLearnerSpec(primitive="oriented_hyperplane_2d")
        tree = train_tree(x, y, spec, 6, np.random.default_rng(32))
        key = np.random.default_rng(32).integers(0, 2**64, size=1, dtype=np.uint64)
        table = reference_table(x, y, np.arange(40)[None], key, 6, spec, 4)
        for name in _COLUMNS:
            assert np.array_equal(getattr(tree, name), table[name]), name

    @pytest.mark.parametrize("labels", [[1, 1, 1], [1, 2, 1]])
    def test_hyperplane_needs_two_features(self, labels):
        spec = WeakLearnerSpec(primitive="oriented_hyperplane_2d")
        x = [[0.1], [0.2], [0.3]]
        with pytest.raises(ConfigError, match="primitive"):
            train_forest(x, labels, 3, 4, spec, seed=1)
        with pytest.raises(ConfigError, match="primitive"):
            train_tree(x, labels, spec, 4, np.random.default_rng(0))


class TestFlatPredictor:
    """The node-table predictor (all trees, one level per step) against the
    per-sample reference walk, and the table against its file form."""

    @pytest.mark.parametrize("primitive", list(PRIMITIVES))
    @pytest.mark.parametrize("depth", range(1, 9))
    def test_batch_equals_reference_walk(self, primitive, depth):
        rng = np.random.default_rng(depth)
        x = rng.standard_normal((50, 4))
        y = rng.integers(1, 6, size=50)
        forest = train_forest(x, y, 6, depth, WeakLearnerSpec(primitive=primitive), seed=depth)
        back = deserialize_forest(serialize_forest(forest))
        for name in _COLUMNS:
            assert np.array_equal(getattr(back, name), getattr(forest, name)), name
        assert np.array_equal(back.roots, forest.roots)
        probe = np.vstack([x, rng.standard_normal((30, 4))])
        reference = np.array([predict_forest(forest, row) for row in probe])
        assert np.array_equal(forest.predict_batch(probe), reference)
        assert np.array_equal(back.predict_batch(probe), reference)
        assert max(tree.depth() for tree in forest.trees) <= depth

    def test_trees_are_views_of_the_table(self):
        x, y = two_blob_data(n=30)
        forest = train_forest(x, y, 4, 5, WeakLearnerSpec(), seed=3)
        trees = forest.trees
        assert sum(tree.node_count() for tree in trees) == forest.split.size
        for tree in trees:
            assert all(np.shares_memory(getattr(tree, c), getattr(forest, c)) for c in _COLUMNS)

    # sha256 of fixed inputs' forests: the retired GOOF-FOREST 1 text dump
    # pins the trees the keyed draws of training build, and the file pins
    # the GOOF-FOREST 3 format, so that changing either is a deliberate re-pin
    @pytest.mark.parametrize("primitive, text_digest, file_digest", [
        pytest.param(
            "axis_aligned_stump",
            "95b7781a5d9a5708158bfaebf1212a600def592b812943270b19cfc45b40d445",
            "0bfcbf28ca648d5791d59569c95e9014b1617a1ad157305d925ff21080545e4b",
            id="axis_aligned_stump",
        ),
        pytest.param(
            "oriented_hyperplane_2d",
            "8779f5dad725cfc848667cd89883b52826ddddaf10d38c89cd4db52e25149b06",
            "e9f39d5d9ba9523902365e1fbcd6baea1a0220abbb64e504d13030a810744c38",
            id="oriented_hyperplane_2d",
        ),
    ])
    def test_serialized_forest_is_pinned(self, primitive, text_digest, file_digest):
        rng = np.random.default_rng(40)
        x = rng.standard_normal((48, 4))
        y = rng.integers(1, 5, size=48)
        forest = train_forest(x, y, 5, 5, WeakLearnerSpec(primitive=primitive), seed=41,
                              kind=FingerprintKind.FOCF)
        text = reference_serialize_forest(forest).encode()
        assert hashlib.sha256(text).hexdigest() == text_digest
        assert hashlib.sha256(serialize_forest(forest)).hexdigest() == file_digest


def queue_grown_table(rng, tree_count, depth_limit):
    """Random tree shapes laid out tree after tree by a naive queue: each
    row's split flag, left child (-1 at a leaf) and level, and each tree's
    first row. A node's row is its place in the queue, its children the next
    two places free when it splits."""
    split, left, level, roots = [], [], [], []
    for _ in range(tree_count):
        roots.append(len(split))
        queue, free = deque([1]), len(split) + 1
        while queue:
            depth = queue.popleft()
            splits = depth < depth_limit and rng.random() < 0.6
            split.append(splits)
            left.append(free if splits else -1)
            level.append(depth)
            if splits:
                queue.extend([depth + 1, depth + 1])
                free += 2
    return np.array(split), np.array(left), np.array(level), np.array(roots)


def forest_of_shape(split, q=2):
    """A forest whose table has the ``split`` column, every other column
    zero but one count of class 1 at each leaf."""
    n = split.size
    histogram = np.zeros((n, q), dtype=np.int64)
    histogram[~split, 0] = 1
    return Forest(features=np.zeros((n, 1), dtype=np.intp), weights=np.zeros((n, 1)),
                  threshold=np.zeros(n), split=split, histogram=histogram, depth_limit=1,
                  feature_dim=1, seed=0)


class TestLevelOrderLayout:
    """Roots, children and depth derived from the split flags alone, against
    a naive queue's, and the reader's refusal of a table cut off mid-tree."""

    @pytest.mark.parametrize("seed", range(8))
    def test_derived_rows_equal_the_queues(self, seed):
        rng = np.random.default_rng(seed)
        split, left, level, roots = queue_grown_table(rng, int(rng.integers(1, 7)),
                                                      int(rng.integers(1, 8)))
        forest = forest_of_shape(split)
        assert np.array_equal(forest.roots, roots)
        rows = np.arange(split.size)
        down_left, threshold, _, depth, _ = forest._descent
        assert np.array_equal(down_left, np.where(split, left, rows))
        assert np.array_equal(np.isnan(threshold), ~split)
        assert np.array_equal(threshold[split], forest.threshold[split])
        assert depth == level.max()
        ends = [*roots[1:], split.size]
        assert [tree.depth() for tree in forest.trees] == [
            level[a:b].max() for a, b in zip(roots, ends)
        ]
        assert [tree.node_count() for tree in forest.trees] == list(np.diff([*roots, split.size]))
        back = deserialize_forest(serialize_forest(forest))
        assert np.array_equal(back.split, split) and np.array_equal(back.roots, roots)

    @pytest.mark.parametrize("seed", range(4))
    def test_a_table_cut_off_mid_tree_is_refused(self, seed):
        rng = np.random.default_rng(seed)
        split = queue_grown_table(rng, 3, 6)[0]
        forest = forest_of_shape(split)
        whole = {int(end) for end in [*forest.roots[1:], split.size]}
        for cut in range(1, split.size):
            raw = serialize_forest(dataclasses.replace(
                forest, **{name: getattr(forest, name)[:cut] for name in _COLUMNS}
            ))
            if cut in whole:
                assert deserialize_forest(raw).tree_count == sorted(whole).index(cut) + 1
                continue
            with pytest.raises(FormatError, match="is open after the last row") as err:
                deserialize_forest(raw)
            payload = raw.index(b"end-header\n") + len(b"end-header\n")
            assert err.value.byte_offset == payload + cut * 25  # the end of the split column


def forest_of_leaves(leaf_labels, q=10):
    """One single-leaf tree per label: one table row each."""
    t = len(leaf_labels)
    hist = np.zeros((t, q), dtype=int)
    hist[np.arange(t), np.array(leaf_labels) - 1] = 1
    return Forest(
        features=np.zeros((t, 1), dtype=int), weights=np.zeros((t, 1)), threshold=np.zeros(t),
        split=np.zeros(t, dtype=bool), histogram=hist, depth_limit=1,
        feature_dim=2, seed=0,
    )


class TestVoting:
    def test_unanimous(self):
        forest = forest_of_leaves([7, 7, 7])
        assert predict_forest(forest, [0.0, 0.0]) == 7

    def test_majority(self):
        forest = forest_of_leaves([2, 2, 5])
        assert predict_forest(forest, [0.0, 0.0]) == 2

    def test_tie_goes_to_smallest_label(self):
        forest = forest_of_leaves([3, 3, 9, 9])
        assert predict_forest(forest, [0.0, 0.0]) == 3

    def test_dimension_mismatch_rejected(self):
        forest = forest_of_leaves([1])
        with pytest.raises(ValueError):
            predict_forest(forest, [0.0, 0.0, 0.0])


class TestSerialization:
    def test_round_trip_lossless(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((80, 5))
        y = rng.integers(1, 7, size=80)
        forest = train_forest(x, y, 6, 6, WeakLearnerSpec(), seed=17, kind=FingerprintKind.CMF)
        text = serialize_forest(forest)
        back = deserialize_forest(text)
        assert serialize_forest(back) == text
        assert back.kind is FingerprintKind.CMF
        assert back.depth_limit == forest.depth_limit
        assert np.array_equal(back.predict_batch(x), forest.predict_batch(x))

    def test_hyperplane_round_trip(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((40, 3))
        y = rng.integers(1, 4, size=40)
        spec = WeakLearnerSpec(primitive="oriented_hyperplane_2d")
        forest = train_forest(x, y, 4, 4, spec, seed=18)
        back = deserialize_forest(serialize_forest(forest))
        assert serialize_forest(back) == serialize_forest(forest)
        assert np.array_equal(back.predict_batch(x), forest.predict_batch(x))

    def test_corrupt_document_rejected(self):
        with pytest.raises(FormatError, match=r"line \d+: "):
            deserialize_forest(b"GOOF-FOREST 3\nkind=none\ntree_count=1\nend-header\n")
        # header fields that do not convert, or disagree with the trees that
        # follow, and a file of the retired text format
        rng = np.random.default_rng(19)
        forest = train_forest(rng.standard_normal((30, 3)), rng.integers(1, 4, size=30), 2, 3,
                              WeakLearnerSpec(), seed=20)
        raw = serialize_forest(forest)
        for old, new in [
            (b"tree_count=2", b"tree_count=1"),
            (b"tree_count=2", b"tree_count=3"),
            (b"class_count=3", b"class_count=x"),
            (b"primitive=axis_aligned_stump", b"primitive=cone"),
            (b"seed=20\n", b"seed=20\nseed=21\n"),
        ]:
            with pytest.raises(FormatError, match=r"line \d+: "):
                deserialize_forest(raw.replace(old, new, 1))
        with pytest.raises(FormatError, match="line 1: expected 'GOOF-FOREST 3'"):
            deserialize_forest(reference_serialize_forest(forest).encode())

    def test_threshold_candidates_are_bounded(self):
        # a node's m t threshold draws are one array: t stops at 2^16, in
        # a spec and in a file alike
        assert WeakLearnerSpec(threshold_candidates=1 << 16).threshold_candidates == 1 << 16
        with pytest.raises(ConfigError, match=r"threshold_candidates: must be in 1\.\.65536"):
            WeakLearnerSpec(threshold_candidates=(1 << 16) + 1)
        rng = np.random.default_rng(21)
        raw = serialize_forest(train_forest(rng.standard_normal((20, 3)),
                                            rng.integers(1, 3, size=20), 2, 3,
                                            WeakLearnerSpec(), seed=22))
        line = raw[: raw.index(b"threshold_candidates=")].count(b"\n") + 1
        edge = raw.replace(b"threshold_candidates=10", b"threshold_candidates=65536")
        assert deserialize_forest(edge).spec.threshold_candidates == 1 << 16
        with pytest.raises(FormatError, match=f"line {line}: threshold_candidates: must be in"):
            deserialize_forest(raw.replace(b"threshold_candidates=10",
                                           b"threshold_candidates=65537"))


def _codec_forest(case: str) -> Forest:
    rng = np.random.default_rng(60)
    x = rng.standard_normal((40, 4))
    y = rng.integers(1, 5, size=40)
    hyperplane = WeakLearnerSpec(primitive="oriented_hyperplane_2d", feature_subspace_size=3)
    return {
        "stump": lambda: train_forest(x, y, 7, 6, WeakLearnerSpec(), 61, kind=FingerprintKind.SSF),
        "hyperplane": lambda: train_forest(x, y, 7, 6, hyperplane, 62),
        # bootstraps of three samples: some trees are pure, a single leaf
        "single-leaf-trees": lambda: train_forest(x[:3], [1, 1, 2], 12, 4, WeakLearnerSpec(), 63),
        "all-single-leaf": lambda: forest_of_leaves([3, 1, 3]),
        "class_count=1": lambda: train_forest(x, np.ones(40, dtype=int), 3, 5, hyperplane, 64,
                                              class_count=1),
    }[case]()


CODEC_CASES = ["stump", "hyperplane", "single-leaf-trees", "all-single-leaf", "class_count=1"]


def _corrupt(case: str):
    """A corrupt file of the "stump" codec forest and the byte offset its
    error must carry."""
    forest = _codec_forest("stump")
    raw = serialize_forest(forest)
    n, arity = forest.split.size, forest.features.shape[1]
    payload = raw.index(b"end-header\n") + len(b"end-header\n")
    split_at = payload + 16 * n * arity + 8 * n  # after features, weights, threshold
    split, leaf = int(np.flatnonzero(forest.split)[1]), int(np.flatnonzero(~forest.split)[2])

    def edited(**columns):
        return serialize_forest(dataclasses.replace(forest, **columns))

    def flag(row, value):
        return raw[: split_at + row] + bytes([value]) + raw[split_at + row + 1 :]

    def column(name, row, value):
        values = getattr(forest, name).copy()
        values[row] = value
        return {name: values}

    node_count = f"node_count={n}\n".encode()
    more, fewer = (raw.replace(node_count, f"node_count={n + d}\n".encode()) for d in (1, -1))
    return {
        "truncated column": (raw[: payload + 8 * n], payload + 8 * n),
        "truncated file": (raw[:-1], len(raw) - 1),
        "trailing bytes": (raw + bytes(8), len(raw)),
        "node_count too large": (more, len(more)),
        "node_count too small": (fewer, len(fewer) - 8 * (2 * arity + 1 + forest.class_count) - 1),
        "split flag of 2": (flag(split, 2), split_at + split),
        # the last row is a leaf of the last tree, which then stays open
        "last leaf made a split": (flag(n - 1, 1), split_at + n),
        # the payload is whole, but its trees end two more times
        "split made a leaf": (flag(split, 0), None),
        "unfinished tree": (edited(features=forest.features[:-1], weights=forest.weights[:-1],
                                   threshold=forest.threshold[:-1], split=forest.split[:-1],
                                   histogram=forest.histogram[:-1]),
                            payload + (n - 1) * (16 * arity + 9)),  # the end of split
        "leaf feature past feature_dim": (edited(**column("features", leaf, forest.feature_dim)),
                                          payload + 8 * arity * leaf),
        "negative split feature": (edited(**column("features", split, -1)),
                                   payload + 8 * arity * split),
    }[case]


CORRUPTIONS = ["truncated column", "truncated file", "trailing bytes", "node_count too large",
               "node_count too small", "split flag of 2", "last leaf made a split",
               "split made a leaf", "unfinished tree", "leaf feature past feature_dim",
               "negative split feature"]


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_corrupt_payload_rejected_at_its_offset(case):
    raw, offset = _corrupt(case)
    with pytest.raises(FormatError) as err:
        deserialize_forest(raw)
    assert err.value.byte_offset == offset
    if offset is None:  # a header line is at fault: the tree_count line
        line = raw[: raw.index(b"tree_count=")].count(b"\n") + 1
        assert str(err.value) == f"line {line}: tree_count=7, but 9 whole trees follow"


class TestColumnCodec:
    """The node table stored as columns: every table round-trips with its
    dtypes, derived roots and header fields, and the loaded table's text
    dump in forest_reference.py is the trained table's."""

    @pytest.mark.parametrize("case", CODEC_CASES)
    def test_same_document_and_table_as_the_reference(self, case):
        forest = _codec_forest(case)
        raw = serialize_forest(forest)
        back = deserialize_forest(raw)
        for name in (*_COLUMNS, "roots"):
            got, want = getattr(back, name), getattr(forest, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        for name in ("class_count", "tree_count", "depth_limit", "feature_dim", "seed", "spec",
                     "kind"):
            assert getattr(back, name) == getattr(forest, name), name
        assert reference_serialize_forest(back) == reference_serialize_forest(forest)
        assert serialize_forest(back) == raw

    def test_single_leaf_and_class_count_one_cases_hold_what_they_say(self):
        trees = _codec_forest("single-leaf-trees").trees
        leaves = [tree.node_count() == 1 for tree in trees]
        assert any(leaves) and not all(leaves)
        assert _codec_forest("class_count=1").class_count == 1


def assert_walks_like_the_reference(forest, probe):
    reference = np.array([predict_forest(forest, row) for row in probe])
    assert np.array_equal(forest.predict_batch(probe), reference)
    return reference


# an infinite feature times a leaf row's zero weight, or opposite
# infinities in a hyperplane, give NaN projections, as in the reference walk
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestLeanDescent:
    """``predict_batch`` (left children, NaN leaf thresholds, leaf labels,
    realized depth, unit stump weights left out) against the per-sample
    reference walk, on trained and loaded tables and on tables that
    training never makes."""

    @pytest.mark.parametrize("case", CODEC_CASES)
    def test_trained_and_loaded_tables(self, case):
        forest = _codec_forest(case)
        probe = nonfinite_probe(forest.feature_dim, seed=len(case))
        reference = assert_walks_like_the_reference(forest, probe)
        back = deserialize_forest(serialize_forest(forest))
        assert np.array_equal(back.predict_batch(probe), reference)

    def test_stump_weights_other_than_one(self):
        forest = _codec_forest("stump")
        rng = np.random.default_rng(70)
        split = forest.split
        weights = forest.weights.copy()
        weights[split] = rng.choice([-2.0, -0.5, 0.25, 3.0], size=(split.sum(), 1))
        edited = deserialize_forest(serialize_forest(dataclasses.replace(forest, weights=weights)))
        assert not (edited.weights[edited.split] == 1.0).any()
        probe = nonfinite_probe(edited.feature_dim, seed=71)
        reference = assert_walks_like_the_reference(edited, probe)
        # the weights decide: the same trees with unit weights vote otherwise
        assert not np.array_equal(forest.predict_batch(probe), reference)

    def test_unit_split_weights_skip_the_multiply(self):
        forest = _codec_forest("stump")
        weights = forest.weights.copy()
        weights[~forest.split] = np.random.default_rng(73).choice([0.0, -3.0, np.nan, np.inf],
                                                                  size=((~forest.split).sum(), 1))
        edited = dataclasses.replace(forest, weights=weights)
        assert (edited.weights[edited.split] == 1.0).all() and (edited.weights != 1.0).any()
        assert edited._descent[4][0][1] is None
        assert_walks_like_the_reference(edited, nonfinite_probe(edited.feature_dim, seed=74))

    @pytest.mark.parametrize("weight", [-1.0, 0.5, np.nan, -0.0])
    def test_one_split_weight_other_than_one_multiplies(self, weight):
        forest = _codec_forest("stump")
        weights = forest.weights.copy()
        weights[0] = weight  # the first tree's root
        edited = dataclasses.replace(forest, weights=weights)
        assert edited._descent[4][0][1] is not None
        probe = nonfinite_probe(edited.feature_dim, seed=75)
        reference = assert_walks_like_the_reference(edited, probe)
        assert not np.array_equal(forest.predict_batch(probe), reference)

    def test_trees_deeper_than_the_header(self):
        raw = serialize_forest(_codec_forest("stump"))
        loaded = deserialize_forest(raw.replace(b"depth_limit=6\n", b"depth_limit=2\n", 1))
        assert loaded.depth_limit == 2
        assert max(tree.depth() for tree in loaded.trees) == 6
        assert_walks_like_the_reference(loaded, nonfinite_probe(loaded.feature_dim, seed=72))


def children_alive() -> list:
    return [pid for path in Path("/proc/self/task").glob("*/children")
            for pid in path.read_text().split()]


def assert_nothing_left():
    """Neither a child process nor a thread besides the main one."""
    assert children_alive() == []
    assert threading.active_count() == 1


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children this process forks from now on."""
    pids, real_fork = [], os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


class TestTreeGroups:
    """Contiguous groups of trees grown in forked children build the table
    of one process growing every tree."""

    @pytest.mark.parametrize("primitive", list(PRIMITIVES))
    @pytest.mark.parametrize("trees", [1, 2, 3, 40])
    def test_table_does_not_depend_on_the_cpu_count(self, monkeypatch, forks, trees, primitive):
        rng = np.random.default_rng(70 + trees)
        x = rng.standard_normal((40, 5))
        y = rng.integers(1, 5, size=40)
        spec = WeakLearnerSpec(primitive=primitive)
        reference = reference_forest(x, y, trees, 6, spec, trees)
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            forks.clear()
            forest = train_forest(x, y, trees, 6, spec, seed=trees)
            assert len(forks) == min(cpus, trees) - 1
            assert_nothing_left()
            assert_tables_equal(forest, reference)

    @staticmethod
    def failing_groups(monkeypatch, seed, trees, n, fail):
        """Make the group starting at tree i call ``fail(i)`` first."""
        keys = list(forest_module._forest_draws(seed, trees, n)[1])
        grow = forest_module._grow_levels

        def failing(x, y, boots, group_keys, *args):
            if group_keys[0] in keys:  # a group of this forest, not of another family's
                fail(keys.index(group_keys[0]))
            return grow(x, y, boots, group_keys, *args)

        monkeypatch.setattr(forest_module, "_grow_levels", failing)

    def test_a_childs_error_is_raised_here(self, monkeypatch, forks):
        def fail(first):
            if first == 2:
                time.sleep(0.3)  # the first child fails last
            if first:
                raise NumericalFailure(f"group at tree {first}")

        use_cpus(monkeypatch, 3)
        x, y = two_blob_data(n=30)
        self.failing_groups(monkeypatch, 5, 6, 30, fail)
        with pytest.raises(NumericalFailure, match="group at tree 2$"):
            train_forest(x, y, 6, 4, WeakLearnerSpec(), seed=5)
        assert len(forks) == 2
        assert_nothing_left()

    def test_an_error_here_stops_the_children(self, monkeypatch, forks):
        def fail(first):
            if first:
                time.sleep(30)
            else:
                raise NumericalFailure("first group")

        use_cpus(monkeypatch, 3)
        x, y = two_blob_data(n=30)
        self.failing_groups(monkeypatch, 5, 6, 30, fail)
        start = time.perf_counter()
        with pytest.raises(NumericalFailure, match="first group"):
            train_forest(x, y, 6, 4, WeakLearnerSpec(), seed=5)
        assert time.perf_counter() - start < 10
        assert len(forks) == 2
        assert_nothing_left()

    def test_a_child_that_dies_is_an_error(self, monkeypatch, forks):
        use_cpus(monkeypatch, 2)
        x, y = two_blob_data(n=30)
        self.failing_groups(monkeypatch, 5, 6, 30, lambda first: first and os._exit(3))
        with pytest.raises(RuntimeError, match="died"):
            train_forest(x, y, 6, 4, WeakLearnerSpec(), seed=5)
        assert len(forks) == 1
        assert_nothing_left()

    def test_a_bad_argument_fails_before_any_fork(self, monkeypatch, forks):
        use_cpus(monkeypatch, 2)
        x, y = two_blob_data(n=30)
        with pytest.raises(ConfigError, match="feature_subspace"):
            train_forest(x, y, 6, 4, WeakLearnerSpec(feature_subspace_size=3), seed=5)
        assert forks == []

    def test_another_thread_keeps_training_in_process(self, monkeypatch, forks):
        use_cpus(monkeypatch, 2)
        x, y = two_blob_data(n=30)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            alone = train_forest(x, y, 6, 4, WeakLearnerSpec(), seed=5)
        finally:
            release.set()
            thread.join()
        assert forks == []
        assert_tables_equal(alone, reference_forest(x, y, 6, 4, WeakLearnerSpec(), 5))

    @pytest.mark.parametrize("trees", [2, 5])
    def test_a_bank_forks_its_workers_once(self, monkeypatch, forks, trees):
        goof = tiny_goof()
        use_cpus(monkeypatch, 1)
        alone = train_bank(goof, trees, 5, WeakLearnerSpec(), seed=8)
        assert forks == []
        for cpus in (2, 3):
            use_cpus(monkeypatch, cpus)
            forks.clear()
            bank = train_bank(goof, trees, 5, WeakLearnerSpec(), seed=8)
            assert len(forks) == min(cpus, trees) - 1
            assert_nothing_left()
            for kind in KIND_ORDER:
                assert_tables_equal(bank.forests[kind], table_of(alone.forests[kind]))

    @staticmethod
    def failing_family(monkeypatch, goof, family, fail):
        """Make the group starting at tree i of the bank's forest ``family``
        (seeded as ``train_bank(goof, 6, 4, ..., seed=5)`` seeds it) call
        ``fail(i)`` first."""
        n = len(goof.stack(KIND_ORDER[family])[1])
        TestTreeGroups.failing_groups(monkeypatch, key_seed(5, 100 + family), 6, n, fail)

    def test_a_workers_error_on_a_later_family_is_raised(self, monkeypatch, forks):
        def fail(first):
            if first:
                raise NumericalFailure(f"group at tree {first}")

        use_cpus(monkeypatch, 2)
        goof = tiny_goof()
        self.failing_family(monkeypatch, goof, 2, fail)
        with pytest.raises(NumericalFailure, match="group at tree 3$"):
            train_bank(goof, 6, 4, WeakLearnerSpec(), seed=5)
        assert len(forks) == 1
        assert_nothing_left()

    def test_an_error_here_stops_the_banks_workers(self, monkeypatch, forks):
        def fail(first):
            if first:
                time.sleep(30)
            else:
                raise NumericalFailure("first group")

        use_cpus(monkeypatch, 3)
        goof = tiny_goof()
        self.failing_family(monkeypatch, goof, 1, fail)
        start = time.perf_counter()
        with pytest.raises(NumericalFailure, match="first group"):
            train_bank(goof, 6, 4, WeakLearnerSpec(), seed=5)
        assert time.perf_counter() - start < 10
        assert len(forks) == 2
        assert_nothing_left()

    def test_a_bank_worker_that_dies_is_an_error(self, monkeypatch, forks):
        use_cpus(monkeypatch, 2)
        goof = tiny_goof()
        self.failing_family(monkeypatch, goof, 4, lambda first: first and os._exit(3))
        with pytest.raises(RuntimeError, match="died"):
            train_bank(goof, 6, 4, WeakLearnerSpec(), seed=5)
        assert len(forks) == 1
        assert_nothing_left()

    @pytest.mark.parametrize("args, error", [
        # 4 features fit CMF (9 features) but not RSSF, the second family (3)
        (dict(spec=WeakLearnerSpec(feature_subspace_size=4)), "feature_subspace"),
        (dict(depth_limit=0), "depth_limit"),
        (dict(tree_count=0), "tree_count"),
        (dict(class_count=1), "labels must lie"),
    ])
    def test_a_bad_argument_fails_before_the_bank_forks(self, monkeypatch, forks, args, error):
        use_cpus(monkeypatch, 2)
        args = dict(tree_count=6, depth_limit=4, spec=WeakLearnerSpec(), seed=5) | args
        with pytest.raises((ConfigError, ValueError), match=error):
            train_bank(tiny_goof(), **args)
        assert forks == []


def tiny_goof(q=2, length=64, seed=0):
    from goofloc.channel import SnapshotBlock

    rng = np.random.default_rng(seed)
    blocks = []
    for grid in range(1, q + 1):
        base = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        data = base * (rng.standard_normal((1, length)) + 1j * rng.standard_normal((1, length)))
        data += 0.05 * (rng.standard_normal((3, length)) + 1j * rng.standard_normal((3, length)))
        blocks.append(SnapshotBlock(data=data, grid_label=grid))
    return build_goof(blocks, group_count=8)


class TestBank:
    def test_prediction_matrix_shape(self):
        goof = tiny_goof()
        train, test = goof.split(6, 2)
        bank = train_bank(train, tree_count=5, depth_limit=4, spec=WeakLearnerSpec(), seed=20)
        samples = {kind: test.features(kind, 1) for kind in KIND_ORDER}
        pm = predict_matrix(bank, samples, true_label=1)
        assert pm.matrix.shape == (2, 6)
        assert ((pm.matrix >= 1) & (pm.matrix <= 2)).all()

    def test_memorization_on_training_samples(self):
        goof = tiny_goof()
        bank = train_bank(goof, tree_count=9, depth_limit=8, spec=WeakLearnerSpec(), seed=21)
        for grid in (1, 2):
            samples = {kind: goof.features(kind, grid) for kind in KIND_ORDER}
            pm = predict_matrix(bank, samples, true_label=grid)
            assert (pm.matrix == grid).all()

    def test_single_sample_matrix_shape(self):
        goof = tiny_goof()
        bank = train_bank(goof, tree_count=3, depth_limit=3, spec=WeakLearnerSpec(), seed=24)
        samples = {kind: goof.features(kind, 1)[:1] for kind in KIND_ORDER}
        pm = predict_matrix(bank, samples, true_label=1)
        assert pm.matrix.shape == (1, 6)

    def test_ragged_samples_rejected(self):
        goof = tiny_goof()
        bank = train_bank(goof, tree_count=3, depth_limit=3, spec=WeakLearnerSpec(), seed=22)
        samples = {kind: goof.features(kind, 1) for kind in KIND_ORDER}
        samples[KIND_ORDER[0]] = samples[KIND_ORDER[0]][:-1]
        with pytest.raises(ValueError):
            predict_matrix(bank, samples)

    def test_bank_round_trip(self, tmp_path):
        goof = tiny_goof()
        bank = train_bank(goof, tree_count=3, depth_limit=4, spec=WeakLearnerSpec(), seed=23)
        save_bank(bank, tmp_path / "bank")
        back = load_bank(tmp_path / "bank")
        for kind in KIND_ORDER:
            assert serialize_forest(back.forests[kind]) == serialize_forest(bank.forests[kind])

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError):
            ClassifierBank(forests={})
