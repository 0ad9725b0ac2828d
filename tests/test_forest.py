"""Random forest: entropy/gain arithmetic, training, voting, serialization."""

import numpy as np
import pytest

from goofloc import (
    ClassifierBank,
    FingerprintKind,
    WeakLearnerSpec,
    build_goof,
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
from goofloc.fingerprints import KIND_ORDER
from goofloc.forest import Forest, TreeNode, _tree_vote


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
        pred = np.array([_tree_vote(tree, row) for row in x])
        assert (pred == y).all()

    def test_single_sample_is_a_leaf(self):
        tree = train_tree([[0.5]], [3], WeakLearnerSpec(), 8, np.random.default_rng(2), class_count=4)
        assert tree.is_leaf
        assert _tree_vote(tree, np.array([0.5])) == 3

    def test_four_corner_blobs(self):
        rng = np.random.default_rng(3)
        centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        x = np.vstack([c + rng.normal(0, 0.1, size=(30, 2)) for c in centers])
        y = np.repeat([1, 2, 3, 4], 30)
        tree = train_tree(x, y, WeakLearnerSpec(), 8, np.random.default_rng(4))
        pred = np.array([_tree_vote(tree, row) for row in x])
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

        def total(node):
            if node.is_leaf:
                return int(node.histogram.sum())
            return total(node.left) + total(node.right)

        assert total(tree) == 20

    def test_identical_features_make_a_leaf(self):
        x = np.zeros((6, 2))
        y = np.array([1, 1, 2, 2, 3, 3])
        tree = train_tree(x, y, WeakLearnerSpec(), 8, np.random.default_rng(8))
        assert tree.is_leaf
        assert _tree_vote(tree, np.zeros(2)) == 1  # tie -> smallest label

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
        single = np.array([_tree_vote(tree, row) for row in x])
        assert np.array_equal(forest.predict_batch(x), single)

    def test_bootstrap_preserves_cardinality(self):
        x, y = two_blob_data(n=24)
        forest = train_forest(x, y, 5, 6, WeakLearnerSpec(), seed=13)

        def total(node):
            if node.is_leaf:
                return int(node.histogram.sum())
            return total(node.left) + total(node.right)

        for tree in forest.trees:
            assert total(tree) == 24

    def test_batch_and_single_prediction_agree(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((50, 3))
        y = rng.integers(1, 4, size=50)
        forest = train_forest(x, y, 9, 5, WeakLearnerSpec(), seed=15)
        batch = forest.predict_batch(x)
        single = np.array([predict_forest(forest, row) for row in x])
        assert np.array_equal(batch, single)


class TestVoting:
    def forest_of_leaves(self, leaf_labels, q=10):
        trees = []
        for label in leaf_labels:
            hist = np.zeros(q, dtype=int)
            hist[label - 1] = 1
            trees.append(TreeNode(histogram=hist))
        return Forest(trees=trees, depth_limit=1, class_count=q, feature_dim=2, seed=0)

    def test_unanimous(self):
        forest = self.forest_of_leaves([7, 7, 7])
        assert predict_forest(forest, [0.0, 0.0]) == 7

    def test_majority(self):
        forest = self.forest_of_leaves([2, 2, 5])
        assert predict_forest(forest, [0.0, 0.0]) == 2

    def test_tie_goes_to_smallest_label(self):
        forest = self.forest_of_leaves([3, 3, 9, 9])
        assert predict_forest(forest, [0.0, 0.0]) == 3

    def test_dimension_mismatch_rejected(self):
        forest = self.forest_of_leaves([1])
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
        from goofloc import FormatError

        with pytest.raises(FormatError):
            deserialize_forest("GOOF-FOREST 1\nkind=none\ntree_count=1\n")
        # records that disagree with the header: leaf width is class_count,
        # split features index 0..feature_dim-1 with one weight each
        rng = np.random.default_rng(19)
        forest = train_forest(rng.standard_normal((30, 3)), rng.integers(1, 4, size=30), 2, 3,
                              WeakLearnerSpec(), seed=20)
        text = serialize_forest(forest)
        split = next(ln for ln in text.splitlines() if ln.startswith("split "))
        _, idx, w, thr = split.split()
        leaf = next(ln for ln in text.splitlines() if ln.startswith("leaf "))
        for old, new in [
            (leaf, leaf + " 0"),
            (split, f"split 3 {w} {thr}"),
            (split, f"split {idx} {w},{w} {thr}"),
            ("tree_count=2", "tree_count=1"),
            ("class_count=3", "class_count=x"),
        ]:
            with pytest.raises(FormatError):
                deserialize_forest(text.replace(old, new, 1))


def tiny_goof(q=2, length=64, seed=0):
    from goofloc import SnapshotBlock

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
