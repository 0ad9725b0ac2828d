"""Sliding-window fusion: entropies, selection, constrained mode, SWIM."""

import math

import numpy as np
import pytest

from goofloc import prediction_probability, swim
from goofloc.errors import ConfigError
from goofloc.fingerprints import KIND_ORDER
from goofloc.fusion import (
    FusionResult, full_matrix_mode, fusion_report_rows, shannon_entropy,
)

from fusion_reference import constrained_mode, reference_swim, select_classifier


class TestEntropies:
    def test_constant_predictions(self):
        assert shannon_entropy([4] * 10, 64) == 0.0

    def test_uniform_over_64_grids(self):
        assert shannon_entropy(list(range(1, 65)), 64) == pytest.approx(6.0)

    def test_two_even_labels(self):
        assert shannon_entropy([1, 1, 2, 2], 64) == pytest.approx(1.0)

    # the entropy of one sample's row of B (the six classifiers' votes)

    def test_sample_entropy_all_agree(self):
        assert shannon_entropy([5, 5, 5, 5, 5, 5], 64) == 0.0

    def test_sample_entropy_all_disagree(self):
        assert shannon_entropy([1, 2, 3, 4, 5, 6], 64) == pytest.approx(math.log2(6))

    def test_sample_entropy_hand_histogram(self):
        # four of one label, two singletons over six classifiers
        row = [9, 3, 7, 9, 9, 9]
        expected = -(4 / 6 * math.log2(4 / 6) + 2 * (1 / 6) * math.log2(1 / 6))
        assert shannon_entropy(row, 64) == pytest.approx(expected)


class TestSelectClassifier:
    def test_constant_column_wins(self):
        window = np.array([[1, 2, 5], [3, 2, 6], [4, 2, 7]])
        assert select_classifier(window) == 1

    def test_all_constant_tie_goes_first(self):
        window = np.array([[4, 5, 6], [4, 5, 6]])
        assert select_classifier(window) == 0

    def test_ordering_by_entropy(self):
        col0 = [1, 2, 3, 1]  # entropy 1.5
        col1 = [2, 2, 2, 2]  # entropy 0
        col2 = [1, 1, 2, 2]  # entropy 1.0
        window = np.stack([col0, col1, col2], axis=1)
        assert select_classifier(window) == 1


class TestConstrainedMode:
    def test_plain_mode_when_mode_is_in_selected(self):
        window = np.array([[5, 5], [5, 7], [5, 7]])
        assert constrained_mode(window, [5, 5, 5]) == 5

    def test_constraint_filters_out_global_tie(self):
        window = np.array([[3, 9], [3, 9], [3, 9]])
        assert constrained_mode(window, [3, 3, 3]) == 3

    def test_fallback_to_best_feasible(self):
        # unconstrained mode is 9, but 9 never occurs in the selected column
        window = np.array([[1, 9, 9], [2, 9, 9], [1, 9, 9]])
        assert constrained_mode(window, [1, 2, 1]) == 1

    def test_tie_goes_to_smallest_label(self):
        window = np.array([[2, 8], [8, 2]])
        assert constrained_mode(window, [2, 8]) == 2


class TestSwim:
    def test_emits_u_predictions(self):
        rng = np.random.default_rng(0)
        b = rng.integers(1, 17, size=(40, 6))
        assert swim(b, 5).prediction_count == 36
        assert swim(b, 10).prediction_count == 31
        assert swim(b, 40).prediction_count == 1

    def test_constant_matrix(self):
        b = np.full((12, 6), 9)
        result = swim(b, 4, class_count=16)
        assert (result.labels == 9).all()
        assert (result.selected == 0).all()  # every column has zero entropy

    def test_membership_constraint(self):
        # every fused label occurs in the selected classifier's own window
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = int(rng.integers(5, 30))
            h = int(rng.integers(2, 7))
            w = int(rng.integers(1, z + 1))
            b = rng.integers(1, 11, size=(z, h))
            result = swim(b, w)
            for u, (label, g) in enumerate(zip(result.labels, result.selected)):
                assert label in b[u : u + w, g]

    def test_window_of_z_equals_full_matrix_estimator(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            b = rng.integers(1, 9, size=(15, 6))
            assert swim(b, 15).labels[0] == full_matrix_mode(b)

    def test_column_permutation_leaves_labels_unchanged(self):
        rng = np.random.default_rng(3)
        b = np.stack(
            [
                np.full(12, 4),  # entropy 0
                rng.integers(1, 3, size=12),
                rng.integers(1, 9, size=12),
            ],
            axis=1,
        )
        base = swim(b, 5)
        perm = [2, 0, 1]
        permuted = swim(b[:, perm], 5)
        assert np.array_equal(base.labels, permuted.labels)
        assert np.array_equal(np.array(perm)[permuted.selected], base.selected)

    def test_constant_correct_column_forces_rho_one(self):
        # one classifier is constant-correct; the others never go constant
        # inside a window, so the correct column is the unique entropy
        # minimizer and its label is always feasible
        rng = np.random.default_rng(4)
        q, z, h, true = 16, 20, 6, 7
        for w in (5, 6, 10):
            for _ in range(20):
                b = np.empty((z, h), dtype=int)
                b[:, 0] = rng.integers(1, q + 1, size=z)
                wrong = np.arange(z) % 2 + 1  # alternates 1,2: never constant in w>=2
                b[:, 1] = wrong
                for col in range(3, h):
                    b[:, col] = rng.integers(1, q + 1, size=z)
                b[:, 2] = true
                # enforce non-constant random columns within every window
                for col in (0, 3, 4, 5):
                    for u in range(z - w + 1):
                        if len(set(b[u : u + w, col])) == 1:
                            b[u, col] = b[u, col] % q + 1
                result = swim(b, w, class_count=q)
                assert prediction_probability(result.labels, true) == 1.0

    def test_bad_window_rejected(self):
        b = np.ones((4, 2), dtype=int)
        with pytest.raises(ValueError):
            swim(b, 5)
        with pytest.raises(ValueError):
            swim(b, 0)


def seeded_matrices(seed=5, count=400):
    """(matrix, window, class count) triples: Z 1-40, H 1-6, q 1-64, with
    constant columns and columns that relabel another one (the same count
    multiset in another label order, so their entropies tie or differ in
    the last bit only)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        z, h, q = int(rng.integers(1, 41)), int(rng.integers(1, 7)), int(rng.integers(1, 65))
        used = int(rng.integers(1, q + 1))  # labels this matrix draws from
        mat = rng.integers(1, used + 1, size=(z, h))
        for col in range(h):
            roll = rng.random()
            if roll < 0.15:
                mat[:, col] = rng.integers(1, used + 1)
            elif roll < 0.45 and col:
                relabel = rng.permutation(q) + 1
                mat[:, col] = relabel[mat[:, int(rng.integers(col))] - 1]
        window = int(rng.integers(1, z + 1))
        yield mat, window, (None if rng.random() < 0.25 else q)


class TestSwimReference:
    """The batched SWIM against the per-window loop it replaces."""

    def test_equals_the_per_window_loop(self):
        wide = 0
        for mat, window, q in seeded_matrices():
            result = swim(mat, window, class_count=q)
            labels, selected = reference_swim(mat, window, q)
            assert np.array_equal(result.labels, labels)
            assert np.array_equal(result.selected, selected)
            assert result.labels.dtype == labels.dtype
            wide += any(len(np.unique(mat[u : u + window])) > 8
                        for u in range(len(mat) - window + 1))
        assert wide > 50  # many windows hold more than eight distinct labels

    def test_ties_between_relabelled_columns(self):
        # every column is one count multiset in another label order
        rng = np.random.default_rng(6)
        for _ in range(200):
            base = rng.integers(1, 13, size=int(rng.integers(9, 31)))
            mat = np.stack([(rng.permutation(12) + 1)[base - 1] for _ in range(6)], axis=1)
            window = int(rng.integers(1, len(mat) + 1))
            result = swim(mat, window, class_count=12)
            labels, selected = reference_swim(mat, window, 12)
            assert np.array_equal(result.labels, labels)
            assert np.array_equal(result.selected, selected)

    def test_large_label_is_counted_like_a_small_one(self):
        # raising a matrix's largest label to 10**15 keeps the label order,
        # so SWIM and the per-window loop select the same columns and fuse
        # the same labels
        assert select_classifier(np.array([[1, 2], [10**15, 2]])) == select_classifier(
            np.array([[1, 2], [3, 2]]))
        for mat, window, _ in seeded_matrices(seed=8, count=100):
            big = np.where(mat == mat.max(), 10**15, mat)
            small, result = swim(mat, window), swim(big, window)
            assert np.array_equal(result.selected, small.selected)
            raised = np.where(small.labels == mat.max(), 10**15, small.labels)
            assert np.array_equal(result.labels, raised)
            assert swim(big, window, class_count=10**15).labels.tolist() == raised.tolist()
            labels, selected = reference_swim(big, window)
            assert np.array_equal(labels, raised) and np.array_equal(selected, small.selected)

    def test_same_errors_as_the_per_window_loop(self):
        b = np.ones((4, 2), dtype=int)
        for window in (0, 5, -1):
            with pytest.raises(ConfigError, match="^window"):
                swim(b, window)
        for bad, q in [(0, None), (-3, 4), (5, 4)]:
            mat = np.array([[1, 2], [bad, 1], [2, 2]])
            with pytest.raises(ValueError, match="1..class_count"):
                swim(mat, 2, class_count=q)
            with pytest.raises(ValueError, match="1..class_count"):
                reference_swim(mat, 2, q)
        for empty in (np.ones((0, 3), dtype=int), np.ones((3, 0), dtype=int), np.ones(4)):
            with pytest.raises(ValueError, match="nonempty Z x H"):
                swim(empty, 1)


class TestPredictionProbability:
    def test_all_correct(self):
        assert prediction_probability([3, 3, 3], 3) == 1.0

    def test_three_quarters(self):
        assert prediction_probability([5, 5, 9, 5], 5) == 0.75

    def test_none_correct(self):
        assert prediction_probability([1, 2, 4], 3) == 0.0

    def test_relabeling_away_from_truth_is_invariant(self):
        labels = np.array([2, 7, 2, 2, 5])
        rho = prediction_probability(labels, 2)
        swapped = np.where(labels == 7, 5, np.where(labels == 5, 7, labels))
        assert prediction_probability(swapped, 2) == rho

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            prediction_probability([], 1)

    def test_report_rows_give_rho_per_grid_in_the_given_order(self):
        results = [
            FusionResult(labels=np.array([3, 1]), selected=np.array([0, 1])),
            FusionResult(labels=np.array([2, 2, 7]), selected=np.array([5, 5, 0])),
        ]
        names = [kind.value for kind in KIND_ORDER]
        # each grid is the true label of its own result's captures
        assert fusion_report_rows([3, 2], results, 2, names) == [
            "grid=3 w=2 u=2 rho=0.5 selected=cmf:1,rssf:1",
            f"grid=2 w=2 u=3 rho={2 / 3!r} selected=cmf:1,flomf:2",
        ]
