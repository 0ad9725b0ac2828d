"""Fingerprint estimators against independent brute-force oracles."""

import re

import numpy as np
import pytest

from goofloc import ExperimentConfig, build_goof
from goofloc import fingerprints
from goofloc.channel import SnapshotBlock
from goofloc.errors import DegenerateInputError, FormatError, NumericalFailure
from goofloc.experiments import simulate_cell
from goofloc.fingerprints import (
    KIND_ORDER,
    FingerprintKind,
    Goof,
    est_covariance,
    est_flom,
    est_foc,
    est_psd,
    est_signal_subspace,
    extract_rss,
    feature_dim,
    load_goof,
    save_goof,
)

from fingerprint_reference import (
    extract_group, foc_quadruple_loop, power_iteration_principal, reference_store,
)


def random_block(rng, m=None, length=None):
    m = m or int(rng.integers(2, 9))
    length = length or int(rng.integers(8, 257))
    return rng.standard_normal((m, length)) + 1j * rng.standard_normal((m, length))


class TestCovariance:
    def test_single_snapshot_outer_product(self):
        y = np.array([[1.0], [1j]])
        r = est_covariance(y)
        assert np.allclose(r, [[1.0, -1j], [1j, 1.0]])

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(0)
        y = (rng.standard_normal((3, 100_000)) + 1j * rng.standard_normal((3, 100_000))) / np.sqrt(2)
        r = est_covariance(y)
        assert np.allclose(np.diag(r).real, 1.0, atol=0.02)
        off = r[~np.eye(3, dtype=bool)]
        assert np.abs(off).max() < 0.02

    def test_hermitian_and_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            r = est_covariance(random_block(rng))
            assert np.abs(r - r.conj().T).max() < 1e-12
            eigs = np.linalg.eigvalsh(r)
            assert eigs.min() >= -1e-10 * eigs.max()

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            est_covariance(np.zeros((3, 0), dtype=complex))


class TestRss:
    def test_diagonal_extraction(self):
        assert np.allclose(extract_rss(np.diag([1.0, 2.0, 3.0])), [1, 2, 3])

    def test_single_snapshot_example(self):
        r = est_covariance(np.array([[1.0], [1j]]))
        assert np.allclose(extract_rss(r), [1.0, 1.0])

    def test_matches_direct_power(self):
        rng = np.random.default_rng(2)
        y = random_block(rng)
        direct = np.mean(np.abs(y) ** 2, axis=1)
        assert np.allclose(extract_rss(est_covariance(y)), direct, atol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            extract_rss(np.ones((2, 3)))


class TestPsd:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        psd = est_psd(random_block(rng))
        assert np.allclose(psd.sum(axis=1), 1.0, atol=1e-9)

    def test_pure_tone_is_bin_indicator(self):
        length, k0 = 64, 5
        t = np.arange(length)
        tone = np.exp(2j * np.pi * k0 * t / length)
        psd = est_psd(np.vstack([tone, 2.0 * tone]))
        expected = np.zeros(length)
        expected[k0] = 1.0
        assert np.allclose(psd, expected[None, :], atol=1e-12)

    def test_white_input_is_roughly_flat(self):
        # periodogram bins of white noise are i.i.d. exponential: the max of
        # K=4096 of them concentrates near (ln K + gamma)/K ~ 8.9/K, so a
        # flat-spectrum check must allow that much headroom
        rng = np.random.default_rng(4)
        length = 4096
        y = (rng.standard_normal((2, length)) + 1j * rng.standard_normal((2, length))) / np.sqrt(2)
        psd = est_psd(y)
        assert np.abs(psd - 1.0 / length).max() < 15.0 / length
        assert np.abs(psd.mean(axis=1) - 1.0 / length).max() < 1e-12

    def test_point_count_truncation(self):
        rng = np.random.default_rng(5)
        y = random_block(rng, m=3, length=32)
        psd = est_psd(y, 8)
        assert psd.shape == (3, 8)
        assert np.allclose(psd.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_row_rejected(self):
        y = np.zeros((2, 16), dtype=complex)
        y[0] += 1.0
        with pytest.raises(DegenerateInputError):
            est_psd(y)


class TestSignalSubspace:
    def test_diagonal_matrix(self):
        assert np.allclose(est_signal_subspace(np.diag([5.0, 1.0, 1.0])), [1, 0, 0])

    def test_rank_one_steering(self):
        a = np.exp(-1j * np.pi * np.arange(4) * 0.7)
        ssf = est_signal_subspace(np.outer(a, a.conj()))
        assert np.allclose(ssf, 0.5 * np.ones(4), atol=1e-12)

    def test_matches_power_iteration_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            y = random_block(rng, m=5)
            r = est_covariance(y)
            assert np.allclose(est_signal_subspace(r), power_iteration_principal(r), atol=1e-8)

    def test_unit_norm_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            ssf = est_signal_subspace(est_covariance(random_block(rng)))
            assert np.linalg.norm(ssf) == pytest.approx(1.0, abs=1e-10)
            assert (ssf >= 0).all()

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            est_signal_subspace(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestFoc:
    def test_gaussian_cumulants_vanish(self):
        rng = np.random.default_rng(8)
        length = 100_000
        y = (rng.standard_normal((2, length)) + 1j * rng.standard_normal((2, length))) / np.sqrt(2)
        assert np.abs(est_foc(y)).max() < 0.05

    def test_constant_block_hand_value(self):
        y = np.ones((2, 10), dtype=complex)
        foc = est_foc(y)
        assert np.allclose(foc, -2.0 * np.ones((2, 2)), atol=1e-12)

    def test_matches_quadruple_loop_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            y = random_block(rng, m=4, length=64)
            assert np.abs(est_foc(y) - foc_quadruple_loop(y)).max() < 1e-10

    def test_qam_through_mixing_matches_oracle(self):
        rng = np.random.default_rng(10)
        symbols = rng.choice([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], size=512) / np.sqrt(2)
        mixing = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        y = mixing @ symbols[None, :]
        assert np.abs(est_foc(y) - foc_quadruple_loop(y)).max() < 1e-10

    def test_impulse_blocks_match_oracle(self):
        # alpha-stable noise at -2 dB: single snapshots carry up to about
        # 6e5 times the median power, so a few terms dominate E{|y_i|^2 |y_k|^2}
        config = ExperimentConfig(seed=7, grid_count=4, num_elements=7, snapshot_count=640,
                                  group_count=20, train_count=1, test_count=1)
        for block in simulate_cell(config, "impulse", -2.0):
            oracle = foc_quadruple_loop(block.data)
            assert np.abs(est_foc(block.data) - oracle).max() <= 1e-12 * np.abs(oracle).max()


class TestFlom:
    def test_p2_equals_covariance(self):
        rng = np.random.default_rng(11)
        y = random_block(rng)
        assert np.array_equal(est_flom(y, 2.0), est_covariance(y))

    def test_constant_column_closed_form(self):
        # y_k(t) = c for all t, p = 1.5: column k equals mean(y_i) * |c|^-0.5 * conj(c)
        c = 2.0 + 1.0j
        rng = np.random.default_rng(12)
        y = np.vstack([rng.standard_normal(50) + 1j * rng.standard_normal(50), np.full(50, c)])
        flom = est_flom(y, 1.5)
        expected = y[0].mean() * abs(c) ** (-0.5) * np.conj(c)
        assert np.allclose(flom[0, 1], expected, atol=1e-12)

    def test_bounded_under_heavy_tails(self):
        # alpha-stable contamination: second moments grow with L, FLOM stays put
        from goofloc.channel import sample_alpha_stable

        def contaminated(length, seed):
            rng = np.random.default_rng(seed)
            re = sample_alpha_stable(1.4, 0.0, 1.0, 0.0, (3, length), rng)
            im = sample_alpha_stable(1.4, 0.0, 1.0, 0.0, (3, length), rng)
            return re + 1j * im

        short, long = contaminated(1_000, 13), contaminated(100_000, 13)
        cov_growth = np.abs(np.diag(est_covariance(long))).max() / np.abs(
            np.diag(est_covariance(short))
        ).max()
        assert cov_growth > 2.0
        flom_short = np.abs(est_flom(short, 1.2)).max()
        flom_long = np.abs(est_flom(long, 1.2)).max()
        assert np.isfinite(flom_long)
        assert flom_long < 3.0 * flom_short

    def test_zero_samples_contribute_zero(self):
        y = np.array([[1.0 + 0j, 2.0], [0.0, 1.0]])
        flom = est_flom(y, 1.5)
        assert np.isfinite(flom).all()
        # column 2 only gets the t=2 term
        assert flom[0, 1] == pytest.approx((2.0 * 1.0) / 2)

    def test_exponent_range_enforced(self):
        y = np.ones((2, 4), dtype=complex)
        for bad in (0.5, 1.0, 2.5):
            with pytest.raises(ValueError):
                est_flom(y, bad)


class TestVectorize:
    """Each family's feature vector, as the module docstring's table gives it."""

    def test_dims_match_declared_table(self):
        rng = np.random.default_rng(14)
        y = random_block(rng, m=5, length=32)
        features = extract_group(y)
        for kind in KIND_ORDER:
            assert features[kind].shape[0] == feature_dim(kind, 5, 32)
            assert np.isfinite(features[kind]).all()
            assert features[kind].dtype == float


def random_stack(rng, m=4, length=24, view=True):
    """A (2, 3, m, length) stack; ``view`` lays it out as build_goof's
    strided group view instead of a contiguous array."""
    shape = (2, m, 3, length) if view else (2, 3, m, length)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return stack.swapaxes(1, 2) if view else stack


def per_slice(estimate, stack):
    return np.array([[estimate(stack[i, j]) for j in range(3)] for i in range(2)])


BLOCK_ESTIMATORS = {
    "covariance": est_covariance,
    "psd": est_psd,
    "psd_5_points": lambda y: est_psd(y, 5),
    "foc": est_foc,
    "flom": est_flom,
    "flom_1.5": lambda y: est_flom(y, 1.5),
    "flom_2": lambda y: est_flom(y, 2.0),
}
COVARIANCE_ESTIMATORS = {"rss": extract_rss, "signal_subspace": est_signal_subspace}
ESTIMATOR_NAMES = (
    "est_covariance", "extract_rss", "est_psd", "est_signal_subspace", "est_foc", "est_flom",
)


class TestBatched:
    """Every estimator on a stack equals the 2-D call on each slice, bit for bit."""

    @pytest.mark.parametrize("view", [False, True], ids=["contiguous", "group_view"])
    @pytest.mark.parametrize("name", BLOCK_ESTIMATORS)
    def test_block_stack_equals_per_slice(self, name, view):
        stack = random_stack(np.random.default_rng(20), view=view)
        estimate = BLOCK_ESTIMATORS[name]
        assert np.array_equal(estimate(stack), per_slice(estimate, stack))

    @pytest.mark.parametrize("name", COVARIANCE_ESTIMATORS)
    def test_covariance_stack_equals_per_slice(self, name):
        stack = est_covariance(random_stack(np.random.default_rng(21), m=5))
        assert stack.shape == (2, 3, 5, 5)
        estimate = COVARIANCE_ESTIMATORS[name]
        assert np.array_equal(estimate(stack), per_slice(estimate, stack))

    def test_one_non_hermitian_matrix_rejected(self):
        stack = est_covariance(random_stack(np.random.default_rng(23)))
        stack[1, 2, 0, 1] += 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            est_signal_subspace(stack)

    def test_hermitian_tolerance_is_per_matrix(self):
        # each matrix may be off by 1e-8 * max(1, its own largest entry)
        # (plus np.allclose's relative 1e-5), whatever the others hold
        small = np.array([[2.0, 0.5 + 0.5j], [0.5 - 0.5j, 1.0]])
        large = 1e6 * small
        large[0, 1] += 1e-3  # within the large matrix's own 1e-2
        assert np.array_equal(
            est_signal_subspace(np.stack([small, large])),
            [est_signal_subspace(small), est_signal_subspace(large)],
        )
        skewed = small.copy()
        skewed[0, 1] += 1e-3  # beyond 1e-8 + 1e-5 * |entry|, within 1e-2
        with pytest.raises(ValueError, match="Hermitian"):
            est_signal_subspace(skewed)
        with pytest.raises(ValueError, match="Hermitian"):
            est_signal_subspace(np.stack([skewed, large]))

    @pytest.mark.parametrize("seed", range(4))
    def test_hermitian_verdict_is_np_isclose_per_matrix(self, seed):
        # one entry of each Hermitian matrix moved by a multiple of its
        # tolerance, so some matrices pass and some do not
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((40, 4, 4)) + 1j * rng.standard_normal((40, 4, 4))
        stack = (a @ a.conj().swapaxes(1, 2)) * 10.0 ** rng.uniform(-4, 6, size=(40, 1, 1))
        verdicts = []
        for r in stack:
            i, j = rng.integers(0, 4, size=2)
            atol = 1e-8 * max(1.0, np.abs(r).max())
            step = rng.choice([0.5, 0.999, 0.99999999, 1.00000001, 1.001, 2.0])
            r[i, j] += step * (atol + 1e-5 * abs(r[j, i])) * np.exp(2j * np.pi * rng.random())
            atol = 1e-8 * max(1.0, np.abs(r).max())
            verdicts.append(bool(np.isclose(r, r.conj().T, atol=atol).all()))
            try:
                est_signal_subspace(r)
            except ValueError as exc:
                assert "Hermitian" in str(exc) and not verdicts[-1]
            else:
                assert verdicts[-1]
        assert any(verdicts) and not all(verdicts)
        with pytest.raises(ValueError, match="Hermitian"):
            est_signal_subspace(stack)
        est_signal_subspace(stack[np.array(verdicts)])

    def test_one_non_finite_matrix_is_a_numerical_failure(self):
        stack = est_covariance(random_stack(np.random.default_rng(24)))
        stack[0, 1, 2, 2] = np.inf
        with pytest.raises(NumericalFailure):
            est_signal_subspace(stack)


def make_blocks(q=2, m=3, length=16, seed=0):
    rng = np.random.default_rng(seed)
    return [
        SnapshotBlock(
            data=rng.standard_normal((m, length)) + 1j * rng.standard_normal((m, length)),
            grid_label=grid,
            snr_db=10.0,
            noise_kind="gaussian",
        )
        for grid in range(1, q + 1)
    ]


class TestBuildGoof:
    def test_counts_and_labels(self):
        goof = build_goof(make_blocks(q=2, length=16), group_count=4)
        assert goof.grids() == [1, 2]
        for kind in KIND_ORDER:
            assert goof.data[kind].shape == (2, 4, feature_dim(kind, 3, 4))
            assert list(goof.stack(kind)[1]) == [1, 1, 1, 1, 2, 2, 2, 2]
        x, y = goof.stack(FingerprintKind.RSSF)
        assert x.shape == (8, 3)
        assert list(y) == [1, 1, 1, 1, 2, 2, 2, 2]

    def test_store_matches_per_group_extraction(self):
        # the dense store against extracting every group on its own
        blocks = make_blocks(q=3, length=24)
        goof = build_goof(blocks[::-1], group_count=3)
        for block in blocks:
            for gi in range(3):
                expected = extract_group(block.data[:, gi * 8 : (gi + 1) * 8])
                for kind in KIND_ORDER:
                    got = goof.features(kind, block.grid_label)[gi]
                    assert np.array_equal(got, expected[kind])
        x, y = goof.stack(FingerprintKind.FOCF)
        for row, (features, label) in enumerate(zip(x, y)):
            assert label == row // 3 + 1
            assert np.array_equal(features, goof.features(FingerprintKind.FOCF, label)[row % 3])

    @pytest.mark.parametrize(
        "source, m, length, groups, flom_p, psd_points",
        [
            ("random", 3, 24, 3, 1.2, None),
            ("random", 7, 640, 20, 1.2, None),
            ("random", 5, 160, 10, 1.5, None),
            ("random", 5, 160, 10, 2.0, None),
            ("gaussian", 7, 640, 20, 1.2, None),
            ("color", 7, 640, 20, 1.2, 16),
            ("impulse", 7, 640, 20, 1.2, 1),
            ("impulse", 4, 400, 80, 1.5, None),
        ],
    )
    def test_store_equals_reference(self, source, m, length, groups, flom_p, psd_points):
        if source == "random":
            blocks = make_blocks(q=3, m=m, length=length, seed=length)
        else:
            config = ExperimentConfig(seed=7, grid_count=4, num_elements=m, snapshot_count=length,
                                      group_count=groups, train_count=1, test_count=1)
            blocks = simulate_cell(config, source, 6.0)
        goof = build_goof(blocks[::-1], groups, flom_p, psd_points)
        expected = reference_store(blocks, groups, flom_p, psd_points)
        for kind in KIND_ORDER:
            assert np.array_equal(goof.data[kind], expected[kind]), kind

    def test_one_call_per_estimator(self, monkeypatch):
        # looked up in the module at call time, so a wrapper (such as a
        # profiler's) sees every call
        calls = []
        for name in ESTIMATOR_NAMES:
            original = getattr(fingerprints, name)
            wrapped = lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k)
            monkeypatch.setattr(fingerprints, name, wrapped)
        build_goof(make_blocks(q=3, length=32), group_count=8)
        assert sorted(calls) == sorted(ESTIMATOR_NAMES)

    def test_one_zero_row_in_one_group_is_degenerate(self):
        blocks = make_blocks(q=3, length=16)
        blocks[1].data[2, 4:8] = 0  # antenna 3, group 2 of 4, grid 2
        with pytest.raises(DegenerateInputError):
            build_goof(blocks, group_count=4)
        blocks[1].data[2, 5] = 1e-3
        build_goof(blocks, group_count=4)

    def test_simulation_protocol_shape(self):
        # 3200 snapshots in 32-snapshot groups gives 100 samples per grid
        assert 3200 // 32 == 100
        goof = build_goof(make_blocks(q=1, length=3200), group_count=100)
        assert goof.snapshots_per_group == 32
        assert len(goof.features(FingerprintKind.CMF, 1)) == 100

    def test_recorded_protocol_shape(self):
        # 400 snapshots in 80 groups of 5
        goof = build_goof(make_blocks(q=1, m=4, length=400), group_count=80)
        assert goof.snapshots_per_group == 5

    def test_indivisible_group_count_rejected(self):
        with pytest.raises(ValueError):
            build_goof(make_blocks(length=16), group_count=3)

    @pytest.mark.parametrize("big", [1e300, 1e100])
    def test_overflowing_snapshots_are_a_numerical_failure(self, big):
        # every value is finite, but the covariance (1e300) or the fourth-
        # order cumulant (1e100) of the group holding it overflows to inf
        blocks = make_blocks()
        blocks[0].data[0, 5] = big
        with pytest.warns(RuntimeWarning), pytest.raises(NumericalFailure):
            build_goof(blocks, group_count=4)

    def test_deterministic(self):
        a = build_goof(make_blocks(), group_count=4)
        b = build_goof(make_blocks(), group_count=4)
        assert np.array_equal(a.labels, b.labels)
        for kind in KIND_ORDER:
            assert np.array_equal(a.data[kind], b.data[kind])

    def test_split(self):
        goof = build_goof(make_blocks(length=32), group_count=8)
        train, test = goof.split(5, 3)
        assert train.group_count == 5 and test.group_count == 3
        joined = np.concatenate(
            [train.features(FingerprintKind.SSF, 1), test.features(FingerprintKind.SSF, 1)]
        )
        assert np.array_equal(joined, goof.features(FingerprintKind.SSF, 1))
        with pytest.raises(ValueError):
            goof.split(6, 3)

    def test_a_repeated_grid_is_refused(self):
        blocks = make_blocks(q=3)
        blocks[2].grid_label = 1
        with pytest.raises(ValueError, match="strictly ascending"):
            build_goof(blocks, group_count=4)

    def test_missing_grid_rejected(self):
        goof = build_goof(make_blocks(), group_count=4)
        with pytest.raises(KeyError):
            goof.features(FingerprintKind.CMF, 3)


class TestGoofPersistence:
    def test_round_trip(self, tmp_path):
        goof = build_goof(make_blocks(q=3, length=32), group_count=4)
        save_goof(goof, tmp_path / "store")
        back = load_goof(tmp_path / "store")
        assert back.group_count == goof.group_count
        assert back.snapshots_per_group == goof.snapshots_per_group
        assert back.snr_db == goof.snr_db
        assert back.noise_kind == goof.noise_kind
        assert back.grids() == [1, 2, 3]
        for kind in KIND_ORDER:
            assert np.array_equal(back.data[kind], goof.data[kind])

    def test_file_layout(self, tmp_path):
        # the header, then each kind's (grids, groups, dim) features in kind order
        goof = build_goof(make_blocks(q=3, length=32), group_count=4)
        save_goof(goof, tmp_path / "store")
        header, payload = (tmp_path / "store").read_bytes().split(b"end-header\n", 1)
        assert header.decode().splitlines() == [
            "GOOF-FPSTORE 2", "group_count=4", "snapshots_per_group=8",
            "noise_kind=gaussian", "snr_db=10.0", "grids=1,2,3", "dims=9,3,24,3,9,9",
        ]
        arrays = [[goof.features(kind, grid) for grid in goof.grids()] for kind in KIND_ORDER]
        assert payload == b"".join(np.array(x).astype("<f8").tobytes() for x in arrays)

    def test_truncated_matrix_rejected(self, tmp_path):
        goof = build_goof(make_blocks(), group_count=4)
        save_goof(goof, tmp_path / "store")
        target = tmp_path / "store"
        target.write_bytes(target.read_bytes()[:-8])
        with pytest.raises(FormatError) as err:
            load_goof(tmp_path / "store")
        assert err.value.byte_offset == target.stat().st_size

    @pytest.mark.parametrize(
        "grids, message",
        [
            ("2,1", "grid labels must be strictly ascending"),
            ("1,1", "grid labels must be strictly ascending"),
            ("1.0,2.0", "bad grids '1.0,2.0'"),
        ],
        ids=["descending", "repeated", "float"],
    )
    def test_bad_grids_name_their_line(self, tmp_path, grids, message):
        save_goof(build_goof(make_blocks(), group_count=4), tmp_path / "store")
        raw = (tmp_path / "store").read_bytes()
        (tmp_path / "store").write_bytes(raw.replace(b"grids=1,2", f"grids={grids}".encode()))
        with pytest.raises(FormatError, match=f"^line 6: {re.escape(message)}"):
            load_goof(tmp_path / "store")

    @pytest.mark.parametrize(
        "kind", [FingerprintKind.CMF, FingerprintKind.FOCF], ids=["cmf", "focf"]
    )
    def test_first_non_finite_feature_names_its_offset(self, tmp_path, kind):
        goof = build_goof(make_blocks(), group_count=4)
        save_goof(goof, tmp_path / "store")
        raw = bytearray((tmp_path / "store").read_bytes())
        # an inf at (grid row 1, group 1, feature 3) of one family, a NaN after it
        before = sum(goof.data[k].size for k in KIND_ORDER[: KIND_ORDER.index(kind)])
        index = before + np.ravel_multi_index((1, 1, 3), goof.data[kind].shape)
        at = raw.index(b"end-header\n") + len(b"end-header\n") + 8 * index
        raw[at : at + 8] = np.array([np.inf], "<f8").tobytes()
        raw[-8:] = np.array([np.nan], "<f8").tobytes()
        (tmp_path / "store").write_bytes(raw)
        with pytest.raises(FormatError, match="non-finite fingerprint feature") as err:
            load_goof(tmp_path / "store")
        assert err.value.byte_offset == at


def _bad_group_count(raw):
    return raw.replace(b"group_count=4", b"group_count=abc")


def _drop_kind_dim(raw):
    # the header names five dims: one kind is missing
    return re.sub(rb"\ndims=\d+,", b"\ndims=", raw)


def _nan_feature(raw):
    return raw[:-8] + np.array([np.nan], "<f8").tobytes()


MALFORMED_STORES = {
    "group_count_abc": _bad_group_count,
    "missing_kind": _drop_kind_dim,
    "truncated_payload": lambda raw: raw[:-8],
    "trailing_bytes": lambda raw: raw + bytes(8),
    "nan_feature": _nan_feature,
}


@pytest.mark.parametrize("corrupt", MALFORMED_STORES.values(), ids=MALFORMED_STORES.keys())
def test_malformed_store_raises_format_error(tmp_path, corrupt):
    save_goof(build_goof(make_blocks(), group_count=4), tmp_path / "store")
    raw = (tmp_path / "store").read_bytes()
    (tmp_path / "store").write_bytes(corrupt(raw))
    assert corrupt(raw) != raw
    with pytest.raises(FormatError):
        load_goof(tmp_path / "store")
