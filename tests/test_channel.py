"""Channel simulation: steering vectors, path clusters, snapshots, noise."""

import math

import numpy as np
import pytest
from scipy import stats

from goofloc.channel import (
    NOISELESS,
    SPEED_OF_LIGHT,
    ArrayGeometry,
    NoiseSpec,
    Scenario,
    SnapshotBlock,
    add_noise,
    generate_paths,
    geometry_to_channel,
    make_grid_scenario,
    sample_alpha_stable,
    steering_vector,
    synthesize_snapshots,
)
from goofloc.errors import DegenerateGeometryError, NumericalFailure


def geom(m=4, spacing=0.5):
    return ArrayGeometry(num_elements=m, spacing_over_wavelength=spacing)


class TestSteeringVector:
    def test_broadside_is_all_ones(self):
        assert np.allclose(steering_vector(0.0, geom(4)), np.ones(4))

    def test_endfire_two_elements(self):
        v = steering_vector(math.pi / 2, geom(2))
        assert np.allclose(v, [1.0, -1.0])

    def test_pi_over_six_third_element(self):
        # by hand: exponent of element 3 is -j*2*pi*2*0.5*sin(pi/6) = -j*pi
        v = steering_vector(math.pi / 6, geom(3))
        assert np.allclose(v[2], np.exp(-1j * math.pi))

    def test_unit_modulus_per_element(self):
        for theta in np.linspace(-math.pi / 2, math.pi / 2, 17):
            assert np.allclose(np.abs(steering_vector(theta, geom(6))), 1.0)

    def test_nonfinite_theta_rejected(self):
        with pytest.raises(ValueError):
            steering_vector(math.nan, geom())

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            ArrayGeometry(num_elements=1)
        with pytest.raises(ValueError):
            ArrayGeometry(num_elements=4, spacing_over_wavelength=0.0)


class TestGeometryToChannel:
    def test_on_axis_grid(self):
        sc = Scenario(8.0, 8.0, [[3.0, 0.0]], array_position=[0.0, 0.0], array_normal=[1.0, 0.0])
        theta0, tau0 = geometry_to_channel([3.0, 0.0], sc)
        assert theta0 == pytest.approx(0.0)
        assert tau0 == pytest.approx(3.0 / SPEED_OF_LIGHT)
        assert tau0 == pytest.approx(1.0007e-8, rel=1e-3)

    def test_ninety_degrees_off_normal(self):
        sc = Scenario(8.0, 8.0, [[0.0, 5.0]], array_position=[0.0, 0.0], array_normal=[1.0, 0.0])
        theta0, _ = geometry_to_channel([0.0, 5.0], sc)
        assert theta0 == pytest.approx(math.pi / 2)

    def test_diagonal_alignment(self):
        sc = Scenario(8.0, 8.0, [[8.0, 8.0]])  # default normal points at far corner
        theta0, _ = geometry_to_channel([8.0, 8.0], sc)
        assert theta0 == pytest.approx(0.0)

    def test_signed_angles(self):
        sc = Scenario(8.0, 8.0, [[1.0, 1.0]], array_normal=[1.0, 0.0])
        above, _ = geometry_to_channel([1.0, 1.0], sc)
        below, _ = geometry_to_channel([1.0, 0.0], sc)
        assert above > 0
        assert below == pytest.approx(0.0)

    def test_coincident_grid_rejected(self):
        sc = Scenario(8.0, 8.0, [[1.0, 1.0]], array_position=[1.0, 1.0])
        with pytest.raises(DegenerateGeometryError):
            geometry_to_channel([1.0, 1.0], sc)

    def test_grid_outside_room_rejected(self):
        with pytest.raises(ValueError):
            Scenario(8.0, 8.0, [[9.0, 1.0]])


class TestMakeGridScenario:
    def test_sixteen_grids_in_square_room(self):
        sc = make_grid_scenario(8.0, 8.0, 16)
        assert sc.grid_count == 16
        assert np.allclose(sc.grid_positions[0], [1.0, 1.0])
        assert np.allclose(sc.grid_positions[-1], [7.0, 7.0])

    def test_dense_64_grid_layout(self):
        sc = make_grid_scenario(8.0, 8.0, 64)
        assert np.allclose(sc.grid_positions[0], [0.5, 0.5])

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            make_grid_scenario(8.0, 8.0, 17)


class TestGeneratePaths:
    def test_exhausted_angle_draws_are_a_numerical_failure(self):
        class OffCentre:
            # every draw sits at the top of the interval, never near theta0
            def uniform(self, low, high, size):
                return np.full(size, high)

        with pytest.raises(NumericalFailure):
            generate_paths(0.3, 1e-8, 0.4, 1e-9, 20, OffCentre())

    def test_zero_spread_collapses_to_los(self):
        rng = np.random.default_rng(0)
        ps = generate_paths(0.3, 1e-8, 0.0, 0.0, 1, rng)
        assert ps.aoas[0] == pytest.approx(0.3)
        assert ps.delays[0] == pytest.approx(1e-8)
        assert abs(ps.gains[0]) ** 2 == pytest.approx(1.0)

    def test_zero_spread_cluster_sits_on_los(self):
        # twenty copies of 0.3 average to 0.3 plus an ulp: no redraw may reject them
        ps = generate_paths(0.3, 1e-8, 0.0, 0.0, 20, np.random.default_rng(0))
        assert ps.aoas.shape == (20,) and (ps.aoas == 0.3).all()

    def test_tiny_spread_cluster_sits_on_los(self):
        # a tolerance of 3 * 1e-20 / sqrt(20) is far below the ulp the mean misses by
        ps = generate_paths(0.3, 1e-8, 1e-20, 0.0, 20, np.random.default_rng(0))
        assert ps.aoas.shape == (20,) and (ps.aoas == 0.3).all()

    def test_gain_normalization(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            ps = generate_paths(0.1, 1e-8, 0.4, 1e-9, 20, rng)
            assert np.sum(np.abs(ps.gains) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_aoa_spread_matches_target(self):
        # pooled over 1000 clusters the sample std must sit within 20%
        rng = np.random.default_rng(2)
        spread = math.radians(25.0)
        tau0 = 1e-8
        aoas = np.concatenate(
            [generate_paths(0.5, tau0, spread, tau0 / 10, 20, rng).aoas for _ in range(1000)]
        )
        assert abs(aoas.std() - spread) < 0.2 * spread

    def test_delay_moments(self):
        rng = np.random.default_rng(3)
        tau0 = 1e-8
        delays = np.concatenate(
            [generate_paths(0.0, tau0, 0.1, tau0 / 10, 20, rng).delays for _ in range(500)]
        )
        assert delays.mean() == pytest.approx(tau0, rel=0.02)
        assert delays.std() == pytest.approx(tau0 / 10, rel=0.1)
        assert (delays >= 0).all()

    def test_mean_aoa_invariant_holds(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            ps = generate_paths(-0.7, 2e-8, 0.3, 1e-9, 20, rng)
            assert abs(ps.aoas.mean() + 0.7) <= 3 * 0.3 / math.sqrt(20) + 1e-12

    def test_bad_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_paths(0.0, 1e-8, 0.1, 1e-9, 0, rng)


class TestSynthesizeSnapshots:
    def test_single_path_broadside(self):
        ps = generate_paths(0.0, 0.0, 0.0, 0.0, 1, np.random.default_rng(0))
        block = synthesize_snapshots(ps, geom(4), 16, np.random.default_rng(1), grid_label=1)
        # one path at theta=0: every column proportional to the all-ones vector
        ratio = block.data / block.data[0:1, :]
        assert np.allclose(ratio, 1.0)
        assert np.linalg.matrix_rank(block.data, tol=1e-10) == 1

    def test_rank_one_for_any_cluster(self):
        rng = np.random.default_rng(5)
        ps = generate_paths(0.4, 1e-8, 0.3, 1e-9, 20, rng)
        block = synthesize_snapshots(ps, geom(7), 64, rng, grid_label=2)
        s = np.linalg.svd(block.data, compute_uv=False)
        assert s[1] < 1e-10 * s[0]

    def test_two_paths_still_single_source(self):
        rng = np.random.default_rng(6)
        ps = generate_paths(0.2, 1e-8, 0.5, 2e-9, 2, rng)
        block = synthesize_snapshots(ps, geom(5), 32, rng)
        # all columns are scalar multiples of the first
        ref = block.data[:, 0]
        for col in block.data.T:
            scale = col[np.argmax(np.abs(ref))] / ref[np.argmax(np.abs(ref))]
            assert np.allclose(col, scale * ref, atol=1e-12)

    def test_monte_carlo_power(self):
        # E{mean |y|^2} = sum_i |alpha_i|^2 * E|s|^2 = 1 when cross terms average out
        rng = np.random.default_rng(7)
        powers = []
        for _ in range(400):
            ps = generate_paths(0.3, 1e-8, 0.4, 1e-9, 20, rng)
            block = synthesize_snapshots(ps, geom(4), 8, rng)
            powers.append(block.signal_power)
        assert np.mean(powers) == pytest.approx(1.0, abs=0.05)

    def test_signal_power_recorded(self):
        rng = np.random.default_rng(8)
        ps = generate_paths(0.0, 1e-8, 0.2, 1e-9, 20, rng)
        block = synthesize_snapshots(ps, geom(4), 32, rng)
        assert block.signal_power == pytest.approx(np.mean(np.abs(block.data) ** 2))


class TestAddNoise:
    def make_block(self, m=4, length=1000, seed=9):
        rng = np.random.default_rng(seed)
        ps = generate_paths(0.3, 1e-8, 0.3, 1e-9, 20, rng)
        return synthesize_snapshots(ps, geom(m), length, rng, grid_label=1)

    def test_noiseless_sentinel_leaves_block_unchanged(self):
        block = self.make_block()
        spec = NoiseSpec(kind="gaussian", snr_db=NOISELESS)
        out = add_noise(block, spec, np.random.default_rng(0))
        assert np.array_equal(out.data, block.data)

    def test_gaussian_variance_at_zero_db(self):
        block = self.make_block(m=4, length=10_000)
        out = add_noise(block, NoiseSpec("gaussian", 0.0), np.random.default_rng(1))
        noise = out.data - block.data
        target = block.signal_power  # 0 dB: noise variance equals signal power
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(target, rel=0.05)

    def test_gaussian_snr_tracks_request(self):
        block = self.make_block(m=2, length=10_000)
        for snr in (-10.0, 10.0, 30.0):
            out = add_noise(block, NoiseSpec("gaussian", snr), np.random.default_rng(2))
            noise = out.data - block.data
            measured = 10 * np.log10(block.signal_power / np.mean(np.abs(noise) ** 2))
            assert abs(measured - snr) < 0.5

    def test_color_noise_autocorrelation_signature(self):
        block = self.make_block(m=2, length=100_000)
        out = add_noise(block, NoiseSpec("color", 0.0), np.random.default_rng(3))
        noise = (out.data - block.data)[0]
        r = np.array(
            [np.vdot(noise[: len(noise) - lag], noise[lag:]).real for lag in range(6)]
        )
        assert r[1] > 0
        assert abs(r[5] / r[0]) < 0.05

    def test_color_noise_variance_matches_snr(self):
        block = self.make_block(m=2, length=50_000)
        out = add_noise(block, NoiseSpec("color", 6.0), np.random.default_rng(4))
        noise = out.data - block.data
        target = block.signal_power * 10 ** (-0.6)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(target, rel=0.05)

    def test_impulse_alpha2_is_gaussian(self):
        # alpha=2 stable with dispersion xi is N(0, 2*xi): KS at the 1% level
        rng = np.random.default_rng(5)
        draws = sample_alpha_stable(2.0, 0.0, 1.0, 0.0, 10_000, rng)
        _, pvalue = stats.kstest(draws, "norm", args=(0.0, math.sqrt(2.0)))
        assert pvalue > 0.01

    def test_impulse_dispersion_convention(self):
        # at alpha=2 each quadrature is N(0, 2*xi) with xi = sigma_s^2 * 10^(-snr/10)
        block = self.make_block(m=2, length=50_000)
        out = add_noise(
            block, NoiseSpec("impulse", 10.0, alpha=2.0), np.random.default_rng(6)
        )
        noise = out.data - block.data
        xi = block.signal_power * 10 ** (-1.0)
        assert np.var(noise.real) == pytest.approx(2 * xi, rel=0.05)
        assert np.var(noise.imag) == pytest.approx(2 * xi, rel=0.05)

    def test_impulse_heavy_tails(self):
        block = self.make_block(m=2, length=20_000)
        out = add_noise(block, NoiseSpec("impulse", 10.0, alpha=1.4), np.random.default_rng(7))
        noise = out.data - block.data
        # alpha-stable with alpha < 2 produces excursions far beyond Gaussian scale
        assert np.abs(noise).max() > 20 * np.median(np.abs(noise))

    def test_bit_reproducible(self):
        block = self.make_block()
        for kind in ("gaussian", "color", "impulse"):
            a = add_noise(block, NoiseSpec(kind, 5.0), np.random.default_rng(42))
            b = add_noise(block, NoiseSpec(kind, 5.0), np.random.default_rng(42))
            assert np.array_equal(a.data, b.data)

    def test_unsupported_kind_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(kind="salt_and_pepper", snr_db=0.0)

    def test_impulse_alpha_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(kind="impulse", snr_db=0.0, alpha=2.5)


class TestSnapshotBlock:
    def test_rejects_nonfinite(self):
        data = np.ones((2, 3), dtype=complex)
        data[0, 0] = np.nan
        with pytest.raises(ValueError):
            SnapshotBlock(data=data, grid_label=1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SnapshotBlock(data=np.zeros((0, 3), dtype=complex), grid_label=1)
