"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s``. The end-to-end criteria
share one desk-scale sweep (16 grids of an 8x8 m room, M=7, L=640 in
32-snapshot groups, 12 train / 8 test, 40 trees of depth 8, window 5,
SNRs -10..30 dB, three noise kinds, three repetitions, one fixed seed).
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from goofloc import ExperimentConfig, WeakLearnerSpec, prediction_probability, swim
from goofloc.channel import NoiseSpec, SnapshotBlock, add_noise, sample_alpha_stable
from goofloc.experiments import emit_report, run_forest_sweep, run_snr_sweep
from goofloc.fingerprints import (
    KIND_ORDER,
    est_covariance,
    est_flom,
    est_foc,
    est_psd,
    est_signal_subspace,
    extract_rss,
)
from goofloc.forest import deserialize_forest, serialize_forest, train_forest
from goofloc.fusion import full_matrix_mode

import digests
from forest_reference import node_counts

SIOF = [k.value for k in KIND_ORDER]

DESK_CONFIG = ExperimentConfig(
    seed=7,
    room_width=8.0,
    room_height=8.0,
    grid_count=16,
    num_elements=7,
    snapshot_count=640,
    group_count=20,
    train_count=12,
    test_count=8,
    tree_count=40,
    depth_limit=8,
    windows=(5,),
    noise_kinds=("gaussian", "color", "impulse"),
    snr_grid_db=(-10.0, -2.0, 6.0, 14.0, 22.0, 30.0),
    repetitions=3,
)


def note(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def ceiling_spearman(snrs, curve) -> float:
    """Spearman rank correlation of an accuracy curve with SNR.

    Points exactly at the probability's ceiling of 1.0 are ranked above all
    others and, among themselves, in SNR order: a curve that climbs to
    1.0 and stays there ranks as a clean rise, as it would had its top
    points risen by small steps below 1.0. Every other tie keeps its
    average rank, so the value equals ``scipy.stats.spearmanr`` on a curve
    that never reaches the ceiling.

    Returns NaN unless the lowest-SNR point is strictly below the
    highest-SNR point: a curve with no rise has no trend to rank (plain
    Spearman is NaN on a constant curve too).
    """
    x = np.asarray(snrs, dtype=float)
    y = np.asarray(curve, dtype=float)
    if not y[np.argmin(x)] < y[np.argmax(x)]:
        return float("nan")
    ranks = stats.rankdata(y)
    top = y == 1.0
    ranks[top] = len(y) - top.sum() + stats.rankdata(x[top])
    return float(np.corrcoef(stats.rankdata(x), ranks)[0, 1])


@pytest.fixture(scope="module")
def desk_sweep():
    t0 = time.perf_counter()
    report = run_snr_sweep(DESK_CONFIG)
    elapsed = time.perf_counter() - t0
    return report, elapsed


def test_desk_curves_are_byte_pinned(desk_sweep, tmp_path):
    emit_report(desk_sweep[0], "csv", tmp_path)
    digests.assert_digests(tmp_path, digests.DESK)


# criterion 1: fingerprint estimators vs independent oracles ----------------


def _power_iteration(r, iters=50_000, tol=1e-14):
    rng = np.random.default_rng(4242)
    v = rng.standard_normal(r.shape[0]) + 1j * rng.standard_normal(r.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = r @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            break
        w /= nw
        if np.linalg.norm(np.abs(w) - np.abs(v)) < tol:
            v = w
            break
        v = w
    return np.abs(v)


def _foc_loops(y):
    m = y.shape[0]
    out = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for k in range(m):
            out[i, k] = (
                np.mean(y[i] * y[k] * np.conj(y[i]) * np.conj(y[k]))
                - np.mean(y[i] * np.conj(y[i])) * np.mean(y[k] * np.conj(y[k]))
                - np.mean(y[i] * np.conj(y[k])) * np.mean(y[k] * np.conj(y[i]))
                - np.mean(y[i] * y[k]) * np.mean(np.conj(y[i]) * np.conj(y[k]))
            )
    return out


def test_criterion_1_fingerprint_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = {"herm": 0.0, "eig": 0.0, "rss": 0.0, "psd": 0.0, "ssf": 0.0, "foc": 0.0, "flom": 0.0}
    for _ in range(200):
        m = int(rng.integers(2, 9))
        length = int(rng.integers(8, 257))
        y = rng.standard_normal((m, length)) + 1j * rng.standard_normal((m, length))

        r = est_covariance(y)
        worst["herm"] = max(worst["herm"], np.abs(r - r.conj().T).max())
        eigs = np.linalg.eigvalsh(r)
        worst["eig"] = max(worst["eig"], -eigs.min() / eigs.max())

        direct = np.mean(np.abs(y) ** 2, axis=1)
        worst["rss"] = max(worst["rss"], np.abs(extract_rss(r) - direct).max())

        psd = est_psd(y)
        worst["psd"] = max(worst["psd"], np.abs(psd.sum(axis=1) - 1.0).max())

        worst["ssf"] = max(
            worst["ssf"], np.abs(est_signal_subspace(r) - _power_iteration(r)).max()
        )
        worst["foc"] = max(worst["foc"], np.abs(est_foc(y) - _foc_loops(y)).max())
        worst["flom"] = max(worst["flom"], np.abs(est_flom(y, 2.0) - r).max())

    elapsed = time.perf_counter() - t0
    ok = (
        worst["herm"] < 1e-12
        and worst["eig"] < 1e-10
        and worst["rss"] < 1e-12
        and worst["psd"] < 1e-9
        and worst["ssf"] < 1e-8
        and worst["foc"] < 1e-10
        and worst["flom"] < 1e-12
        and elapsed < 60.0
    )
    assert note(
        "criterion 1 (fingerprint oracles)",
        ok,
        f"200 blocks in {elapsed:.1f}s; worst: hermitian {worst['herm']:.1e}, "
        f"min-eig {worst['eig']:.1e}, rss {worst['rss']:.1e}, psd-rowsum {worst['psd']:.1e}, "
        f"ssf-vs-power-iteration {worst['ssf']:.1e}, foc-vs-loops {worst['foc']:.1e}, "
        f"flom2-vs-cov {worst['flom']:.1e}",
    )


# criterion 2: noise calibration ---------------------------------------------


def test_criterion_2_noise_calibration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)

    block = SnapshotBlock(
        data=np.exp(2j * np.pi * rng.random((4, 10_000))), grid_label=1, signal_power=1.0
    )
    snr_errs = []
    for snr in (-10.0, 0.0, 10.0, 30.0):
        noisy = add_noise(block, NoiseSpec("gaussian", snr), rng)
        measured = 10 * np.log10(1.0 / np.mean(np.abs(noisy.data - block.data) ** 2))
        snr_errs.append(abs(measured - snr))
    snr_ok = max(snr_errs) < 0.5

    draws = sample_alpha_stable(2.0, 0.0, 1.0, 0.0, 10_000, np.random.default_rng(2003))
    _, pvalue = stats.kstest(draws, "norm", args=(0.0, math.sqrt(2.0)))
    ks_ok = pvalue > 0.01

    g = np.random.default_rng(2004)
    y = (g.standard_normal((3, 100_000)) + 1j * g.standard_normal((3, 100_000))) / np.sqrt(2)
    foc_max = np.abs(est_foc(y)).max()
    foc_ok = foc_max < 0.05

    elapsed = time.perf_counter() - t0
    ok = snr_ok and ks_ok and foc_ok and elapsed < 60.0
    assert note(
        "criterion 2 (noise calibration)",
        ok,
        f"gaussian SNR error <= {max(snr_errs):.3f} dB; alpha=2 KS p={pvalue:.3f}; "
        f"gaussian FoC max {foc_max:.3f}; {elapsed:.1f}s",
    )


# criterion 3: forest correctness --------------------------------------------


def test_criterion_3_forest_correctness():
    counts = node_counts(8)
    counts_ok = counts == (127, 128, 255)

    rng = np.random.default_rng(3003)
    x = np.concatenate([rng.normal(0.0, 0.2, 50), rng.normal(5.0, 0.2, 50)])[:, None]
    y = np.array([1] * 50 + [2] * 50)
    forest = train_forest(x, y, 10, 2, WeakLearnerSpec(), seed=33)
    acc = float((forest.predict_batch(x) == y).mean())
    sep_ok = acc == 1.0

    again = train_forest(x, y, 10, 2, WeakLearnerSpec(), seed=33)
    text = serialize_forest(forest)
    repro_ok = text == serialize_forest(again)
    round_ok = serialize_forest(deserialize_forest(text)) == text

    ok = counts_ok and sep_ok and repro_ok and round_ok
    assert note(
        "criterion 3 (forest correctness)",
        ok,
        f"node_counts(8)={counts}; separable training accuracy {acc:.2f}; "
        f"byte-reproducible={repro_ok}; round-trip lossless={round_ok}",
    )


# criterion 4: SWIM contracts -------------------------------------------------


def test_criterion_4_swim_contracts():
    rng = np.random.default_rng(4004)
    b40 = rng.integers(1, 65, size=(40, 6))
    u36 = swim(b40, 5).prediction_count
    u31 = swim(b40, 10).prediction_count
    counts_ok = (u36, u31) == (36, 31)

    member_ok = True
    for _ in range(100):
        z = int(rng.integers(6, 41))
        w = int(rng.integers(1, z + 1))
        b = rng.integers(1, 17, size=(z, 6))
        result = swim(b, w)
        member_ok &= result.prediction_count == z - w + 1
        for u, (label, g) in enumerate(zip(result.labels, result.selected)):
            member_ok &= label in b[u : u + w, g]

    degenerate_ok = all(
        swim(b, b.shape[0]).labels[0] == full_matrix_mode(b)
        for b in (rng.integers(1, 9, size=(12, 6)) for _ in range(50))
    )

    constant_ok = True
    q, z, true = 16, 24, 11
    for w in (5, 8):
        for _ in range(25):
            b = rng.integers(1, q + 1, size=(z, 6))
            b[:, 3] = true
            # keep the other columns churning inside every window so the
            # constant-correct column is the unique entropy minimizer
            for col in (0, 1, 2, 4, 5):
                for u in range(z - w + 1):
                    window = b[u : u + w, col]
                    if len(set(window)) == 1:
                        b[u, col] = b[u, col] % q + 1
            rho = prediction_probability(swim(b, w, class_count=q).labels, true)
            constant_ok &= rho == 1.0

    ok = counts_ok and member_ok and degenerate_ok and constant_ok
    assert note(
        "criterion 4 (SWIM contracts)",
        ok,
        f"U(40,5)={u36}, U(40,10)={u31}; membership holds={member_ok}; "
        f"W=Z matches full-matrix estimator={degenerate_ok}; "
        f"constant-correct column forces rho=1 at W>=5: {constant_ok}",
    )


# criterion 5: end-to-end desk-scale sweep ------------------------------------


def test_criterion_5a_high_snr_accuracy(desk_sweep):
    report, elapsed = desk_sweep
    rho = report.mean_rho("gaussian", 30.0, "swim_w5")
    ok = rho >= 0.90 and elapsed <= 600.0
    assert note(
        "criterion 5a (gaussian 30 dB)",
        ok,
        f"mean rho(SWIM)={rho:.3f} (>=0.90); sweep ran in {elapsed:.0f}s (<=600s)",
    )


def test_criterion_5b_fusion_tracks_best_fingerprint(desk_sweep):
    report, _ = desk_sweep
    ok = True
    margins = []
    for kind in DESK_CONFIG.noise_kinds:
        for snr in (22.0, 30.0):
            best = max(report.mean_rho(kind, snr, m) for m in SIOF)
            fused = report.mean_rho(kind, snr, "swim_w5")
            margins.append(f"{kind}@{snr:g}: {fused:.3f} vs best {best:.3f}")
            ok &= fused >= best - 0.05
    assert note(
        "criterion 5b (SWIM >= best SIOF - 0.05 at >=22 dB)", ok, "; ".join(margins)
    )


@pytest.mark.parametrize("noise_kind", DESK_CONFIG.noise_kinds)
def test_criterion_5c_snr_monotonicity(desk_sweep, noise_kind):
    """Fused accuracy rises with SNR, per noise kind.

    The curve is mean rho(SWIM, W=5) at each SNR of the sweep. It passes
    when its lowest-SNR point is strictly below its highest-SNR point and
    its rank correlation with SNR is >= 0.8, where points at the ceiling
    of 1.0 are ranked in SNR order among themselves (``ceiling_spearman``).
    Plain tie-averaged Spearman cannot tell a curve that climbs to 1.0 and
    stays there from a flat one: at this desk scale the gaussian and color
    curves reach exactly 1.0 from -2 dB up, and the five tied top points
    cap it at 0.655 however clean the rise. Below the ceiling the check is
    plain Spearman. Both coefficients and the curve are printed.
    """
    report, _ = desk_sweep
    snrs = DESK_CONFIG.snr_grid_db
    curve = [report.mean_rho(noise_kind, snr, "swim_w5") for snr in snrs]
    plain, _ = stats.spearmanr(snrs, curve)
    rho = ceiling_spearman(snrs, curve)
    ok = rho >= 0.8
    note(
        f"criterion 5c (SNR monotonicity, {noise_kind})",
        ok,
        f"spearman={plain:.3f}, ceiling-aware={rho:.3f} (>=0.8); curve="
        + ", ".join(f"{v:.3f}" for v in curve),
    )
    assert ok, (
        f"{noise_kind}: fused accuracy does not rise with SNR: ceiling-aware rank "
        f"correlation {rho:.3f} < 0.8, or the lowest-SNR point is not below the "
        f"highest-SNR point; curve " + ", ".join(f"{v:.3f}" for v in curve)
    )


def test_ceiling_spearman_is_spearman_below_the_ceiling():
    rng = np.random.default_rng(5005)
    snrs = DESK_CONFIG.snr_grid_db
    for _ in range(500):
        # eighths below 1.0, so ties are frequent
        curve = rng.integers(0, 8, size=6) / 8.0
        plain, _ = stats.spearmanr(snrs, curve)
        rho = ceiling_spearman(snrs, curve)
        if curve[0] < curve[-1]:
            assert rho == pytest.approx(plain, abs=1e-12)
        else:
            # no rise: NaN, and plain Spearman fails the bar as well
            assert math.isnan(rho) and not plain >= 0.8


def test_ceiling_spearman_ranks_ceiling_ties_as_a_small_rise():
    rng = np.random.default_rng(5006)
    snrs = DESK_CONFIG.snr_grid_db
    for _ in range(500):
        curve = rng.integers(0, 9, size=6) / 8.0
        if not curve[0] < curve[-1]:
            continue
        # the same curve with its 1.0 points lifted in SNR order, above
        # every other point but still below 1.0
        risen = curve.copy()
        top = np.flatnonzero(curve == 1.0)
        risen[top] = 0.95 + 0.001 * np.arange(len(top))
        plain, _ = stats.spearmanr(snrs, risen)
        assert ceiling_spearman(snrs, curve) == pytest.approx(plain, abs=1e-12)


BAD_CURVES = {
    "flat_at_1.0": (1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    "flat_at_0.5": (0.5, 0.5, 0.5, 0.5, 0.5, 0.5),
    "falling": (1.0, 1.0, 0.9, 0.7, 0.5, 0.3),
    "rise_then_fall": (0.4, 0.8, 1.0, 1.0, 0.8, 0.6),
    "dip_after_saturation": (0.5, 1.0, 1.0, 0.4, 0.3, 1.0),
    "long_dip_after_saturation": (0.5, 1.0, 0.6, 0.55, 1.0, 1.0),
    "drop_at_the_top": (0.5, 1.0, 1.0, 1.0, 1.0, 0.6),
    "noisy": (0.6, 0.9, 0.7, 1.0, 0.65, 0.95),
}

DESK_CURVES = {
    "gaussian": (0.734, 1.0, 1.0, 1.0, 1.0, 1.0),
    "color": (0.547, 1.0, 1.0, 1.0, 1.0, 1.0),
    "impulse": (0.161, 0.177, 0.927, 1.0, 1.0, 1.0),
}


@pytest.mark.parametrize("curve", BAD_CURVES.values(), ids=BAD_CURVES.keys())
def test_ceiling_spearman_rejects_curves_that_do_not_rise(curve):
    assert not ceiling_spearman(DESK_CONFIG.snr_grid_db, curve) >= 0.8


@pytest.mark.parametrize("curve", DESK_CURVES.values(), ids=DESK_CURVES.keys())
def test_ceiling_spearman_accepts_the_recorded_desk_curves(curve):
    assert ceiling_spearman(DESK_CONFIG.snr_grid_db, curve) >= 0.8


# criterion 6: hyperparameter trends ------------------------------------------


@pytest.fixture(scope="module")
def forest_sweep_config():
    return ExperimentConfig(
        seed=7,
        grid_count=16,
        num_elements=7,
        snapshot_count=640,
        group_count=20,
        noise_kinds=("gaussian",),
        snr_grid_db=(-2.0, 14.0),
        tree_count=40,
        depth_limit=8,
        repetitions=3,
    )


@pytest.fixture(scope="module")
def forest_sweeps(forest_sweep_config):
    return {
        "tree_depth": run_forest_sweep(forest_sweep_config, "tree_depth", values=(2, 8)),
        "tree_number": run_forest_sweep(forest_sweep_config, "tree_number"),
    }


def test_criterion_6_curves_are_byte_pinned(forest_sweeps, tmp_path):
    for vary, report in forest_sweeps.items():
        emit_report(report, "csv", tmp_path / vary)
    digests.assert_digests(tmp_path, digests.FOREST)


def test_criterion_6_hyperparameter_trends(forest_sweeps):
    depth_report = forest_sweeps["tree_depth"]
    acc = {
        d: float(
            np.mean(
                [
                    v
                    for key, vals in depth_report.rows.items()
                    if key[2] == f"rssf_d{d}"
                    for v in vals
                ]
            )
        )
        for d in (2, 8)
    }
    depth_ok = acc[8] >= acc[2]

    tree_report = forest_sweeps["tree_number"]
    times = {n: tree_report.timings[f"rssf_t{n}"]["test_s"] for n in (10, 40, 70, 100)}
    timing_ok = times[100] > times[10]
    monotone = all(times[a] < times[b] for a, b in ((10, 40), (40, 70), (70, 100)))

    ok = depth_ok and timing_ok
    assert note(
        "criterion 6 (hyperparameter trends)",
        ok,
        f"accuracy D'=2 {acc[2]:.3f} -> D'=8 {acc[8]:.3f}; test seconds "
        + ", ".join(f"T'={n}: {times[n]:.3f}" for n in (10, 40, 70, 100))
        + f"; strictly increasing 10->100={timing_ok} (per-step monotone={monotone})",
    )


# criterion 7: timeliness -----------------------------------------------------


def test_criterion_7_timeliness(desk_sweep):
    report, _ = desk_sweep
    cells = len(DESK_CONFIG.noise_kinds) * len(DESK_CONFIG.snr_grid_db) * DESK_CONFIG.repetitions
    grids = cells * DESK_CONFIG.grid_count
    u = DESK_CONFIG.test_count - DESK_CONFIG.windows[0] + 1
    swim_preds = report.timings["swim_w5"]["predictions"]
    mode_preds = report.timings["mode"]["predictions"]
    counts_ok = swim_preds == u * mode_preds and mode_preds == grids

    swim_t = report.timings["swim_w5"]["test_s"]
    mode_t = report.timings["mode"]["test_s"]
    ratio = (swim_preds / swim_t) / (mode_preds / mode_t) if swim_t > 0 else float("inf")
    assert note(
        "criterion 7 (timeliness)",
        counts_ok,
        f"SWIM emitted {swim_preds} predictions vs {mode_preds} full-matrix "
        f"(U={u} per grid, asserted); wall-clock throughput ratio "
        f"{ratio:.1f}x (reported, not asserted)",
    )
