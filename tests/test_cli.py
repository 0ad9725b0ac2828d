"""CLI pipeline: simulate -> build-goof -> train -> test -> fuse, sweeps."""

import dataclasses
import os
import shutil

import numpy as np
import pytest

from goofloc import ExperimentConfig
from goofloc.cli import main
from goofloc.dataset import load_snapshot_dataset, save_snapshot_dataset
from goofloc.experiments import (
    config_to_text, load_bmatrices, run_snr_sweep, save_bmatrices, snr_cell,
)
from goofloc.fingerprints import KIND_ORDER
from goofloc.forest import PredictionMatrix


def micro_config():
    return ExperimentConfig(
        seed=321,
        grid_count=4,
        num_elements=4,
        snapshot_count=64,
        group_count=4,
        train_count=2,
        test_count=2,
        tree_count=3,
        depth_limit=4,
        noise_kinds=("gaussian",),
        snr_grid_db=(18.0,),
        windows=(2,),
        repetitions=1,
    )


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text(config_to_text(micro_config()), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    """Every artifact of one staged run: config, snapshots, store, bank,
    prediction matrices, fusion result and a structured-text report."""
    root = tmp_path_factory.mktemp("staged")
    (root / "config.txt").write_text(config_to_text(micro_config()), encoding="utf-8")
    stages = [
        ["simulate", "--config", root / "config.txt", "--out-dir", root],
        ["build-goof", "--dataset", root / "snapshots_gaussian_18dB.goofsnap",
         "--group-count", 4, "--out", root / "goof"],
        ["train", "--goof", root / "goof", "--train-count", 2, "--tree-count", 3,
         "--depth-limit", 4, "--seed", 5, "--out", root / "bank"],
        ["test", "--goof", root / "goof", "--skip-count", 2, "--bank", root / "bank",
         "--out", root / "b.txt"],
        ["fuse", "--bmatrices", root / "b.txt", "--window", 2, "--out", root / "fusion.txt"],
        ["sweep-snr", "--config", root / "config.txt", "--out-dir", root / "sweep",
         "--format", "structured-text", "--quiet"],
    ]
    for argv in stages:
        assert main([str(a) for a in argv]) == 0
    return root


def test_stagewise_pipeline(tmp_path, config_file, capsys):
    data_dir = tmp_path / "data"
    assert main(["simulate", "--config", str(config_file), "--out-dir", str(data_dir)]) == 0
    dataset = data_dir / "snapshots_gaussian_18dB.goofsnap"
    assert dataset.exists()

    goof = tmp_path / "goof"
    assert main([
        "build-goof", "--dataset", str(dataset), "--group-count", "4", "--out", str(goof),
    ]) == 0
    assert goof.read_bytes().startswith(b"GOOF-FPSTORE 2\n")

    bank_dir = tmp_path / "bank"
    assert main([
        "train", "--goof", str(goof), "--train-count", "2", "--tree-count", "3",
        "--depth-limit", "4", "--seed", "5", "--out", str(bank_dir),
    ]) == 0
    assert (bank_dir / "forest_cmf.goofforest").exists()

    bmat = tmp_path / "b.txt"
    assert main([
        "test", "--goof", str(goof), "--skip-count", "2", "--bank", str(bank_dir),
        "--out", str(bmat),
    ]) == 0

    fusion = tmp_path / "fusion.txt"
    assert main(["fuse", "--bmatrices", str(bmat), "--window", "2", "--out", str(fusion)]) == 0
    text = fusion.read_text()
    assert text.startswith("GOOF-FUSION 1")
    assert "grid=1" in text and "rho=" in text and "selected=" in text
    capsys.readouterr()


def test_sweep_snr_and_report(tmp_path, config_file, capsys):
    out = tmp_path / "out"
    assert main([
        "sweep-snr", "--config", str(config_file), "--out-dir", str(out),
        "--format", "structured-text", "--quiet",
    ]) == 0
    report_file = out / "report.txt"
    assert report_file.exists()

    csv_dir = tmp_path / "csv"
    assert main([
        "report", "--report", str(report_file), "--format", "csv", "--out-dir", str(csv_dir),
    ]) == 0
    assert (csv_dir / "curve_gaussian.csv").exists()
    assert (csv_dir / "timing.csv").exists()
    capsys.readouterr()


def test_version_1_report_exit_code(tmp_path, capsys):
    # the record layout of GOOF-REPORT 1 is not read
    path = tmp_path / "report.txt"
    path.write_text("GOOF-REPORT 1\nconfig_hash=ab\nseed=1\n"
                    "curve kind=gaussian snr=20.0 method=cmf values=1.0\n"
                    "error kind=gaussian snr=20.0 method=cmf values=0.0\n")
    assert main(["report", "--report", str(path), "--out-dir", str(tmp_path / "csv")]) == 3
    assert "line 1: expected 'GOOF-REPORT 2'" in capsys.readouterr().err
    assert not (tmp_path / "csv").exists()


def test_sweep_forest(tmp_path, config_file, capsys):
    out = tmp_path / "forest"
    assert main([
        "sweep-forest", "--config", str(config_file), "--vary", "tree_number",
        "--out-dir", str(out), "--quiet",
    ]) == 0
    assert (out / "curve_gaussian.csv").exists()
    capsys.readouterr()


def test_flag_overrides_config(tmp_path, config_file, capsys):
    out = tmp_path / "out"
    assert main([
        "sweep-snr", "--config", str(config_file), "--snr-grid-db", "6",
        "--out-dir", str(out), "--quiet",
    ]) == 0
    curve = (out / "curve_gaussian.csv").read_text()
    assert "\n6.0," in curve and "18.0," not in curve
    capsys.readouterr()


def test_config_error_exit_code(tmp_path, staged, capsys):
    # group_count does not divide snapshot_count
    code = main([
        "sweep-snr", "--seed", "1", "--snapshot-count", "10", "--group-count", "3",
        "--out-dir", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    # values that do not convert, counts outside the store (4 groups,
    # 2 test samples per grid), and flags only the library checks
    goof, bank, bmat = staged / "goof", staged / "bank", staged / "b.txt"
    snaps = staged / "snapshots_gaussian_18dB.goofsnap"
    out = str(tmp_path / "out")
    build = ["build-goof", "--dataset", snaps, "--group-count", 4, "--out", out]
    train = ["train", "--goof", goof, "--seed", 1, "--out", out]
    simulate = ["simulate", "--config", staged / "config.txt", "--out-dir", out]
    sweep = ["sweep-snr", "--seed", 3, "--out-dir", out]  # all three noise kinds
    for argv, field in [
        (simulate + ["--seed", -1], "seed"),
        (simulate + ["--repetition", -1], "repetition"),
        (["sweep-snr", "--seed", "-1", "--out-dir", out], "seed"),
        (["train", "--goof", goof, "--seed", -1, "--out", out], "seed"),
        (["sweep-snr", "--seed", "3", "--grid-count", "abc", "--out-dir", out], "grid_count"),
        (build + ["--psd-points", 0], "psd_points"),
        (build + ["--flom-exponent", 3], "flom_exponent"),
        (train + ["--primitive", "foo"], "primitive"),
        (train + ["--tree-count", 0], "tree_count"),
        (train + ["--threshold-candidates", 0], "threshold_candidates"),
        (train + ["--depth-limit", 0], "depth_limit"),
        (train + ["--feature-subspace", 99], "feature_subspace"),
        (["train", "--goof", goof, "--train-count", 99, "--seed", 1, "--out", out], "train_count"),
        (["train", "--goof", goof, "--train-count", 0, "--seed", 1, "--out", out], "train_count"),
        (["test", "--goof", goof, "--skip-count", 30, "--bank", bank, "--out", out], "train_count"),
        (["fuse", "--bmatrices", bmat, "--window", 9], "window"),
        (["fuse", "--bmatrices", bmat, "--window", 0], "window"),
        # ranges the simulation needs
        (sweep + ["--impulse-alpha", 3], "impulse_alpha"),
        (sweep + ["--impulse-alpha", 0], "impulse_alpha"),
        (sweep + ["--impulse-beta", 2], "impulse_beta"),
        (simulate + ["--noise-kinds", "impulse", "--impulse-alpha", 3], "impulse_alpha"),
        (sweep + ["--color-fir-length", 0], "color_fir_length"),
        (simulate + ["--path-count", 0], "path_count"),
        (simulate + ["--spacing-over-wavelength", 0], "spacing_over_wavelength"),
        (simulate + ["--angular-spread-deg", -1], "angular_spread_deg"),
        (simulate + ["--delay-spread-ratio", -1], "delay_spread_ratio"),
        (simulate + ["--snapshot-count", -20], "snapshot_count"),
        (sweep + ["--room-width", 0], "room_width"),
        (sweep + ["--room-width", -8], "room_width"),
        (sweep + ["--room-height", 0], "room_height"),
        # values that convert but are not finite (an SNR of +inf is noiseless)
        (sweep + ["--room-width", "inf"], "room_width"),
        (simulate + ["--carrier-frequency", "nan"], "carrier_frequency"),
        (simulate + ["--source-freq", "nan"], "source_freq"),
        (simulate + ["--noise-kinds", "impulse", "--impulse-delta", "nan"], "impulse_delta"),
        (simulate + ["--snr-grid-db", "nan"], "snr_grid_db"),
        (simulate + ["--snr-grid-db=-inf"], "snr_grid_db"),
        (simulate + ["--spacing-over-wavelength", "inf"], "spacing_over_wavelength"),
        (simulate + ["--delay-spread-ratio", "inf"], "delay_spread_ratio"),
        (simulate + ["--angular-spread-deg", "inf"], "angular_spread_deg"),
    ]:
        assert main([str(a) for a in argv]) == 2, argv
        assert f"config error: {field}" in capsys.readouterr().err


def test_zero_angular_spread_simulates(tmp_path, capsys):
    argv = ["simulate", "--seed", "1", "--grid-count", "4", "--noise-kinds", "impulse",
            "--snr-grid-db", "10", "--angular-spread-deg", "0", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert len(load_snapshot_dataset(tmp_path / "snapshots_impulse_10dB.goofsnap")) == 4
    capsys.readouterr()


def test_tiny_angular_spread_simulates(tmp_path, capsys):
    argv = ["simulate", "--seed", "1", "--grid-count", "4", "--noise-kinds", "impulse",
            "--snr-grid-db", "10", "--angular-spread-deg", "1e-20", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert len(load_snapshot_dataset(tmp_path / "snapshots_impulse_10dB.goofsnap")) == 4
    capsys.readouterr()


def test_bad_repetition_leaves_no_out_dir(tmp_path, config_file, capsys):
    out = tmp_path / "x"
    argv = ["simulate", "--config", config_file, "--repetition", -1, "--out-dir", out]
    assert main([str(a) for a in argv]) == 2
    assert "config error: repetition" in capsys.readouterr().err
    assert not out.exists()


# two cells each, so two workers really run in a pool
SWEEP_COMMANDS = {
    "sweep-snr": ["--noise-kinds", "gaussian,color", "--snr-grid-db", "6"],
    "sweep-forest": ["--vary", "tree_depth", "--snr-grid-db", "6,12"],
}


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("command", SWEEP_COMMANDS)
def test_worker_config_error_exit_code(tmp_path, capsys, monkeypatch, command, cpus):
    # the subspace exceeds the RSSF and SSF dimension (num_elements): the
    # config is refused before the pool starts (worker-raised errors are
    # covered by test_experiments.py::TestParallelCells)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    argv = [
        command, "--seed", 1, "--grid-count", 4, "--num-elements", 4, "--tree-count", 3,
        "--depth-limit", 3, "--repetitions", 1, "--feature-subspace", 30,
        "--out-dir", tmp_path / "out", *SWEEP_COMMANDS[command],
    ]
    assert main([str(a) for a in argv]) == 2
    assert "config error: feature_subspace" in capsys.readouterr().err


def test_overflowing_snapshots_exit_code(tmp_path, staged, capsys):
    # one finite but huge sample: its covariance overflows to inf
    blocks = load_snapshot_dataset(staged / "snapshots_gaussian_18dB.goofsnap")
    blocks[0].data[0, 5] = 1e300
    save_snapshot_dataset(tmp_path / "big.goofsnap", blocks)
    with pytest.warns(RuntimeWarning):
        code = main([
            "build-goof", "--dataset", str(tmp_path / "big.goofsnap"), "--group-count", "4",
            "--out", str(tmp_path / "g"),
        ])
    assert code == 4
    assert "numerical failure" in capsys.readouterr().err


def test_degenerate_snapshots_exit_code(tmp_path, staged, capsys):
    # an all-zero antenna row leaves the PSD fingerprint undefined
    blocks = load_snapshot_dataset(staged / "snapshots_gaussian_18dB.goofsnap")
    blocks[0].data[1, :] = 0
    save_snapshot_dataset(tmp_path / "zero.goofsnap", blocks)
    code = main([
        "build-goof", "--dataset", str(tmp_path / "zero.goofsnap"), "--group-count", "4",
        "--out", str(tmp_path / "g"),
    ])
    assert code == 4
    assert "degenerate input: all-zero element row" in capsys.readouterr().err


def test_sweep_reruns_from_its_config_echo(tmp_path, config_file, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["sweep-snr", "--config", str(config_file), "--out-dir", str(first),
                 "--quiet"]) == 0
    assert main(["sweep-snr", "--config", str(first / "config.txt"), "--out-dir", str(second),
                 "--quiet"]) == 0
    assert (first / "config.txt").read_bytes() == config_file.read_bytes()
    for name in ("curve_gaussian.csv", "config.txt", "config_echo.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    capsys.readouterr()


def test_missing_config_exit_code(tmp_path, capsys):
    assert main(["sweep-snr", "--out-dir", str(tmp_path / "x")]) == 2
    capsys.readouterr()


def test_format_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.goofsnap"
    bad.write_bytes(b"WRONG 1\nend-header\n")
    code = main([
        "build-goof", "--dataset", str(bad), "--group-count", "2",
        "--out", str(tmp_path / "g"),
    ])
    assert code == 3
    assert "format error" in capsys.readouterr().err
    # a config file that is not UTF-8, and one that does not exist
    config = tmp_path / "config.txt"
    config.write_bytes(config_to_text(micro_config()).encode("utf-8").replace(b"=", b"=\xff", 1))
    for path in (config, tmp_path / "absent.txt"):
        assert main(["sweep-snr", "--config", str(path), "--out-dir", str(tmp_path / "x")]) == 3
        assert "format error" in capsys.readouterr().err


def test_staged_cli_reproduces_sweep_cells(tmp_path, capsys):
    cfg = dataclasses.replace(micro_config(), noise_kinds=("gaussian", "color", "impulse"))
    config_file = tmp_path / "config.txt"
    config_file.write_text(config_to_text(cfg), encoding="utf-8")
    report = run_snr_sweep(cfg)
    snr = cfg.snr_grid_db[0]
    window = cfg.windows[0]
    assert main(["simulate", "--config", str(config_file), "--out-dir", str(tmp_path)]) == 0
    for kind in cfg.noise_kinds:
        cell = tmp_path / kind
        stages = [
            ["build-goof", "--dataset", tmp_path / f"snapshots_{kind}_{snr:g}dB.goofsnap",
             "--group-count", cfg.group_count, "--out", cell / "goof"],
            ["train", "--goof", cell / "goof", "--train-count", cfg.train_count,
             "--tree-count", cfg.tree_count, "--depth-limit", cfg.depth_limit,
             "--seed", cfg.seed, "--out", cell / "bank"],
            ["test", "--goof", cell / "goof", "--skip-count", cfg.train_count,
             "--bank", cell / "bank", "--out", cell / "b.txt"],
            ["fuse", "--bmatrices", cell / "b.txt", "--window", window,
             "--out", cell / "fusion.txt"],
        ]
        for argv in stages:
            assert main([str(a) for a in argv]) == 0

        matrices = load_bmatrices(cell / "b.txt")
        grids = sorted(matrices)
        # the same cell's bank predicts the same labels, sample for sample
        sweep_grids, sweep_matrix, _, _ = snr_cell(cfg, (0, kind, snr))
        assert grids == sweep_grids, kind
        staged_matrix = np.concatenate([matrices[g].matrix for g in grids])
        assert np.array_equal(staged_matrix, sweep_matrix), kind
        for ki, family in enumerate(KIND_ORDER):
            rhos = [float((matrices[g].matrix[:, ki] == g).mean()) for g in grids]
            assert rhos == report.rows[(kind, snr, family.value)], (kind, family)
        rows = (cell / "fusion.txt").read_text().splitlines()[2:]
        fused = [float(row.split("rho=")[1].split()[0]) for row in rows]
        assert fused == report.rows[(kind, snr, f"swim_w{window}")], kind
    capsys.readouterr()


def test_indivisible_group_count_exit_code(tmp_path, config_file, capsys):
    assert main(["simulate", "--config", str(config_file), "--out-dir", str(tmp_path)]) == 0
    code = main([
        "build-goof", "--dataset", str(tmp_path / "snapshots_gaussian_18dB.goofsnap"),
        "--group-count", "7", "--out", str(tmp_path / "g"),
    ])
    assert code == 2
    assert "config error: group_count" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new", [("group_count=4", "group_count=abc"), ("dims=16,4,", "dims=4,")]
)
def test_malformed_store_exit_code(tmp_path, config_file, capsys, old, new):
    assert main(["simulate", "--config", str(config_file), "--out-dir", str(tmp_path)]) == 0
    goof = tmp_path / "goof"
    assert main([
        "build-goof", "--dataset", str(tmp_path / "snapshots_gaussian_18dB.goofsnap"),
        "--group-count", "4", "--out", str(goof),
    ]) == 0
    raw = goof.read_bytes()
    assert old.encode() in raw
    goof.write_bytes(raw.replace(old.encode(), new.encode()))
    code = main(["train", "--goof", str(goof), "--seed", "1", "--out", str(tmp_path / "b")])
    assert code == 3
    assert "format error" in capsys.readouterr().err


def test_store_directory_exit_code(tmp_path, capsys):
    # a fingerprint store is one file; the old index-plus-matrices directory is refused
    store = tmp_path / "goof"
    store.mkdir()
    (store / "index.txt").write_text(
        "GOOF-FPSTORE 1\ngroup_count=1\nsnapshots_per_group=1\ngrids=1\n"
        "kind=cmf dim=1 rows=1 file=cmf.f64\n", encoding="utf-8",
    )
    (store / "cmf.f64").write_bytes(np.ones(2, "<f8").tobytes())
    code = main(["train", "--goof", str(store), "--seed", "1", "--out", str(tmp_path / "b")])
    assert code == 3
    assert "format error" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_fuse_large_label_exit_code(tmp_path, capsys):
    # SWIM counts the labels that occur, so a huge one allocates nothing
    rng = np.random.default_rng(3)
    matrix = rng.integers(1, 4, size=(8, len(KIND_ORDER)))
    matrix[2, 1] = 10**15
    save_bmatrices(tmp_path / "b", {1: PredictionMatrix(matrix, true_label=1)})
    out = tmp_path / "fusion.txt"
    assert main(["fuse", "--bmatrices", str(tmp_path / "b"), "--window", "5",
                 "--out", str(out)]) == 0
    assert "grid=1 w=5 u=4 rho=" in out.read_text()
    capsys.readouterr()


def test_fuse_negative_true_label_exit_code(tmp_path, capsys):
    matrix = np.ones((4, len(KIND_ORDER)), int)
    save_bmatrices(tmp_path / "b", {1: PredictionMatrix(matrix, true_label=1)})
    raw = (tmp_path / "b").read_bytes()
    (tmp_path / "b").write_bytes(raw.replace(b"true=1", b"true=-2"))
    out = tmp_path / "fusion.txt"
    assert main(["fuse", "--bmatrices", str(tmp_path / "b"), "--window", "2",
                 "--out", str(out)]) == 3
    assert "line 4: bad true '-2'" in capsys.readouterr().err
    assert not out.exists()


# (artifact to corrupt, corruption, stage that reads it); each mutant
# stands for a class of damage the seeded mutation test draws at random
MUTANTS = {
    "snap": ("snapshots_gaussian_18dB.goofsnap", lambda raw: raw[:-1],
             ["build-goof", "--dataset", "{root}/snapshots_gaussian_18dB.goofsnap",
              "--group-count", "4", "--out", "{root}/g2"]),
    "fpstore": ("goof", lambda raw: raw.replace(b"grids=1,2,3,4", b"grids=1,2,3,"),
                ["train", "--goof", "{root}/goof", "--seed", "1", "--out", "{root}/b2"]),
    "forest": ("bank/forest_cmf.goofforest", lambda raw: raw.replace(b"tree_count=3\n", b""),
               ["test", "--goof", "{root}/goof", "--skip-count", "2", "--bank", "{root}/bank",
                "--out", "{root}/b2.txt"]),
    "forest_dim": ("bank/forest_cmf.goofforest",
                   lambda raw: raw.replace(b"feature_dim=16", b"feature_dim=17"),
                   ["test", "--goof", "{root}/goof", "--bank", "{root}/bank",
                    "--out", "{root}/b2.txt"]),
    "bmat": ("b.txt", lambda raw: raw[: raw.rindex(b"\n", 0, -1) + 1],
             ["fuse", "--bmatrices", "{root}/b.txt", "--window", "2"]),
    "report": ("sweep/report.txt", lambda raw: raw.replace(b"seed=321", b"seed=3x1"),
               ["report", "--report", "{root}/sweep/report.txt", "--out-dir", "{root}/csv"]),
    "config": ("config.txt", lambda raw: raw.replace(b"grid_count=4", b"grid_count=4\xce"),
               ["sweep-snr", "--config", "{root}/config.txt", "--out-dir", "{root}/s2"]),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutated_artifact_exit_code(tmp_path, staged, capsys, name):
    root = tmp_path / "run"
    shutil.copytree(staged, root)
    target, corrupt, argv = MUTANTS[name]
    (root / target).write_bytes(corrupt((root / target).read_bytes()))
    capsys.readouterr()
    assert main([a.format(root=root) for a in argv]) in (2, 3)
    err = capsys.readouterr().err
    assert "format error" in err or "config error" in err
