"""CLI pipeline: simulate -> build-goof -> train -> test -> fuse, sweeps."""

import dataclasses
import itertools
import math
import os
import shutil

import numpy as np
import pytest

from goofloc import ExperimentConfig
from goofloc.cli import build_parser, main
from goofloc.dataset import load_snapshot_dataset, save_snapshot_dataset
from goofloc.experiments import (
    config_to_text, load_bmatrices, run_snr_sweep, save_bmatrices, snr_cell,
)
from goofloc.fingerprints import KIND_ORDER

import digests


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


def test_staged_artifacts_are_byte_pinned(staged):
    digests.assert_digests(staged, digests.STAGED)


def test_fuse_without_out_prints_the_file(staged, capsysbinary):
    capsysbinary.readouterr()
    assert main(["fuse", "--bmatrices", str(staged / "b.txt"), "--window", "2"]) == 0
    assert capsysbinary.readouterr().out == (staged / "fusion.txt").read_bytes()


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
        # refused before training draws m t uniforms per node in one array
        (train + ["--threshold-candidates", 65537], "threshold_candidates"),
        (train + ["--threshold-candidates", 10**14], "threshold_candidates"),
        (train + ["--depth-limit", 0], "depth_limit"),
        (train + ["--feature-subspace", 99], "feature_subspace"),
        (["train", "--goof", goof, "--train-count", 99, "--seed", 1, "--out", out], "train_count"),
        (["train", "--goof", goof, "--train-count", 0, "--seed", 1, "--out", out], "train_count"),
        (["test", "--goof", goof, "--skip-count", 30, "--bank", bank, "--out", out],
         "skip_count: need 0..3 for a 4-group store; got 30"),
        (["test", "--goof", goof, "--skip-count", 4, "--bank", bank, "--out", out],
         "skip_count: need 0..3 for a 4-group store; got 4"),
        (["fuse", "--bmatrices", bmat, "--window", 9], "window"),
        (["fuse", "--bmatrices", bmat, "--window", 0], "window"),
        # a repeated value would run a cell, and count its grids, again
        (simulate + ["--noise-kinds", "gaussian,gaussian"], "noise_kinds"),
        (simulate + ["--snr-grid-db", "10,10"], "snr_grid_db"),
        (simulate + ["--windows", "2,2"], "windows"),
        # SNRs that share a cell key, or a dataset file name
        (simulate + ["--snr-grid-db", "10,10.0004"], "snr_grid_db"),
        (sweep + ["--snr-grid-db", "10,10.0004"], "snr_grid_db"),
        (simulate + ["--snr-grid-db", "12345.001,12345.002"], "snr_grid_db"),
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
    assert not os.path.exists(out)  # no case got as far as writing


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


def test_failing_cell_leaves_no_out_dir(tmp_path, capsys):
    # the gaussian cell simulates, then the impulse cell overflows
    out = tmp_path / "x"
    argv = ["simulate", "--seed", "1", "--grid-count", "4", "--noise-kinds", "gaussian,impulse",
            "--impulse-alpha", "0.01", "--snr-grid-db", "10", "--out-dir", str(out)]
    assert main(argv) == 4
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert not out.exists()


def test_train_count_of_every_group(tmp_path, staged, capsys):
    # --train-count G trains on the whole store, as leaving the flag out does
    argv = ["train", "--goof", str(staged / "goof"), "--tree-count", "3", "--depth-limit", "4",
            "--seed", "5"]
    assert main([*argv, "--train-count", "4", "--out", str(tmp_path / "all")]) == 0
    assert main([*argv, "--out", str(tmp_path / "default")]) == 0
    names = sorted(path.name for path in (tmp_path / "all").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "default").iterdir())
    assert len(names) == len(KIND_ORDER)
    for name in names:
        assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()
    capsys.readouterr()


def test_stage_flags_default_to_the_config_fields():
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    parser = build_parser()
    for argv, names in [
        (["build-goof", "--dataset", "d", "--group-count", "4", "--out", "o"],
         ("flom_exponent", "psd_points")),
        (["train", "--goof", "g", "--seed", "1", "--out", "o"],
         ("tree_count", "depth_limit", "primitive", "feature_subspace", "threshold_candidates")),
    ]:
        args = parser.parse_args(argv)
        for name in names:
            assert getattr(args, name) == defaults[name], (argv[0], name)


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


@pytest.mark.filterwarnings("error")  # nothing but the message reaches stderr
@pytest.mark.parametrize("argv", [
    # alpha-stable draws at so small an alpha overflow to inf
    ["simulate", "--noise-kinds", "impulse", "--impulse-alpha", "0.01", "--snr-grid-db", "-10"],
    ["sweep-snr", "--noise-kinds", "impulse", "--impulse-alpha", "0.01", "--snr-grid-db", "6",
     "--repetitions", "1", "--quiet"],
    # 10^400 overflows the noise power
    ["simulate", "--noise-kinds", "gaussian", "--snr-grid-db", "-4000"],
])
def test_overflowing_noise_exit_code(tmp_path, capsys, argv):
    code = main([*argv, "--seed", "1", "--grid-count", "4", "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("numerical failure:") and "Traceback" not in err


# finite config values too large for the simulation: (flags, exit code,
# message start); a room whose diagonal overflows is refused before numpy
# squares its sides
HUGE_VALUES = [
    (["--room-width", "1e308", "--room-height", "1e308"], 2, "config error: room_width"),
    (["--room-width", "1e200", "--room-height", "1e200"], 2, "config error: room_width"),
    (["--carrier-frequency", "1e308"], 4, "numerical failure: the noiseless snapshot block"),
    (["--source-freq", "1e308"], 4, "numerical failure: the noiseless snapshot block"),
    (["--spacing-over-wavelength", "1e308"], 4, "numerical failure: the noiseless snapshot block"),
    (["--delay-spread-ratio", "1e308"], 4, "numerical failure: the noiseless snapshot block"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["simulate", "sweep-snr"])
@pytest.mark.parametrize("flags, code, message", HUGE_VALUES,
                         ids=["room=1e308", "room=1e200", "carrier-frequency", "source-freq",
                              "spacing-over-wavelength", "delay-spread-ratio"])
def test_huge_config_value_exit_code(tmp_path, capsys, command, flags, code, message):
    out = tmp_path / "out"
    argv = [command, "--seed", "1", "--grid-count", "4", "--noise-kinds", "gaussian",
            "--snr-grid-db", "10", *flags, "--out-dir", str(out)]
    assert main(argv) == code
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


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
    # a noiseless cell too: its files must keep the noise kind that keys it
    cfg = dataclasses.replace(micro_config(), noise_kinds=("gaussian", "color", "impulse"),
                              snr_grid_db=(18.0, math.inf))
    config_file = tmp_path / "config.txt"
    config_file.write_text(config_to_text(cfg), encoding="utf-8")
    report = run_snr_sweep(cfg)
    window = cfg.windows[0]
    assert main(["simulate", "--config", str(config_file), "--out-dir", str(tmp_path)]) == 0
    for kind, snr in itertools.product(cfg.noise_kinds, cfg.snr_grid_db):
        cell = tmp_path / f"{kind}_{snr:g}"
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

        grids, stack = load_bmatrices(cell / "b.txt")
        # the same cell's bank predicts the same labels, sample for sample
        sweep_grids, sweep_stack, _, _ = snr_cell(cfg, (0, kind, snr))
        assert grids == sweep_grids, (kind, snr)
        assert np.array_equal(stack, sweep_stack), (kind, snr)
        for ki, family in enumerate(KIND_ORDER):
            rhos = [float((b[:, ki] == g).mean()) for g, b in zip(grids, stack)]
            assert rhos == report.rows[(kind, snr, family.value)], (kind, snr, family)
        rows = (cell / "fusion.txt").read_text().splitlines()[2:]
        fused = [float(row.split("rho=")[1].split()[0]) for row in rows]
        assert fused == report.rows[(kind, snr, f"swim_w{window}")], (kind, snr)
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


@pytest.mark.parametrize("label", ["0", "-1"])
@pytest.mark.parametrize("stage", ["train", "test"])
def test_store_grid_below_one_exit_code(tmp_path, staged, capsys, stage, label):
    goof = tmp_path / "goof"
    raw = (staged / "goof").read_bytes()
    assert b"\ngrids=1,2,3,4\n" in raw
    goof.write_bytes(raw.replace(b"\ngrids=1,", f"\ngrids={label},".encode()))
    argv = {
        "train": ["train", "--goof", goof, "--seed", 1, "--out", tmp_path / "bank"],
        "test": ["test", "--goof", goof, "--skip-count", 2, "--bank", staged / "bank",
                 "--out", tmp_path / "b.txt"],
    }[stage]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 3
    assert capsys.readouterr().err.startswith(f"format error: line 6: bad grids '{label},2,3,4'")
    assert not (tmp_path / "bank").exists() and not (tmp_path / "b.txt").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep-snr", "train"])
def test_snr_without_a_cell_key_exit_code(tmp_path, staged, capsys, command):
    # an SNR's cell key is its millidecibels plus 2^31, so none lies below
    # -2147483.648 dB
    out = tmp_path / "out"
    if command == "train":
        goof = tmp_path / "goof"
        raw = (staged / "goof").read_bytes()
        assert b"\nsnr_db=18.0\n" in raw
        goof.write_bytes(raw.replace(b"\nsnr_db=18.0\n", b"\nsnr_db=-10000000.0\n"))
        argv = ["train", "--goof", goof, "--seed", 1, "--out", out]
    else:
        argv = [command, "--seed", 1, "--grid-count", 4, "--noise-kinds", "gaussian",
                "--snr-grid-db", -3000000, "--out-dir", out]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("config error: snr_grid_db: ")
    assert not out.exists()


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


def test_forest_of_another_family_exit_code(tmp_path, staged, capsys):
    # CMF and FOCF forests both take 16 features here: only the kind tells
    bank = tmp_path / "bank"
    shutil.copytree(staged / "bank", bank)
    cmf, focf = bank / "forest_cmf.goofforest", bank / "forest_focf.goofforest"
    cmf_raw = cmf.read_bytes()
    cmf.write_bytes(focf.read_bytes())
    focf.write_bytes(cmf_raw)
    out = tmp_path / "b.txt"
    capsys.readouterr()
    assert main(["test", "--goof", str(staged / "goof"), "--skip-count", "2", "--bank", str(bank),
                 "--out", str(out)]) == 3
    assert f"{cmf}: line 2: kind=focf, expected cmf" in capsys.readouterr().err
    assert not out.exists()


def test_forest_threshold_candidates_above_bound_exit_code(tmp_path, staged, capsys):
    # the trainer's bound of 2^16 candidates holds for a forest file too
    bank = tmp_path / "bank"
    shutil.copytree(staged / "bank", bank)
    path = bank / "forest_psdf.goofforest"
    path.write_bytes(path.read_bytes().replace(b"threshold_candidates=10\n",
                                               b"threshold_candidates=65537\n"))
    out = tmp_path / "b.txt"
    capsys.readouterr()
    assert main(["test", "--goof", str(staged / "goof"), "--skip-count", "2", "--bank", str(bank),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("format error: ")
    assert "line 11: threshold_candidates: must be in 1..65536" in err
    assert not out.exists()


def test_fuse_large_label_exit_code(tmp_path, capsys):
    # SWIM counts the labels that occur, so a huge one allocates nothing
    rng = np.random.default_rng(3)
    matrix = rng.integers(1, 4, size=(8, len(KIND_ORDER)))
    matrix[2, 1] = 10**15
    save_bmatrices(tmp_path / "b", [1], matrix[None])
    out = tmp_path / "fusion.txt"
    assert main(["fuse", "--bmatrices", str(tmp_path / "b"), "--window", "5",
                 "--out", str(out)]) == 0
    assert "grid=1 w=5 u=4 rho=" in out.read_text()
    capsys.readouterr()


def test_version_2_bmatrices_exit_code(tmp_path, capsys):
    # GOOF-BMAT 2 stored a true label per grid beside the grid; it is not read
    matrix = np.ones((1, 4, len(KIND_ORDER)), "<i8")
    (tmp_path / "b").write_bytes(b"GOOF-BMAT 2\nkinds=cmf,rssf,psdf,ssf,focf,flomf\ngrids=1\n"
                                 b"true=1\nsample_count=4\nend-header\n" + matrix.tobytes())
    out = tmp_path / "fusion.txt"
    assert main(["fuse", "--bmatrices", str(tmp_path / "b"), "--window", "2",
                 "--out", str(out)]) == 3
    assert "line 1: expected 'GOOF-BMAT 3', got 'GOOF-BMAT 2'" in capsys.readouterr().err
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
