"""Experiment harness: configs, sweeps, reports, dataset ingestion."""

import math
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from goofloc import ExperimentConfig, build_goof, swim
from goofloc import experiments
from goofloc import forest as forest_module
from goofloc.cli import ingest_recorded_dataset
from goofloc.dataset import save_snapshot_dataset
from goofloc.errors import ConfigError, DegenerateInputError, FormatError, NumericalFailure
from goofloc.experiments import (
    Report,
    cell_key,
    config_from_text,
    config_hash,
    config_to_text,
    emit_report,
    load_bmatrices,
    load_report,
    run_forest_sweep,
    run_snr_sweep,
    save_bmatrices,
    simulate_cell,
)
from goofloc.fingerprints import KIND_ORDER, FingerprintKind
from goofloc.forest import predict_matrix, train_bank, worker_count


def micro_config(**over):
    base = dict(
        seed=123,
        grid_count=4,
        num_elements=4,
        snapshot_count=96,
        group_count=6,
        train_count=4,
        test_count=2,
        tree_count=4,
        depth_limit=4,
        noise_kinds=("gaussian",),
        snr_grid_db=(20.0,),
        windows=(2,),
        repetitions=1,
    )
    base.update(over)
    return ExperimentConfig(**base)


# one case per check of validate() that no other test reaches:
# (override, field, message)
VALIDATE_CHECKS = [
    ({"seed": 1.5}, "seed", "a fixed integer seed is mandatory"),
    ({"grid_count": 0}, "grid_count", "must be >= 1"),
    ({"num_elements": 1}, "num_elements", "must be >= 2"),
    ({"noise_kinds": ("pink",)}, "noise_kinds", "unsupported kind 'pink'"),
    ({"test_count": 0}, "train_count", "train and test counts must be >= 1"),
    ({"tree_count": 0}, "tree_count", "must be >= 1"),
    ({"depth_limit": 0}, "depth_limit", "must be >= 1"),
    ({"flom_exponent": 1.0}, "flom_exponent", "must be in (1, 2]"),
    ({"psd_points": 0}, "psd_points", "must be in 1..16"),
    ({"repetitions": 0}, "repetitions", "must be >= 1"),
    # scenario() refuses a grid count that does not tile the room
    ({"grid_count": 7}, "grid_count", "grid_count=7 does not tile a 8.0x8.0 room evenly"),
]


class TestConfig:
    def test_validation_names_offending_field(self):
        with pytest.raises(ConfigError) as err:
            micro_config(group_count=7).validate()
        assert "group_count" in str(err.value)
        with pytest.raises(ConfigError) as err:
            micro_config(train_count=5).validate()
        assert "train_count" in str(err.value)
        with pytest.raises(ConfigError) as err:
            micro_config(snr_grid_db=()).validate()
        assert "snr_grid_db" in str(err.value)
        with pytest.raises(ConfigError) as err:
            micro_config(windows=(9,)).validate()
        assert "windows" in str(err.value)
        with pytest.raises(ConfigError) as err:
            micro_config(seed=-1).validate()
        assert "seed" in str(err.value)

    @pytest.mark.parametrize(
        "over, field, message", VALIDATE_CHECKS,
        ids=[",".join(f"{k}={v}" for k, v in over.items()) for over, _, _ in VALIDATE_CHECKS],
    )
    def test_each_check_names_its_field(self, over, field, message):
        with pytest.raises(ConfigError) as err:
            micro_config(**over).validate()
        assert (err.value.field, err.value.message) == (field, message)

    def test_impulse_shape_is_free_without_impulse_noise(self):
        # simulate_cell reads alpha and beta only for impulse noise
        cfg = micro_config(noise_kinds=("gaussian", "color"), impulse_alpha=3.0, impulse_beta=2.0)
        cfg.validate()
        assert run_snr_sweep(cfg).rows

    def test_text_round_trip_and_hash(self):
        cfg = micro_config()
        text = config_to_text(cfg)
        back = config_from_text(text)
        assert back == cfg
        assert config_hash(back) == config_hash(cfg)
        assert config_hash(micro_config(seed=124)) != config_hash(cfg)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            config_from_text("GOOF-CONFIG 1\nseed=1\nbogus=3\n")


class TestSnrSweep:
    def test_shape_contract_nine_method_rows(self):
        # 3 noise kinds x 3 SNRs, two windows -> 6 SIOF + mode + 2 SWIM = 9 methods
        cfg = micro_config(
            noise_kinds=("gaussian", "color", "impulse"),
            snr_grid_db=(-10.0, 6.0, 30.0),
            windows=(2, 1),
            repetitions=2,
        )
        report = run_snr_sweep(cfg)
        methods = {key[2] for key in report.rows}
        assert methods == {k.value for k in KIND_ORDER} | {"mode", "swim_w2", "swim_w1"}
        assert len(report.rows) == 3 * 3 * 9
        per_cell = cfg.grid_count * cfg.repetitions
        assert all(len(v) == per_cell for v in report.rows.values())

    def test_rhos_lie_in_unit_interval(self):
        report = run_snr_sweep(micro_config())
        for values in report.rows.values():
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_noiseless_sentinel_control(self):
        # with the noise disabled every sample of a grid is identical, so the
        # five informative families memorize perfectly and both fusions follow;
        # normalized PSDs of a noiseless rank-1 block are grid-independent
        # (per-element gains cancel row-wise), leaving PSDF at chance level.
        # trees need >= Q leaves (depth > log2(Q)) to memorize Q classes
        cfg = micro_config(
            snr_grid_db=(math.inf,), grid_count=9, num_elements=3,
            tree_count=6, depth_limit=6,
        )
        report = run_snr_sweep(cfg)
        for method in ("cmf", "rssf", "ssf", "focf", "flomf", "mode", "swim_w2"):
            assert report.mean_rho("gaussian", math.inf, method) == 1.0
        assert report.mean_rho("gaussian", math.inf, "psdf") <= 0.5

    def test_deterministic_given_config_and_seed(self):
        a = run_snr_sweep(micro_config())
        b = run_snr_sweep(micro_config())
        assert a.rows == b.rows
        assert a.errors_m == b.errors_m

    def test_swim_prediction_counts(self):
        cfg = micro_config()
        report = run_snr_sweep(cfg)
        u = cfg.test_count - cfg.windows[0] + 1
        grids = cfg.grid_count * cfg.repetitions
        assert report.timings["swim_w2"]["predictions"] == u * grids
        assert report.timings["mode"]["predictions"] == grids

    def test_timing_rows_count_bank_training_once(self):
        cfg = micro_config()
        report = run_snr_sweep(cfg)
        assert set(report.timings) == {"bank", "mode", "swim_w2"}
        bank = report.timings["bank"]
        assert bank["train_s"] > 0 and bank["test_s"] > 0
        assert bank["predictions"] == cfg.grid_count * cfg.test_count * cfg.repetitions
        for method in ("mode", "swim_w2"):
            assert report.timings[method]["train_s"] == 0.0
            assert 0 < report.timings[method]["test_s"] < bank["train_s"]

    def test_single_kind_sweep_reproduces_its_rows(self):
        # a cell's streams depend on its own key, not on the other cells swept
        kinds = ("gaussian", "color", "impulse")
        full = run_snr_sweep(micro_config(noise_kinds=kinds, snr_grid_db=(0.0, 12.0)))
        alone = run_snr_sweep(micro_config(noise_kinds=("impulse",), snr_grid_db=(0.0, 12.0)))
        impulse = {k: v for k, v in full.rows.items() if k[0] == "impulse"}
        assert len(impulse) == 2 * 8  # 2 SNRs x (6 SIOF + mode + swim)
        assert alone.rows == impulse


@pytest.mark.parametrize("over", [
    pytest.param({"feature_subspace": 5}, id="above-num_elements"),
    pytest.param({"feature_subspace": 3, "num_elements": 2}, id="above-two-elements"),
    pytest.param({"feature_subspace": 5, "primitive": "oriented_hyperplane_2d"}, id="hyperplane"),
])
def test_oversize_subspace_fails_before_any_cell(monkeypatch, over):
    # RSSF and SSF have num_elements features, the fewest of the six
    def refuse(*args, **kwargs):
        raise AssertionError("a cell was simulated or a process forked")

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(experiments, "simulate_cell", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    cfg = micro_config(**over)
    for run in (run_snr_sweep, lambda c: run_forest_sweep(c, "tree_depth", values=(2,))):
        with pytest.raises(ConfigError, match="feature_subspace"):
            run(cfg)


def test_subspace_of_every_feature_fits():
    micro_config(feature_subspace=4).validate()  # num_elements = 4
    micro_config(num_elements=2, feature_subspace=2, primitive="oriented_hyperplane_2d").validate()


# extreme but valid configs: each must finish or raise a typed error
EXTREME_CONFIGS = {
    "two-elements-one-grid": dict(num_elements=2, grid_count=1),
    "two-groups": dict(snapshot_count=32, group_count=2, train_count=1, test_count=1,
                       windows=(1,)),
    "snr+60": dict(noise_kinds=("gaussian", "color", "impulse"), snr_grid_db=(60.0,)),
    "snr-60": dict(noise_kinds=("gaussian", "color", "impulse"), snr_grid_db=(-60.0,)),
    "alpha-0.05": dict(noise_kinds=("impulse",), snr_grid_db=(-10.0, 20.0), impulse_alpha=0.05),
    "alpha-2": dict(noise_kinds=("impulse",), snr_grid_db=(-10.0, 20.0), impulse_alpha=2.0),
}
TYPED_ERRORS = (ConfigError, FormatError, DegenerateInputError, NumericalFailure)


def query_path(config):
    """Every cell of ``config`` through the query path: fingerprint, train
    the bank, predict each test grid and fuse each window with SWIM."""
    config.validate()
    for noise_kind in config.noise_kinds:
        for snr in config.snr_grid_db:
            blocks = simulate_cell(config, noise_kind, snr)
            goof = build_goof(blocks, config.group_count, config.flom_exponent,
                              config.psd_points)
            train, test = goof.split(config.train_count, config.test_count)
            bank = train_bank(train, config.tree_count, config.depth_limit,
                              config.learner_spec(), config.seed, class_count=config.grid_count)
            for grid in test.grids():
                samples = {kind: test.features(kind, grid) for kind in KIND_ORDER}
                b = predict_matrix(bank, samples, true_label=grid).matrix
                assert b.shape == (config.test_count, len(KIND_ORDER))
                assert 1 <= b.min() and b.max() <= config.grid_count
                for w in config.windows:
                    result = swim(b, w, class_count=config.grid_count)
                    assert result.labels.shape == (config.test_count - w + 1,)
                    for u, (label, g) in enumerate(zip(result.labels, result.selected)):
                        assert label in b[u : u + w, g]


# alpha 0.05 snapshots overflow the cumulant before build_goof rejects it
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestExtremeConfigs:
    @pytest.mark.parametrize("case", list(EXTREME_CONFIGS))
    def test_query_path(self, case):
        try:
            query_path(micro_config(**EXTREME_CONFIGS[case]))
        except TYPED_ERRORS:
            pass

    @pytest.mark.parametrize("case", list(EXTREME_CONFIGS))
    def test_snr_sweep(self, case):
        config = micro_config(**EXTREME_CONFIGS[case])
        try:
            report = run_snr_sweep(config)
        except TYPED_ERRORS:
            return
        cells = len(config.noise_kinds) * len(config.snr_grid_db)
        assert len(report.rows) == cells * (len(KIND_ORDER) + 1 + len(config.windows))
        for key, values in report.rows.items():
            assert len(values) == config.grid_count and all(0.0 <= v <= 1.0 for v in values)
            assert all(math.isfinite(e) and e >= 0.0 for e in report.errors_m[key])

    def test_one_group_is_a_config_error(self):
        config = micro_config(snapshot_count=32, group_count=1, train_count=1, test_count=1,
                              windows=(1,))
        with pytest.raises(ConfigError, match="train_count"):
            query_path(config)
        with pytest.raises(ConfigError, match="train_count"):
            run_snr_sweep(config)


class TestCellKey:
    def test_key_layout(self):
        assert cell_key(7, "gaussian", 6.0) == (7, 0, 0, 6000 + 2**31)
        assert cell_key(7, "impulse", -2.0, repetition=2) == (7, 2, 2, -2000 + 2**31)
        assert cell_key(7, "color", math.inf)[2:] == (1, 2**62)

    def test_recorded_kinds_share_one_index(self):
        assert cell_key(1, "none", 0.0)[2] == cell_key(1, "recorded", 0.0)[2] == 3


class TestForestSweep:
    def test_depth_trend(self):
        cfg = micro_config(snr_grid_db=(8.0,), repetitions=2)
        report = run_forest_sweep(cfg, "tree_depth", values=(2, 6))
        acc2 = np.mean(report.rows[("gaussian", 8.0, "rssf_d2")])
        acc6 = np.mean(report.rows[("gaussian", 8.0, "rssf_d6")])
        assert acc6 >= acc2

    def test_tree_number_timing(self):
        cfg = micro_config(snr_grid_db=(8.0,), repetitions=2)
        report = run_forest_sweep(cfg, "tree_number", values=(5, 50))
        assert (
            report.timings["rssf_t50"]["test_s"] > report.timings["rssf_t5"]["test_s"]
        )

    def test_ensemble_beats_single_tree_at_low_snr(self):
        cfg = micro_config(snr_grid_db=(0.0,), repetitions=3)
        report = run_forest_sweep(cfg, "tree_number", values=(1, 40))
        acc1 = np.mean(report.rows[("gaussian", 0.0, "rssf_t1")])
        acc40 = np.mean(report.rows[("gaussian", 0.0, "rssf_t40")])
        assert acc40 >= acc1

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError):
            run_forest_sweep(micro_config(), "learning_rate")

    def test_errors_are_each_grids_mean_distance(self):
        # one label at a time: the distance from its grid's center to the
        # true grid's center, averaged per grid
        cfg = micro_config(snr_grid_db=(0.0,))
        report = run_forest_sweep(cfg, "tree_number", values=(1, 3))
        grids, stack, methods, _ = experiments.forest_cell(
            cfg, (0, "gaussian", 0.0), "tree_number", (1, 3))
        dist = experiments._distance_matrix(cfg.scenario())
        assert methods == ["rssf_t1", "rssf_t3"]
        for i, method in enumerate(methods):
            expected = []
            for g, grid in enumerate(grids):
                labels = stack[g, :, i].tolist()
                expected.append(sum(dist[label - 1, grid - 1] for label in labels) / len(labels))
            assert report.errors_m[("gaussian", 0.0, method)] == pytest.approx(expected, rel=1e-12)
            assert max(expected) > 0.0  # some label is wrong, so the row is not all 0.0


def use_cpus(monkeypatch, count):
    """Make the sweeps see ``count`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def assert_no_workers_left():
    """Neither a child process nor a thread besides the main one."""
    children = [pid for path in Path("/proc/self/task").glob("*/children")
                for pid in path.read_text().split()]
    assert children == []
    assert threading.active_count() == 1


class TestParallelCells:
    def test_worker_count(self, monkeypatch):
        usable = len(os.sched_getaffinity(0))
        assert worker_count(100) == usable
        assert worker_count(1) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert worker_count(100) == 1

    def test_reports_do_not_depend_on_the_worker_count(self, monkeypatch):
        cfg = micro_config(noise_kinds=("gaussian", "impulse"), snr_grid_db=(0.0, 12.0))
        reports = {}
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            reports[cpus] = (
                run_snr_sweep(cfg), run_forest_sweep(cfg, "tree_depth", values=(2, 4))
            )
        for one, two in zip(reports[1], reports[2]):
            assert one.rows == two.rows and one.errors_m == two.errors_m
            assert {m: t["predictions"] for m, t in one.timings.items()} == {
                m: t["predictions"] for m, t in two.timings.items()
            }

    def test_no_worker_outlives_a_sweep(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        cfg = micro_config(snr_grid_db=(0.0, 12.0))
        run_snr_sweep(cfg)
        assert_no_workers_left()
        run_forest_sweep(cfg, "tree_number", values=(2,))
        assert_no_workers_left()
        with pytest.raises(ConfigError, match="feature_subspace"):
            run_snr_sweep(micro_config(snr_grid_db=(0.0, 12.0), feature_subspace=99))
        assert_no_workers_left()

    def test_one_worker_or_one_cell_builds_no_pool(self, monkeypatch):
        # tree-group workers may fork (one cell on two CPUs), cell workers not
        fork_worker = forest_module._fork_worker

        def refuse(run, siblings):
            if run is not forest_module._grow_levels:
                raise AssertionError("a cell worker was forked")
            return fork_worker(run, siblings)

        monkeypatch.setattr(forest_module, "_fork_worker", refuse)
        use_cpus(monkeypatch, 1)
        two_cells = micro_config(snr_grid_db=(0.0, 12.0))
        run_snr_sweep(two_cells)
        run_forest_sweep(two_cells, "tree_depth", values=(2,))
        use_cpus(monkeypatch, 2)
        run_snr_sweep(micro_config())
        run_forest_sweep(micro_config(), "tree_depth", values=(2,))

    def test_sweep_workers_grow_forests_in_process(self, monkeypatch):
        # os.fork raises anywhere but in this process, so the sweep fails
        # if a pool worker forks tree groups
        real_fork, parent = os.fork, os.getpid()

        def fork():
            if os.getpid() != parent:
                raise AssertionError("a sweep worker forked")
            return real_fork()

        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", fork)
        cfg = micro_config(snr_grid_db=(0.0, 12.0))
        assert run_snr_sweep(cfg).rows
        assert run_forest_sweep(cfg, "tree_number", values=(2, 5)).rows
        assert_no_workers_left()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_one_progress_line_per_cell_in_cell_order(self, monkeypatch, capsys, cpus):
        use_cpus(monkeypatch, cpus)
        cfg = micro_config(noise_kinds=("gaussian", "color"), snr_grid_db=(0.0, 12.0),
                           repetitions=2)
        run_snr_sweep(cfg, verbose=True)
        run_forest_sweep(cfg, "tree_depth", values=(2,), verbose=True)
        cells = [(r, k, s) for r in (0, 1) for k in ("gaussian", "color") for s in (0, 12)]
        expected = [f"[sweep-snr] rep={r} noise={k} snr={s} dB done" for r, k, s in cells]
        expected += [f"[sweep-forest] rep={r} noise={k} snr={s} dB done"
                     for r, k, s in cells if k == "gaussian"]
        assert capsys.readouterr().out.splitlines() == expected

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_first_failing_cell_in_cell_order_is_raised(self, monkeypatch, cpus):
        def failing_cell(config, noise_kind, snr_db, repetition=0):
            if snr_db == 0.0:
                time.sleep(0.3)  # the first cell fails last
            raise ConfigError("snr_grid_db", f"cell {snr_db:g}")

        use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(experiments, "simulate_cell", failing_cell)
        cfg = micro_config(snr_grid_db=(0.0, 6.0, 12.0))
        with pytest.raises(ConfigError, match="cell 0$"):
            run_snr_sweep(cfg)
        with pytest.raises(ConfigError, match="cell 0$"):
            run_forest_sweep(cfg, "tree_depth", values=(2,))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_failing_cell_starts_no_further_cell(self, monkeypatch, tmp_path, cpus):
        def cell(config, noise_kind, snr_db, repetition=0):
            (tmp_path / f"{repetition}-{noise_kind}-{snr_db:g}").touch()
            if (repetition, noise_kind, snr_db) != (0, "gaussian", 0.0):
                time.sleep(0.2)
            raise ConfigError("snr_grid_db", "fails")

        use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(experiments, "simulate_cell", cell)
        cfg = micro_config(noise_kinds=("gaussian", "color"), snr_grid_db=(0.0, 6.0, 12.0),
                           repetitions=2)
        with pytest.raises(ConfigError):
            run_snr_sweep(cfg)
        started = len(list(tmp_path.iterdir()))
        assert started == 1 if cpus == 1 else started < 12
        assert_no_workers_left()

    def test_a_failing_score_starts_no_further_cell(self, monkeypatch, tmp_path):
        # the first cell trains, then its scoring fails in this process
        def cell(config, noise_kind, snr_db, repetition=0):
            (tmp_path / f"{repetition}-{noise_kind}-{snr_db:g}").touch()
            time.sleep(0.2)
            return simulate_cell(config, noise_kind, snr_db, repetition)

        def failing_mode(*args, **kwargs):
            raise NumericalFailure("scoring fails")

        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(experiments, "simulate_cell", cell)
        monkeypatch.setattr(experiments, "full_matrix_mode", failing_mode)
        cfg = micro_config(noise_kinds=("gaussian", "color"), snr_grid_db=(0.0, 6.0, 12.0),
                           repetitions=2)
        with pytest.raises(NumericalFailure):
            run_snr_sweep(cfg)
        assert len(list(tmp_path.iterdir())) < 12
        assert_no_workers_left()

    def test_a_failing_cell_stops_the_running_cells(self, monkeypatch):
        def cell(config, noise_kind, snr_db, repetition=0):
            if snr_db:
                time.sleep(30)
            raise ConfigError("snr_grid_db", "first cell")

        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(experiments, "simulate_cell", cell)
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="first cell"):
            run_snr_sweep(micro_config(snr_grid_db=(0.0, 12.0)))
        assert time.perf_counter() - start < 10
        assert_no_workers_left()

    def test_a_cell_worker_that_dies_is_an_error(self, monkeypatch):
        parent = os.getpid()

        def cell(config, noise_kind, snr_db, repetition=0):
            if os.getpid() == parent:
                raise AssertionError("a cell ran in this process")
            os._exit(3)

        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(experiments, "simulate_cell", cell)
        with pytest.raises(RuntimeError, match="died"):
            run_snr_sweep(micro_config(snr_grid_db=(0.0, 12.0)))
        assert_no_workers_left()

    def test_a_free_worker_takes_the_next_cell(self, monkeypatch, tmp_path):
        # cells [slow, fast, fast, fast] on two workers: the worker that is
        # free runs every fast cell while the other runs the slow one
        def cell(config, noise_kind, snr_db, repetition=0):
            if snr_db == 0.0:
                time.sleep(1.0)
            blocks = simulate_cell(config, noise_kind, snr_db, repetition)
            (tmp_path / f"{snr_db:g}").write_text(repr(time.monotonic()))
            return blocks

        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(experiments, "simulate_cell", cell)
        run_snr_sweep(micro_config(snr_grid_db=(0.0, 6.0, 12.0, 18.0)))
        done = {path.name: float(path.read_text()) for path in tmp_path.iterdir()}
        assert max(done["6"], done["12"], done["18"]) < done["0"]
        assert_no_workers_left()


class TestIngest:
    def test_round_trip_into_goof(self, tmp_path):
        cfg = micro_config()
        blocks = simulate_cell(cfg, "gaussian", 20.0)
        path = tmp_path / "cell.goofsnap"
        save_snapshot_dataset(path, blocks)
        loaded = ingest_recorded_dataset(path)
        assert len(loaded) == cfg.grid_count
        for a, b in zip(blocks, loaded):
            assert np.array_equal(a.data, b.data)
        goof = build_goof(loaded, cfg.group_count)
        assert goof.grids() == list(range(1, cfg.grid_count + 1))

    def test_truncation_never_yields_partial_blocks(self, tmp_path):
        cfg = micro_config()
        path = tmp_path / "cell.goofsnap"
        save_snapshot_dataset(path, simulate_cell(cfg, "gaussian", 20.0))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError):
            ingest_recorded_dataset(path)


# the rho field of one report row; its error field follows it
ROW = "rho:gaussian:20.0:cmf="


def _with_seventh_column(raw: bytes) -> bytes:
    """A saved 3-grid, 8-sample matrix file with a seventh label in every row."""
    header, payload = raw.split(b"end-header\n", 1)
    stack = np.frombuffer(payload, "<i8").reshape(3, 8, 6)
    wide = np.concatenate([stack, np.ones((3, 8, 1), "<i8")], axis=2)
    return header + b"end-header\n" + wide.tobytes()


class TestReports:
    def test_csv_shape_and_determinism(self, tmp_path):
        cfg = micro_config(
            noise_kinds=("gaussian", "color"), snr_grid_db=(0.0, 20.0), repetitions=1
        )
        report = run_snr_sweep(cfg)
        paths = emit_report(report, "csv", tmp_path / "one")
        names = {p.name for p in paths}
        assert names == {"curve_gaussian.csv", "curve_color.csv", "timing.csv", "config_echo.txt"}
        curve = (tmp_path / "one" / "curve_gaussian.csv").read_text()
        lines = curve.strip().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "snr_db,method,mean_rho,std_rho,n,mean_centroid_error_m"
        assert len(lines) == 2 + 2 * 8  # 2 SNRs x (6 SIOF + mode + swim)

        rerun = run_snr_sweep(micro_config(
            noise_kinds=("gaussian", "color"), snr_grid_db=(0.0, 20.0), repetitions=1
        ))
        emit_report(rerun, "csv", tmp_path / "two")
        for name in ("curve_gaussian.csv", "curve_color.csv", "config_echo.txt"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_structured_text_round_trip(self, tmp_path):
        report = run_snr_sweep(micro_config())
        (path,) = emit_report(report, "structured-text", tmp_path)
        back = load_report(path)
        assert back.config_hash == report.config_hash
        assert back.rows == report.rows
        assert back.errors_m == report.errors_m
        assert back.timings.keys() == report.timings.keys()

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (lambda lines: [ln for ln in lines if not ln.startswith("error" + ROW[3:])],
             r"^line 4: rho field has no error field of equal length"),
            (lambda lines: [ln.replace("rho:gaussian:", "rho:../x:") for ln in lines],
             r"^line 4: bad row key 'rho:../x:20.0:cmf'"),
            (lambda lines: [ln.replace("seed=123", "seed=1x3") for ln in lines],
             r"^line 3: bad seed"),
            (lambda lines: [*lines, "curve:gaussian:20.0:cmf=1.0"],
             r"^line 23: unknown report field 'curve:gaussian:20.0:cmf'"),
            (lambda lines: [*lines, "rho:gaussian:cmf=1.0"],
             r"^line 23: unknown report field 'rho:gaussian:cmf'"),
            (lambda lines: [ln.replace(ROW, "rho:gaussian:2O.0:cmf=") for ln in lines],
             r"^line 4: bad row key 'rho:gaussian:2O.0:cmf'"),
            (lambda lines: [*lines, *(ln.replace(ROW, "rho:gaussian:2e1:cmf=") for ln in lines
                                      if ln.startswith(ROW))],
             r"^line 23: second rho field for \('gaussian', 20.0, 'cmf'\)"),
            (lambda lines: [ln for ln in lines if not ln.startswith(ROW)],
             r"^line 4: error field has no rho field of equal length"),
            (lambda lines: [ln + ".5" if ln.startswith("timing:bank=") else ln for ln in lines],
             r"^line 20: bad timing:bank '.*\.5' \(invalid literal for int"),
            (lambda lines: lines[:3], r"^line 1: a report needs rho and error fields"),
        ],
        ids=["unpaired_curve", "kind_outside_noise_kinds", "bad_seed", "unknown_field",
             "row_key_without_snr", "bad_snr", "second_spelling_of_a_row", "unpaired_error",
             "non_integer_predictions", "no_rows"],
    )
    def test_malformed_report_rejected(self, tmp_path, corrupt, match):
        (path,) = emit_report(run_snr_sweep(micro_config()), "structured-text", tmp_path)
        lines = path.read_text().splitlines()
        assert lines[:4] == ["GOOF-REPORT 2", lines[1], "seed=123", lines[3]]
        assert lines[3].startswith(ROW) and lines[19].startswith("timing:bank=")
        path.write_text("\n".join(corrupt(lines)) + "\n")
        with pytest.raises(FormatError, match=match):
            load_report(path)

    def test_csv_method_order_follows_sorted_windows_and_values(self, tmp_path):
        # rows are built in sorted window and value order, and re-emission
        # from the saved report gives the same curves and timing methods
        cfg = micro_config(group_count=12, train_count=4, test_count=8, windows=(8, 1, 5),
                           snr_grid_db=(14.0, -2.0))
        siof = [kind.value for kind in KIND_ORDER]
        for report, methods, timed in [
            (run_snr_sweep(cfg), [*siof, "mode", "swim_w1", "swim_w5", "swim_w8"],
             ["bank", "mode", "swim_w1", "swim_w5", "swim_w8"]),
            (run_forest_sweep(cfg, "tree_depth", values=(8, 2)), ["rssf_d2", "rssf_d8"],
             ["rssf_d2", "rssf_d8"]),
        ]:
            emit_report(report, "csv", tmp_path / "direct")
            (saved,) = emit_report(report, "structured-text", tmp_path)
            emit_report(load_report(saved), "csv", tmp_path / "again")
            curve = (tmp_path / "direct" / "curve_gaussian.csv").read_text()
            assert [line.split(",")[:2] for line in curve.splitlines()[2:]] == [
                [snr, method] for snr in ("-2.0", "14.0") for method in methods
            ]
            timing = (tmp_path / "direct" / "timing.csv").read_text().splitlines()[2:]
            assert [line.split(",")[0] for line in timing] == timed
            assert (tmp_path / "again" / "curve_gaussian.csv").read_text() == curve
            again = (tmp_path / "again" / "timing.csv").read_text().splitlines()[2:]
            assert [line.split(",")[0] for line in again] == timed

    def test_empty_report_refused(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(Report(config_hash="x", seed=1), "csv", tmp_path)

    def test_bmatrices_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        stack = np.stack([rng.integers(1, 5, size=(6, 6)) for _ in range(3)])
        path = tmp_path / "b.txt"
        save_bmatrices(path, [1, 2, 3], stack)
        grids, back = load_bmatrices(path)
        assert grids == [1, 2, 3]
        assert np.array_equal(back, stack)

    def test_bmatrices_refuse_what_the_reader_would(self, tmp_path):
        # six columns and at least one sample per matrix, checked before writing
        for matrix in (np.ones((4, 5), int), np.ones((0, 6), int), np.ones((4, 7), int)):
            with pytest.raises(ValueError, match="nonempty Z x 6"):
                save_bmatrices(tmp_path / "b", [1], matrix[None])
            assert not (tmp_path / "b").exists()
        # and one grid per matrix, strictly ascending
        for grids in ([2, 2], [3, 2], [2]):
            with pytest.raises(ValueError, match="one grid per matrix, strictly ascending"):
                save_bmatrices(tmp_path / "b", grids, np.ones((2, 4, 6), int))
            assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("grids", [b"3,1", b"1,1"])
    def test_bmatrices_grids_out_of_order_name_their_line(self, tmp_path, grids):
        # the writer refuses them, so they are patched into the file
        save_bmatrices(tmp_path / "b", [1, 3], np.ones((2, 4, 6), int))
        raw = (tmp_path / "b").read_bytes()
        (tmp_path / "b").write_bytes(raw.replace(b"grids=1,3", b"grids=" + grids))
        with pytest.raises(FormatError, match="line 3: grid labels must be strictly ascending"):
            load_bmatrices(tmp_path / "b")

    @pytest.mark.parametrize("grid, label", [(1, 0), (0, 1), (1, -3)])
    def test_bmatrices_refuse_labels_and_grids_below_one(self, tmp_path, grid, label):
        stack = np.ones((2, 4, 6), int)
        stack[0, 2, 3] = label
        with pytest.raises(ValueError, match="must be >= 1"):
            save_bmatrices(tmp_path / "b", [grid, 2], stack)
        assert not (tmp_path / "b").exists()

    def test_bmatrices_reload_and_save_byte_identically(self, tmp_path):
        rng = np.random.default_rng(1)
        stack = np.stack([rng.integers(1, 9, size=(3, 6)) for _ in range(3)])
        save_bmatrices(tmp_path / "a", [1, 4, 9], stack)
        save_bmatrices(tmp_path / "b", *load_bmatrices(tmp_path / "a"))
        assert (tmp_path / "b").read_bytes() == (tmp_path / "a").read_bytes()

    def test_bmatrices_file_layout(self, tmp_path):
        stack = np.stack([np.full((2, 6), g) for g in (2, 5)])
        save_bmatrices(tmp_path / "b", [2, 5], stack)
        header, payload = (tmp_path / "b").read_bytes().split(b"end-header\n", 1)
        assert header.decode().splitlines() == [
            "GOOF-BMAT 3", "kinds=cmf,rssf,psdf,ssf,focf,flomf", "grids=2,5", "sample_count=2",
        ]
        assert payload == np.repeat([2, 5], 12).astype("<i8").tobytes()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda raw: raw[:-48],  # one row fewer than sample_count
            lambda raw: raw + np.ones(6, "<i8").tobytes(),  # one row more
            lambda raw: raw.replace(b"grids=1,2,3", b"grids=1,2"),
            lambda raw: raw.replace(b"kinds=cmf,", b"kinds="),
            _with_seventh_column,
            lambda raw: raw.replace(b"sample_count=8", b"sample_count=7"),
            lambda raw: raw[:-8] + np.zeros(1, "<i8").tobytes(),  # label 0
            lambda raw: raw.replace(b"grids=1,2,3", b"grids=1,1,3"),
            lambda raw: raw.replace(b"grids=1,2,3", b"grids=1,3,2"),
        ],
        ids=["dropped_row", "extra_row", "grid_count", "kinds", "wide_row", "sample_count",
             "zero_label", "repeated_grid", "descending_grid"],
    )
    def test_bmatrices_must_match_their_header(self, tmp_path, corrupt):
        path = tmp_path / "b.txt"
        save_bmatrices(path, [1, 2, 3], np.stack([np.full((8, 6), g) for g in (1, 2, 3)]))
        raw = path.read_bytes()
        assert corrupt(raw) != raw
        path.write_bytes(corrupt(raw))
        with pytest.raises(FormatError):
            load_bmatrices(path)

    def test_bmatrices_bad_label_names_its_byte(self, tmp_path):
        path = tmp_path / "b"
        save_bmatrices(path, [1, 2], np.stack([np.full((8, 6), g) for g in (1, 2)]))
        # the writer refuses labels below 1, so they are patched into the file
        raw = bytearray(path.read_bytes())
        labels = np.frombuffer(raw, "<i8", offset=raw.index(b"end-header\n") + 11)
        labels[48 + 3 * 6 + 4], labels[48 + 5 * 6] = -7, 0
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="label -7") as err:
            load_bmatrices(path)
        # grid 2 starts after grid 1's 8 x 6 labels; (3, 4) is its 23rd label
        assert err.value.byte_offset == raw.index(b"end-header\n") + 11 + 8 * (48 + 3 * 6 + 4)
