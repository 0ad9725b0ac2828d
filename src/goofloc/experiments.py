"""Experiment orchestration: declarative configs, SNR and forest-parameter
sweeps, timing, and report emission.

Every sweep is a deterministic function of (config, seed): all random
streams are derived from the cell key (seed, repetition, noise kind, SNR;
see :func:`cell_key`), so the sweeps run their cells in worker
processes without changing the results, and the staged CLI rebuilds a
cell's bank from the same key.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import groupby, product
from pathlib import Path

import numpy as np

from . import channel
from .channel import ArrayGeometry, NoiseSpec, Scenario, make_grid_scenario
from .errors import ConfigError, FormatError
from .fingerprints import KIND_ORDER, FingerprintKind, build_goof, feature_dim
from .forest import (
    WeakLearnerSpec,
    forked,
    key_seed,
    predict_matrix,
    run_all,
    train_bank,
    train_forest,
    worker_count,
)
from .fusion import full_matrix_mode, prediction_probability, swim
from .textio import (
    comma_list, fmt_value, one_of, positive_int, read_arrays, read_artifact, read_document,
    read_header, write_arrays, write_document,
)

CONFIG_MAGIC = "GOOF-CONFIG"
CONFIG_VERSION = 1

REPORT_MAGIC = "GOOF-REPORT"
REPORT_VERSION = 2

BMAT_MAGIC = "GOOF-BMAT"
BMAT_VERSION = 3


@dataclass
class ExperimentConfig:
    """Declarative description of one sweep. ``seed`` is mandatory;
    nothing is ever seeded from the wall clock."""

    seed: int
    room_width: float = 8.0
    room_height: float = 8.0
    grid_count: int = 16
    num_elements: int = 7
    spacing_over_wavelength: float = 0.5
    carrier_frequency: float = 950e6
    path_count: int = 20
    angular_spread_deg: float = 25.0
    delay_spread_ratio: float = 0.1
    source_freq: float = 0.25
    noise_kinds: tuple = ("gaussian", "color", "impulse")
    snr_grid_db: tuple = (-10.0, -2.0, 6.0, 14.0, 22.0, 30.0)
    impulse_alpha: float = 1.4
    impulse_beta: float = 0.0
    impulse_delta: float = 0.0
    color_fir_length: int = 5
    snapshot_count: int = 640
    group_count: int = 20
    train_count: int = 12
    test_count: int = 8
    tree_count: int = 40
    depth_limit: int = 8
    primitive: str = "axis_aligned_stump"
    feature_subspace: int | None = None
    threshold_candidates: int = 10
    flom_exponent: float = 1.2
    psd_points: int | None = None
    windows: tuple = (5,)
    repetitions: int = 3

    def validate(self) -> None:
        if not isinstance(self.seed, int):
            raise ConfigError("seed", "a fixed integer seed is mandatory")
        if self.seed < 0:
            raise ConfigError("seed", "must be >= 0")
        if self.grid_count < 1:
            raise ConfigError("grid_count", "must be >= 1")
        if self.num_elements < 2:
            raise ConfigError("num_elements", "must be >= 2")
        # a repeated value would run its cells, and count their grids, twice
        for name in _TUPLE_FIELDS:
            values = getattr(self, name)
            if not values:
                raise ConfigError(name, "must be nonempty")
            if len(set(values)) < len(values):
                raise ConfigError(name, "must not repeat a value")
        # nor may two SNRs share one cell key, so one set of random streams
        if len({_snr_key(snr) for snr in self.snr_grid_db}) < len(self.snr_grid_db):
            raise ConfigError("snr_grid_db", "two values round to one millidecibel (one cell key)")
        for kind in self.noise_kinds:
            if kind not in channel.NOISE_KINDS:
                raise ConfigError("noise_kinds", f"unsupported kind {kind!r}")
        # the ranges simulate_cell needs, each named here: finite floats (an
        # SNR of +inf is noiseless), the FIR length for every noise kind,
        # alpha and beta for impulse noise only
        for name in ("room_width", "room_height", "spacing_over_wavelength", "carrier_frequency",
                     "angular_spread_deg", "delay_spread_ratio", "source_freq", "impulse_delta"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(name, "must be finite")
        if not all(snr > -math.inf for snr in self.snr_grid_db):
            raise ConfigError("snr_grid_db", "must be finite or inf (noiseless)")
        for name in ("room_width", "room_height", "spacing_over_wavelength"):
            if not getattr(self, name) > 0:
                raise ConfigError(name, "must be > 0")
        for name in ("angular_spread_deg", "delay_spread_ratio"):
            if not getattr(self, name) >= 0:
                raise ConfigError(name, "must be >= 0")
        for name in ("path_count", "snapshot_count", "color_fir_length"):
            if getattr(self, name) < 1:
                raise ConfigError(name, "must be >= 1")
        if "impulse" in self.noise_kinds:
            if not 0 < self.impulse_alpha <= 2:
                raise ConfigError("impulse_alpha", "must be in (0, 2]")
            if not -1 <= self.impulse_beta <= 1:
                raise ConfigError("impulse_beta", "must be in [-1, 1]")
        if self.group_count < 1 or self.snapshot_count % self.group_count != 0:
            raise ConfigError(
                "group_count",
                f"snapshot_count {self.snapshot_count} not divisible by {self.group_count}",
            )
        if self.train_count + self.test_count > self.group_count:
            raise ConfigError(
                "train_count", "train_count + test_count must not exceed group_count"
            )
        if self.train_count < 1 or self.test_count < 1:
            raise ConfigError("train_count", "train and test counts must be >= 1")
        if self.tree_count < 1:
            raise ConfigError("tree_count", "must be >= 1")
        if self.depth_limit < 1:
            raise ConfigError("depth_limit", "must be >= 1")
        if not 1.0 < self.flom_exponent <= 2.0:
            raise ConfigError("flom_exponent", "must be in (1, 2]")
        snapshots_per_group = self.snapshot_count // self.group_count
        if self.psd_points is not None and not 1 <= self.psd_points <= snapshots_per_group:
            raise ConfigError("psd_points", f"must be in 1..{snapshots_per_group}")
        for w in self.windows:
            if not 1 <= w <= self.test_count:
                raise ConfigError("windows", f"window {w} outside 1..{self.test_count}")
        if self.repetitions < 1:
            raise ConfigError("repetitions", "must be >= 1")
        # every family's forest draws its subspace from that family's
        # features; the default size, ceil(sqrt(dim)), fits any dimension
        spec = self.learner_spec()
        if self.feature_subspace is not None:
            for kind in KIND_ORDER:
                spec.subspace(feature_dim(kind, self.num_elements,
                                          self.psd_points or snapshots_per_group))
        # the scenario's array normal is the room diagonal, whose norm squares the sides
        width, height = self.room_width, self.room_height
        if not math.isfinite(width * width + height * height):
            raise ConfigError("room_width", "the room's diagonal overflows")
        try:
            self.scenario()
        except ValueError as exc:
            raise ConfigError("grid_count", str(exc)) from exc

    def scenario(self) -> Scenario:
        return make_grid_scenario(self.room_width, self.room_height, self.grid_count)

    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry(
            num_elements=self.num_elements,
            spacing_over_wavelength=self.spacing_over_wavelength,
            carrier_frequency=self.carrier_frequency,
        )

    def learner_spec(self) -> WeakLearnerSpec:
        return WeakLearnerSpec(
            primitive=self.primitive,
            feature_subspace_size=self.feature_subspace,
            threshold_candidates=self.threshold_candidates,
        )


_TUPLE_FIELDS = {"noise_kinds": str, "snr_grid_db": float, "windows": int}


def config_to_text(config: ExperimentConfig) -> str:
    """Canonical structured-text form (also the hash input)."""
    header = {f.name: getattr(config, f.name) for f in fields(ExperimentConfig)}
    return write_document(CONFIG_MAGIC, CONFIG_VERSION, header)


def config_from_text(raw) -> ExperimentConfig:
    """Read a :func:`config_to_text` document (bytes or str)."""
    doc = read_document(raw, CONFIG_MAGIC, CONFIG_VERSION)
    return config_from_mapping({key: doc.get(key) for key in doc.values})


def _parse_field(key: str, type_name: str, value):
    if key in _TUPLE_FIELDS:
        items = (tok.strip() for tok in str(value).split(","))
        return tuple(_TUPLE_FIELDS[key](tok) for tok in items if tok)
    if type_name == "int | None":
        return None if value in (None, "none") else int(value)
    return {"int": int, "float": float}.get(type_name, str)(value)


def config_from_mapping(raw: dict) -> ExperimentConfig:
    """Build a config from string values (config files, CLI flags); a
    value that does not convert raises ConfigError naming its field."""
    kwargs = {}
    known = {f.name: f.type for f in fields(ExperimentConfig)}
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(key, "unknown configuration field")
        try:
            kwargs[key] = _parse_field(key, known[key], value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(key, f"cannot read {value!r} ({exc})") from None
    if "seed" not in kwargs:
        raise ConfigError("seed", "a fixed integer seed is mandatory")
    return ExperimentConfig(**kwargs)


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(config_to_text(config).encode("utf-8")).hexdigest()


@dataclass
class Report:
    """Per (noise kind, SNR, method) prediction probabilities plus timing.

    ``rows`` hold the raw per-(grid, repetition) values; aggregation to
    mean/std happens at emission time.
    """

    config_hash: str
    seed: int
    rows: dict = field(default_factory=dict)  # (kind, snr, method) -> [rho...]
    errors_m: dict = field(default_factory=dict)  # same key -> [meters...]
    timings: dict = field(default_factory=dict)  # method -> {train_s, test_s, predictions}

    def add(self, kind: str, snr: float, method: str, rho: float, error_m: float) -> None:
        key = (kind, float(snr), method)
        self.rows.setdefault(key, []).append(float(rho))
        self.errors_m.setdefault(key, []).append(float(error_m))

    def score(self, kind: str, snr: float, method: str, grid: int, labels, dist) -> None:
        """Add grid ``grid``'s row for ``method``: the share of ``labels``
        equal to it and their mean distance ``dist`` from its center."""
        self.add(kind, snr, method, prediction_probability(labels, grid),
                 dist[labels - 1, grid - 1].mean())

    def add_timing(self, method: str, train_s: float = 0.0, test_s: float = 0.0, predictions: int = 0):
        entry = self.timings.setdefault(method, {"train_s": 0.0, "test_s": 0.0, "predictions": 0})
        entry["train_s"] += train_s
        entry["test_s"] += test_s
        entry["predictions"] += predictions

    def mean_rho(self, kind: str, snr: float, method: str) -> float:
        return float(np.mean(self.rows[(kind, float(snr), method)]))


def _snr_key(snr_db: float) -> int:
    """Non-negative cell-key component for an SNR value (inf allowed); an
    SNR below -2^31 millidecibels has none."""
    if not math.isfinite(snr_db):
        return 2**62
    key = int(round(snr_db * 1000)) + 2**31
    if key < 0:
        raise ConfigError("snr_grid_db", f"{snr_db:g} dB is below -2147483.648 dB")
    return key


def cell_key(seed: int, noise_kind: str, snr_db: float, repetition: int = 0) -> tuple:
    """Key of one (noise kind, SNR, repetition) cell; every random stream
    of the cell (simulation and training) is derived from it. Noise kinds
    outside ``channel.NOISE_KINDS`` (recorded data) share one index."""
    for name, value in (("seed", seed), ("repetition", repetition)):
        if value < 0:
            raise ConfigError(name, f"must be >= 0, got {value}")
    kinds = channel.NOISE_KINDS
    kind_idx = kinds.index(noise_kind) if noise_kind in kinds else len(kinds)
    return (seed, repetition, kind_idx, _snr_key(snr_db))


def simulate_cell(
    config: ExperimentConfig,
    noise_kind: str,
    snr_db: float,
    repetition: int = 0,
) -> list:
    """Snapshot blocks for every grid of one (noise kind, SNR, rep) cell."""
    scenario = config.scenario()
    geometry = config.geometry()
    key = cell_key(config.seed, noise_kind, snr_db, repetition)
    spread_rad = math.radians(config.angular_spread_deg)
    spec = NoiseSpec(
        kind=noise_kind,
        snr_db=snr_db,
        fir_window_length=config.color_fir_length,
        alpha=config.impulse_alpha,
        beta=config.impulse_beta,
        delta=config.impulse_delta,
    )
    blocks = []
    for gi, pos in enumerate(scenario.grid_positions):
        theta0, tau0 = channel.geometry_to_channel(pos, scenario)
        paths = channel.generate_paths(
            theta0,
            tau0,
            spread_rad,
            tau0 * config.delay_spread_ratio,
            config.path_count,
            np.random.default_rng((*key, gi, 0)),
        )
        block = channel.synthesize_snapshots(
            paths,
            geometry,
            config.snapshot_count,
            np.random.default_rng((*key, gi, 1)),
            grid_label=gi + 1,
            source_freq=config.source_freq,
        )
        blocks.append(channel.add_noise(block, spec, np.random.default_rng((*key, gi, 2))))
    return blocks


def _distance_matrix(scenario: Scenario) -> np.ndarray:
    pos = scenario.grid_positions
    return np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)


def _cell_stores(config: ExperimentConfig, cell: tuple, train_count: int, test_count: int):
    """Simulate and extract one ``(rep, noise_kind, snr)`` cell, then split
    its store into ``(goof_train, goof_test)``."""
    rep, noise_kind, snr = cell
    blocks = simulate_cell(config, noise_kind, snr, rep)
    goof = build_goof(blocks, config.group_count, config.flom_exponent, config.psd_points)
    return goof.split(train_count, test_count)


def snr_cell(config: ExperimentConfig, cell: tuple) -> tuple:
    """The training half of one SNR-sweep cell: simulate, extract, split,
    train the bank and predict the test groups. Returns the cell tuple of
    :func:`_run_cells`, the stack (grids, Z, 6), one method per family."""
    rep, noise_kind, snr = cell
    goof_train, goof_test = _cell_stores(config, cell, config.train_count, config.test_count)
    key = cell_key(config.seed, noise_kind, snr, rep)
    t0 = time.perf_counter()
    bank = train_bank(goof_train, config.tree_count, config.depth_limit, config.learner_spec(),
                      key, class_count=config.grid_count)
    t1 = time.perf_counter()
    pm = predict_matrix(bank, {kind: goof_test.stack(kind)[0] for kind in KIND_ORDER})
    stack = pm.matrix.reshape(len(goof_test.labels), goof_test.group_count, len(KIND_ORDER))
    seconds = {"bank": (t1 - t0, time.perf_counter() - t1)}
    return goof_test.grids(), stack, [kind.value for kind in KIND_ORDER], seconds


def _run_cells(config: ExperimentConfig, cells: list, cell_fn, name: str, verbose: bool,
               fuse=None) -> Report:
    """Run ``cell_fn(config, cell)`` for every cell on one forked worker
    per usable CPU (:func:`worker_count`), or here if that is one, and
    score each result here, in cell order, so the report does not depend
    on the worker count. A cell returns ``(grids, stack, methods,
    seconds)``: ``stack[g, :, i]`` holds grid ``grids[g]``'s labels by
    ``methods[i]``, and ``seconds`` maps each timing row (of grids x Z
    predictions) to its ``(train_s, predict_s)``. Every method is scored
    per grid, then ``fuse(config, dist, report, cell, grids, stack)``, if
    given, adds the rows of decisions made here."""
    report = Report(config_hash=config_hash(config), seed=config.seed)
    dist = _distance_matrix(config.scenario())
    run, n = partial(cell_fn, config), worker_count(len(cells))
    with forked(n if n > 1 else 0, run) as workers:
        for cell, result in zip(cells, run_all(workers, run, [(cell,) for cell in cells])):
            rep, noise_kind, snr = cell
            grids, stack, methods, seconds = result
            for row, (train_s, predict_s) in seconds.items():
                report.add_timing(row, train_s=train_s, test_s=predict_s,
                                  predictions=stack.shape[0] * stack.shape[1])
            for grid, b in zip(grids, stack):
                for method, labels in zip(methods, b.T):
                    report.score(noise_kind, snr, method, grid, labels, dist)
            if fuse is not None:
                fuse(config, dist, report, cell, grids, stack)
            if verbose:
                print(f"[{name}] rep={rep} noise={noise_kind} snr={snr:g} dB done")
    return report


def run_snr_sweep(config: ExperimentConfig, verbose: bool = False) -> Report:
    """The accuracy-versus-SNR study.

    For every (repetition, noise kind, SNR) cell: simulate all grids,
    build and split the fingerprint store, train the bank, and score the
    six single-fingerprint classifiers, the full-matrix mode baseline,
    and the sliding-window fusion at each configured window length.
    Cells train in worker processes; scoring and fusion run in the
    calling process (see :func:`_run_cells`).
    """
    config.validate()
    cells = list(product(range(config.repetitions), config.noise_kinds, config.snr_grid_db))
    return _run_cells(config, cells, snr_cell, "sweep-snr", verbose, _fuse_snr_cell)


def _fuse_snr_cell(config, dist, report, cell, grids, stack):
    """Per grid, time and score the full-matrix mode and SWIM at every
    window, in sorted order."""
    _, noise_kind, snr = cell
    for grid, b in zip(grids, stack):
        t0 = time.perf_counter()
        mode_label = full_matrix_mode(b, class_count=config.grid_count)
        report.add_timing("mode", test_s=time.perf_counter() - t0, predictions=1)
        report.score(noise_kind, snr, "mode", grid, np.array([mode_label]), dist)
        for w in sorted(config.windows):
            t0 = time.perf_counter()
            fused = swim(b, w, class_count=config.grid_count)
            report.add_timing(f"swim_w{w}", test_s=time.perf_counter() - t0,
                              predictions=fused.prediction_count)
            report.score(noise_kind, snr, f"swim_w{w}", grid, fused.labels, dist)


DEPTH_SWEEP_VALUES = (2, 3, 4, 5, 6, 7, 8)
TREE_SWEEP_VALUES = (10, 40, 70, 100)


def forest_cell(config: ExperimentConfig, cell: tuple, vary: str, values: tuple) -> tuple:
    """One forest-sweep cell: for each swept value, train an RSSF forest on
    the first half of the groups and predict the second half. Returns the
    cell tuple of :func:`_run_cells`, one method ``rssf_d<v>`` or
    ``rssf_t<v>`` and one timing row per value, whose ``predict_s`` is the
    seconds of the fastest of three warm calls."""
    rep, noise_kind, snr = cell
    half = config.group_count // 2
    goof_train, goof_test = _cell_stores(config, cell, half, config.group_count - half)
    rssf = FingerprintKind.RSSF
    x_train, y_train = goof_train.stack(rssf)
    x_test = goof_test.stack(rssf)[0]
    key = cell_key(config.seed, noise_kind, snr, rep)
    spec = config.learner_spec()
    prefix = "rssf_d" if vary == "tree_depth" else "rssf_t"
    runs, seconds = [], {}
    for value in values:
        depth = value if vary == "tree_depth" else config.depth_limit
        trees = value if vary == "tree_number" else config.tree_count
        t0 = time.perf_counter()
        forest = train_forest(
            x_train, y_train, trees, depth, spec, key_seed(*key, 200 + value),
            class_count=config.grid_count, kind=rssf,
        )
        train_s = time.perf_counter() - t0
        # time warm calls: in a freshly forked worker the first call also
        # pays page faults and cold caches, which would fall on the first
        # value swept and can outweigh the per-tree cost being compared;
        # the fastest of three leaves out most scheduling hiccups as well
        forest.predict_batch(x_test)
        predict_s = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            labels = forest.predict_batch(x_test)
            predict_s = min(predict_s, time.perf_counter() - t0)
        runs.append(labels)
        seconds[f"{prefix}{value}"] = (train_s, predict_s)
    grids = goof_test.grids()
    stack = np.stack(runs, axis=-1).reshape(len(grids), goof_test.group_count, len(values))
    return grids, stack, list(seconds), seconds


def run_forest_sweep(
    config: ExperimentConfig,
    vary: str,
    values: tuple | None = None,
    verbose: bool = False,
) -> Report:
    """Forest hyperparameter study on the RSS fingerprints alone.

    ``vary`` is ``tree_depth`` or ``tree_number``. The store is split
    half/half into train and test; every swept value reuses the same
    simulated cells, so differences come from the forest alone. Cells
    run in worker processes, as in :func:`run_snr_sweep`.
    """
    config.validate()
    if vary not in ("tree_depth", "tree_number"):
        raise ConfigError("vary", "must be tree_depth or tree_number")
    if values is None:
        values = DEPTH_SWEEP_VALUES if vary == "tree_depth" else TREE_SWEEP_VALUES
    cells = list(product(range(config.repetitions), config.noise_kinds[:1], config.snr_grid_db))
    cell_fn = partial(forest_cell, vary=vary, values=tuple(sorted(values)))
    return _run_cells(config, cells, cell_fn, "sweep-forest", verbose)


def emit_report(report: Report, fmt: str, out_dir) -> list:
    """Write report artifacts and return their paths.

    ``csv``: one curve file per noise kind (rows: snr_db, method,
    mean_rho, std_rho, n, mean_centroid_error_m), a timing table, and the
    config-hash echo. ``structured-text``: one lossless document that can
    be reloaded with :func:`load_report`. Curve files are byte-identical
    across re-runs of the same (config, seed); the timing table is
    wall-clock and is not.
    """
    if not report.rows:
        raise ValueError("refusing to emit an empty report")
    if fmt not in ("csv", "structured-text"):
        raise ValueError(f"unknown report format {fmt!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []

    def write(name: str, text: str) -> None:
        paths.append(out_dir / name)
        paths[-1].write_text(text, encoding="utf-8")

    if fmt == "structured-text":
        write("report.txt", report_to_text(report))
        return paths

    comment = f"# config_hash={report.config_hash} seed={report.seed}"
    for noise_kind, keys in groupby(sorted(report.rows, key=lambda k: k[:2]), lambda k: k[0]):
        lines = [comment, "snr_db,method,mean_rho,std_rho,n,mean_centroid_error_m"]
        for key in keys:
            values = np.array(report.rows[key])
            errs = np.array(report.errors_m[key])
            lines.append(fmt_value([
                key[1], key[2], float(values.mean()), float(values.std()), values.size,
                float(errs.mean()),
            ]))
        write(f"curve_{noise_kind}.csv", "\n".join(lines) + "\n")

    lines = [comment, "method,train_seconds,test_seconds,predictions"]
    for method, entry in report.timings.items():
        lines.append(fmt_value([method, entry["train_s"], entry["test_s"], entry["predictions"]]))
    write("timing.csv", "\n".join(lines) + "\n")
    write("config_echo.txt", f"config_hash={report.config_hash}\nseed={report.seed}\n")
    return paths


def report_to_text(report: Report) -> str:
    """``report`` as header fields, its rows stably sorted by (kind, SNR)."""
    header = {"config_hash": report.config_hash, "seed": report.seed}
    for key in sorted(report.rows, key=lambda k: k[:2]):
        noise_kind, snr, method = key
        where = f"{noise_kind}:{fmt_value(snr)}:{method}"
        header[f"rho:{where}"] = report.rows[key]
        header[f"error:{where}"] = report.errors_m[key]
    for method, entry in report.timings.items():
        header[f"timing:{method}"] = [entry["train_s"], entry["test_s"], entry["predictions"]]
    return write_document(REPORT_MAGIC, REPORT_VERSION, header)


def _timing(text: str) -> dict:
    train_s, test_s, predictions = comma_list(str, 3)(text)
    return {"train_s": float(train_s), "test_s": float(test_s), "predictions": int(predictions)}


def load_report(path) -> Report:
    """Read a :func:`report_to_text` document; each row needs both fields."""
    doc = read_document(read_artifact(path), REPORT_MAGIC, REPORT_VERSION)
    report = Report(config_hash=doc.get("config_hash"), seed=doc.get("seed", int))
    tables = {"rho": report.rows, "error": report.errors_m}
    lines = {}  # (tag, row) -> line
    for key, (_, line) in doc.values.items():
        tag, *where = key.split(":")
        if tag in tables and len(where) == 3:
            noise_kind, snr, method = where
            try:
                row = (one_of(*channel.NOISE_KINDS)(noise_kind), float(snr), method)
            except ValueError as exc:
                raise FormatError(f"line {line}: bad row key {key!r} ({exc})") from None
            if (tag, row) in lines:
                raise FormatError(f"line {line}: second {tag} field for {row}")
            lines[tag, row] = line
            tables[tag][row] = doc.get(key, comma_list(float))
        elif tag == "timing" and len(where) == 1:
            report.timings[where[0]] = doc.get(key, _timing)
        elif key not in ("config_hash", "seed"):
            raise FormatError(f"line {line}: unknown report field {key!r}")
    if not lines:
        raise FormatError(f"line {doc.line}: a report needs rho and error fields")
    for (tag, row), line in lines.items():
        other = "error" if tag == "rho" else "rho"
        if len(tables[other].get(row, ())) != len(tables[tag][row]):
            raise FormatError(f"line {line}: {tag} field has no {other} field of equal length")
    return report


def save_bmatrices(path, grids, stack) -> None:
    """Persist a prediction stack: the header names the grids, strictly
    ascending, then the (grids, sample_count, kinds) ``stack`` follows as
    one little-endian int64 array. ``stack[g]`` holds the labels of the
    captures taken at grid ``grids[g]``, so that grid is their true label."""
    if stack.ndim != 3 or stack.shape[1] < 1 or stack.shape[2] != len(KIND_ORDER):
        raise ValueError(f"need nonempty Z x {len(KIND_ORDER)} matrices, got {stack.shape[1:]}")
    if not len(grids) == len(stack) >= 1 or (np.diff(grids) <= 0).any():
        raise ValueError("need one grid per matrix, strictly ascending, and a matrix at least")
    if grids[0] < 1 or stack.min() < 1:
        raise ValueError("grid keys and predicted labels must be >= 1")
    header = {"kinds": [kind.value for kind in KIND_ORDER], "grids": grids,
              "sample_count": stack.shape[1]}
    Path(path).write_bytes(write_arrays(BMAT_MAGIC, BMAT_VERSION, header, [("<i8", stack)]))


def load_bmatrices(path) -> tuple:
    """Read :func:`save_bmatrices` output as ``(grids, stack)``: the kinds
    must be the six families, the grids strictly ascending and every
    predicted label >= 1."""
    raw = read_artifact(path)
    doc, offset = read_header(raw, BMAT_MAGIC, BMAT_VERSION)
    doc.get("kinds", one_of(fmt_value([kind.value for kind in KIND_ORDER])))
    grids = doc.get("grids", comma_list(positive_int))
    if (np.diff(grids) <= 0).any():
        raise FormatError(f"line {doc.values['grids'][1]}: grid labels must be strictly ascending")
    z = doc.get("sample_count", positive_int)
    (stack,) = read_arrays(raw, offset, [("<i8", (len(grids), z, len(KIND_ORDER)))])
    if stack.min() < 1:
        at = int((stack < 1).argmax())  # the first label below 1, in file order
        raise FormatError(f"prediction label {stack.flat[at]} is below 1", offset + 8 * at)
    return grids, stack
