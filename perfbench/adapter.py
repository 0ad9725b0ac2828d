"""The benchmark's only door into ``goofloc``.

Every call the workloads make into the program, and every function the
traced run wraps, goes through this module. Planned refactors change
public shapes such as ``Goof.features`` (a dense store) and
``Forest.trees`` (flat arrays); when they land, this file is the one to
update, and the workloads, the tracer and the metric names stay put.

Importing this module imports ``goofloc`` from the ``src`` directory of
the checkout the benchmark sits in, never an installed copy, and raises
:class:`ProgramMissing` when that source is absent.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(ImportError):
    """The checkout holds no importable ``goofloc`` source."""


def _import_program():
    if not (SRC / "goofloc" / "__init__.py").is_file():
        raise ProgramMissing(f"no goofloc package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import goofloc

    if Path(goofloc.__file__).resolve().parent != SRC / "goofloc":
        raise ProgramMissing(f"goofloc was imported from {goofloc.__file__}, not {SRC}")
    return goofloc


goofloc = _import_program()

import numpy as np  # noqa: E402  (numpy comes in with goofloc; thread caps are set before)

from goofloc import channel, cli, experiments, fingerprints, forest, fusion  # noqa: E402

KINDS = tuple(kind.value for kind in fingerprints.KIND_ORDER)


def src_digest() -> str:
    """SHA-256 over every file of the program source, in path order."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------- configs


def make_config(seed: int, **fields):
    config = experiments.ExperimentConfig(seed=seed, **fields)
    config.validate()
    return config


def config_digest(config) -> str:
    return experiments.config_hash(config)


def write_config(config, path) -> None:
    Path(path).write_text(experiments.config_to_text(config), encoding="utf-8")


# ---------------------------------------------------------------- sweep


def run_sweep(config):
    return experiments.run_snr_sweep(config)


def emit_csv(report, out_dir) -> list:
    return experiments.emit_report(report, "csv", out_dir)


def fused_cells(report, method: str) -> dict:
    """``(noise kind, snr) -> (mean rho, mean centroid error, grid rows)``
    for one fusion method."""
    cells = {}
    for (kind, snr, name), values in report.rows.items():
        if name == method:
            errors = report.errors_m[(kind, snr, name)]
            cells[(kind, snr)] = (float(np.mean(values)), float(np.mean(errors)), len(values))
    return cells


# ---------------------------------------------------------------- online


def simulate(config, noise_kind: str, snr_db: float) -> list:
    return experiments.simulate_cell(config, noise_kind, snr_db)


def block_slice(block, start: int, stop: int):
    """The snapshots ``start:stop`` of one grid's capture, as a new block."""
    return channel.SnapshotBlock(
        data=block.data[:, start:stop],
        grid_label=block.grid_label,
        snr_db=block.snr_db,
        noise_kind=block.noise_kind,
    )


def block_grid(block) -> int:
    return block.grid_label


def train(blocks, group_count: int, config, seed: int):
    """Fingerprint a training capture and fit the six-forest bank."""
    goof = fingerprints.build_goof(blocks, group_count, config.flom_exponent, config.psd_points)
    return forest.train_bank(
        goof,
        config.tree_count,
        config.depth_limit,
        config.learner_spec(),
        seed,
        class_count=config.grid_count,
    )


def locate(bank, block, group_count: int, window: int, config) -> np.ndarray:
    """One query: fingerprint a capture slice, run the bank, fuse with SWIM."""
    goof = fingerprints.build_goof([block], group_count, config.flom_exponent, config.psd_points)
    grid = block.grid_label
    samples = {kind: goof.features(kind, grid) for kind in fingerprints.KIND_ORDER}
    matrix = forest.predict_matrix(bank, samples, true_label=grid)
    return fusion.swim(matrix.matrix, window, class_count=config.grid_count).labels


# ---------------------------------------------------------------- staged CLI


def cli_main(argv: list) -> tuple[int, str]:
    """Run one CLI stage in-process; returns (exit code, captured output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def snapshot_file_name(noise_kind: str, snr_db: float) -> str:
    return f"snapshots_{noise_kind}_{snr_db:g}dB.goofsnap"


# ---------------------------------------------------------------- trace points


def _tree_nodes(trained) -> int:
    return sum(tree.node_count() for tree in trained.trees)


def _kind_name(kind) -> str:
    return kind.value if hasattr(kind, "value") else str(kind)


def _path_bytes(path) -> int:
    path = Path(path)
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return path.stat().st_size


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _train_name(args, kwargs, parent):
    return "forest.train." + _kind_name(kwargs.get("kind"))


def _train_counts(args, kwargs, result, parent):
    return {"forest.nodes." + _kind_name(result.kind): _tree_nodes(result)}


def _predict_name(args, kwargs, parent):
    return "forest.predict." + _kind_name(args[0].kind)


def _predict_counts(args, kwargs, result, parent):
    return {"forest.predictions": len(result)}


def _simulate_counts(args, kwargs, result, parent):
    return {"channel.blocks": len(result)}


def _goof_counts(args, kwargs, result, parent):
    return {"fingerprints.groups": result.group_count * len(result.grids())}


def _swim_name(args, kwargs, parent):
    # the mode baseline runs SWIM once over the whole matrix; keep that
    # apart from the sliding-window fusion proper
    return "fusion.mode_swim" if parent == "fusion.mode" else "fusion.swim"


def _swim_counts(args, kwargs, result, parent):
    if parent == "fusion.mode":
        return {}
    counts = {"fusion.windows": result.prediction_count}
    counts.update({"fusion.selected." + kind: 0 for kind in KINDS})
    for column in result.selected:
        counts["fusion.selected." + KINDS[int(column)]] += 1
    return counts


def _bytes_counter(metric: str, index: int, name: str):
    def counts(args, kwargs, result, parent):
        return {metric: _path_bytes(_arg(args, kwargs, index, name))}

    return counts


def _cell_id(args, kwargs):
    config, noise_kind, snr_db = args[:3]
    repetition = kwargs.get("repetition", args[3] if len(args) > 3 else 0)
    return f"cell:{noise_kind}:{snr_db:g}dB:rep{repetition}"


# (module, attribute, span name or namer, counter[, op]). Each entry is a
# name where some caller resolves the function at call time, so patching
# it there puts a span around every such call. Simulating a cell starts
# that cell, so its op id also stamps the spans that follow it.
_SIMULATE = ("channel.simulate", _simulate_counts, _cell_id)
_BUILD_GOOF = ("fingerprints.build_goof", _goof_counts)
_TRAIN = (_train_name, _train_counts)
_SWIM = (_swim_name, _swim_counts)
_EXTRACTORS = {
    "est_covariance": "cmf",
    "extract_rss": "rssf",
    "est_psd": "psdf",
    "est_signal_subspace": "ssf",
    "est_foc": "focf",
    "est_flom": "flomf",
}

TRACE_POINTS = [
    ("goofloc.experiments", "run_snr_sweep", "experiments.run_snr_sweep", None),
    ("goofloc.experiments", "emit_report", "experiments.emit_report", None),
    ("goofloc.experiments", "simulate_cell", *_SIMULATE),
    ("goofloc.cli", "simulate_cell", *_SIMULATE),
    ("goofloc.experiments", "build_goof", *_BUILD_GOOF),
    ("goofloc.cli", "build_goof", *_BUILD_GOOF),
    ("goofloc.fingerprints", "build_goof", *_BUILD_GOOF),
    *[
        ("goofloc.fingerprints", attr, "fingerprints.extract." + family, None)
        for attr, family in _EXTRACTORS.items()
    ],
    ("goofloc.forest", "train_bank", "forest.train_bank", None),
    ("goofloc.cli", "train_bank", "forest.train_bank", None),
    ("goofloc.experiments", "train_forest", *_TRAIN),
    ("goofloc.forest", "train_forest", *_TRAIN),
    ("goofloc.forest", "predict_matrix", "forest.predict_matrix", None),
    ("goofloc.cli", "predict_matrix", "forest.predict_matrix", None),
    ("goofloc.forest.Forest", "predict_batch", _predict_name, _predict_counts),
    ("goofloc.cli", "save_bank", "forest.save", _bytes_counter("forest.bank_bytes", 1, "directory")),
    ("goofloc.cli", "load_bank", "forest.load", None),
    ("goofloc.cli", "save_goof", "fingerprints.save",
     _bytes_counter("fingerprints.store_bytes", 1, "directory")),
    ("goofloc.cli", "load_goof", "fingerprints.load", None),
    ("goofloc.cli", "save_snapshot_dataset", "dataset.save",
     _bytes_counter("dataset.bytes", 0, "path")),
    ("goofloc.cli", "ingest_recorded_dataset", "dataset.load", None),
    ("goofloc.cli", "save_bmatrices", "experiments.bmat_save", None),
    ("goofloc.cli", "load_bmatrices", "experiments.bmat_load", None),
    ("goofloc.experiments", "full_matrix_mode", "fusion.mode", None),
    ("goofloc.experiments", "swim", *_SWIM),
    ("goofloc.cli", "swim", *_SWIM),
    ("goofloc.fusion", "swim", *_SWIM),
]


def resolve_owner(dotted: str):
    """The module or class named by a dotted path such as
    ``goofloc.forest.Forest``."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(module), attr)

# Entry points inside the program's calls at which host speed may be
# sampled (see hostspeed.py): one per forest, the bulk of a sweep and of
# the train stage.
SAMPLE_POINTS = [
    ("goofloc.experiments", "train_forest"),
    ("goofloc.forest", "train_forest"),
]
