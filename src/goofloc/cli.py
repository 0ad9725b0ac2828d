"""Command-line interface.

Subcommands mirror the pipeline stages: ``simulate`` writes snapshot
dataset files, ``build-goof`` extracts fingerprints, ``train`` fits the
classifier bank, ``test`` emits prediction matrices, ``fuse`` runs the
sliding-window fusion, ``sweep-snr`` / ``sweep-forest`` run whole studies,
and ``report`` re-emits a saved report. Exit codes: 0 ok, 2 config error,
3 format error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .dataset import load_snapshot_dataset as ingest_recorded_dataset, save_snapshot_dataset
from .errors import ConfigError, DegenerateInputError, FormatError, NumericalFailure
from .experiments import (
    ExperimentConfig,
    cell_key,
    config_from_mapping,
    config_from_text,
    config_to_text,
    emit_report,
    load_bmatrices,
    load_report,
    run_forest_sweep,
    run_snr_sweep,
    save_bmatrices,
    simulate_cell,
)
from .fingerprints import KIND_ORDER, build_goof, load_goof, save_goof
from .forest import (
    PredictionMatrix, WeakLearnerSpec, load_bank, predict_matrix, save_bank, train_bank,
)
from .fusion import fusion_report_rows, prediction_probability, swim
from .textio import fmt_value, read_artifact, write_document


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="structured-text config file")
    for f in fields(ExperimentConfig):
        parser.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, default=None)


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    _add_config_flags(parser)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--format", choices=["csv", "structured-text"], default="csv")
    parser.add_argument("--quiet", action="store_true")
    parser.set_defaults(func=_cmd_sweep)


def _build_config(args) -> ExperimentConfig:
    raw = {}
    if args.config:
        base = config_from_text(read_artifact(args.config))
        raw = {f.name: fmt_value(getattr(base, f.name)) for f in fields(ExperimentConfig)}
    for f in fields(ExperimentConfig):
        if getattr(args, f.name) is not None:
            raw[f.name] = getattr(args, f.name)
    if not raw:
        raise ConfigError("config", "provide --config or at least --seed")
    config = config_from_mapping(raw)
    config.validate()
    return config


def _cmd_simulate(args) -> int:
    config = _build_config(args)
    # a bad repetition raises before --out-dir exists
    cell_key(config.seed, config.noise_kinds[0], config.snr_grid_db[0], args.repetition)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for kind in config.noise_kinds:
        for snr in config.snr_grid_db:
            blocks = simulate_cell(config, kind, snr, repetition=args.repetition)
            path = out_dir / f"snapshots_{kind}_{snr:g}dB.goofsnap"
            save_snapshot_dataset(path, blocks)
            print(f"wrote {path}")
    return 0


def _cmd_build_goof(args) -> int:
    blocks = ingest_recorded_dataset(args.dataset)
    goof = build_goof(blocks, args.group_count, args.flom_exponent, args.psd_points)
    save_goof(goof, args.out)
    print(f"built {goof.group_count} samples/grid x {len(goof.grids())} grids -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    goof = load_goof(args.goof)
    if args.train_count is not None:
        goof, _ = goof.split(args.train_count, goof.group_count - args.train_count)
    spec_kwargs = {"primitive": args.primitive, "threshold_candidates": args.threshold_candidates}
    if args.feature_subspace is not None:
        spec_kwargs["feature_subspace_size"] = args.feature_subspace
    bank = train_bank(
        goof,
        args.tree_count,
        args.depth_limit,
        WeakLearnerSpec(**spec_kwargs),
        cell_key(args.seed, goof.noise_kind, goof.snr_db),
    )
    save_bank(bank, args.out)
    print(f"trained {len(KIND_ORDER)} forests ({args.tree_count} trees each) -> {args.out}")
    return 0


def _cmd_test(args) -> int:
    goof = load_goof(args.goof)
    if args.skip_count:
        _, goof = goof.split(args.skip_count, goof.group_count - args.skip_count)
    bank = load_bank(args.bank)
    for kind, forest in bank.forests.items():
        if forest.feature_dim != goof.data[kind].shape[2]:
            raise FormatError(f"{args.bank}: {kind.value} forest does not fit {args.goof}")
    pm = predict_matrix(bank, {kind: goof.stack(kind)[0] for kind in KIND_ORDER})
    rows = pm.matrix.reshape(len(goof.labels), goof.group_count, len(KIND_ORDER))
    matrices = {grid: PredictionMatrix(b, true_label=grid) for grid, b in zip(goof.grids(), rows)}
    save_bmatrices(args.out, matrices)
    print(f"wrote prediction matrices for {len(matrices)} grids -> {args.out}")
    return 0


def _cmd_fuse(args) -> int:
    matrices = load_bmatrices(args.bmatrices)
    results = {}
    for grid, pm in matrices.items():
        result = swim(pm.matrix, args.window)
        if pm.true_label is not None:
            result.rho = prediction_probability(result.labels, pm.true_label)
        results[grid] = result
    rows = fusion_report_rows(results, args.window, [k.value for k in KIND_ORDER])
    text = write_document("GOOF-FUSION", 1, {"window": args.window}, rows)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_sweep(args) -> int:
    config = _build_config(args)
    if args.command == "sweep-snr":
        report = run_snr_sweep(config, verbose=not args.quiet)
    else:
        report = run_forest_sweep(config, args.vary, verbose=not args.quiet)
    # the lossless report document is always kept so `goofloc report` can
    # re-emit other formats later
    paths = emit_report(report, "structured-text", args.out_dir)
    if args.format != "structured-text":
        paths += emit_report(report, args.format, args.out_dir)
    echo = Path(args.out_dir) / "config.txt"
    echo.write_text(config_to_text(config), "utf-8")
    for path in paths + [echo]:
        print(f"wrote {path}")
    return 0


def _cmd_report(args) -> int:
    report = load_report(args.report)
    for path in emit_report(report, args.format, args.out_dir):
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goofloc",
        description="Fingerprint-fusion indoor localization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write snapshot dataset files per (noise, SNR) cell")
    _add_config_flags(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--repetition", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("build-goof", help="extract the six fingerprint families")
    p.add_argument("--dataset", required=True, help="snapshot dataset file")
    p.add_argument("--group-count", type=int, required=True)
    p.add_argument("--flom-exponent", type=float, default=1.2)
    p.add_argument("--psd-points", type=int, default=None)
    p.add_argument("--out", required=True, help="output fingerprint store directory")
    p.set_defaults(func=_cmd_build_goof)

    p = sub.add_parser("train", help="train the random-forest classifier bank")
    p.add_argument("--goof", required=True, help="fingerprint store directory")
    p.add_argument("--train-count", type=int, default=None, help="groups per grid to train on")
    p.add_argument("--tree-count", type=int, default=40)
    p.add_argument("--depth-limit", type=int, default=8)
    p.add_argument("--primitive", default="axis_aligned_stump")
    p.add_argument("--feature-subspace", type=int, default=None)
    p.add_argument("--threshold-candidates", type=int, default=10)
    p.add_argument("--seed", type=int, required=True, help="seed of the sweep cell in --goof")
    p.add_argument("--out", required=True, help="output bank directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("test", help="emit per-grid prediction matrices")
    p.add_argument("--goof", required=True)
    p.add_argument("--skip-count", type=int, default=0, help="training groups to skip per grid")
    p.add_argument("--bank", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("fuse", help="sliding-window fusion over saved prediction matrices")
    p.add_argument("--bmatrices", required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fuse)

    _add_sweep_flags(sub.add_parser("sweep-snr", help="accuracy-vs-SNR study"))
    p = sub.add_parser("sweep-forest", help="tree depth / tree number study")
    p.add_argument("--vary", choices=["tree_depth", "tree_number"], required=True)
    _add_sweep_flags(p)

    p = sub.add_parser("report", help="re-emit a saved report")
    p.add_argument("--report", required=True, help="structured-text report file")
    p.add_argument("--format", choices=["csv", "structured-text"], default="csv")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 3
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except DegenerateInputError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
