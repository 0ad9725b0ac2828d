"""A reduced accuracy-versus-SNR study with CSV report emission.

Runs the sweep for all three noise kinds at four SNRs (one repetition to
keep the demo quick), prints the curves, and writes the report artifacts.
The full desk-scale protocol lives in tests/test_acceptance.py.
"""

import tempfile
from pathlib import Path

from goofloc import ExperimentConfig
from goofloc.experiments import emit_report, run_snr_sweep
from goofloc.fingerprints import KIND_ORDER


def main():
    cfg = ExperimentConfig(
        seed=42,
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
        snr_grid_db=(-10.0, 0.0, 10.0, 20.0),
        repetitions=1,
    )
    print("running sweep: 3 noise kinds x 4 SNRs x 16 grids (one repetition) ...")
    report = run_snr_sweep(cfg, verbose=True)

    methods = [k.value for k in KIND_ORDER] + ["mode", "swim_w5"]
    for kind in cfg.noise_kinds:
        print(f"\nmean prediction probability, {kind} noise:")
        print("  " + " ".join(f"{m:>8s}" for m in ["snr_db"] + methods))
        for snr in cfg.snr_grid_db:
            row = [f"{snr:8.0f}"] + [f"{report.mean_rho(kind, snr, m):8.3f}" for m in methods]
            print("  " + " ".join(row))

    print("\ntiming (seconds accumulated across cells; the bank row holds all six")
    print("forests' training and prediction, fusion rows only their own fusion):")
    for method in ("bank", "mode", "swim_w5"):
        t = report.timings[method]
        print(f"  {method:8s} train {t['train_s']:7.2f}  test {t['test_s']:7.3f}  "
              f"predictions {t['predictions']}")

    with tempfile.TemporaryDirectory() as tmp:
        paths = emit_report(report, "csv", Path(tmp))
        print("\nreport artifacts:")
        for path in paths:
            print(f"  {path.name}: {len(path.read_text().splitlines())} lines")
        head = (Path(tmp) / "curve_gaussian.csv").read_text().splitlines()[:4]
        print("\nfirst lines of curve_gaussian.csv:")
        for line in head:
            print(f"  {line}")


if __name__ == "__main__":
    main()
