"""Sliding-window fusion, step by step.

Builds a prediction matrix at a noisy SNR, shows the column entropies of
one window and the classifier SWIM trusts in each window, then compares
the single-family classifiers, the full-matrix mode baseline, and the
windowed fusion.
"""

import numpy as np

from goofloc import ExperimentConfig, WeakLearnerSpec, build_goof, prediction_probability, swim
from goofloc.experiments import simulate_cell
from goofloc.fingerprints import KIND_ORDER
from goofloc.forest import predict_matrix, shannon_entropy, train_bank
from goofloc.fusion import full_matrix_mode


def main():
    cfg = ExperimentConfig(seed=31, grid_count=16, num_elements=7,
                           snapshot_count=640, group_count=20,
                           train_count=12, test_count=8)
    snr = -2.0
    print(f"one gaussian cell at {snr:g} dB, 12 train / 8 test samples per grid ...")
    blocks = simulate_cell(cfg, "gaussian", snr)
    goof = build_goof(blocks, cfg.group_count)
    train, test = goof.split(cfg.train_count, cfg.test_count)
    bank = train_bank(train, cfg.tree_count, cfg.depth_limit, WeakLearnerSpec(), seed=7)

    grid = 6
    pm = predict_matrix(bank, {k: test.features(k, grid) for k in KIND_ORDER}, true_label=grid)
    names = [k.value for k in KIND_ORDER]
    print(f"\nprediction matrix for grid {grid} (rows = test samples, cols = {names}):")
    for row in pm.matrix:
        print("   " + " ".join(f"{v:3d}" for v in row))

    w = 5
    window = pm.matrix[:w]
    print(f"\nfirst window of length {w}:")
    for name, col in zip(names, window.T):
        h = shannon_entropy(col, cfg.grid_count)
        print(f"  {name:8s} predictions {col.tolist()}  entropy {h:.3f} bits")
    fused = swim(pm.matrix, w, cfg.grid_count)
    print(f"trusted classifier: {names[fused.selected[0]]} (minimum entropy); "
          f"fused label: {fused.labels[0]}")
    print(f"\nevery window of length {w} (trusted column -> fused label):")
    for u, (g, label) in enumerate(zip(fused.selected, fused.labels)):
        print(f"  samples {u}-{u + w - 1}: {names[g]:8s} -> {label}")

    print("\nper-grid prediction probability, averaged over all 16 grids:")
    per_method = {name: [] for name in names}
    per_method["mode"] = []
    rows = {}
    for q in test.grids():
        m = predict_matrix(bank, {k: test.features(k, q) for k in KIND_ORDER}, true_label=q)
        rows[q] = m
        for i, name in enumerate(names):
            per_method[name].append(float((m.matrix[:, i] == q).mean()))
        per_method["mode"].append(1.0 if full_matrix_mode(m.matrix) == q else 0.0)
    for name in names + ["mode"]:
        print(f"  {name:8s}: {np.mean(per_method[name]):.3f}")

    print("\nwindow length trades prediction count against stability:")
    for w in (1, 3, 5, 8):
        rhos = [
            prediction_probability(swim(rows[q].matrix, w, cfg.grid_count).labels, q)
            for q in test.grids()
        ]
        u = cfg.test_count - w + 1
        print(f"  W={w}: {u} predictions per grid, mean rho = {np.mean(rhos):.3f}")
    print("(W=8 equals the full-matrix baseline above, with one prediction per grid)")

    trusted = np.concatenate([swim(rows[q].matrix, 5, cfg.grid_count).selected
                              for q in test.grids()])
    counts = np.bincount(trusted, minlength=len(names))
    print("\nwindows that trusted each classifier at W=5, over all grids:")
    print("  " + "  ".join(f"{name} {n}" for name, n in zip(names, counts)))


if __name__ == "__main__":
    main()
