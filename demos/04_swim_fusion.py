"""Sliding-window fusion, step by step.

Builds a prediction matrix at a noisy SNR, walks one window through the
selection / constrained-mode logic, then compares the single-family
classifiers, the full-matrix mode baseline, and the windowed fusion.
"""

import numpy as np

from goofloc import ExperimentConfig, WeakLearnerSpec, build_goof, prediction_probability, swim
from goofloc.experiments import simulate_cell
from goofloc.fingerprints import KIND_ORDER
from goofloc.forest import predict_matrix, shannon_entropy, train_bank
from goofloc.fusion import constrained_mode, full_matrix_mode, select_classifier


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
        print(f"  {name:8s} predictions {list(col)}  entropy {h:.3f} bits")
    g = select_classifier(window, cfg.grid_count)
    fused = constrained_mode(window, window[:, g])
    print(f"selected classifier: {names[g]} (minimum entropy); fused label: {fused}")

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


if __name__ == "__main__":
    main()
