"""Training the per-family random forests and reading the bank back.

Trains one forest per fingerprint family on a simulated cell, reports
held-out accuracy per family, and shows that serialization is lossless
and byte-reproducible for a fixed seed.
"""

import tempfile
from pathlib import Path

import numpy as np

from goofloc import ExperimentConfig, WeakLearnerSpec, build_goof
from goofloc.experiments import simulate_cell
from goofloc.fingerprints import KIND_ORDER
from goofloc.forest import load_bank, save_bank, serialize_forest, train_bank


def main():
    cfg = ExperimentConfig(seed=5, grid_count=16, num_elements=7,
                           snapshot_count=640, group_count=20,
                           train_count=12, test_count=8)
    print("simulating one gaussian cell at 6 dB and building fingerprints ...")
    blocks = simulate_cell(cfg, "gaussian", 6.0)
    goof = build_goof(blocks, cfg.group_count)
    train, test = goof.split(cfg.train_count, cfg.test_count)

    d = cfg.depth_limit
    print(f"forest shape: {cfg.tree_count} trees, depth {d} "
          f"(full tree: {2**(d - 1) - 1} internal + {2**(d - 1)} leaf = {2**d - 1} nodes max)\n")

    bank = train_bank(train, cfg.tree_count, cfg.depth_limit, WeakLearnerSpec(), seed=cfg.seed)

    print(f"{'family':8s} {'train acc':>10s} {'test acc':>9s} {'nodes':>6s} {'mean depth':>11s}")
    for kind in KIND_ORDER:
        forest = bank.forests[kind]
        xtr, ytr = train.stack(kind)
        xte, yte = test.stack(kind)
        acc_tr = (forest.predict_batch(xtr) == ytr).mean()
        acc_te = (forest.predict_batch(xte) == yte).mean()
        # one node table per forest; each tree is a slice of its rows
        nodes = forest.right.size
        depth = np.mean([t.depth() for t in forest.trees])
        print(f"{kind.value:8s} {acc_tr:10.3f} {acc_te:9.3f} {nodes:6d} {depth:11.2f}")

    print("\nserialization:")
    with tempfile.TemporaryDirectory() as tmp:
        save_bank(bank, Path(tmp) / "bank")
        back = load_bank(Path(tmp) / "bank")
        lossless = all(
            serialize_forest(back.forests[k]) == serialize_forest(bank.forests[k])
            for k in KIND_ORDER
        )
        files = sorted(p.name for p in (Path(tmp) / "bank").iterdir())
        print(f"  files: {', '.join(files)}")
        print(f"  round trip lossless: {lossless}")

    again = train_bank(train, cfg.tree_count, cfg.depth_limit, WeakLearnerSpec(), seed=cfg.seed)
    reproducible = all(
        serialize_forest(again.forests[k]) == serialize_forest(bank.forests[k])
        for k in KIND_ORDER
    )
    print(f"  retraining with the same seed is byte-identical: {reproducible}")


if __name__ == "__main__":
    main()
