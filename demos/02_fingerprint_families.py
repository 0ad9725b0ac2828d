"""The six fingerprint families extracted from one simulated cell.

Shows the dimension bookkeeping of each family, then checks that samples
of the same grid cluster tighter than samples of different grids, which is
what makes the fingerprints usable as classifier features.
"""

import numpy as np

from goofloc import ExperimentConfig, build_goof
from goofloc.experiments import simulate_cell
from goofloc.fingerprints import KIND_ORDER, FingerprintKind, feature_dim


def main():
    cfg = ExperimentConfig(seed=99, grid_count=16, num_elements=7,
                           snapshot_count=640, group_count=20)
    print("simulating one gaussian cell at 14 dB ...")
    blocks = simulate_cell(cfg, "gaussian", 14.0)
    goof = build_goof(blocks, cfg.group_count, cfg.flom_exponent)
    print(f"store: {len(goof.grids())} grids x {goof.group_count} samples/grid, "
          f"{goof.snapshots_per_group} snapshots per sample\n")

    print(f"{'family':8s} {'dim':>5s}   transformation")
    table = {
        FingerprintKind.CMF: "abs of reshaped sample covariance",
        FingerprintKind.RSSF: "covariance diagonal (per-element power)",
        FingerprintKind.PSDF: "row-normalized per-element power spectrum",
        FingerprintKind.SSF: "abs of principal covariance eigenvector",
        FingerprintKind.FOCF: "abs of reshaped fourth-order cumulants",
        FingerprintKind.FLOMF: "abs of reshaped fractional low-order moments",
    }
    for kind in KIND_ORDER:
        dim = feature_dim(kind, cfg.num_elements, goof.snapshots_per_group)
        actual = goof.features(kind, 1)[0].shape[0]
        assert actual == dim
        print(f"{kind.value:8s} {dim:5d}   {table[kind]}")

    print("\nwithin-grid vs between-grid feature distances (mean Euclidean):")
    rng = np.random.default_rng(0)
    for kind in KIND_ORDER:
        within, between = [], []
        for _ in range(200):
            g1, g2 = rng.choice(goof.grids(), size=2, replace=False)
            s = goof.features(kind, int(g1))
            i, j = rng.choice(len(s), size=2, replace=False)
            within.append(np.linalg.norm(s[i] - s[j]))
            t = goof.features(kind, int(g2))
            between.append(np.linalg.norm(s[i] - t[j]))
        ratio = np.mean(between) / np.mean(within)
        print(f"  {kind.value:8s}: within {np.mean(within):8.4f}  "
              f"between {np.mean(between):8.4f}  separation x{ratio:5.1f}")

    print("\nlarger separation factors mean an easier classification problem;")
    print("the families react differently to each noise type, which is what")
    print("the per-family classifier bank exploits.")


if __name__ == "__main__":
    main()
