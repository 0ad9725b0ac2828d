"""Multipath channel simulation walkthrough.

Builds the room scenario, inspects steering vectors and path clusters,
synthesizes noiseless snapshot blocks, and corrupts them with the three
noise models at a chosen SNR. Finishes by writing one snapshot dataset
file and reading it back.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from goofloc.channel import (
    ArrayGeometry,
    NoiseSpec,
    add_noise,
    generate_paths,
    geometry_to_channel,
    make_grid_scenario,
    steering_vector,
    synthesize_snapshots,
)
from goofloc.dataset import load_snapshot_dataset, save_snapshot_dataset

ANGULAR_SPREAD_DEG = 25.0


def main():
    print("=" * 70)
    print("1. Room scenario: 8 m x 8 m, 16 grids, array at the corner")
    print("=" * 70)
    scenario = make_grid_scenario(8.0, 8.0, 16)
    geometry = ArrayGeometry(num_elements=7, spacing_over_wavelength=0.5)
    print(f"grid 1 center: {scenario.grid_positions[0]}")
    print(f"grid 16 center: {scenario.grid_positions[-1]}")
    print(f"array normal (to room diagonal): {scenario.array_normal}")

    print("\nPer-grid line-of-sight channel (angle off normal, delay):")
    for grid in (1, 4, 16):
        theta0, tau0 = geometry_to_channel(scenario.grid_positions[grid - 1], scenario)
        print(f"  grid {grid:2d}: theta0 = {math.degrees(theta0):6.1f} deg, tau0 = {tau0*1e9:.2f} ns")

    print("\n" + "=" * 70)
    print("2. Steering vectors (unit modulus per element)")
    print("=" * 70)
    for deg in (0.0, 30.0, -45.0):
        v = steering_vector(math.radians(deg), geometry)
        print(f"  theta = {deg:6.1f} deg: phases (deg) = "
              + " ".join(f"{math.degrees(np.angle(x)):7.1f}" for x in v[:4]) + " ...")

    print("\n" + "=" * 70)
    print("3. Path cluster and noiseless snapshots for grid 11")
    print("=" * 70)
    rng = np.random.default_rng(2024)
    theta0, tau0 = geometry_to_channel(scenario.grid_positions[10], scenario)
    paths = generate_paths(theta0, tau0, math.radians(ANGULAR_SPREAD_DEG), tau0 / 10, 20, rng)
    print(f"paths: {len(paths.gains)}, total gain power = {np.sum(np.abs(paths.gains)**2):.6f}")
    print(f"AoA spread: target {ANGULAR_SPREAD_DEG:.1f} deg, "
          f"sample {math.degrees(paths.aoas.std()):.1f} deg")

    block = synthesize_snapshots(paths, geometry, 640, rng, grid_label=11)
    s = np.linalg.svd(block.data, compute_uv=False)
    print(f"block shape: {block.data.shape}, per-element power = {block.signal_power:.3f}")
    print(f"singular values: s1 = {s[0]:.2f}, s2 = {s[1]:.2e}  (single narrowband source)")

    print("\n" + "=" * 70)
    print("4. The three noise models at 10 dB")
    print("=" * 70)
    for kind in ("gaussian", "color", "impulse"):
        noisy = add_noise(block, NoiseSpec(kind, 10.0), np.random.default_rng(1))
        noise = noisy.data - block.data
        power = np.mean(np.abs(noise) ** 2)
        peak = np.abs(noise).max()
        print(f"  {kind:8s}: mean noise power = {power:8.4f}, peak |n| = {peak:8.2f}")
    print("(impulse noise is calibrated by dispersion, not variance: expect wild peaks)")

    print("\n" + "=" * 70)
    print("5. Snapshot dataset file round trip")
    print("=" * 70)
    blocks = []
    for grid in range(1, scenario.grid_count + 1):
        theta0, tau0 = geometry_to_channel(scenario.grid_positions[grid - 1], scenario)
        p = generate_paths(theta0, tau0, math.radians(ANGULAR_SPREAD_DEG), tau0 / 10, 20, rng)
        b = synthesize_snapshots(p, geometry, 64, rng, grid_label=grid)
        blocks.append(add_noise(b, NoiseSpec("gaussian", 20.0), rng))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cell.goofsnap"
        save_snapshot_dataset(path, blocks)
        loaded = load_snapshot_dataset(path)
        identical = all(np.array_equal(a.data, b.data) for a, b in zip(blocks, loaded))
        print(f"wrote {path.stat().st_size} bytes, {len(loaded)} grids, bit-identical: {identical}")


if __name__ == "__main__":
    main()
