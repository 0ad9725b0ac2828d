"""Pinned sha256 digests of the artifacts whose bytes must not move.

A refactor that keeps these digests keeps every curve CSV and every
timing-free staged artifact byte-identical. The digests hold for the
numpy these files were last written with; a failure names the file and
the numpy in use, since a numpy update may legitimately move a float.
Timing tables and reports hold wall-clock seconds and are never pinned.
"""

import hashlib
from pathlib import Path

import numpy as np

# emit_report(run_snr_sweep(DESK_CONFIG), "csv", ...) of test_acceptance.py
DESK = {
    "config_echo.txt": "36245efa162c8b6af25c6b5d118420c9c6c54080488462b00facae076b5a1348",
    "curve_color.csv": "d68fe4a7b5199b3ff06457535bcb8fb8e66f890b05b7f5c82f767e0b6bbba3e1",
    "curve_gaussian.csv": "7fff87b957d92b9bcbf1261a1f1e8de673a7db21baee4b189a4d462711899872",
    "curve_impulse.csv": "0280c83ae35ba301e16bf3db1e28c0f36c556d3ef2f71d7386346352c0f6c634",
}

# the criterion-6 forest sweeps of test_acceptance.py, one directory each
FOREST = {
    "tree_depth/config_echo.txt":
        "72908089fd87822e09bdec2d3324dea7f697bf779b6ac43c186545312d7ba962",
    "tree_depth/curve_gaussian.csv":
        "596b0f981e9f291a49663d9d48448862be67504b2ed0c2e996e7281dc2751390",
    "tree_number/config_echo.txt":
        "72908089fd87822e09bdec2d3324dea7f697bf779b6ac43c186545312d7ba962",
    "tree_number/curve_gaussian.csv":
        "2bf60dea80090065ee2ca98c46f3d2f7ce5159b9d49b5e13b7df0caa8b8568a7",
}

# the staged fixture of test_cli.py
STAGED = {
    "config.txt": "a036cec6568003224acd59be7d268f4983b1511a932a573e1bbaa47a21c5df5e",
    "snapshots_gaussian_18dB.goofsnap":
        "35d55e46214a23bdc9bee29fcd5a93f70b6f18058c1cb12058bbf85c76b06951",
    "goof": "94dff604d090f060ffeec8302ba5f006561ae50abcd615c0261f35db04614bdc",
    "bank/forest_cmf.goofforest":
        "106684260f53f1724fe8ba56c2ec40be3c06122262fa594d543b40657c6ee7a0",
    "bank/forest_rssf.goofforest":
        "0f7a1757d17a0932e076f75f70e58f7d7ad73e031d9d9930b5a5ccb4c8c590c7",
    "bank/forest_psdf.goofforest":
        "6f17f04f959371c0a4b34540d108fa28c16801cbcfb986b273d3eb43bd2304af",
    "bank/forest_ssf.goofforest":
        "5051093927977d5c297ed636b9dbe3eab9722d13a5043efe718398209dc78fcb",
    "bank/forest_focf.goofforest":
        "70cc52892902f155458a48c79ebaff291ffa8041cfa0e27c874ec1ea7b477ca7",
    "bank/forest_flomf.goofforest":
        "9cb1d3a317b9723011001a8f4fc08fd025f04b79c43754055d54e369fe1645eb",
    "b.txt": "742b206ff027bf623f1e61ebc98bf119384899ebb43b6b574be2fd96b777a579",  # GOOF-BMAT 3
    "fusion.txt": "548c4f9d14022e90e9810ed5b09f8caef7a08844bdeb6ab11f336e05b87e8468",
    "sweep/config.txt": "a036cec6568003224acd59be7d268f4983b1511a932a573e1bbaa47a21c5df5e",
}


def assert_digests(root, pinned: dict) -> None:
    """Every file of ``pinned`` under ``root`` has its pinned sha256."""
    wrong = []
    for name, digest in pinned.items():
        got = hashlib.sha256(Path(root, name).read_bytes()).hexdigest()
        if got != digest:
            wrong.append(f"{name}: sha256 {got}, pinned {digest}")
    assert not wrong, f"bytes moved (numpy {np.__version__}): " + "; ".join(wrong)
