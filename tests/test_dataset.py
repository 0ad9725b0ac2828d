"""Snapshot dataset file round-trips and corruption handling."""

import numpy as np
import pytest

from goofloc.channel import SnapshotBlock
from goofloc.dataset import load_snapshot_dataset, save_snapshot_dataset
from goofloc.errors import FormatError


def make_blocks(q=3, m=4, length=8, seed=0, noise_kind="gaussian", snr_db=12.0):
    rng = np.random.default_rng(seed)
    blocks = []
    for grid in range(1, q + 1):
        data = rng.standard_normal((m, length)) + 1j * rng.standard_normal((m, length))
        blocks.append(
            SnapshotBlock(data=data, grid_label=grid, snr_db=snr_db, noise_kind=noise_kind)
        )
    return blocks


def test_round_trip_is_bit_identical(tmp_path):
    blocks = make_blocks()
    path = tmp_path / "cell.goofsnap"
    save_snapshot_dataset(path, blocks)
    loaded = load_snapshot_dataset(path)
    assert len(loaded) == len(blocks)
    for orig, back in zip(blocks, loaded):
        assert np.array_equal(orig.data, back.data)
        assert back.grid_label == orig.grid_label
        assert back.snr_db == orig.snr_db
        assert back.noise_kind == orig.noise_kind


def test_header_carries_protocol_dimensions(tmp_path):
    # the real-data protocol shape: M=4 antennas, L=400 snapshots, Q=18 grids
    blocks = make_blocks(q=18, m=4, length=400, noise_kind="none", snr_db=float("inf"))
    path = tmp_path / "recorded.goofsnap"
    save_snapshot_dataset(path, blocks)
    header = path.read_bytes().split(b"end-header")[0].decode()
    assert header.splitlines()[0] == "GOOF-SNAP 1"
    assert "m=4" in header and "l=400" in header and "q=18" in header
    loaded = load_snapshot_dataset(path)
    assert len(loaded) == 18
    assert loaded[0].data.shape == (4, 400)


def test_truncated_file_reports_offset(tmp_path):
    blocks = make_blocks()
    path = tmp_path / "cell.goofsnap"
    save_snapshot_dataset(path, blocks)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 100])
    with pytest.raises(FormatError) as err:
        load_snapshot_dataset(path)
    assert err.value.byte_offset == len(raw) - 100


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.goofsnap"
    path.write_bytes(b"NOT-A-DATASET 1\nend-header\n")
    with pytest.raises(FormatError):
        load_snapshot_dataset(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "bad.goofsnap"
    path.write_bytes(b"GOOF-SNAP 99\nm=1\nl=1\nq=1\nend-header\n" + b"\0" * 16)
    with pytest.raises(FormatError):
        load_snapshot_dataset(path)


def test_trailing_garbage_rejected(tmp_path):
    blocks = make_blocks()
    path = tmp_path / "cell.goofsnap"
    save_snapshot_dataset(path, blocks)
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(FormatError):
        load_snapshot_dataset(path)


def test_blocks_must_be_in_label_order(tmp_path):
    blocks = make_blocks()
    blocks[0], blocks[1] = blocks[1], blocks[0]
    with pytest.raises(ValueError):
        save_snapshot_dataset(tmp_path / "x.goofsnap", blocks)


def test_non_finite_sample_names_its_grid(tmp_path):
    blocks = make_blocks(q=4, m=3, length=5)
    path = tmp_path / "cell.goofsnap"
    save_snapshot_dataset(path, blocks)
    raw = bytearray(path.read_bytes())
    start = raw.index(b"end-header\n") + 11
    at = start + 3 * 5 * 16 + 7 * 16  # grid 2, element 1, snapshot 2
    raw[at : at + 8] = np.array([np.nan], "<f8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="non-finite sample in grid 2") as err:
        load_snapshot_dataset(path)
    assert err.value.byte_offset == start + 3 * 5 * 16
