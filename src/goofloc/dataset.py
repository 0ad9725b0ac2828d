"""Snapshot dataset files.

One file holds the blocks of every grid for a single (SNR, noise kind)
cell: a UTF-8 text header (magic ``GOOF-SNAP``), then the grid matrices in
label order as little-endian float64 interleaved (re, im) pairs, row-major
M x L per grid. The same format ingests externally recorded data.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .channel import SnapshotBlock
from .errors import FormatError
from .textio import positive_int, read_arrays, read_artifact, read_header, write_arrays

MAGIC = "GOOF-SNAP"
VERSION = 1


def save_snapshot_dataset(path, blocks: list[SnapshotBlock]) -> None:
    """Write one file for a list of per-grid blocks (labels 1..Q, in order)."""
    if not blocks:
        raise ValueError("no blocks to save")
    m, length = blocks[0].data.shape
    for i, block in enumerate(blocks):
        if block.data.shape != (m, length):
            raise ValueError("all blocks must share the same M x L shape")
        if block.grid_label != i + 1:
            raise ValueError("blocks must be ordered by grid label 1..Q")
    first = blocks[0]
    header = {
        "m": m, "l": length, "q": len(blocks), "noise_kind": first.noise_kind,
        "snr_db": first.snr_db,
    }
    Path(path).write_bytes(
        write_arrays(MAGIC, VERSION, header, [("<c16", block.data) for block in blocks])
    )


def load_snapshot_dataset(path) -> list[SnapshotBlock]:
    """Read a snapshot dataset file back into per-grid blocks.

    Raises FormatError on a bad magic, version or header field (naming
    the line) and on a truncated payload (with the offending byte offset);
    never returns a partial list.
    """
    raw = read_artifact(path)
    doc, offset = read_header(raw, MAGIC, VERSION)
    m, length, q = (doc.get(key, positive_int) for key in ("m", "l", "q"))
    noise_kind = doc.get("noise_kind", default="none")
    snr_db = doc.get("snr_db", float, math.inf)
    (data,) = read_arrays(raw, offset, [("<c16", (q, m, length))])
    snr_db = math.inf if math.isnan(snr_db) else snr_db
    blocks = []
    for gi, grid in enumerate(data):
        try:  # a writable copy, as a simulated block is; the block checks it is finite
            blocks.append(SnapshotBlock(grid.astype(np.complex128), gi + 1, snr_db, noise_kind))
        except ValueError:
            at = offset + gi * m * length * 16
            raise FormatError(f"non-finite sample in grid {gi + 1}", at) from None
    return blocks
