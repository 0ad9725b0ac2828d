"""The six fingerprint families (the GOOF) and their extraction.

From one M x L snapshot block, six statistics are estimated and turned
into real feature vectors. Every estimator also takes a stack (..., M, L)
of blocks and gives each block the same result, bit for bit, as it gives
that block alone, so a whole store is extracted with one call per family.
:func:`build_goof` forms each family's features from its estimate:

  CMF    sample covariance matrix              abs(flatten)   M^2
  RSSF   per-element received signal strength  as is          M
  PSDF   normalized per-element power spectrum flatten        M*K
  SSF    principal eigenvector magnitudes      as is          M
  FoCF   fourth-order cross cumulants          abs(flatten)   M^2
  FLOMF  fractional low-order moments          abs(flatten)   M^2

Flattening is column-major; it only has to match between training and
testing. Phases are dropped (absolute values) because they are fragile
under noise; the RSSF, PSDF and SSF estimates are already real and
non-negative.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .channel import SnapshotBlock
from .errors import ConfigError, DegenerateInputError, FormatError, NumericalFailure
from .textio import comma_list, positive_int, read_arrays, read_artifact, read_header, write_arrays


class FingerprintKind(Enum):
    """The six families, in the fixed column order used everywhere."""

    CMF = "cmf"
    RSSF = "rssf"
    PSDF = "psdf"
    SSF = "ssf"
    FOCF = "focf"
    FLOMF = "flomf"


KIND_ORDER = tuple(FingerprintKind)


def feature_dim(kind: FingerprintKind, num_elements: int, psd_points: int) -> int:
    if kind in (FingerprintKind.CMF, FingerprintKind.FOCF, FingerprintKind.FLOMF):
        return num_elements * num_elements
    if kind is FingerprintKind.PSDF:
        return num_elements * psd_points
    return num_elements


def _block_data(block) -> np.ndarray:
    data = np.asarray(block, dtype=complex)
    if data.ndim < 2:
        raise ValueError("block must be an M x L matrix or a stack of them")
    if data.shape[-1] < 1 or data.shape[-2] < 1:
        raise ValueError("block is empty")
    return data


def _transpose(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def _covariances(covariance) -> np.ndarray:
    r = np.asarray(covariance)
    if r.ndim < 2 or r.shape[-1] != r.shape[-2]:
        raise ValueError("covariance must be square")
    return r


def est_covariance(block, conj=None) -> np.ndarray:
    """Sample covariance (1/L) * sum_t y(t) y(t)^H; Hermitian PSD.
    ``conj``, if given, is the block's conjugate, already formed."""
    y = _block_data(block)
    return (y @ _transpose(y.conj() if conj is None else conj)) / y.shape[-1]


def extract_rss(covariance: np.ndarray) -> np.ndarray:
    """Per-element signal strength: the real diagonal of the covariance."""
    return np.real(np.diagonal(_covariances(covariance), axis1=-2, axis2=-1)).copy()


def est_psd(block, psd_points: int | None = None) -> np.ndarray:
    """Normalized per-element power spectral density, M x K.

    Row m is |Y_m(k)|^2 over the first K bins of the length-L DFT of
    element m, normalized to sum to 1. K defaults to L.
    """
    y = _block_data(block)
    length = y.shape[-1]
    k = length if psd_points is None else int(psd_points)
    if not 1 <= k <= length:
        raise ConfigError("psd_points", f"must be in 1..{length}")
    spectrum = np.abs(np.fft.fft(y, axis=-1) / length) ** 2
    spectrum = spectrum[..., :k]
    totals = spectrum.sum(axis=-1)
    if (totals == 0).any():
        raise DegenerateInputError("all-zero element row: PSD normalization undefined")
    return spectrum / totals[..., None]


def est_signal_subspace(covariance: np.ndarray) -> np.ndarray:
    """Entrywise magnitude of the unit-norm principal eigenvector."""
    r = _covariances(covariance).astype(complex, copy=False)
    if not np.isfinite(r).all():
        raise NumericalFailure("covariance is not finite: snapshot values overflow")
    # np.allclose, with the tolerance of each matrix scaled to that matrix
    # alone; on finite entries np.isclose is this one comparison
    atol = 1e-8 * np.maximum(1.0, np.abs(r).max(axis=(-2, -1)))[..., None, None]
    adj = _transpose(r.conj())
    if not (np.abs(r - adj) <= atol + 1e-5 * np.abs(adj)).all():
        raise ValueError("covariance must be Hermitian")
    try:
        _, vectors = np.linalg.eigh(r)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    principal = vectors[..., -1]  # eigh sorts eigenvalues ascending
    # sqrt(re.re + im.im) as matmuls: the exact sums np.linalg.norm forms
    # for one vector (np.linalg.norm(axis=-1) and einsum round differently)
    re, im = principal.real[..., None, :], principal.imag[..., None, :]
    norm = np.sqrt(re @ _transpose(re) + im @ _transpose(im))[..., 0]
    return np.abs(principal / norm)


def est_foc(block, covariance=None) -> np.ndarray:
    """Fourth-order cumulant matrix, entry (i,k) = cum{y_i, y_k, y_i*, y_k*}.

    All expectations are sample means over the snapshots:
    E{y_i y_k y_i* y_k*} - E{y_i y_i*} E{y_k y_k*}
    - E{y_i y_k*} E{y_k y_i*} - E{y_i y_k} E{y_i* y_k*}.
    The first is E{|y_i|^2 |y_k|^2}, one real matrix product of the
    snapshot powers. ``covariance`` (E{y_i y_k*}, as :func:`est_covariance`
    returns it), if given, is used instead of being formed again.
    """
    y = _block_data(block)
    length = y.shape[-1]
    power = y.real**2 + y.imag**2
    mom4 = (power @ _transpose(power)) / length
    r = (y @ _transpose(y.conj())) / length if covariance is None else covariance  # E{y_i y_k*}
    c = (y @ _transpose(y)) / length  # E{y_i y_k}
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return mom4 - d[..., :, None] * d[..., None, :] - r * _transpose(r) - c * c.conj()


def est_flom(block, p: float = 1.2, conj=None) -> np.ndarray:
    """Fractional low-order moment matrix for exponent 1 < p <= 2.

    Entry (i,k) = (1/L) sum_t y_i(t) |y_k(t)|^(p-2) y_k*(t); snapshots
    with y_k(t) = 0 contribute 0 when p < 2. p = 2 recovers the sample
    covariance exactly. ``conj``, if given, is the block's conjugate.
    """
    y = _block_data(block)
    if not 1.0 < p <= 2.0:
        raise ConfigError("flom_exponent", "must be in (1, 2]")
    length = y.shape[-1]
    yc = y.conj() if conj is None else conj
    mags = np.abs(y)
    with np.errstate(divide="ignore"):
        weights = np.where(mags > 0, mags ** (p - 2.0), 0.0)
    weighted = weights * yc  # |y_k|^(p-2) y_k*, zeros dropped
    return (y @ _transpose(weighted)) / length


def _flatten(values: np.ndarray) -> np.ndarray:
    """Each matrix of a stack, column-major; the leading axes stay in place."""
    return values.reshape(*values.shape[:-2], -1, order="F")


@dataclass
class Goof:
    """Labeled fingerprint store: one dense array per family.

    ``data[kind]`` has shape (Q, group_count, dim); row q holds the
    samples of grid ``labels[q]``, one per snapshot group, in group order.
    ``labels`` is strictly ascending.
    """

    snapshots_per_group: int
    noise_kind: str
    snr_db: float
    labels: np.ndarray
    data: dict  # kind -> (Q, group_count, dim) array

    @property
    def group_count(self) -> int:
        return self.data[KIND_ORDER[0]].shape[1]

    def grids(self) -> list[int]:
        return self.labels.tolist()

    def features(self, kind: FingerprintKind, grid: int) -> np.ndarray:
        """The (group_count, dim) samples of one grid."""
        row = int(np.searchsorted(self.labels, grid))
        if row == self.labels.size or self.labels[row] != grid:
            raise KeyError(f"no grid {grid} in the store")
        return self.data[kind][row]

    def stack(self, kind: FingerprintKind) -> tuple[np.ndarray, np.ndarray]:
        """All samples of one kind as (X, labels), grids in label order."""
        x = self.data[kind]
        return x.reshape(-1, x.shape[2]), np.repeat(self.labels, x.shape[1])

    def groups(self, start: int, count: int) -> "Goof":
        """The store cut to ``count`` groups per grid from group ``start``."""
        if start < 0 or count < 1 or start + count > self.group_count:
            raise ConfigError(
                "train_count",
                f"need >= 1 of the {self.group_count} groups from group {start} on; got {count}",
            )
        data = {kind: x[:, start : start + count] for kind, x in self.data.items()}
        return replace(self, data=data)

    def split(self, train_count: int, test_count: int) -> tuple["Goof", "Goof"]:
        """First ``train_count`` groups per grid for training, the next
        ``test_count`` for testing (groups are i.i.d. given the block)."""
        return self.groups(0, train_count), self.groups(train_count, test_count)


def build_goof(
    blocks: list[SnapshotBlock],
    group_count: int,
    flom_p: float = 1.2,
    psd_points: int | None = None,
) -> Goof:
    """Partition each grid's L snapshots into ``group_count`` groups and
    extract all six fingerprints from every group.

    Deterministic: no internal randomness. L must be divisible by the
    group count.
    """
    if not blocks:
        raise ValueError("no snapshot blocks supplied")
    length = blocks[0].num_snapshots
    if group_count < 1 or length % group_count != 0:
        raise ConfigError(
            "group_count", f"snapshot count {length} not divisible into {group_count} groups"
        )
    if any(block.num_snapshots != length for block in blocks):
        raise ValueError("all blocks must have the same snapshot count")
    per_group = length // group_count
    blocks = sorted(blocks, key=lambda block: block.grid_label)
    labels = np.array([block.grid_label for block in blocks], dtype=int)
    if (np.diff(labels) == 0).any():  # sorted, so only a repeated grid breaks the order
        raise ValueError("grid labels must be strictly ascending integers")
    # (Q, M, L) -> (Q, G, M, L/G): slice [q, g] is the g-th group of grid q
    y = np.stack([block.data for block in blocks])
    y = y.reshape(*y.shape[:2], group_count, per_group).swapaxes(1, 2)
    # the conjugate stack is formed once for the covariance and the FLOM,
    # and released before the PSD's transform so that the peak stays put
    yc = y.conj()
    covariance = est_covariance(y, yc)
    foc, flom = est_foc(y, covariance), est_flom(y, flom_p, yc)
    del yc
    data = {
        FingerprintKind.CMF: np.abs(_flatten(covariance)),
        FingerprintKind.RSSF: extract_rss(covariance),
        FingerprintKind.PSDF: _flatten(est_psd(y, psd_points)),
        FingerprintKind.SSF: est_signal_subspace(covariance),
        FingerprintKind.FOCF: np.abs(_flatten(foc)),
        FingerprintKind.FLOMF: np.abs(_flatten(flom)),
    }
    for kind, x in data.items():
        if not np.isfinite(x).all():
            raise NumericalFailure(f"{kind.value} fingerprints are not finite: snapshots overflow")
    return Goof(
        snapshots_per_group=per_group,
        noise_kind=blocks[0].noise_kind,
        snr_db=blocks[0].snr_db,
        labels=labels,
        data=data,
    )


GOOF_MAGIC = "GOOF-FPSTORE"
GOOF_VERSION = 2


def save_goof(goof: Goof, path) -> None:
    """Persist a fingerprint store as one file: the header, then each
    kind's (Q, group_count, dim) features as little-endian float64, in
    kind order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "group_count": goof.group_count,
        "snapshots_per_group": goof.snapshots_per_group,
        "noise_kind": goof.noise_kind,
        "snr_db": goof.snr_db,
        "grids": goof.grids(),
        "dims": [goof.data[kind].shape[2] for kind in KIND_ORDER],
    }
    arrays = [("<f8", goof.data[kind]) for kind in KIND_ORDER]
    path.write_bytes(write_arrays(GOOF_MAGIC, GOOF_VERSION, header, arrays))


def load_goof(path) -> Goof:
    """Read a store written by :func:`save_goof`. Grids that are not
    strictly ascending positive integers raise :class:`FormatError`
    naming the ``grids`` line, a bad payload or its first non-finite
    feature one carrying its byte offset."""
    raw = read_artifact(path)
    doc, offset = read_header(raw, GOOF_MAGIC, GOOF_VERSION)
    group_count, per_group = (
        doc.get(key, positive_int) for key in ("group_count", "snapshots_per_group")
    )
    noise_kind = doc.get("noise_kind", default="none")
    snr_db = doc.get("snr_db", float, float("inf"))
    labels = doc.get("grids", lambda text: np.array(comma_list(positive_int)(text), dtype=int))
    if (np.diff(labels) <= 0).any():
        raise FormatError(f"line {doc.values['grids'][1]}: grid labels must be strictly ascending")
    dims = doc.get("dims", comma_list(positive_int, len(KIND_ORDER)))
    layout = [("<f8", (labels.size, group_count, dim)) for dim in dims]
    data = dict(zip(KIND_ORDER, read_arrays(raw, offset, layout)))
    finite = np.isfinite(np.frombuffer(raw, "<f8", offset=offset))
    if not finite.all():
        raise FormatError("non-finite fingerprint feature", offset + 8 * int(finite.argmin()))
    return Goof(per_group, noise_kind, snr_db, labels, data)
