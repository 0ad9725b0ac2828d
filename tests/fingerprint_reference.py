"""Per-group fingerprint extraction: the reference the batched store is
checked against.

``build_goof`` reshapes all grids into one (Q, G, M, L/G) stack and calls
each estimator once. This module walks the same groups one by one with
plain 2-D arithmetic on each M x L/G block, as extraction did before it
was batched. The two must agree bit for bit.

``power_iteration_principal`` and ``foc_quadruple_loop`` are the
independent oracles of two estimators: the dominant eigenvector by plain
power iteration, and the fourth-order cumulants entry by entry.
"""

import numpy as np

from goofloc.fingerprints import KIND_ORDER, FingerprintKind


def extract_group(block, flom_p=1.2, psd_points=None):
    """All six feature vectors of one M x L snapshot group, keyed by kind."""
    y = np.asarray(block, dtype=complex)
    length = y.shape[1]
    yc = y.conj()
    covariance = (y @ y.conj().T) / length
    spectrum = np.abs(np.fft.fft(y, axis=1) / length) ** 2
    spectrum = spectrum[:, : length if psd_points is None else psd_points]
    _, vectors = np.linalg.eigh(covariance)
    principal = vectors[:, -1]
    r = (y @ yc.T) / length
    c = (y @ y.T) / length
    d = np.diag(r)
    power = y.real**2 + y.imag**2
    mom4 = (power @ power.T) / length  # E{|y_i|^2 |y_k|^2}
    foc = mom4 - np.outer(d, d) - r * r.T - c * c.conj()
    if flom_p == 2.0:
        flom = (y @ y.conj().T) / length
    else:
        mags = np.abs(y)
        with np.errstate(divide="ignore"):
            weights = np.where(mags > 0, mags ** (flom_p - 2.0), 0.0)
        flom = (y @ (weights * y.conj()).T) / length
    return {
        FingerprintKind.CMF: np.abs(covariance.flatten(order="F")),
        FingerprintKind.RSSF: np.real(np.diag(covariance)).copy(),
        FingerprintKind.PSDF: (spectrum / spectrum.sum(axis=1)[:, None]).flatten(order="F"),
        FingerprintKind.SSF: np.abs(principal / np.linalg.norm(principal)),
        FingerprintKind.FOCF: np.abs(foc.flatten(order="F")),
        FingerprintKind.FLOMF: np.abs(flom.flatten(order="F")),
    }


def reference_store(blocks, group_count, flom_p=1.2, psd_points=None):
    """``kind -> (Q, G, dim)`` arrays, grids in label order, one group at a time."""
    per_group = blocks[0].num_snapshots // group_count
    groups = [
        [
            extract_group(block.data[:, gi * per_group : (gi + 1) * per_group], flom_p, psd_points)
            for gi in range(group_count)
        ]
        for block in sorted(blocks, key=lambda block: block.grid_label)
    ]
    return {kind: np.array([[g[kind] for g in row] for row in groups]) for kind in KIND_ORDER}


def power_iteration_principal(r, iters=50_000, tol=1e-14):
    """Independent oracle: dominant eigenvector by plain power iteration."""
    rng = np.random.default_rng(4242)
    v = rng.standard_normal(r.shape[0]) + 1j * rng.standard_normal(r.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = r @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return np.abs(v)
        w /= nw
        if np.linalg.norm(np.abs(w) - np.abs(v)) < tol:
            v = w
            break
        v = w
    return np.abs(v)


def foc_quadruple_loop(y):
    """Independent oracle: entry-by-entry sample cumulants, no vectorization."""
    m, length = y.shape
    out = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for k in range(m):
            e_full = np.mean(y[i] * y[k] * np.conj(y[i]) * np.conj(y[k]))
            e_ii = np.mean(y[i] * np.conj(y[i]))
            e_kk = np.mean(y[k] * np.conj(y[k]))
            e_ik = np.mean(y[i] * np.conj(y[k]))
            e_ki = np.mean(y[k] * np.conj(y[i]))
            e_prod = np.mean(y[i] * y[k])
            e_conj = np.mean(np.conj(y[i]) * np.conj(y[k]))
            out[i, k] = e_full - e_ii * e_kk - e_ik * e_ki - e_prod * e_conj
    return out
