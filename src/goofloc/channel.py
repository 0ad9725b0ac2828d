"""Synthetic multipath reception for a uniform linear array.

Generates complex snapshot blocks for each grid of a rectangular room: a
narrowband source at a grid position reaches the array over a cluster of
paths drawn from a uniform power angular/delay spectrum, and the clean
block is then corrupted by Gaussian, colored, or symmetric alpha-stable
noise at a requested SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateGeometryError, NumericalFailure

SPEED_OF_LIGHT = 299792458.0

NOISE_KINDS = ("gaussian", "color", "impulse")

#: Sentinel SNR meaning "noise disabled".
NOISELESS = math.inf


@dataclass
class ArrayGeometry:
    """Uniform linear array of isotropic elements.

    ``carrier_frequency`` is used to turn path delays into carrier-phase
    rotations under the narrowband convention.
    """

    num_elements: int
    spacing_over_wavelength: float = 0.5
    carrier_frequency: float = 950e6

    def __post_init__(self):
        if self.num_elements < 2:
            raise ValueError("num_elements must be >= 2")
        if not self.spacing_over_wavelength > 0:
            raise ValueError("spacing_over_wavelength must be > 0")


@dataclass
class Scenario:
    """Rectangular room with labeled grid positions and one receiver array.

    Grid labels are 1..Q in the order of ``grid_positions``. The array
    normal defaults to pointing at the far corner of the room (the room
    diagonal as seen from the array).
    """

    room_width: float
    room_height: float
    grid_positions: np.ndarray  # (Q, 2) meters
    array_position: np.ndarray = field(default_factory=lambda: np.zeros(2))
    array_normal: np.ndarray | None = None

    def __post_init__(self):
        self.grid_positions = np.asarray(self.grid_positions, dtype=float)
        self.array_position = np.asarray(self.array_position, dtype=float)
        if self.grid_positions.ndim != 2 or self.grid_positions.shape[1] != 2:
            raise ValueError("grid_positions must be (Q, 2)")
        if self.grid_positions.shape[0] < 1:
            raise ValueError("at least one grid position is required")
        x, y = self.grid_positions[:, 0], self.grid_positions[:, 1]
        if (x < 0).any() or (x > self.room_width).any() or (y < 0).any() or (
            y > self.room_height
        ).any():
            raise ValueError("all grid positions must lie inside the room")
        if self.array_normal is None:
            far_corner = np.array([self.room_width, self.room_height])
            self.array_normal = far_corner - self.array_position
        self.array_normal = np.asarray(self.array_normal, dtype=float)
        norm = np.linalg.norm(self.array_normal)
        if norm == 0:
            raise ValueError("array_normal must be nonzero")
        self.array_normal = self.array_normal / norm

    @property
    def grid_count(self) -> int:
        return self.grid_positions.shape[0]


def make_grid_scenario(
    room_width: float,
    room_height: float,
    grid_count: int,
) -> Scenario:
    """Divide the room into ``grid_count`` equal cells and label their centers.

    The cell layout is nx columns by ny rows matching the room aspect ratio;
    labels run x-fastest from the (0, 0) corner, q = 1..Q.
    """
    if grid_count < 1:
        raise ValueError("grid_count must be >= 1")
    ny = math.sqrt(grid_count * room_height / room_width)
    if not math.isfinite(ny):
        raise ValueError(f"a {room_width}x{room_height} room overflows the grid layout")
    nx = grid_count / ny if ny > 0 else 0
    nxi, nyi = round(nx), round(ny)
    if nxi < 1 or nyi < 1 or nxi * nyi != grid_count:
        raise ValueError(
            f"grid_count={grid_count} does not tile a {room_width}x{room_height} room evenly"
        )
    cw, ch = room_width / nxi, room_height / nyi
    centers = [
        ((i + 0.5) * cw, (j + 0.5) * ch) for j in range(nyi) for i in range(nxi)
    ]
    return Scenario(room_width, room_height, np.array(centers))


class Paths(NamedTuple):
    """Multipath cluster: per-path complex gain, angle of arrival, delay.

    Angles are measured from the array normal. Gains are normalized so
    the total path power is 1.
    """

    gains: np.ndarray  # (I,) complex
    aoas: np.ndarray  # (I,) radians
    delays: np.ndarray  # (I,) seconds


@dataclass
class NoiseSpec:
    """Noise model for one snapshot block.

    ``kind`` is one of gaussian | color | impulse. ``snr_db`` of
    ``math.inf`` disables the noise entirely. For impulse noise the
    dispersion is derived from the SNR.
    """

    kind: str
    snr_db: float
    fir_window_length: int = 5
    alpha: float = 1.4
    beta: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unsupported noise kind {self.kind!r}")
        if self.kind == "impulse" and not (0 < self.alpha <= 2):
            raise ValueError("impulse alpha must be in (0, 2]")
        if self.fir_window_length < 1:
            raise ValueError("fir_window_length must be >= 1")


@dataclass
class SnapshotBlock:
    """One grid's array output: M elements by L snapshots, plus provenance."""

    data: np.ndarray  # (M, L) complex
    grid_label: int
    snr_db: float = NOISELESS
    noise_kind: str = "none"
    signal_power: float | None = None  # mean per-element signal power of the clean block

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.ndim != 2 or self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise ValueError("data must be a nonempty M x L matrix")
        if not np.isfinite(self.data).all():
            raise ValueError("data contains non-finite entries")

    @property
    def num_snapshots(self) -> int:
        return self.data.shape[1]


def steering_vector(theta: float, geometry: ArrayGeometry) -> np.ndarray:
    """Array response for a plane wave at angle ``theta`` off the normal.

    Element m (1-based) is exp(-j*2*pi*(m-1)*(d/lambda)*sin(theta)).
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    m = np.arange(geometry.num_elements)
    return np.exp(-2j * math.pi * m * geometry.spacing_over_wavelength * math.sin(theta))


def geometry_to_channel(
    grid_position: Sequence[float], scenario: Scenario
) -> tuple[float, float]:
    """Central angle of arrival and mean delay for a grid position.

    The angle is signed, measured from the array normal (counterclockwise
    positive); the delay is line-of-sight distance over the speed of light.
    """
    v = np.asarray(grid_position, dtype=float) - scenario.array_position
    dist = float(np.linalg.norm(v))
    if dist == 0.0:
        raise DegenerateGeometryError("grid position coincides with the array")
    n = scenario.array_normal
    theta0 = math.atan2(n[0] * v[1] - n[1] * v[0], float(np.dot(n, v)))
    return theta0, dist / SPEED_OF_LIGHT


def generate_paths(
    theta0: float,
    tau0: float,
    angular_spread: float,
    delay_spread: float,
    path_count: int,
    rng: np.random.Generator,
) -> Paths:
    """Draw a multipath cluster around the line of sight.

    Angles follow the uniform density on [theta0 - sqrt(3)*sigma_A,
    theta0 + sqrt(3)*sigma_A] (standard deviation sigma_A), redrawn until
    their mean lies within 3*sigma_A/sqrt(I) of theta0; delays follow the
    analogous uniform law around tau0 clipped at zero, and gains are
    circular Gaussian normalized to unit total power.
    """
    if path_count < 1:
        raise ValueError("path_count must be >= 1")
    if angular_spread < 0 or delay_spread < 0:
        raise ValueError("spreads must be nonnegative")
    half_a = math.sqrt(3.0) * angular_spread
    half_d = math.sqrt(3.0) * delay_spread
    mean_tol = 3.0 * angular_spread / math.sqrt(path_count)
    for _ in range(1000):
        aoas = rng.uniform(theta0 - half_a, theta0 + half_a, path_count)
        # the float mean can miss theta0 by an ulp, more than the tolerance
        # of a zero or tiny spread
        if abs(float(aoas.mean()) - theta0) <= mean_tol + 1e-12:
            break
    else:
        raise NumericalFailure("1000 angle draws all strayed from the cluster centre")
    try:
        delays = np.maximum(rng.uniform(tau0 - half_d, tau0 + half_d, path_count), 0.0)
    except OverflowError:  # numpy refuses a range that is not finite
        raise NumericalFailure(f"delay range {tau0:g} +- {half_d:g} s is not finite") from None
    gains = rng.standard_normal(path_count) + 1j * rng.standard_normal(path_count)
    return Paths(gains / np.linalg.norm(gains), aoas, delays)


@np.errstate(all="ignore")  # a block that is not finite is raised below, not warned about
def synthesize_snapshots(
    paths: Paths,
    geometry: ArrayGeometry,
    num_snapshots: int,
    rng: np.random.Generator,
    grid_label: int = 0,
    source_freq: float = 0.25,
) -> SnapshotBlock:
    """Noiseless snapshot block for one multipath cluster.

    The source is a unit-power complex exponential at normalized frequency
    ``source_freq`` (cycles per snapshot) with a uniformly random initial
    phase per block. Delays act as carrier-phase rotations (narrowband
    convention), so the block is rank 1: y(t) = g * s(t) with
    g = sum_i alpha_i a(theta_i) exp(-j*2*pi*f_c*tau_i).
    """
    if num_snapshots < 1:
        raise ValueError("num_snapshots must be >= 1")
    g = np.zeros(geometry.num_elements, dtype=complex)
    for gain, theta, tau in zip(paths.gains, paths.aoas, paths.delays):
        g += gain * steering_vector(float(theta), geometry) * np.exp(
            -2j * math.pi * geometry.carrier_frequency * tau
        )
    phase0 = rng.uniform(0.0, 2.0 * math.pi)
    t = np.arange(num_snapshots)
    s = np.exp(1j * (2.0 * math.pi * source_freq * t + phase0))
    data = np.outer(g, s)
    if not np.isfinite(data).all():
        raise NumericalFailure("the noiseless snapshot block is not finite")
    power = float(np.mean(np.abs(data) ** 2))
    return SnapshotBlock(data=data, grid_label=grid_label, signal_power=power)


def sample_alpha_stable(
    alpha: float,
    beta: float,
    scale: float,
    delta: float,
    size,
    rng: np.random.Generator,
) -> np.ndarray:
    """Alpha-stable variates via the Chambers-Mallows-Stuck transform.

    ``scale`` is the scale parameter gamma (dispersion = gamma**alpha);
    alpha=2, beta=0 reduces to N(delta, 2*scale**2).
    """
    if not (0 < alpha <= 2):
        raise ValueError("alpha must be in (0, 2]")
    if abs(beta) > 1:
        raise ValueError("beta must be in [-1, 1]")
    phi = rng.uniform(-math.pi / 2, math.pi / 2, size)
    w = rng.exponential(1.0, size)
    if alpha == 1.0:
        bphi = math.pi / 2 + beta * phi
        x = (2 / math.pi) * (bphi * np.tan(phi) - beta * np.log((math.pi / 2) * w * np.cos(phi) / bphi))
    elif beta == 0.0:
        x = (
            np.sin(alpha * phi)
            / np.cos(phi) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * phi) / w) ** ((1.0 - alpha) / alpha)
        )
    else:
        zeta = beta * math.tan(math.pi * alpha / 2)
        aphi = alpha * phi
        x = (
            (np.sin(aphi) + zeta * np.cos(aphi))
            / np.cos(phi)
            * ((np.cos(phi - aphi) + zeta * np.sin(phi - aphi)) / (w * np.cos(phi)))
            ** ((1.0 - alpha) / alpha)
        )
    return delta + scale * x


@np.errstate(all="ignore")  # noise that is not finite is raised below, not warned about
def add_noise(
    block: SnapshotBlock, noise_spec: NoiseSpec, rng: np.random.Generator
) -> SnapshotBlock:
    """Return a copy of ``block`` with noise at the requested SNR.

    Gaussian: i.i.d. circular complex samples with variance
    sigma_n^2 = sigma_s^2 * 10^(-snr/10). Color: the same white noise
    filtered per element by a unit-energy all-ones FIR window. Impulse:
    independent symmetric alpha-stable real/imaginary parts with
    dispersion xi = sigma_s^2 * 10^(-snr/10).
    """
    if noise_spec.snr_db == NOISELESS:
        return replace(block, data=block.data.copy(), snr_db=NOISELESS, noise_kind=noise_spec.kind)
    m, length = block.data.shape
    sig_power = block.signal_power
    if sig_power is None:
        sig_power = float(np.mean(np.abs(block.data) ** 2))
    try:  # Python floats raise where they overflow
        target = sig_power * 10.0 ** (-noise_spec.snr_db / 10.0)
        scale = target ** (1.0 / noise_spec.alpha) if noise_spec.kind == "impulse" else None
    except OverflowError:
        target = scale = math.inf  # noise that is not finite: raised below

    if noise_spec.kind == "gaussian":
        noise = math.sqrt(target / 2.0) * (
            rng.standard_normal((m, length)) + 1j * rng.standard_normal((m, length))
        )
    elif noise_spec.kind == "color":
        win = noise_spec.fir_window_length
        fir = np.ones(win) / math.sqrt(win)  # unit energy: keeps variance = target
        pad = length + win - 1
        white = math.sqrt(target / 2.0) * (
            rng.standard_normal((m, pad)) + 1j * rng.standard_normal((m, pad))
        )
        noise = np.empty((m, length), dtype=complex)
        for i in range(m):
            noise[i] = np.convolve(white[i], fir, mode="valid")
    else:  # impulse
        re = sample_alpha_stable(
            noise_spec.alpha, noise_spec.beta, scale, noise_spec.delta, (m, length), rng
        )
        im = sample_alpha_stable(
            noise_spec.alpha, noise_spec.beta, scale, noise_spec.delta, (m, length), rng
        )
        noise = re + 1j * im
    data = block.data + noise
    if not np.isfinite(data).all():
        raise NumericalFailure(f"{noise_spec.kind} noise at {noise_spec.snr_db:g} dB is not finite")
    return replace(
        block, data=data, snr_db=noise_spec.snr_db, noise_kind=noise_spec.kind,
        signal_power=sig_power,
    )
