"""Quasi-static Rayleigh flat-fading Monte Carlo with ML decoding.

Channel model:  Y = S H + N  with an n x n codeword S transmitted over
n channel uses, H an n x m matrix of i.i.d. CN(0, 1) fades held fixed
for the codeword, and N i.i.d. CN(0, N0).

SNR convention:  codewords are scaled so the average transmit energy
per channel use is 1 (the scale follows from the constellation's second
moments and the weight matrices), and SNR = 1/N0 per receive antenna.
This makes curves of different codes directly comparable; an absolute
dB offset against conventions that normalize differently is expected.

Decoders:

``ssd_decode``
    Per-symbol decoding.  For a single-symbol decodable code the metric
    ||Y - SH||^2 splits into one term per symbol,

        g_i(x) = || (x_I A_i + x_Q B_i) H ||^2
                 - 2 Re <Y, (x_I A_i + x_Q B_i) H>,

    minimized independently per slot: k * |A| metric evaluations.
    Every g_i is a linear functional of two n x n statistics per block,
    P = H Y^H and Q = H H^H, so a batch of T blocks takes two real
    GEMMs: the (T, 4n^2) Re/Im of (P, Q) times a (4n^2, 5k) kernel built
    from A_i, B_i and their Grams gives five statistics per slot, and
    those times the (5, |A|) basis [x_I^2, x_Q^2, 2 x_I x_Q, -2 x_I,
    -2 x_Q] give every g_i(x).  The kernel assumes nothing about the
    weights; only the split into per-slot minima needs SSD.

``ml_decode_bruteforce``
    Exhaustive argmin of ||Y - SH||^2 over all |A|^k codewords.

Both break ties toward the smallest constellation index (ties have
probability zero under continuous noise but the rule keeps the
decoder-equivalence oracle deterministic).

Reproducibility:  each SNR point runs in chunks of ``_CHUNK`` = 2**14
trials.  Chunk c of point p draws its symbol indices, then its fades,
then its noise from ``default_rng([seed, p, c])`` and is decoded before
the next chunk is drawn, so memory is bounded by one chunk and a (seed,
config) pair gives a bit-identical report.  ``[seed, p, 0]`` seeds the
same stream as ``[seed, p]`` (zero padding), so runs of at most 2**14
trials per point match the earlier contract that drew a whole point
from ``[seed, p]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import LinearDispersionCode
from .constellations import Constellation
from .verifier import check_ssd

DECODER_SSD = "ssd"
DECODER_BRUTE_ML = "brute-ml"

ML_BUDGET = 1_000_000
_WILSON_Z = 1.959963984540054  # two-sided 95%
_CHUNK = 1 << 14
SEED_CONTRACT = f"default_rng([seed, point, chunk]) per {_CHUNK}-trial chunk; symbols, fades, noise"


@dataclass(frozen=True)
class SimConfig:
    code: LinearDispersionCode
    constellation: Constellation
    snr_db_list: tuple[float, ...]
    trials: int
    seed: int
    rx_antennas: int = 1
    decoder: str = DECODER_SSD

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.snr_db_list:
            raise ValueError("need at least one SNR point")
        if self.rx_antennas < 1:
            raise ValueError("rx_antennas must be >= 1")
        if self.decoder not in (DECODER_SSD, DECODER_BRUTE_ML):
            raise ValueError(f"unknown decoder {self.decoder!r}")


@dataclass(frozen=True)
class CerPoint:
    snr_db: float
    trials: int
    errors: int
    cer: float
    ci95: float


@dataclass(frozen=True)
class CerReport:
    points: tuple[CerPoint, ...]
    label: str = ""

    def cer_at(self, snr_db: float) -> CerPoint:
        for p in self.points:
            if p.snr_db == snr_db:
                return p
        raise KeyError(f"no point at {snr_db} dB")


def wilson_halfwidth(errors: int, trials: int, z: float = _WILSON_Z) -> float:
    """Half-width of the Wilson 95% score interval for errors/trials."""
    p = errors / trials
    denom = 1.0 + z * z / trials
    return (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))


def transmit_scale(code: LinearDispersionCode, constellation: Constellation) -> float:
    """Scalar s such that s * S averages unit energy per channel use.

    Uses the constellation's exact second moments, so the scale is
    rate- and energy-mode-aware.
    """
    pts = np.asarray(constellation.points)
    m_ii = float(np.mean(pts.real ** 2))
    m_qq = float(np.mean(pts.imag ** 2))
    m_iq = float(np.mean(pts.real * pts.imag))
    wi, wq = code.weight_arrays()
    total = float(m_ii * np.sum(np.abs(wi) ** 2) + m_qq * np.sum(np.abs(wq) ** 2)
                  + 2 * m_iq * np.sum(np.real(np.conj(wi) * wq)))
    if total <= 0.0:
        raise ValueError("code transmits no energy")
    return math.sqrt(code.n / total)


def _draw_cn(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    parts = rng.standard_normal(shape + (2,))
    return (parts[..., 0] + 1j * parts[..., 1]) / math.sqrt(2.0)


def _require_ssd(code: LinearDispersionCode) -> None:
    if not check_ssd(code).ok:
        raise ValueError("per-symbol decoding requires a single-symbol decodable code")


def _metric_kernel(wi: np.ndarray, wq: np.ndarray) -> np.ndarray:
    """The real (4n^2, 5k) kernel that maps Re/Im of (P, Q) to the slot statistics.

    Column 5(i-1) + j holds statistic j = 0..4 of slot i: ||A_i H||^2, ||B_i H||^2,
    Re <A_i H, B_i H>, Re <Y, A_i H>, Re <Y, B_i H>.  Each is Re tr(M X)
    with X = Q and M = A_i^H A_i, B_i^H B_i, A_i^H B_i, or X = P and
    M = A_i, B_i; Re tr(M X) = sum_ab Re M_ab Re X_ba - Im M_ab Im X_ba.
    """
    k, n = wi.shape[0], wi.shape[-1]
    wi_h = np.conj(np.swapaxes(wi, -1, -2))
    m = np.zeros((2, k, 5, n, n), dtype=complex)  # [P or Q, slot, statistic]
    m[1, :, 0] = wi_h @ wi
    m[1, :, 1] = np.conj(np.swapaxes(wq, -1, -2)) @ wq
    m[1, :, 2] = wi_h @ wq
    m[0, :, 3] = wi
    m[0, :, 4] = wq
    mt = np.swapaxes(m, -1, -2)  # M_ab pairs with X_ba
    kernel = np.stack((mt.real, -mt.imag), axis=-1)  # (2, k, 5, n, n, Re/Im)
    return kernel.transpose(0, 3, 4, 5, 1, 2).reshape(4 * n * n, 5 * k)


def _slot_metrics(wi: np.ndarray, wq: np.ndarray, y: np.ndarray, h: np.ndarray,
                  pts: np.ndarray) -> np.ndarray:
    """The (T, k, |A|) per-slot metrics g_i(x) for T blocks y, h of shape (T, n, m)."""
    t, n = h.shape[0], h.shape[1]
    k = wi.shape[0]
    stats = np.empty((t, 2, n, n), dtype=complex)  # P = H Y^H, Q = H H^H
    np.matmul(h, np.conj(np.swapaxes(y, -1, -2)), out=stats[:, 0])
    np.matmul(h, np.conj(np.swapaxes(h, -1, -2)), out=stats[:, 1])
    slot_stats = stats.view(np.float64).reshape(t, 4 * n * n) @ _metric_kernel(wi, wq)
    xr = pts.real
    xq = pts.imag
    basis = np.stack((xr * xr, xq * xq, 2.0 * xr * xq, -2.0 * xr, -2.0 * xq))
    return (slot_stats.reshape(t * k, 5) @ basis).reshape(t, k, len(pts))


def ssd_decode(code: LinearDispersionCode, y: np.ndarray, h: np.ndarray,
               constellation: Constellation) -> np.ndarray:
    """Per-symbol ML decoding; exactly k * |A| metric evaluations."""
    _require_ssd(code)
    pts = np.asarray(constellation.points)
    wi, wq = code.weight_arrays()
    metrics = _slot_metrics(wi, wq, np.asarray(y)[None], np.asarray(h)[None], pts)
    return pts[np.argmin(metrics[0], axis=1)]  # first minimum = smallest index


def ml_decode_bruteforce(code: LinearDispersionCode, y: np.ndarray, h: np.ndarray,
                         constellation: Constellation,
                         budget: int = ML_BUDGET) -> np.ndarray:
    """Exhaustive ML decoding over all |A|^k codewords."""
    pts = np.asarray(constellation.points)
    total = len(pts) ** code.k
    if total > budget:
        raise ValueError(f"brute-force ML needs {total} codewords, over budget {budget}")
    y = np.asarray(y)
    h = np.asarray(h)
    wi, wq = code.weight_arrays()
    # per-slot candidate contributions to S @ H, shape (k, |A|, n, m)
    gi = wi @ h
    gq = wq @ h
    contrib = (pts.real[None, :, None, None] * gi[:, None]
               + pts.imag[None, :, None, None] * gq[:, None])
    best_metric = np.inf
    best_idx: tuple[int, ...] = (0,) * code.k
    grid = np.indices((len(pts),) * code.k).reshape(code.k, -1).T  # lexicographic
    for start in range(0, total, _CHUNK):
        block = grid[start:start + _CHUNK]
        sh = np.zeros((len(block),) + y.shape, dtype=complex)
        for slot in range(code.k):
            sh += contrib[slot, block[:, slot]]
        metrics = np.sum(np.abs(y[None] - sh) ** 2, axis=(1, 2))
        arg = int(np.argmin(metrics))
        if metrics[arg] < best_metric:
            best_metric = float(metrics[arg])
            best_idx = tuple(block[arg])
    return pts[list(best_idx)]


def simulate_cer(config: SimConfig) -> CerReport:
    """Codeword-error-rate sweep over the configured SNR points."""
    code = config.code
    constellation = config.constellation
    n, m, k = code.n, config.rx_antennas, code.k
    scale = transmit_scale(code, constellation)
    scaled = code.scaled(scale)
    if config.decoder == DECODER_SSD:
        _require_ssd(scaled)
    pts = np.asarray(constellation.points)
    wi, wq = scaled.weight_arrays()
    out = []
    for point_index, snr_db in enumerate(config.snr_db_list):
        n0 = 10.0 ** (-snr_db / 10.0)
        errors = 0
        for chunk, start in enumerate(range(0, config.trials, _CHUNK)):
            t = min(_CHUNK, config.trials - start)
            rng = np.random.default_rng([int(config.seed), point_index, chunk])
            x = pts[rng.integers(0, len(pts), size=(t, k))]
            h = _draw_cn(rng, (t, n, m))
            noise = _draw_cn(rng, (t, n, m)) * math.sqrt(n0)
            s = np.tensordot(x.real, wi, axes=1) + np.tensordot(x.imag, wq, axes=1)
            y = s @ h + noise
            if config.decoder == DECODER_SSD:
                decoded = pts[np.argmin(_slot_metrics(wi, wq, y, h, pts), axis=2)]
            else:
                decoded = np.stack([ml_decode_bruteforce(scaled, y[i], h[i], constellation)
                                    for i in range(t)])
            errors += int(np.sum(np.any(decoded != x, axis=1)))
        out.append(CerPoint(snr_db=float(snr_db), trials=config.trials, errors=errors,
                            cer=errors / config.trials,
                            ci95=wilson_halfwidth(errors, config.trials)))
    return CerReport(points=tuple(out), label=code.label)
