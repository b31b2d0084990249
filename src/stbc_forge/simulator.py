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

``ml_decode_bruteforce``
    Exhaustive argmin of ||Y - SH||^2 over all |A|^k codewords.

Both break ties toward the smallest constellation index (ties have
probability zero under continuous noise but the rule keeps the
decoder-equivalence oracle deterministic).

Reproducibility:  every SNR point draws from its own generator seeded
by (seed, point index), and each trial consumes fixed array slots of
that stream, so a (seed, config) pair gives a bit-identical report no
matter how the decode work is chunked.
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
    total = 0.0
    for wi, wq in code.weights:
        cross = (wi.herm() @ wq).trace().real
        total += m_ii * wi.frob_norm() ** 2 + m_qq * wq.frob_norm() ** 2 + 2 * m_iq * cross
    if total <= 0.0:
        raise ValueError("code transmits no energy")
    return math.sqrt(code.n / total)


def _draw_cn(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    parts = rng.standard_normal(shape + (2,))
    return (parts[..., 0] + 1j * parts[..., 1]) / math.sqrt(2.0)


def _require_ssd(code: LinearDispersionCode) -> None:
    if not check_ssd(code).ok:
        raise ValueError("per-symbol decoding requires a single-symbol decodable code")


def _slot_metrics(code: LinearDispersionCode, y: np.ndarray, h: np.ndarray,
                  constellation: Constellation) -> np.ndarray:
    """The (k, |A|) table of per-slot candidate metrics g_i(x)."""
    pts = np.asarray(constellation.points)
    wi, wq = code.weight_arrays()
    gi = wi @ h  # (k, n, m)
    gq = wq @ h
    n_i = np.sum(np.abs(gi) ** 2, axis=(1, 2))        # (k,)
    n_q = np.sum(np.abs(gq) ** 2, axis=(1, 2))
    cross = np.real(np.sum(np.conj(gi) * gq, axis=(1, 2)))
    y_i = np.real(np.sum(np.conj(y) * gi, axis=(1, 2)))
    y_q = np.real(np.sum(np.conj(y) * gq, axis=(1, 2)))
    xr = pts.real[None, :]
    xq = pts.imag[None, :]
    return (xr ** 2 * n_i[:, None] + xq ** 2 * n_q[:, None]
            + 2.0 * xr * xq * cross[:, None]
            - 2.0 * (xr * y_i[:, None] + xq * y_q[:, None]))


def ssd_decode(code: LinearDispersionCode, y: np.ndarray, h: np.ndarray,
               constellation: Constellation) -> np.ndarray:
    """Per-symbol ML decoding; exactly k * |A| metric evaluations."""
    _require_ssd(code)
    metrics = _slot_metrics(code, np.asarray(y), np.asarray(h), constellation)
    idx = np.argmin(metrics, axis=1)  # first minimum = smallest index
    pts = np.asarray(constellation.points)
    return pts[idx]


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
        rng = np.random.default_rng([int(config.seed), point_index])
        t = config.trials
        sym_idx = rng.integers(0, len(pts), size=(t, k))
        h = _draw_cn(rng, (t, n, m))
        noise = _draw_cn(rng, (t, n, m)) * math.sqrt(n0)
        x = pts[sym_idx]
        s = (np.einsum("tk,knm->tnm", x.real, wi)
             + np.einsum("tk,knm->tnm", x.imag, wq))
        y = s @ h + noise
        errors = 0
        for start in range(0, t, _CHUNK):
            sl = slice(start, min(start + _CHUNK, t))
            if config.decoder == DECODER_SSD:
                decoded = _batch_ssd_indices(wi, wq, y[sl], h[sl], pts)
            else:
                decoded = np.stack([
                    _nearest_indices(pts, ml_decode_bruteforce(scaled, y[i], h[i], constellation))
                    for i in range(sl.start, sl.stop)])
            errors += int(np.sum(np.any(decoded != sym_idx[sl], axis=1)))
        out.append(CerPoint(snr_db=float(snr_db), trials=t, errors=errors,
                            cer=errors / t, ci95=wilson_halfwidth(errors, t)))
    return CerReport(points=tuple(out), label=code.label)


def _nearest_indices(pts: np.ndarray, values: np.ndarray) -> np.ndarray:
    return np.asarray([int(np.argmin(np.abs(pts - v))) for v in values])


def _batch_ssd_indices(wi: np.ndarray, wq: np.ndarray, y: np.ndarray,
                       h: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Vectorized per-symbol decode over a batch of trials -> (T, k) indices."""
    gi = np.einsum("knm,tmj->tknj", wi, h)
    gq = np.einsum("knm,tmj->tknj", wq, h)
    n_i = np.sum(np.abs(gi) ** 2, axis=(2, 3))              # (T, k)
    n_q = np.sum(np.abs(gq) ** 2, axis=(2, 3))
    cross = np.real(np.sum(np.conj(gi) * gq, axis=(2, 3)))
    y_i = np.real(np.einsum("tnj,tknj->tk", np.conj(y), gi))
    y_q = np.real(np.einsum("tnj,tknj->tk", np.conj(y), gq))
    xr = pts.real[None, None, :]
    xq = pts.imag[None, None, :]
    metrics = (xr ** 2 * n_i[..., None] + xq ** 2 * n_q[..., None]
               + 2.0 * xr * xq * cross[..., None]
               - 2.0 * (xr * y_i[..., None] + xq * y_q[..., None]))
    return np.argmin(metrics, axis=2)
