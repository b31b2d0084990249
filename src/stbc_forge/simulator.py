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
    P = H Y^H and Q = H H^H.  The three quadratic statistics of a slot,
    ||A_i H||^2, ||B_i H||^2 and Re <A_i H, B_i H>, read only Q, and the
    two linear ones, Re <Y, A_i H> and Re <Y, B_i H>, read only P.  So a
    batch of T blocks takes the (T, 2n^2) float64 view of Q times a
    (2n^2, 3k) kernel from the Grams of A_i, B_i, the view of P times a
    (2n^2, 2k) kernel from A_i, B_i themselves, and then the five
    statistics per slot times the (5, |A|) basis [x_I^2, x_Q^2,
    2 x_I x_Q, -2 x_I, -2 x_Q], which gives every g_i(x).  The kernels
    assume nothing about the weights; only the split into per-slot minima
    needs SSD.

``ml_decode_bruteforce``
    Exhaustive argmin of ||Y - SH||^2 over all |A|^k codewords.  With the
    real symbol vector s = (x_1I, x_1Q, ..., x_kI, x_kQ) and the 2k
    weights W_p = A_1, B_1, ..., A_k, B_k, the metric is a quadratic form,

        ||Y - SH||^2 - ||Y||^2 = sum_{p<=q} c_pq s_p s_q R_pq - 2 sum_p s_p b_p,

    with R_pq = Re tr(G_pq Q) on the Gram products G_pq = W_p^H W_q of
    :func:`.codes.gram`, b_p = Re tr(W_p P), c_pp = 1 and c_pq = 2 for
    p < q (the real-valued equivalent channel of linear dispersion codes).
    One kernel builder gives both decoders a (2n^2, #pairs) Q-kernel of
    Grams G_pq and a (2n^2, 2k) P-kernel of the weights: ML takes all
    k(2k+1) pairs p <= q and concatenates R and b; SSD takes the 3k
    per-slot diagonal pairs (R_pp, R_p'p', R_pp' of each slot), from each
    slot's own 2 x 2 Gram products (:func:`.codes.gram` on the (k, 2, n, n)
    weight stack), so no cross-slot product is formed.  No kernel holds
    the zero half that pairs a Q column with P or a P column with Q.  A
    batch of T blocks then takes one GEMM of the coefficients against the
    basis [c_pq s_p s_q, -2 s_p] per chunk of codewords from
    :func:`.codes.lexicographic_first_min`, the enumerator
    of the unreduced minimum-determinant search too.  Chunks hold at most
    ``_ML_CHUNK`` metrics and basis entries each, so memory is bounded in
    T and in |A|^k.  ``simulate_cer`` builds the kernels once per call and
    decodes once per trial block.

Both break ties toward the smallest constellation index, and brute-force
ML toward the first codeword in lexicographic order (ties have
probability zero under continuous noise but the rule keeps the
decoder-equivalence oracle deterministic).

Encoding:  ``codes._encode``, the encoder of ``codeword`` too, makes a
trial block's codewords with one (T, 2k) @ (2k, 2n^2) real GEMM of the
float64 views of the symbols and of the weight stack, and every CN(0, 1)
draw is a complex view of interleaved normals.

Reproducibility:  each SNR point runs in chunks of ``_CHUNK`` = 2**14
trials.  Chunk c of point p draws its symbol indices, then its fades,
then its noise from ``default_rng([seed, p, c])``, and is decoded before
the next chunk is drawn.  Only the indices and the fades are drawn for
the whole chunk.  The rest runs over consecutive blocks of ``_BLOCK`` =
2**11 of the chunk's trials: a block takes its symbols from the indices,
draws its noise from the same Generator, and is encoded, decoded and
counted before the next block's noise is drawn.  Consecutive
``standard_normal(out=)`` calls continue one stream, so the blocks'
noise is the whole-chunk draw value for value.  Memory is bounded by one
chunk's indices and fades plus one block's arrays, in buffers allocated
once per call, and the block size does not change a count.  A (seed,
config) pair gives a bit-identical report.  ``[seed, p, 0]`` seeds the same
stream as ``[seed, p]`` (zero padding), so runs of at most 2**14 trials
per point match the earlier contract that drew a whole point from
``[seed, p]``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .codes import LinearDispersionCode, _encode, gram, lexicographic_first_min
from .constellations import Constellation
from .gmatrix import _pow2_scaled, _upper_pairs
from .verifier import check_ssd

DECODER_SSD = "ssd"
DECODER_BRUTE_ML = "brute-ml"

ML_BUDGET = 1_000_000
_WILSON_Z = 1.959963984540054  # two-sided 95%
_CHUNK = 1 << 14
_BLOCK = 1 << 11  # trials of a chunk encoded and decoded together
_ML_CHUNK = 1 << 20  # elements in one brute-force ML block: T x C metrics or F x C basis
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
        for name in ("trials", "seed", "rx_antennas"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.snr_db_list:
            raise ValueError("need at least one SNR point")
        for snr_db in self.snr_db_list:
            _noise_power(snr_db)
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
    slot_errors: tuple[int, ...]  # wrong symbols per slot


@dataclass(frozen=True)
class CerReport:
    points: tuple[CerPoint, ...]

    def cer_at(self, snr_db: float) -> CerPoint:
        for p in self.points:
            if p.snr_db == snr_db:
                return p
        raise KeyError(f"no point at {snr_db} dB")


def wilson_halfwidth(errors: int, trials: int) -> float:
    """Half-width of the Wilson 95% score interval for errors/trials."""
    z = _WILSON_Z
    p = errors / trials
    denom = 1.0 + z * z / trials
    return (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))


def _noise_power(snr_db: float) -> float:
    """N0 = 10^(-SNR/10) of one SNR point in dB; ValueError unless both are finite."""
    try:
        n0 = 10.0 ** (-float(snr_db) / 10.0)
    except OverflowError:
        n0 = math.inf
    if not (math.isfinite(snr_db) and math.isfinite(n0)):
        raise ValueError(f"SNR point {snr_db!r} dB gives no finite noise power")
    return n0


def transmit_scale(code: LinearDispersionCode, constellation: Constellation) -> float:
    """Scalar s such that s * S averages unit energy per channel use.

    Uses the constellation's exact second moments, so the scale is
    rate- and energy-mode-aware.  The energy of the weights times 2^e
    (``gmatrix._pow2_scaled``) cannot overflow; the scale carries 2^e back.
    """
    pts = np.asarray(constellation.points)
    m_ii = float(np.mean(pts.real ** 2))
    m_qq = float(np.mean(pts.imag ** 2))
    m_iq = float(np.mean(pts.real * pts.imag))
    w, e = _pow2_scaled(code.w)
    wi, wq = w[:, 0], w[:, 1]
    total = float(m_ii * np.sum(np.abs(wi) ** 2) + m_qq * np.sum(np.abs(wq) ** 2)
                  + 2 * m_iq * np.sum(np.real(np.conj(wi) * wq)))
    if total <= 0.0:
        raise ValueError("code transmits no energy")
    return math.ldexp(math.sqrt(code.n / total), e)


def _draw_cn(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous complex array ``out`` with CN(0, 1) draws and return it."""
    rng.standard_normal(out=out.view(np.float64))  # Re/Im pairs
    out *= 1.0 / math.sqrt(2.0)
    return out


def _require_ssd(code: LinearDispersionCode) -> None:
    if not check_ssd(code).ok:
        raise ValueError("per-symbol decoding requires a single-symbol decodable code")


def _blocks(y, h) -> tuple[np.ndarray, np.ndarray, bool]:
    """y and h as complex (T, n, m) blocks, and whether one (n, m) block was given."""
    y = np.asarray(y, dtype=complex)
    h = np.asarray(h, dtype=complex)
    if y.shape != h.shape or h.ndim not in (2, 3):
        raise ValueError(f"y and h must share one (n, m) or (T, n, m) shape, got {y.shape} "
                         f"and {h.shape}")
    single = h.ndim == 2
    return (y[None], h[None], single) if single else (y, h, single)


def _trace_kernel(m: np.ndarray) -> np.ndarray:
    """The real (2n^2, J) kernel from the float64 view of X to Re tr(m[j] X) = Re <m[j]^H, X>."""
    mh = np.ascontiguousarray(np.conj(np.swapaxes(m, -1, -2))).reshape(len(m), -1)
    return mh.view(np.float64).T


def _kernels(grams: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Q-kernel of R_pq = Re tr(G_pq Q) per Gram product, the P-kernel of b_r = Re tr(W_r P)."""
    return _trace_kernel(grams), _trace_kernel(w.reshape(-1, *w.shape[-2:]))


def _metric_kernel(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The SSD kernels: the per-slot diagonal of the ML pairs.

    Slot i's Q-kernel columns 3(i-1) .. 3i-1 give ||A_i H||^2, ||B_i H||^2 and
    Re <A_i H, B_i H>, that is R_pp, R_p'p' and R_pp' for A_i = W_p and
    B_i = W_p', p' = p + 1, read from the slot's own 2 x 2 Gram products; its
    P-kernel columns 2(i-1), 2i-1 give Re <Y, A_i H> = b_p and Re <Y, B_i H> = b_p'.
    """
    slots = gram(w)[:, [0, 2, 1]]  # each slot's pairs (A A, A B, B B) as (A A, B B, A B)
    return _kernels(slots.reshape(-1, *w.shape[-2:]), w)


def _coefficients(kernels: tuple[np.ndarray, np.ndarray], y: np.ndarray,
                  h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (T, #pairs) R and (T, 2k) b of T complex blocks y, h of shape (T, n, m)."""
    t = h.shape[0]
    q = np.matmul(h, np.conj(np.swapaxes(h, -1, -2)))  # Q = H H^H
    r = q.view(np.float64).reshape(t, -1) @ kernels[0]
    del q  # freed before P is formed: one (T, n, n) statistic is alive at a time
    p = np.matmul(h, np.conj(np.swapaxes(y, -1, -2)))  # P = H Y^H
    return r, p.view(np.float64).reshape(t, -1) @ kernels[1]


def _slot_metrics(kernels: tuple[np.ndarray, np.ndarray], y: np.ndarray, h: np.ndarray,
                  pts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The (T, k, |A|) per-slot metrics g_i(x) for T complex blocks y, h of shape (T, n, m).

    ``kernels`` are the code's ``_metric_kernel``; ``out``, if given, is a
    C-contiguous (T k, |A|) float64 buffer the metrics are written to.
    """
    t = h.shape[0]
    r, b = _coefficients(kernels, y, h)
    slot_stats = np.concatenate((r.reshape(t, -1, 3), b.reshape(t, -1, 2)), axis=2)
    xr = pts.real
    xq = pts.imag
    basis = np.stack((xr * xr, xq * xq, 2.0 * xr * xq, -2.0 * xr, -2.0 * xq))
    return np.matmul(slot_stats.reshape(-1, 5), basis, out=out).reshape(t, -1, len(pts))


def ssd_decode(code: LinearDispersionCode, y: np.ndarray, h: np.ndarray,
               constellation: Constellation) -> np.ndarray:
    """Per-symbol ML decoding; exactly k * |A| metric evaluations per block.

    Takes one block, y and h of shape (n, m), and returns its k symbols, or
    T blocks of shape (T, n, m) and returns (T, k) symbols.  The code is
    checked once per call.
    """
    _require_ssd(code)
    y, h, single = _blocks(y, h)
    pts = np.asarray(constellation.points)
    decoded = pts[np.argmin(_slot_metrics(_metric_kernel(code.w), y, h, pts), axis=2)]
    return decoded[0] if single else decoded  # first minimum = smallest index


def ml_decode_bruteforce(code: LinearDispersionCode, y: np.ndarray, h: np.ndarray,
                         constellation: Constellation) -> np.ndarray:
    """Exhaustive ML decoding over all |A|^k codewords.

    Takes one block, y and h of shape (n, m), and returns its k symbols, or
    T blocks of shape (T, n, m) and returns (T, k) symbols.
    """
    pts = np.asarray(constellation.points)
    _require_ml_budget(code.k, len(pts))
    y, h, single = _blocks(y, h)
    decoded = _ml_decode(_ml_kernel(code.w), y, h, pts)
    return decoded[0] if single else decoded


def _require_ml_budget(k: int, size: int) -> None:
    if size ** k > ML_BUDGET:
        raise ValueError(f"brute-force ML needs {size ** k} codewords, over budget {ML_BUDGET}")


def _ml_kernel(w: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray,
                                       np.ndarray]:
    """The brute-force ML tables of a (k, 2, n, n) weight stack.

    The Q- and P-kernels of all k(2k+1) pairs p <= q, the pairs p and q
    themselves and their weights c_pq.
    """
    k, _, n, _ = w.shape
    p, q = _upper_pairs(2 * k)
    grams = gram(w.reshape(2 * k, n, n))
    return _kernels(grams, w), p, q, np.where(p == q, 1.0, 2.0)


def _ml_decode(tables, y: np.ndarray, h: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The (T, k) first ML symbols of T complex blocks y, h of shape (T, n, m).

    ``tables`` are the code's ``_ml_kernel``.
    """
    kernels, p, q, pair_weight = tables
    k = kernels[1].shape[1] // 2  # the P-kernel has one column per weight
    coef = np.concatenate(_coefficients(kernels, y, h), axis=1)  # (T, F)

    def metrics(x: np.ndarray) -> np.ndarray:  # ||Y - SH||^2 - ||Y||^2 of C codewords, (T, C)
        s = np.stack((x.real, x.imag), axis=2).reshape(len(x), 2 * k)
        basis = np.concatenate((pair_weight * s[:, p] * s[:, q], -2.0 * s), axis=1)
        return coef @ basis.T

    return lexicographic_first_min(pts, k, max(1, _ML_CHUNK // max(coef.shape)), metrics)[1]


def simulate_cer(config: SimConfig) -> CerReport:
    """Codeword-error-rate sweep over the configured SNR points."""
    code = config.code
    constellation = config.constellation
    n, m, k = code.n, config.rx_antennas, code.k
    scale = transmit_scale(code, constellation)
    w = code.scaled(scale).w
    pts = np.asarray(constellation.points)
    chunk = min(_CHUNK, config.trials)
    block = min(_BLOCK, chunk)
    if config.decoder == DECODER_SSD:
        _require_ssd(code)  # reads the cached classification of the caller's classify
        kernels = _metric_kernel(w)
        metrics = np.empty((block * k, len(pts)))

        def decode(y: np.ndarray, h: np.ndarray) -> np.ndarray:
            return pts[np.argmin(_slot_metrics(kernels, y, h, pts, metrics[:len(h) * k]), axis=2)]
    else:
        _require_ml_budget(k, len(pts))
        tables = _ml_kernel(w)

        def decode(y: np.ndarray, h: np.ndarray) -> np.ndarray:
            return _ml_decode(tables, y, h, pts)
    # one chunk's fades and one block's symbols and noise, in buffers allocated once
    # per call: a chunk's fresh arrays would be alive beside the last chunk's, and
    # past malloc's mmap threshold they are mapped and faulted in afresh each time
    h_all = np.empty((chunk, n, m), dtype=complex)
    x_block = np.empty((block, k), dtype=complex)
    y_block = np.empty((block, n, m), dtype=complex)
    out = []
    for point_index, snr_db in enumerate(config.snr_db_list):
        n0 = _noise_power(snr_db)
        errors = 0
        slot_errors = np.zeros(k, dtype=np.int64)
        for chunk_index, start in enumerate(range(0, config.trials, _CHUNK)):
            t = min(_CHUNK, config.trials - start)
            rng = np.random.default_rng([config.seed, point_index, chunk_index])
            symbols = rng.integers(0, len(pts), size=(t, k))
            h = _draw_cn(rng, h_all[:t])
            for b in range(0, t, _BLOCK):  # the rest runs per block, in cache
                hb = h[b:b + _BLOCK]
                xb = np.take(pts, symbols[b:b + _BLOCK], out=x_block[:len(hb)])
                # the block's noise continues the chunk's one stream of normals, so
                # it is the slice a whole-chunk draw would give; N + S H = S H + N
                yb = _draw_cn(rng, y_block[:len(hb)])
                yb *= math.sqrt(n0)
                yb += _encode(w, xb) @ hb
                wrong = decode(yb, hb) != xb
                errors += int(np.sum(np.any(wrong, axis=1)))
                slot_errors += np.sum(wrong, axis=0)
        out.append(CerPoint(snr_db=float(snr_db), trials=config.trials, errors=errors,
                            cer=errors / config.trials,
                            ci95=wilson_halfwidth(errors, config.trials),
                            slot_errors=tuple(slot_errors.tolist())))
    return CerReport(points=tuple(out))
