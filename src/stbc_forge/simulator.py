"""Quasi-static Rayleigh flat-fading Monte Carlo with ML decoding.

Channel model:  Y = S H + N  with an n x n codeword S transmitted over
n channel uses, H an n x m matrix of i.i.d. CN(0, 1) fades held fixed
for the codeword, and N i.i.d. CN(0, N0).

SNR convention:  codewords are scaled so the average transmit energy
per channel use is 1 (the scale follows from the constellation's second
moments and mean and the weight matrices), and SNR = 1/N0 per receive
antenna.
This makes curves of different codes directly comparable; an absolute
dB offset against conventions that normalize differently is expected.

Decoders:  both minimize ||Y - SH||^2 through one quadratic form.  With
the real symbol vector s = (x_1I, x_1Q, ..., x_kI, x_kQ) and the 2k
weights W_p = A_1, B_1, ..., A_k, B_k,

    ||Y - SH||^2 - ||Y||^2 = sum_{p<=q} s_p s_q R_pq - 2 sum_p s_p b_p,

with R_pq = Re tr(M_pq Q) on the pair terms M_pp = W_p^H W_p and
M_pq = W_p^H W_q + W_q^H W_p of :func:`.codes.gram`, b_p = Re tr(W_p P),
and the two n x n statistics per block Q = H H^H and P = H Y^H.  A
decoder works on S sub-codes of g symbols each: one table builder gives
the (2n^2, S g(2g+1)) Q-kernel of the sub-codes' M_pq and the
(2n^2, S 2g) P-kernel of their weights, so a batch of T blocks takes one
GEMM of the float64 view of Q and one of P to the (T S, F) coefficients
[R_pq, b_p] of every block and sub-code, F = g(2g+1) + 2g.  Those times
the (F, C) basis [s_p s_q, -2 s_p] of C candidate symbol vectors give
every metric in one GEMM.  The kernels assume nothing about the weights.

``ssd_decode``
    ML of each slot's one-symbol sub-code (S = k, g = 1, from the code's
    (k, 2, n, n) weight stack) over the |A| points: k * |A| metric
    evaluations.  It is ML of the code exactly when every cross-symbol
    M_pq vanishes, the single-symbol decodable codes, so it checks the
    code first.  No cross-slot product is formed.

``ml_decode_bruteforce``
    ML of the whole code (S = 1, g = k) over its |A|^k codewords, in
    chunks from :func:`.codes.lexicographic_first_min` of at most
    ``_ML_CHUNK`` metrics and basis entries each, so memory is bounded in
    T and in |A|^k.

One builder, ``_decoder``, sets up either decoder; ``simulate_cer`` calls
it once per call and decodes once per trial block, writing SSD metrics
into one block-sized buffer.  Both break ties toward the smallest
constellation index, and brute-force ML toward the first codeword in
lexicographic order (ties have probability zero under continuous noise
but the rule keeps the decoder-equivalence oracle deterministic).

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
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .codes import LinearDispersionCode, _encode, gram, lexicographic_first_min
from .constellations import Constellation
from .gmatrix import _upper_pairs
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

    A codeword of the real symbol vector x has energy x^T Gamma x on the
    code's ``real_gram``.  Symbols of distinct slots are independent and
    uniform over the points, so E[x x^T] is the tiled mean mu mu^T plus
    the points' 2 x 2 covariance C in each slot's diagonal block, and the
    mean energy is mu^T Gamma mu + <sum_i Gamma_ii, C>: rate-, mean- and
    energy-mode-aware.  Gamma is that of the weights times 2^e, so the
    energy cannot overflow; the scale carries 2^e back.
    """
    gamma, e = code.real_gram
    mu = np.mean(constellation.points)
    d = (constellation.points - mu).view(np.float64).reshape(-1, 2)
    mean = np.array([mu.real, mu.imag] * code.k)
    slots = np.einsum("iaib->ab", gamma.reshape(code.k, 2, code.k, 2))  # sum_i Gamma_ii
    total = float(mean @ gamma @ mean + np.sum(slots * (d.T @ d)) / len(d))
    if total <= 0.0:
        raise ValueError("code transmits no energy")
    return math.ldexp(math.sqrt(code.n / total), e)


def _draw_cn(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous complex array ``out`` with CN(0, 1) draws and return it."""
    rng.standard_normal(out=out.view(np.float64))  # Re/Im pairs
    out *= 1.0 / math.sqrt(2.0)
    return out


def _trace_kernel(m: np.ndarray) -> np.ndarray:
    """The real (2n^2, J) kernel from the float64 view of X to Re tr(m[j] X) = Re <m[j]^H, X>."""
    mh = np.ascontiguousarray(np.conj(np.swapaxes(m, -1, -2))).reshape(len(m), -1)
    return mh.view(np.float64).T


def _tables(subcodes: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """The decoding tables of an (S, 2g, n, n) stack of S sub-codes of g symbols each.

    S, the Q-kernel of R_pq = Re tr(M_pq Q) over each sub-code's pair terms
    M_pq (:func:`.codes.gram`), and the P-kernel of b_p = Re tr(W_p P) over
    its weights, both sub-code by sub-code.
    """
    n = subcodes.shape[-1]
    return (len(subcodes), _trace_kernel(gram(subcodes).reshape(-1, n, n)),
            _trace_kernel(subcodes.reshape(-1, n, n)))


def _coefficients(tables: tuple[int, np.ndarray, np.ndarray], y: np.ndarray,
                  h: np.ndarray) -> np.ndarray:
    """The (T S, F) coefficients [R_pq, b_p] of each block and sub-code.

    For T complex blocks y, h of shape (T, n, m) and the ``_tables`` of S
    sub-codes; row t S + i holds sub-code i of block t.
    """
    subcodes, q_kernel, p_kernel = tables
    rows = h.shape[0] * subcodes
    q = np.matmul(h, np.conj(np.swapaxes(h, -1, -2)))  # Q = H H^H
    r = q.view(np.float64).reshape(len(h), -1) @ q_kernel
    del q  # freed before P is formed: one (T, n, n) statistic is alive at a time
    p = np.matmul(h, np.conj(np.swapaxes(y, -1, -2)))  # P = H Y^H
    b = p.view(np.float64).reshape(len(h), -1) @ p_kernel
    del p  # and P before the coefficients are gathered
    return np.concatenate((r.reshape(rows, -1), b.reshape(rows, -1)), axis=1)


def _basis(x: np.ndarray) -> np.ndarray:
    """The (F, C) basis [s_p s_q (p <= q), -2 s_p] of C complex symbol vectors x, (C, g).

    s = (x_1I, x_1Q, ..., x_gI, x_gQ), so a row of ``_coefficients`` times
    column c is ||Y - S H||^2 - ||Y||^2 of codeword c of the sub-code.
    """
    s = np.ascontiguousarray(x).view(np.float64).T
    p, q = _upper_pairs(len(s))
    return np.concatenate((s[p] * s[q], -2.0 * s))  # C order: a transposed operand is slower


def _decoder(code: LinearDispersionCode, w: np.ndarray, pts: np.ndarray, decoder: str,
             block: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The decoder that maps T <= ``block`` blocks y, h of shape (T, n, m) to (T, k) symbols.

    ``w`` is the code's weight stack, at the transmit scale in a simulation.
    SSD decodes each slot's one-symbol sub-code, the (k, 2, n, n) ``w``,
    over the |A| points into one block-sized metric buffer; brute-force ML
    decodes the whole code, one sub-code of k symbols, over its |A|^k
    codewords in chunks from :func:`.codes.lexicographic_first_min`.
    """
    k, _, n, _ = w.shape
    if decoder == DECODER_SSD:
        if not check_ssd(code).ok:
            raise ValueError("per-symbol decoding requires a single-symbol decodable code")
        tables = _tables(w)
        basis = _basis(pts[:, None])
        metrics = np.empty((block * k, len(pts)))

        def decode(y: np.ndarray, h: np.ndarray) -> np.ndarray:
            out = np.matmul(_coefficients(tables, y, h), basis, out=metrics[:len(h) * k])
            return pts[np.argmin(out, axis=1)].reshape(len(h), k)  # first minimum: smallest index
        return decode
    if len(pts) ** k > ML_BUDGET:
        raise ValueError(f"brute-force ML needs {len(pts) ** k} codewords, over budget {ML_BUDGET}")
    tables = _tables(w.reshape(1, 2 * k, n, n))

    def decode(y: np.ndarray, h: np.ndarray) -> np.ndarray:
        coef = _coefficients(tables, y, h)
        return lexicographic_first_min(pts, k, max(1, _ML_CHUNK // max(coef.shape)),
                                       lambda x: coef @ _basis(x))[1]
    return decode


def _decode_blocks(code: LinearDispersionCode, y, h, constellation: Constellation,
                   decoder: str) -> np.ndarray:
    """Decode one (n, m) block y, h to its k symbols, or T (T, n, m) blocks to (T, k)."""
    y = np.asarray(y, dtype=complex)
    h = np.asarray(h, dtype=complex)
    if y.shape != h.shape or h.ndim not in (2, 3) or h.shape[-2] != code.n:
        raise ValueError(f"y and h must share one (n, m) or (T, n, m) shape with n = {code.n}, "
                         f"got {y.shape} and {h.shape}")
    if h.ndim == 2:
        return _decode_blocks(code, y[None], h[None], constellation, decoder)[0]
    return _decoder(code, code.w, constellation.points, decoder, len(h))(y, h)


def ssd_decode(code: LinearDispersionCode, y: np.ndarray, h: np.ndarray,
               constellation: Constellation) -> np.ndarray:
    """Per-symbol ML decoding; exactly k * |A| metric evaluations per block.

    Takes one block, y and h of shape (n, m), and returns its k symbols, or
    T blocks of shape (T, n, m) and returns (T, k) symbols.  The code is
    checked once per call.
    """
    return _decode_blocks(code, y, h, constellation, DECODER_SSD)


def ml_decode_bruteforce(code: LinearDispersionCode, y: np.ndarray, h: np.ndarray,
                         constellation: Constellation) -> np.ndarray:
    """Exhaustive ML decoding over all |A|^k codewords.

    Takes one block, y and h of shape (n, m), and returns its k symbols, or
    T blocks of shape (T, n, m) and returns (T, k) symbols.
    """
    return _decode_blocks(code, y, h, constellation, DECODER_BRUTE_ML)


def simulate_cer(config: SimConfig) -> CerReport:
    """Codeword-error-rate sweep over the configured SNR points."""
    code = config.code
    n, m, k = code.n, config.rx_antennas, code.k
    w = code.scaled(transmit_scale(code, config.constellation)).w
    pts = config.constellation.points
    chunk = min(_CHUNK, config.trials)
    block = min(_BLOCK, chunk)
    decode = _decoder(code, w, pts, config.decoder, block)  # SSD reads the caller's classify
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
