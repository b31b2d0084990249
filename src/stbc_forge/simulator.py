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
decoder works on S sub-codes of g symbols each.  One table builder keeps
the sub-codes' pair terms that are not exactly zero, entrywise in some
sub-code (a pruned M_pq adds nothing; one mask serves every sub-code),
and gives two half-tables: the float64 views of conj(M_pq) on the kept
pairs and of conj(W_p).  M_pq and Q are Hermitian, so R_pq =
<conj(M_pq), conj(Q)> and b_p = <conj(W_p), conj(Y H^H)>, real inner
products.  A batch of T blocks takes one batched product
conj([H; Z]) H^T = conj([Q; Z H^H]) of (T, n, m) blocks h, z, whose
halves are 2n^2 contiguous floats per block, and one GEMM per half
against its half-table, with no structural zero.  The two GEMMs write
the row blocks of one coefficient-major (F S, T) array,
F = (kept pairs) + 2g: row f S + i holds coefficient f of sub-code i,
[R_pq; Re tr(W_p H Z^H)], and with Z = Y that is [R_pq; b_p].  The
(F, C) basis [s_p s_q, -2 s_p] of C candidate symbol vectors on the kept
pairs meets it in one GEMM for every metric.  The tables assume nothing
about the weights.

``ssd_decode``
    ML of each slot's one-symbol sub-code (S = k, g = 1, from the code's
    (k, 2, n, n) weight stack) over the |A| points: k * |A| metric
    evaluations.  The coefficients read as (F, k T) without a copy, so one
    GEMM basis^T coefficients, with no transposed operand, writes the
    (|A|, k T) metrics candidate-major into one block-sized buffer, column
    i T + t for slot i of block t.  It is ML of the code exactly when
    every cross-symbol M_pq vanishes, the single-symbol decodable codes,
    so it checks the code first.  No cross-slot product is formed.

``ml_decode_bruteforce``
    ML of the whole code (S = 1, g = k) over its |A|^k codewords, by one
    enumerator: one loop over lexicographic chunks of codewords, each
    with at most ``_ML_CHUNK`` metrics and basis entries, so memory is
    bounded in T and in |A|^k.  Each chunk takes one GEMM and a row
    argmin, and a strict ``<`` across chunks keeps a tie in the earlier
    chunk.  When one chunk holds every codeword, its basis is built once
    per call.

One builder, ``_decoder``, sets up either decoder: its tables, the
buffers of one trial block, its map from the block's Z and fades to
coefficients, its map from coefficients to symbols and its map from
coefficients and sent symbols to wrong slots.  ``_chunks`` builds it
once per ``simulate_cer`` call and counts once per trial block, and
the two public decoders build it once per call and decode ``_BLOCK``
blocks at a time in its buffers.  The decoders break ties toward the
first minimum: SSD toward the smallest constellation index, brute-force
ML toward the first codeword in lexicographic order.  ``simulate_cer``
decodes nothing on the SSD path: it counts a slot as wrong when some
point's metric is strictly below the sent point's, one column minimum,
one gather and one compare per block; brute-force ML counts by comparing
the decoded point indices with the sent ones.  The two rules agree
except at an exact tie with an earlier point, which has probability zero
under continuous noise; the first-minimum rule keeps the
decoder-equivalence oracle deterministic.

Sufficient statistics:  Q is Hermitian, so Y = S H + N gives
P = Q S^H + H N^H and, for any weights,

    b_p = sum_q R~_pq s_q + Re tr(W_p H N^H),   R~_pp = R_pp,
                                                R~_pq = R~_qp = R_pq / 2.

``simulate_cer`` forms no codeword and no S H: a block's coefficients of
Z = N, plus the signal term of its sent symbols added by ``_add_signal``
over the sub-code's kept pairs, are its coefficients of Y.  Coefficient
f of every sub-code is one contiguous (S, T) row block, so the signal
term is one multiply-add per kept pair and weight on whole rows.  The
whole code (brute-force ML) drops only pruned pairs.  The slot sub-codes
(SSD) also drop the cross-slot terms, which are exactly zero for every
built-in code and within ``check_ssd``'s tolerance otherwise.  Every
CN(0, 1) draw is a complex view of interleaved normals.

Reproducibility:  each SNR point runs in chunks of ``_CHUNK`` = 2**14
trials.  One function, ``_chunks``, owns the draw order: its
generator for each point yields each chunk's (trials, errors,
slot_errors) in the order below, and ``simulate_cer`` only sums each
point's chunks, so a run of C whole chunks counts what the first C
chunks of a longer run count.
Chunk c of point p draws its symbol indices, then its fades,
then its noise from ``default_rng([seed, p, c])``, and is decoded before
the next chunk is drawn.  Only the indices and the fades are drawn for
the whole chunk.  The rest runs over consecutive blocks of ``_BLOCK`` =
2**10 of the chunk's trials: a block takes its symbols from the indices,
draws its noise from the same Generator, and is decoded and counted
before the next block's noise is drawn.  Consecutive
``standard_normal(out=)`` calls continue one stream, so the blocks'
noise is the whole-chunk draw value for value.  Memory is bounded by one
chunk's indices and fades plus one block's arrays, in buffers allocated
once per call, and the block size does not change a count; at 2**10 one
block's conj([Q; N H^H]) of a USSD8 code on two receive antennas is 2 MiB.  A
(seed, config) pair gives a bit-identical report.  ``[seed, p, 0]``
seeds the same stream as ``[seed, p]`` (zero padding), so runs of at
most 2**14 trials per point match the earlier contract that drew a whole
point from ``[seed, p]``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .codes import LinearDispersionCode, gram
from .constellations import Constellation
from .gmatrix import _pow2_scaled, _upper_pairs
from .verifier import check_ssd

DECODER_SSD = "ssd"
DECODER_BRUTE_ML = "brute-ml"

ML_BUDGET = 1_000_000
_WILSON_Z = 1.959963984540054  # two-sided 95%
_CHUNK = 1 << 14
_BLOCK = 1 << 10  # trials of a chunk decoded together
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
    grid-scale-aware.  Gamma is that of the weights times 2^e, and the
    points are read times 2^t (both ``gmatrix._pow2_scaled``), so the
    energy cannot overflow; the scale carries 2^(e + t) back.  A scale
    outside the float range is a ValueError.
    """
    pts, t = _pow2_scaled(constellation.points)
    return _transmit_scale(code, pts, t)


def _transmit_scale(code: LinearDispersionCode, pts: np.ndarray, t: int = 0) -> float:
    """:func:`transmit_scale` of the points ``pts`` times 2^t, read at the scale of ``pts``."""
    gamma, e = code.real_gram
    mu = np.mean(pts)
    d = (pts - mu).view(np.float64).reshape(-1, 2)
    mean = np.array([mu.real, mu.imag] * code.k)
    slots = np.einsum("iaib->ab", gamma.reshape(code.k, 2, code.k, 2))  # sum_i Gamma_ii
    total = float(mean @ gamma @ mean + np.sum(slots * (d.T @ d)) / len(d))
    if total <= 0.0:
        raise ValueError("code transmits no energy")
    scale = math.sqrt(code.n / total)
    try:
        out = math.ldexp(scale, e + t)
    except OverflowError:
        out = math.inf
    if not 0.0 < out < math.inf:
        raise ValueError(f"the transmit scale, about 2^{math.frexp(scale)[1] + e + t}, "
                         "is outside the float range")
    return out


def _draw_cn(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous complex array ``out`` with CN(0, 1) draws and return it."""
    rng.standard_normal(out=out.view(np.float64))  # Re/Im pairs
    out *= 1.0 / math.sqrt(2.0)
    return out


class _Tables(NamedTuple):
    """The decoding tables of S sub-codes of g symbols each, from :func:`_tables`.

    Two half-tables, one per half of the statistic conj([Q; Z H^H]); row f S + i
    is the float64 view of coefficient f's matrix in sub-code i.
    """

    subcodes: int  # S
    p: np.ndarray  # the kept pairs p <= q of a sub-code's 2g weights, row-major
    q: np.ndarray
    r: np.ndarray  # (P S, 2n^2): conj(M_pq) of the P kept pairs, to R_pq from conj(Q)
    b: np.ndarray  # (2g S, 2n^2): conj(W_p), to Re tr(W_p H Z^H) from conj(Z H^H)

    @property
    def rows(self) -> int:
        """F S, the rows of the coefficient-major :func:`_coefficients`."""
        return len(self.r) + len(self.b)


def _tables(subcodes: np.ndarray) -> _Tables:
    """The decoding tables of an (S, 2g, n, n) stack of S sub-codes of g symbols each.

    A pair term M_pq (:func:`.codes.gram`) that is exactly zero, entrywise
    and in every sub-code, adds nothing to the metric or to the signal term
    and is pruned: one mask for all sub-codes, so the basis and the signal
    term read the same kept (p, q).  M_pq and Q are Hermitian, so
    R_pq = Re tr(M_pq Q) = <conj(M_pq), conj(Q)> and Re tr(W_p H Z^H) =
    <conj(W_p), conj(Z H^H)>, real inner products of float64 views: each
    half-table meets one half of the statistic and no structural zero.
    """
    s, g2, n, _ = subcodes.shape
    terms = gram(subcodes)
    keep = np.any(terms != 0, axis=(0, 2, 3))

    def half_table(m: np.ndarray) -> np.ndarray:
        # (S, J, n, n) to the (J S, 2n^2) float64 view of conj(m), row j S + i
        return np.ascontiguousarray(np.conj(m.swapaxes(0, 1))).reshape(-1, n * n).view(np.float64)

    p, q = _upper_pairs(g2)
    return _Tables(s, p[keep], q[keep], half_table(terms[:, keep]), half_table(subcodes))


def _coefficients(tables: _Tables, z: np.ndarray, h: np.ndarray, hz: np.ndarray,
                  stats: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The (F S, T) coefficients [R_pq; Re tr(W_p H Z^H)] of each sub-code and block.

    For T complex blocks z, h of shape (T, n, m) and the ``_tables`` of S
    sub-codes; row f S + i holds coefficient f of sub-code i.  With Z = Y
    these are the decoder's [R_pq; b_p]; with Z = N, :func:`_add_signal`
    adds the rest of b_p.  One batched product conj([H; Z]) H^T =
    conj([Q; Z H^H]) and one GEMM per half-table, in buffers of at least T
    blocks: the first T of the (., 2n, m) ``hz`` for conj([H; Z]) and of the
    (., 2n, n) ``stats`` for the statistic, and the first F S T of the flat
    ``out``, whose view it returns.  A decoder owns one set (:func:`_decoder`).
    """
    t = len(h)
    hz, stats, out = hz[:t], stats[:t], out[:tables.rows * t].reshape(-1, t)
    np.concatenate((h, z), axis=1, out=hz)
    np.matmul(np.conjugate(hz, out=hz), h.swapaxes(-1, -2), out=stats)
    halves = stats.view(np.float64).reshape(t, 2, -1)
    np.matmul(tables.r, halves[:, 0].T, out=out[:len(tables.r)])
    np.matmul(tables.b, halves[:, 1].T, out=out[len(tables.r):])
    return out


def _add_signal(tables: _Tables, coef: np.ndarray, parts: np.ndarray) -> None:
    """Add sum_q R~_pq s_q (module doc) to the b rows of Z = N's ``_coefficients``, in place.

    ``parts`` holds the real and imaginary parts of the (k, T) sent symbols,
    k = S g, as one C-contiguous (2, k, T) array; the sum runs over the kept
    pairs.  One multiply-add per pair and weight on contiguous (S, T) rows:
    one coefficient of every sub-code, and one part of one symbol of each.
    """
    sub, t = tables.subcodes, parts.shape[2]
    coef = coef.reshape(-1, sub, t)
    # s_p of every sub-code and block: part p % 2 of the sub-code's symbol p // 2
    parts = parts.reshape(2, sub, -1, t)
    halved = 0.5 * parts
    s = [parts[p % 2, :, p // 2] for p in range(2 * parts.shape[2])]
    half = [halved[p % 2, :, p // 2] for p in range(2 * parts.shape[2])]
    b = coef[len(tables.p):]
    for j, (p, q) in enumerate(zip(tables.p.tolist(), tables.q.tolist())):
        r = coef[j]
        bp = b[p]
        if p == q:
            bp += r * s[p]
        else:
            bp += r * half[q]
            bq = b[q]
            bq += r * half[p]


def _basis(tables: _Tables, x: np.ndarray) -> np.ndarray:
    """The (F, C) basis [s_p s_q (kept p <= q), -2 s_p] of C complex symbol vectors x, (C, g).

    s = (x_1I, x_1Q, ..., x_gI, x_gQ), so column i T + t of the (F, S T) view of
    ``_coefficients`` of Z = Y, dotted with column c, is ||Y - S H||^2 - ||Y||^2 of
    codeword c of sub-code i in block t.
    """
    s = np.ascontiguousarray(x).view(np.float64).T
    # C order: a transposed operand is slower
    return np.concatenate((s[tables.p] * s[tables.q], -2.0 * s))


class _Decoder(NamedTuple):
    """A decoder's sub-code tables, its coefficients of T blocks and its two maps from them."""

    tables: _Tables
    coefficients: Callable[[np.ndarray, np.ndarray], np.ndarray]  # z, h: ``_coefficients``
    decode: Callable[[np.ndarray], np.ndarray]  # to the (T, k) decoded symbols
    wrong: Callable[[np.ndarray, np.ndarray], np.ndarray]  # and (T, k) sent indices: (k, T) flags


def _wrong(metrics: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """The (k, T) flags of the slots whose sent point some point beats, strictly.

    ``metrics`` is the SSD decoder's C-contiguous (|A|, k T) block, column
    i T + t for slot i of block t, and ``symbols`` the (T, k) sent indices.
    A slot is wrong when its column minimum is below the sent point's
    metric: one reduction, one gather at ``symbols.T`` and one compare, no
    decoded symbol.  Only an exact tie with an earlier point, which
    first-minimum decoding would name, reads right.  The flags come out
    slot-major, so they reduce along contiguous rows.
    """
    cols = metrics.shape[1]
    sent = np.take(metrics, symbols.T.ravel() * cols + np.arange(cols))
    return np.less(metrics.min(axis=0), sent).reshape(symbols.shape[1], -1)


def _decoder(code: LinearDispersionCode, w: np.ndarray, pts: np.ndarray, decoder: str,
             block: int, rx: int) -> _Decoder:
    """A decoder of T <= ``block`` blocks on ``rx`` receive antennas, with its block buffers.

    ``w`` is the code's weight stack, at the transmit scale in a simulation.
    The decoder allocates every block buffer once: ``coefficients(z, h)`` is
    :func:`_coefficients` of T blocks in them, a view that the next call
    overwrites.  SSD scores each slot's one-symbol sub-code, the (k, 2, n, n)
    ``w``, over the |A| points: the (F k, T) coefficients read as (F, k T)
    times the (|A|, F) basis, one GEMM with no transposed operand into one
    block-sized (|A|, k T) buffer; it decodes by the first column minimum and
    counts by :func:`_wrong`.  Brute-force ML scores the whole code, one
    sub-code of k symbols, over its |A|^k codewords in lexicographic chunks
    of at most ``_ML_CHUNK // max(block, F)`` codewords, so that neither the
    (T, C) metrics nor the (F, C) basis pass ``_ML_CHUNK`` elements: the
    argmin of each chunk, and a strict ``<`` across chunks, so a tie keeps
    the earlier chunk.  When one chunk holds every codeword, its digits and
    basis are built once per call.  It decodes to point indices and counts
    by comparing them with the sent ones.
    """
    k, _, n, _ = w.shape
    ssd, total = decoder == DECODER_SSD, len(pts) ** k
    if ssd and not check_ssd(code).ok:
        raise ValueError("per-symbol decoding requires a single-symbol decodable code")
    if not ssd and total > ML_BUDGET:
        raise ValueError(f"brute-force ML needs {total} codewords, over budget {ML_BUDGET}")
    tables = _tables(w if ssd else w.reshape(1, 2 * k, n, n))
    coefficients = partial(_coefficients, tables, hz=np.empty((block, 2 * n, rx), dtype=complex),
                           stats=np.empty((block, 2 * n, n), dtype=complex),
                           out=np.empty(tables.rows * block))
    if ssd:
        basis_t = np.ascontiguousarray(_basis(tables, pts[:, None]).T)
        buffer = np.empty(len(pts) * block * k)

        def metrics(coef: np.ndarray) -> np.ndarray:
            coef = coef.reshape(basis_t.shape[1], -1)  # (F, k T), no copy
            out = buffer[:len(pts) * coef.shape[1]].reshape(len(pts), -1)
            return np.matmul(basis_t, coef, out=out)

        def decode(coef: np.ndarray) -> np.ndarray:
            # first minimum: smallest index
            return pts[np.argmin(metrics(coef), axis=0).reshape(k, -1).T]
        return _Decoder(tables, coefficients, decode,
                        lambda coef, symbols: _wrong(metrics(coef), symbols))
    chunk = min(total, max(1, _ML_CHUNK // max(block, tables.rows)))
    buffer = np.empty(block * chunk)

    def candidates(start: int) -> tuple[np.ndarray, np.ndarray]:
        # the (C, k) point indices of codewords start, start + 1, ... and their basis
        digits = np.array(np.unravel_index(np.arange(start, min(start + chunk, total)),
                                           (len(pts),) * k)).T  # F order: gathers faster
        return digits, _basis(tables, pts[digits])

    whole = candidates(0) if chunk == total else None

    def first(coef: np.ndarray) -> np.ndarray:
        # the (T, k) point indices of the first minimum, the first codeword in lexicographic
        # order.  The metrics are (T, C), read along rows by argmin: the (C, T) GEMM with no
        # transposed operand is as fast, but its argmin over columns copies the block
        t = coef.shape[1]
        best, out = np.inf, 0
        for start in range(0, total, chunk):
            digits, basis = whole or candidates(start)
            metrics = np.matmul(coef.T, basis, out=buffer[:t * len(digits)].reshape(t, -1))
            arg = np.argmin(metrics, axis=1)
            if whole:
                return digits[arg]
            value = metrics[np.arange(t), arg]
            better = value < best  # strict: an earlier chunk keeps a tie
            best = np.where(better, value, best)
            out = np.where(better[:, None], digits[arg], out)
        return out
    return _Decoder(tables, coefficients, lambda coef: pts[first(coef)],
                    lambda coef, symbols: (first(coef) != symbols).T)


def _decode_blocks(code: LinearDispersionCode, y, h, constellation: Constellation,
                   decoder: str) -> np.ndarray:
    """Decode one (n, m) block y, h to its k symbols, or T (T, n, m) blocks to (T, k).

    One ``_decoder`` (one code check) decodes ``_BLOCK`` blocks at a time, so
    memory beyond the (T, k) result is bounded in T.
    """
    y = np.asarray(y, dtype=complex)
    h = np.asarray(h, dtype=complex)
    if y.shape != h.shape or h.ndim not in (2, 3) or h.shape[-2] != code.n:
        raise ValueError(f"y and h must share one (n, m) or (T, n, m) shape with n = {code.n}, "
                         f"got {y.shape} and {h.shape}")
    if h.ndim == 2:
        return _decode_blocks(code, y[None], h[None], constellation, decoder)[0]
    dec = _decoder(code, code.w, constellation.points, decoder, min(len(h), _BLOCK), h.shape[-1])
    out = np.empty((len(h), code.k), dtype=complex)
    for b in range(0, len(h), _BLOCK):
        out[b:b + _BLOCK] = dec.decode(dec.coefficients(y[b:b + _BLOCK], h[b:b + _BLOCK]))
    return out


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


def _chunks(config: SimConfig) -> list[Iterator[tuple[int, int, np.ndarray]]]:
    """Per SNR point, in order, the generator of its chunks' (trials, errors, slot_errors).

    The one owner of the seed contract's draw order (module doc): chunk c of
    point p yields its trial count, its codeword errors and its (k,) wrong
    symbols per slot, and draws nothing before it is asked for.  The decoder
    and the buffers are set up once, here, for every point.
    """
    code = config.code
    n, m, k = code.n, config.rx_antennas, code.k
    # the points times the 2^t of gmatrix._pow2_scaled, the weights at the transmit scale
    # for those: every metric scales exactly by a power of two, so a grid's scale changes
    # no count, and the weight scale stays in the float range where 2^t could carry it out
    pts = _pow2_scaled(config.constellation.points)[0]
    w = code.scaled(_transmit_scale(code, pts)).w
    chunk = min(_CHUNK, config.trials)
    block = min(_BLOCK, chunk)
    # SSD reads the caller's classify
    dec = _decoder(code, w, pts, config.decoder, block, m)
    # one chunk's fades and one block's symbols and noise, in buffers allocated once per
    # call (the decoder holds the rest): a chunk's fresh arrays would be alive beside the
    # last chunk's, past malloc's mmap threshold they are mapped and faulted in afresh
    # each time, and a block's fresh arrays fragment the heap (about 1 MB more peak RSS
    # on USSD8, two receive antennas)
    h_all = np.empty((chunk, n, m), dtype=complex)
    planes = np.stack((pts.real, pts.imag))
    parts_block = np.empty(2 * k * block)
    noise_block = np.empty((block, n, m), dtype=complex)

    def point_chunks(point: int, n0: float) -> Iterator[tuple[int, int, np.ndarray]]:
        for c, start in enumerate(range(0, config.trials, _CHUNK)):
            t = min(_CHUNK, config.trials - start)
            rng = np.random.default_rng([config.seed, point, c])
            symbols = rng.integers(0, len(pts), size=(t, k))
            h = _draw_cn(rng, h_all[:t])
            errors, slot_errors = 0, np.zeros(k, dtype=np.int64)
            for b in range(0, t, _BLOCK):  # the rest runs per block, in cache
                hb, sb = h[b:b + _BLOCK], symbols[b:b + _BLOCK]
                tb = len(hb)
                # the real and imaginary parts of the block's sent symbols, slot-major
                parts = np.take(planes, sb.T, axis=1,
                                out=parts_block[:2 * k * tb].reshape(2, k, tb))
                # the block's noise continues the chunk's one stream of normals, so
                # it is the slice a whole-chunk draw would give
                nb = _draw_cn(rng, noise_block[:tb])
                nb *= math.sqrt(n0)
                coef = dec.coefficients(nb, hb)
                _add_signal(dec.tables, coef, parts)
                wrong = dec.wrong(coef, sb)
                errors += int(np.count_nonzero(wrong.any(axis=0)))
                slot_errors += wrong.sum(axis=1)
            yield t, errors, slot_errors
    return [point_chunks(p, _noise_power(snr_db)) for p, snr_db in enumerate(config.snr_db_list)]


def simulate_cer(config: SimConfig) -> CerReport:
    """Codeword-error-rate sweep over the configured SNR points."""
    out = []
    for snr_db, chunks in zip(config.snr_db_list, _chunks(config)):
        trials, errors, slot_errors = map(sum, zip(*chunks))
        out.append(CerPoint(snr_db=float(snr_db), trials=trials, errors=errors,
                            cer=errors / trials, ci95=wilson_halfwidth(errors, trials),
                            slot_errors=tuple(slot_errors.tolist())))
    return CerReport(points=tuple(out))
