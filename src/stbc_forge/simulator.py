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
and gives one (4n^2, S F) kernel, F = (kept pairs) + 2g.  A batch of T
blocks takes one batched product H [H; Z]^H = [Q | H Z^H] of (T, n, m)
blocks h, z and one GEMM of its float64 view to the (T S, F)
coefficients [R_pq, Re tr(W_p H Z^H)] of every block and sub-code; with
Z = Y they are [R_pq, b_p].  Those times the (F, C) basis
[s_p s_q, -2 s_p] of C candidate symbol vectors on the kept pairs give
every metric in one GEMM.  The kernel assumes nothing about the weights.

``ssd_decode``
    ML of each slot's one-symbol sub-code (S = k, g = 1, from the code's
    (k, 2, n, n) weight stack) over the |A| points: k * |A| metric
    evaluations, written candidate-major as one (|A|, T k) GEMM
    basis^T coefficients^T into one block-sized buffer.  It is ML of the
    code exactly when every cross-symbol M_pq vanishes, the single-symbol
    decodable codes, so it checks the code first.  No cross-slot product
    is formed.

``ml_decode_bruteforce``
    ML of the whole code (S = 1, g = k) over its |A|^k codewords.  When
    they fit one ``_ML_CHUNK`` of metrics and basis entries beside the
    block, their basis is built once per call and a block decodes with
    one GEMM; larger spaces take chunks from
    :func:`.codes.lexicographic_first_min` of at most ``_ML_CHUNK``
    metrics and basis entries each, so memory is bounded in T and in
    |A|^k.

One builder, ``_decoder``, sets up either decoder's tables, its map from
coefficients to symbols and its map from coefficients and sent symbols
to wrong slots; ``simulate_cer`` calls it once per call and counts once
per trial block.  The decoders break ties toward the first minimum: SSD
toward the smallest constellation index, brute-force ML toward the first
codeword in lexicographic order.  ``simulate_cer`` decodes nothing on
the SSD path: it counts a slot as wrong when some point's metric is
strictly below the sent point's, one column minimum, one gather and one
compare per block; brute-force ML counts by decoding.  The two rules
agree except at an exact tie with an earlier point, which has
probability zero under continuous noise; the first-minimum rule keeps
the decoder-equivalence oracle deterministic.

Sufficient statistics:  Q is Hermitian, so Y = S H + N gives
P = Q S^H + H N^H and, for any weights,

    b_p = sum_q R~_pq s_q + Re tr(W_p H N^H),   R~_pp = R_pp,
                                                R~_pq = R~_qp = R_pq / 2.

``simulate_cer`` forms no codeword and no S H: a block's coefficients of
Z = N, plus the signal term of its sent symbols added by ``_add_signal``
over the sub-code's kept pairs, are its coefficients of Y.  The whole
code (brute-force ML) drops only pruned pairs.  The slot sub-codes (SSD)
also drop the cross-slot terms, which are exactly zero for every
built-in code and within ``check_ssd``'s tolerance otherwise.  Every
CN(0, 1) draw is a complex view of interleaved normals.

Reproducibility:  each SNR point runs in chunks of ``_CHUNK`` = 2**14
trials.  Chunk c of point p draws its symbol indices, then its fades,
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
block's [Q | H N^H] of a USSD8 code on two receive antennas is 2 MiB.  A
(seed, config) pair gives a bit-identical report.  ``[seed, p, 0]``
seeds the same stream as ``[seed, p]`` (zero padding), so runs of at
most 2**14 trials per point match the earlier contract that drew a whole
point from ``[seed, p]``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .codes import LinearDispersionCode, gram, lexicographic_first_min
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
    energy cannot overflow; the scale carries 2^(e + t) back.
    """
    pts, t = _pow2_scaled(constellation.points)
    return math.ldexp(_transmit_scale(code, pts), t)


def _transmit_scale(code: LinearDispersionCode, pts: np.ndarray) -> float:
    """:func:`transmit_scale` of the points ``pts`` as they are, read at their scale."""
    gamma, e = code.real_gram
    mu = np.mean(pts)
    d = (pts - mu).view(np.float64).reshape(-1, 2)
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


class _Tables(NamedTuple):
    """The decoding tables of S sub-codes of g symbols each, from :func:`_tables`."""

    subcodes: int  # S
    p: np.ndarray  # the kept pairs p <= q of a sub-code's 2g weights, row-major
    q: np.ndarray
    kernel: np.ndarray  # (4n^2, S F): the float64 view of [Q | H Z^H] to [R_pq, b_p]


def _tables(subcodes: np.ndarray) -> _Tables:
    """The decoding tables of an (S, 2g, n, n) stack of S sub-codes of g symbols each.

    A pair term M_pq (:func:`.codes.gram`) that is exactly zero, entrywise
    and in every sub-code, adds nothing to the metric or to the signal term
    and is pruned: one mask for all sub-codes, so the basis and the signal
    term read the same kept (p, q).  The one kernel maps the float64 view
    of an (n, 2n) statistic [Q | H Z^H] to R_pq = Re tr(M_pq Q) on the kept
    pairs and Re tr(W_p H Z^H) on the weights, sub-code by sub-code.
    """
    s, g2, n, _ = subcodes.shape
    terms = gram(subcodes)
    keep = np.any(terms != 0, axis=(0, 2, 3))
    pairs = int(np.count_nonzero(keep))
    kernel = np.zeros((n, 2, n, 2, s, pairs + g2))
    kernel[:, 0, :, :, :, :pairs] = _trace_kernel(
        terms[:, keep].reshape(-1, n, n)).reshape(n, n, 2, s, pairs)
    kernel[:, 1, :, :, :, pairs:] = _trace_kernel(
        subcodes.reshape(-1, n, n)).reshape(n, n, 2, s, g2)
    p, q = _upper_pairs(g2)
    return _Tables(s, p[keep], q[keep], kernel.reshape(4 * n * n, -1))


def _coefficients(tables: _Tables, z: np.ndarray, h: np.ndarray, hz: np.ndarray | None = None,
                  stats: np.ndarray | None = None) -> np.ndarray:
    """The (T S, F) coefficients [R_pq, Re tr(W_p H Z^H)] of each block and sub-code.

    For T complex blocks z, h of shape (T, n, m) and the ``_tables`` of S
    sub-codes; row t S + i holds sub-code i of block t.  With Z = Y these
    are the decoder's [R_pq, b_p]; with Z = N, :func:`_add_signal` adds the
    rest of b_p.  One batched product H [H; Z]^H = [Q | H Z^H] and one GEMM;
    ``hz`` and ``stats``, if given, are (T, 2n, m) and (T, n, 2n) buffers
    for [H; Z] and [Q | H Z^H].
    """
    hz = np.concatenate((h, z), axis=1, out=hz)
    stats = np.matmul(h, np.conjugate(hz, out=hz).swapaxes(-1, -2), out=stats)
    r = stats.view(np.float64).reshape(len(h), -1) @ tables.kernel
    return r.reshape(len(h) * tables.subcodes, -1)


def _add_signal(tables: _Tables, coef: np.ndarray, s: np.ndarray) -> None:
    """Add sum_q R~_pq s_q (module doc) to the b columns of Z = N's ``_coefficients``, in place.

    ``s`` holds the (T S, 2g) real symbol vectors of the rows' sub-codes; the
    sum runs over the kept pairs.  One multiply-add per pair and weight on
    1-D column views: elementwise ops on the strided (rows, 2g) block cost more.
    """
    half = 0.5 * s
    b = coef[:, len(tables.p):]
    for j, (p, q) in enumerate(zip(tables.p.tolist(), tables.q.tolist())):
        r = coef[:, j]
        bp = b[:, p]
        if p == q:
            bp += r * s[:, p]
        else:
            bp += r * half[:, q]
            bq = b[:, q]
            bq += r * half[:, p]


def _basis(tables: _Tables, x: np.ndarray) -> np.ndarray:
    """The (F, C) basis [s_p s_q (kept p <= q), -2 s_p] of C complex symbol vectors x, (C, g).

    s = (x_1I, x_1Q, ..., x_gI, x_gQ), so a row of ``_coefficients`` of
    Z = Y times column c is ||Y - S H||^2 - ||Y||^2 of codeword c of the sub-code.
    """
    s = np.ascontiguousarray(x).view(np.float64).T
    # C order: a transposed operand is slower
    return np.concatenate((s[tables.p] * s[tables.q], -2.0 * s))


class _Decoder(NamedTuple):
    """A decoder's sub-code tables and its two maps from the ``_coefficients`` of T blocks."""

    tables: _Tables
    decode: Callable[[np.ndarray], np.ndarray]  # to the (T, k) decoded symbols
    wrong: Callable[[np.ndarray, np.ndarray], np.ndarray]  # and (T, k) sent indices: (k, T) flags


def _wrong(metrics: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """The (k, T) flags of the slots whose sent point some point beats, strictly.

    ``metrics`` is the SSD decoder's C-contiguous (|A|, T k) block, column
    t k + i for slot i of block t, and ``symbols`` the (T, k) sent indices.
    A slot is wrong when its column minimum is below the sent point's
    metric: one reduction, one gather and one compare, no decoded symbol.
    Only an exact tie with an earlier point, which first-minimum decoding
    would name, reads right.  Slot-major flags reduce along contiguous rows.
    """
    t, k = symbols.shape
    cols = metrics.shape[1]
    sent = np.take(metrics, symbols.ravel() * cols + np.arange(cols))
    return np.less(metrics.min(axis=0).reshape(t, k).T, sent.reshape(t, k).T, order="C")


def _decoder(code: LinearDispersionCode, w: np.ndarray, pts: np.ndarray, decoder: str,
             block: int) -> _Decoder:
    """A decoder's sub-code tables, and its maps from the coefficients of T <= ``block`` blocks.

    ``w`` is the code's weight stack, at the transmit scale in a simulation.
    SSD scores each slot's one-symbol sub-code, the (k, 2, n, n) ``w``, over
    the |A| points in one candidate-major GEMM into one block-sized buffer;
    it decodes by the first column minimum and counts by :func:`_wrong`.
    Brute-force ML scores the whole code, one sub-code of k symbols, over its
    |A|^k codewords: with one GEMM against a basis built once when they fit
    one ``_ML_CHUNK`` beside the block, else in chunks from
    :func:`.codes.lexicographic_first_min`; it counts by decoding.
    """
    k, _, n, _ = w.shape
    if decoder == DECODER_SSD:
        if not check_ssd(code).ok:
            raise ValueError("per-symbol decoding requires a single-symbol decodable code")
        tables = _tables(w)
        basis_t = np.ascontiguousarray(_basis(tables, pts[:, None]).T)
        buffer = np.empty(len(pts) * block * k)

        def metrics(coef: np.ndarray) -> np.ndarray:
            out = buffer[:len(pts) * len(coef)].reshape(len(pts), -1)
            return np.matmul(basis_t, coef.T, out=out)

        def decode(coef: np.ndarray) -> np.ndarray:
            # first minimum: smallest index
            return pts[np.argmin(metrics(coef), axis=0)].reshape(-1, k)
        return _Decoder(tables, decode, lambda coef, symbols: _wrong(metrics(coef), symbols))
    total = len(pts) ** k
    if total > ML_BUDGET:
        raise ValueError(f"brute-force ML needs {total} codewords, over budget {ML_BUDGET}")
    tables = _tables(w.reshape(1, 2 * k, n, n))
    if total * max(block, tables.kernel.shape[1]) <= _ML_CHUNK:
        codewords = pts[np.indices((len(pts),) * k).reshape(k, -1).T]  # lexicographic
        basis = _basis(tables, codewords)
        buffer = np.empty((block, total))

        def decode(coef: np.ndarray) -> np.ndarray:
            # first minimum: the first codeword in lexicographic order
            return codewords[np.argmin(np.matmul(coef, basis, out=buffer[:len(coef)]), axis=1)]
    else:
        def decode(coef: np.ndarray) -> np.ndarray:
            return lexicographic_first_min(pts, k, max(1, _ML_CHUNK // max(coef.shape)),
                                           lambda x: coef @ _basis(tables, x))[1]
    return _Decoder(tables, decode, lambda coef, symbols: (decode(coef) != pts[symbols]).T)


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
    dec = _decoder(code, code.w, constellation.points, decoder, len(h))
    return dec.decode(_coefficients(dec.tables, y, h))


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
    # the points times the 2^t of gmatrix._pow2_scaled, the weights at the transmit scale
    # for those: every metric scales exactly by a power of two, so a grid's scale changes
    # no count, and the weight scale stays in the float range where 2^t could carry it out
    pts = _pow2_scaled(config.constellation.points)[0]
    w = code.scaled(_transmit_scale(code, pts)).w
    chunk = min(_CHUNK, config.trials)
    block = min(_BLOCK, chunk)
    # SSD reads the caller's classify
    dec = _decoder(code, w, pts, config.decoder, block)
    # one chunk's fades and one block's symbols, noise and statistics, in buffers
    # allocated once per call: a chunk's fresh arrays would be alive beside the last
    # chunk's, past malloc's mmap threshold they are mapped and faulted in afresh each
    # time, and a block's fresh [H; N] and [Q | H N^H] fragment the heap (about 1 MB
    # more peak RSS on USSD8, two receive antennas)
    h_all = np.empty((chunk, n, m), dtype=complex)
    x_block = np.empty((block, k), dtype=complex)
    noise_block = np.empty((block, n, m), dtype=complex)
    hz_block = np.empty((block, 2 * n, m), dtype=complex)
    stats_block = np.empty((block, n, 2 * n), dtype=complex)
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
                # it is the slice a whole-chunk draw would give
                nb = _draw_cn(rng, noise_block[:len(hb)])
                nb *= math.sqrt(n0)
                coef = _coefficients(dec.tables, nb, hb, hz_block[:len(hb)],
                                     stats_block[:len(hb)])
                _add_signal(dec.tables, coef, xb.view(np.float64).reshape(len(coef), -1))
                wrong = dec.wrong(coef, symbols[b:b + _BLOCK])
                errors += int(np.count_nonzero(wrong.any(axis=0)))
                slot_errors += wrong.sum(axis=1)
        out.append(CerPoint(snr_db=float(snr_db), trials=config.trials, errors=errors,
                            cer=errors / config.trials,
                            ci95=wilson_halfwidth(errors, config.trials),
                            slot_errors=tuple(slot_errors.tolist())))
    return CerReport(points=tuple(out))
