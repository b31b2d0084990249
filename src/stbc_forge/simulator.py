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

    ||Y - SH||^2 - ||Y||^2 = sum_p s_p^2 R~_pp + 2 sum_{p<q} s_p s_q R~_pq
                             - 2 sum_p s_p b_p,

with R~_pq = Re tr(M~_pq Q) on the halved pair terms M~_pp = M_pp and
M~_pq = M_pq / 2 of the pair terms M_pp = W_p^H W_p and M_pq = W_p^H W_q +
W_q^H W_p of :func:`.codes.gram`, b_p = Re tr(W_p P), and the n x n
statistics Q = H H^H and P = H Y^H.  A decoder works on S sub-codes of g
symbols each.  One table builder keeps the sub-codes' pair terms that are
not exactly zero, entrywise in some sub-code (a pruned M_pq adds nothing;
one mask serves every sub-code).  The R~ rows never form Q: the builder
writes each kept M~_r as sum_l Lambda_rl v_l v_l^H on one basis V, fixed
per code before any trial (:func:`_pair_basis`), so that

    R~_r = sum_l Lambda_rl sum_j |v_l^H h_j|^2

over the columns h_j of H.  The kept M~ of every built-in code commute
(they take at most two values: c I and one Hermitian matrix in a USSD
code, c I in a COD, two diagonal projections in ciod4), and V is their n
joint eigenvectors; other codes get n^2 fixed vectors with a
closed-form Lambda.  One routine forms every R~ row (``_pair_rows``): one
GEMM of Lambda, repeated over the m antennas, against the (T, L m)
energies |v_l^H h_j|^2 of T blocks.  The Monte Carlo on the n joint
eigenvectors draws those energies (Sufficient statistics); elsewhere
``_fade_energies`` forms them from the fades: the (T, n, m) blocks, read
as one (T, n m) matrix, meet kron(conj(V), I_m) in one GEMM, and the
float64 view of the (T, L m) product is squared in place and its Re and
Im parts added by one strided add.  The b rows take one
batched product conj(Y) H^T = conj(Y H^H), 2n^2 contiguous floats per
block, and one GEMM against the float64 view of conj(W_p), since b_p =
<conj(W_p), conj(Y H^H)> is a real inner product; neither table has a
structural zero.  The GEMMs write the row blocks of one
coefficient-major (F S, T) array, F = (kept pairs) + 2g: row f S + i holds
coefficient f of sub-code i, [R~_pq; b_p].  The (F, C) basis
[s_p s_q (twice for p < q), -2 s_p] of C candidate symbol vectors on the
kept pairs meets it in one GEMM for every metric.  The tables assume
nothing about the weights.  When the kept pairs split a sub-code into C
identical blocks of whole symbols, as the whole code of an SSD code splits
into its slots, the rows run over the blocks fastest, so the whole code
has the row layout of its k slot sub-codes and reads the same list of
M~, hence the same V and Lambda.

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

One builder, ``_decoder``, sets up either decoder: its tables, its map
from coefficients to symbols and its map from coefficients and sent
symbols to wrong slots.  ``_chunks`` builds it once per ``simulate_cer``
call and counts once per trial block, and the two public decoders build
it once per call and decode ``_BLOCK`` blocks at a time; each caller owns
the buffers of its coefficients.  The decoders break ties toward the
first minimum: SSD toward the smallest constellation index, brute-force
ML toward the first codeword in lexicographic order.  ``simulate_cer``
decodes nothing on the SSD path: it counts a slot as wrong when some
point's metric is strictly below the sent point's, one column minimum,
one gather and one compare per block, and only over the slots that the
screen (below) does not clear; brute-force ML counts by comparing
the decoded point indices with the sent ones.  The two rules agree
except at an exact tie with an earlier point, which has probability zero
under continuous noise; the first-minimum rule keeps the
decoder-equivalence oracle deterministic.  Brute-force ML, ``ssd_decode``
and ``ml_decode_bruteforce`` do not screen: they score every slot, so the
twins and the decoder-equivalence oracle check the screen end to end.

Sufficient statistics:  Q is Hermitian, so Y = S H + N gives
P = Q S^H + H N^H and, for any weights,

    b_p = sum_q R~_pq s_q + Re tr(W_p H N^H).

Given H, the noise terms Re tr(W_p H N^H) of N ~ CN(0, N0) are jointly
Gaussian with mean 0 and covariance (N0 / 2) R~ (entry p, q is
(N0 / 2) Re tr(W_q^H W_p Q)).  ``simulate_cer`` therefore draws no noise
matrix, forms no codeword, no S H, no P and no Q: a block's R~ rows
depend on H only through the energies |v_l^H h_j|^2.  The n joint
eigenvectors are orthonormal, so for CN(0, 1) fades each V^H h_j is
CN(0, I_n) and the n m energies are i.i.d. Exp(1): on that basis a block
draws the energies, not H.  On the n^2 basis, which is not orthonormal,
it draws the fades, a complex view of interleaved normals, and forms
their energies.  Either way ``_pair_rows`` forms the rows,
``_write_noise`` writes sqrt(N0 / 2) L g into the b rows, with L L^T = R~
the Cholesky factor of each sub-code's R~ and g 2k standard normals per
trial, and ``_add_signal`` adds the signal term of the sent symbols over
the sub-code's kept pairs, both on the block's one set of
:func:`_unit_rows`.  The factor walks only the kept pairs and their fill,
elementwise on whole (S, T) rows: for an SSD slot it is the closed-form
2 x 2, and the whole code of an SSD code, whose cross-slot pairs are
pruned, runs the same arithmetic on the same normals, so SSD and
brute-force ML count alike.
A pivot negligible against its diagonal entry (``gmatrix._negligible``)
reads as 0 with its column, which covers a singular R~ (k > n m).  The
whole code (brute-force ML) drops only pruned pairs.  The slot sub-codes
(SSD) also drop the cross-slot terms, which are exactly zero for every
built-in code and within ``check_ssd``'s tolerance otherwise.  The noise
and signal terms read H only through R~, so every trial is still one
draw from the channel model's law.

Screen:  the SSD Monte Carlo clears, before it writes any noise, every slot
that cannot be wrong.  With d = x - s for a point x and the sent point s,
the metric of x less that of s is d^T R~ d - 2 d^T n on the slot's 2 x 2
R~ and noise n = sigma L g, and Cauchy-Schwarz in the R~-norm bounds
|d^T n| by sigma sqrt(d^T R~ d) ||g||.  So x beats s only if
d^T R~ d < 4 sigma^2 ||g||^2, and a slot with

    lambda_min(R~) d_min^2 > 4 sigma^2 ||g||^2 + guard

cannot be wrong, d_min the points' minimum distance.  The test reads the
block's R~ rows and the squares of its normals, both already at hand
(``_uncleared``); the guard, proportional to trace(R~) max|x|^2 u, covers
the rounding of the test and of everything the count computes, so a
cleared slot is one the full count does not flag, float for float.  When
at least ``_SCREEN_CROSSOVER`` of a block's slots pass, only the others
are gathered, get their noise and signal written and meet the metric GEMM
(``_block_flags``); else the block runs whole.  The crossover only
schedules the work: no count depends on it, and every normal is drawn for
every slot, so the screen changes no draw and ``SEED_CONTRACT`` is the same.

Reproducibility:  each SNR point runs in chunks of ``_CHUNK`` = 2**14
trials.  One function, ``_chunks``, owns the draw order: its
generator for each point yields each chunk's (trials, errors,
slot_errors) in the order below, and ``simulate_cer`` only sums each
point's chunks, so a run of C whole chunks counts what the first C
chunks of a longer run count.
Chunk c of point p draws its symbol indices, then its fade energies,
then its noise normals from ``default_rng([seed, p, c])``, and is
decoded before the next chunk is drawn.  The energies are n m standard
exponentials per trial, trial-major as (T, n, m), from one
``standard_exponential(out=)``, when the tables hold the n joint
eigenvectors (``_Tables.unitary``), as for every built-in code; on the
n^2 basis the chunk draws its fades instead, 2 n m normals per trial.
Only the indices and the energies (or fades) are drawn for the whole
chunk.  The rest runs over consecutive blocks of ``_BLOCK`` =
2**10 of the chunk's trials: a block takes its symbols from the indices,
draws its 2k normals per trial, trial-major as (T, k, 2) (slot, then real
and imaginary part), from the same Generator, whatever the screen clears,
and is decoded and counted before the next block's normals are drawn.
Consecutive ``standard_normal(out=)`` calls continue one stream and the draw is
trial-major, so the blocks' normals are the whole-chunk draw value for
value.  Memory is bounded by one chunk's indices and energies (or fades)
plus one block's arrays, in buffers allocated once per call, and the
block size does not change a count.  A (seed, config) pair gives a
bit-identical report; ``SEED_CONTRACT`` names the contract in every
sidecar.
``[seed, p, 0]`` seeds the same stream as ``[seed, p]`` (zero padding).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .codes import LinearDispersionCode, gram
from .constellations import Constellation
from .gmatrix import _frobenius, _negligible, _pow2_scaled, _upper_pairs
from .verifier import check_ssd

DECODER_SSD = "ssd"
DECODER_BRUTE_ML = "brute-ml"

ML_BUDGET = 1_000_000
_WILSON_Z = 1.959963984540054  # two-sided 95%
_CHUNK = 1 << 14
_BLOCK = 1 << 10  # trials of a chunk decoded together
_SCREEN_CROSSOVER = 0.5  # an SSD block scores only the uncleared slots when this share passes
_SCREEN_GUARD = 2.0 ** -43  # 2^10 u: the screen's rounding guard per trace(R~_slot) max|x|^2
_ML_CHUNK = 1 << 20  # elements in one brute-force ML block: T x C metrics or F x C basis
SEED_CONTRACT = (f"v3: default_rng([seed, point, chunk]) per {_CHUNK}-trial chunk; symbols, then "
                 "n m Exp(1) fade energies on a unitary pair basis (2 n m fade normals on any "
                 "other basis), then 2k coefficient-space noise normals per trial")


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
            # an integer, as gmatrix._json_int reads one: True and False are not 1 and 0
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.snr_db_list:
            raise ValueError("need at least one SNR point")
        for snr_db in self.snr_db_list:
            # a real number, by the rule above: True is not a 1.0 dB point
            if isinstance(snr_db, bool) or not isinstance(snr_db, (int, float, np.integer,
                                                                    np.floating)):
                raise ValueError(f"snr_db_list entries must be real numbers, got {snr_db!r}")
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
    """The decoding tables of S sub-codes of g symbols each on m receive antennas, from
    :func:`_tables`.

    One table for the pair rows: ``lam``, Lambda of the kept pairs repeated over the
    m antennas, meets the (T, L m) energies |v_l^H h_j|^2 in one GEMM
    (:func:`_pair_rows`).  ``proj`` = kron(conj(V), I_m) takes the (T, n m) fades to
    the products v_l^H h_j whose squares are those energies (:func:`_fade_energies`).
    One half-table for the b rows, conj(W_p), meets conj(Z H^H).  Row f S + i is
    coefficient f in sub-code i.  The kept pairs split each sub-code into C identical
    blocks of g / C symbols (:func:`_blocks`), and coefficient f is feature f // C of
    block f % C, so the rows read as F / C features of U = C S units, each a
    contiguous (U, T) row: one block of one sub-code per unit.  ``unit`` lists one
    unit's kept pairs and ``factor`` walks its lower-triangular factor of R~.
    """

    subcodes: int  # S
    blocks: int  # C
    p: np.ndarray  # the kept pairs p <= q of a sub-code's 2g weights, in row order
    q: np.ndarray
    weights: np.ndarray  # the weights p of the b rows, in row order
    unit: tuple  # one unit's kept pairs (p, q) in its own weights, in row order
    proj: np.ndarray  # (n m, L m) complex: kron(conj(V), I_m), to v_l^H h_j from the fades
    lam: np.ndarray  # (P S, L m): Lambda of the P kept pairs, to R~_pq from |v_l^H h_j|^2
    b: np.ndarray  # (2g S, 2n^2): conj(W_p), to Re tr(W_p H Z^H) from conj(Z H^H)
    factor: tuple  # per column j of a unit: (j, the R~_jj row, row j's l < j, entries i > j)

    @property
    def rows(self) -> int:
        """F S, the rows of the coefficient-major :func:`_coefficients`."""
        return len(self.lam) + len(self.b)

    @property
    def unitary(self) -> bool:
        """Whether V is the n joint eigenvectors (L = n), so that the Monte Carlo draws the
        energies; the n^2 basis is not orthonormal for n > 1."""
        return self.proj.shape[0] == self.proj.shape[1]


def _blocks(g2: int, p: np.ndarray, q: np.ndarray) -> int:
    """The most blocks C of whole symbols that split the kept pairs p <= q of 2g weights alike.

    Every kept pair lies in one block of 2g / C consecutive weights, and each
    block keeps the same pairs, so in row-major order the pairs of block c are
    those of block 0 offset by c 2g / C: the whole code of an SSD code splits
    into its k slots.  C = 1 always qualifies.
    """
    pairs = list(zip(p.tolist(), q.tolist()))
    for size in range(2, g2, 2):
        blocks = g2 // size
        first = pairs[:len(pairs) // blocks]
        shifted = [(a + c * size, b + c * size) for c in range(blocks) for a, b in first]
        if g2 % size == 0 and all(b < size for _, b in first) and pairs == shifted:
            return blocks
    return 1


def _factor_walk(size: int, unit: tuple) -> tuple:
    """The entries of the lower-triangular factor L of a (size, size) R~ on its kept pairs.

    ``unit`` lists one unit's kept pairs (p, q) in row order (:class:`_Tables`).

    Column j lists j, the row of R~_jj, the l < j of row j's entries, and each
    entry (i, j), i > j, as i, the row of R~_ij (-1 where the pair is pruned)
    and the l < j of the entries (i, l) and (j, l) both.  An entry is a kept
    pair or the fill of two earlier entries.  A weight that is zero in every
    sub-code has no kept R~_jj and no column.
    """
    kept = {pq: row for row, pq in enumerate(unit)}
    rows_of = [set() for _ in range(size)]  # the l < i of the entries (i, l)
    walk = []
    for j in range(size):
        if (j, j) not in kept:
            continue
        column = []
        for i in range(j + 1, size):
            common = tuple(sorted(rows_of[i] & rows_of[j]))
            if (j, i) in kept or common:
                rows_of[i].add(j)
                column.append((i, kept.get((j, i), -1), common))
        walk.append((j, kept[j, j], tuple(sorted(rows_of[j])), tuple(column)))
    return tuple(walk)


def _represents(v: np.ndarray, lam: np.ndarray, terms: np.ndarray) -> bool:
    """Whether every (n, n) ``terms[r]`` is sum_l lam[r, l] v_l v_l^H, to ``gmatrix._negligible``.

    The residual's Frobenius norm against the matrix's.  For a unitary V and
    lam the real diagonals of V^H M V it is the off-diagonal part of V^H M V,
    and a V short of a vector that some matrix needs fails it.
    """
    residual = terms - (v * lam[:, None, :]) @ v.conj().T
    return bool(_negligible(_frobenius(residual), _frobenius(terms)).all())


def _pair_basis(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V (n, L) complex and Lambda (R, L) real with M_r = sum_l Lambda_rl v_l v_l^H.

    For the R Hermitian (n, n) ``terms`` of the kept pairs, so that
    Re tr(M_r Q) = sum_l Lambda_rl sum_j |v_l^H h_j|^2 for Q = H H^H.  Two cases:

    - The terms commute, as in every built-in code (module doc).  V is U, the
      eigenvectors of one fixed real combination of the distinct terms,
      L = n, and Lambda holds the real diagonals of U^H M_r U, taken when
      :func:`_represents` accepts them, that is, when the off-diagonal part
      of every U^H M_r U is negligible.  The weights of the combination are
      the powers of e^(-1/D) for D distinct terms, so commuting algebraic
      terms whose joint eigenvalues differ mix to distinct eigenvalues.
    - Otherwise V is the n^2 vectors e_a, (e_a + e_b) / sqrt(2) and
      (e_a + i e_b) / sqrt(2), a < b, L = n^2, with the closed form
      alpha_ab = 2 Re M_ab, beta_ab = -2 Im M_ab on the two pair vectors and
      mu_a = M_aa - sum_{b != a} (alpha_ab + beta_ab) / 2 on e_a.

    The terms are read in the order given: SSD and brute-force ML of an SSD
    code pass the same list and get bit-equal tables.
    """
    n = terms.shape[-1]
    raw, size = terms.tobytes(), n * n * terms.itemsize
    first = {}  # the distinct terms, by their bytes: (their index, their first row)
    inverse = [first.setdefault(raw[i:i + size], (len(first), i // size))[0]
               for i in range(0, len(raw), size)]
    distinct = terms[[i for _, i in first.values()]]
    d = len(distinct)
    mix = np.dot([math.exp(-i / d) for i in range(d)], distinct.reshape(d, n * n))
    u = np.linalg.eigh(mix.reshape(n, n))[1]
    lam = (u.conj().T @ distinct @ u).diagonal(axis1=1, axis2=2).real
    if _represents(u, lam, distinct):
        return u, lam[inverse]
    a, b = _upper_pairs(n, 1)
    pairs = np.arange(len(a))
    v = np.zeros((n, n + 2 * len(a)), dtype=complex)
    v[np.arange(n), np.arange(n)] = 1.0
    v[a, n + pairs] = v[b, n + pairs] = v[a, n + len(a) + pairs] = math.sqrt(0.5)
    v[b, n + len(a) + pairs] = 1j * math.sqrt(0.5)
    # the Hermitian part's entries, 2 Re H_ab and -2 Im H_ab of H = (M + M^H) / 2
    alpha = terms[:, a, b].real + terms[:, b, a].real
    beta = terms[:, b, a].imag - terms[:, a, b].imag
    ends = np.zeros((len(a), n))
    ends[pairs, a] = ends[pairs, b] = 0.5
    mu = np.diagonal(terms, axis1=1, axis2=2).real - (alpha + beta) @ ends
    return v, np.concatenate((mu, alpha, beta), axis=1)


def _tables(subcodes: np.ndarray, rx: int) -> _Tables:
    """The decoding tables of an (S, 2g, n, n) stack of S sub-codes of g symbols each.

    On ``rx`` receive antennas.  A pair term M_pq (:func:`.codes.gram`) that is
    exactly zero, entrywise and in every sub-code, adds nothing to the metric,
    the signal term or the noise and is pruned: one mask for all sub-codes, so
    the basis, the signal term and the noise factor read the same kept (p, q).
    The pair rows hold R~_pq = Re tr(M~_pq Q) of M~_pp = M_pp and
    M~_pq = M_pq / 2, an exact halving, through the V and Lambda of the kept
    M~ (:func:`_pair_basis`): R~_r = sum_l Lambda_rl sum_j |v_l^H h_j|^2.  A
    trial's energies come antenna-fastest, (l, j) at column l m + j, so
    ``lam`` repeats Lambda over the m antennas, and ``proj`` =
    kron(conj(V), I_m) gives the products v_l^H h_j in that order from the n m
    contiguous fades of a trial.  The b rows are Re tr(W_p H Z^H) =
    <conj(W_p), conj(Z H^H)>, a real inner product of float64 views with no
    structural zero.  The rows run over the C blocks fastest (:class:`_Tables`):
    the whole code of an SSD code has the row layout of its k slot sub-codes.
    """
    s, g2, n, _ = subcodes.shape
    terms = gram(subcodes)
    kept = np.flatnonzero(np.any(terms != 0, axis=(0, 2, 3)))
    p, q = _upper_pairs(g2)
    blocks = _blocks(g2, p[kept], q[kept])
    pairs = kept.reshape(blocks, -1).T.ravel()  # feature-major, block-minor
    weights = np.arange(g2).reshape(blocks, -1).T.ravel()
    p, q = p[pairs], q[pairs]

    def rows(m: np.ndarray) -> np.ndarray:
        # (S, J, n, n) to (J S, n, n), row j S + i
        return np.ascontiguousarray(m.swapaxes(0, 1)).reshape(-1, n, n)

    v, lam = _pair_basis(rows(terms[:, pairs] * np.where(p == q, 1.0, 0.5)[:, None, None]))
    proj = np.zeros((n, rx, v.shape[1], rx), dtype=complex)
    antennas = np.arange(rx)
    proj[:, antennas, :, antennas] = v.conj()  # kron(conj(V), I_m)
    b = np.conj(rows(subcodes[:, weights])).reshape(-1, n * n).view(np.float64)
    # block 0's pairs, every C-th row, are one unit's in its own weights
    unit = tuple(zip(p[::blocks].tolist(), q[::blocks].tolist()))
    return _Tables(s, blocks, p, q, weights, unit, proj.reshape(n * rx, -1),
                   np.repeat(lam, rx, axis=1), b, _factor_walk(g2 // blocks, unit))


def _fade_energies(tables: _Tables, h: np.ndarray, proj: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """The (T, L m) energies |v_l^H h_j|^2 of T blocks' (T, n, m) fades h.

    One GEMM of the fades, read as (T, n m) without a copy, against
    ``tables.proj`` into the first T rows of the (., L m) complex ``proj``,
    its float64 view squared in place, and Re^2 + Im^2 by one strided add into
    the first T L m of the flat ``out``, whose (T, L m) view it returns.
    """
    t = len(h)
    x = np.matmul(h.reshape(t, -1), tables.proj, out=proj[:t]).view(np.float64)
    np.square(x, out=x)
    return np.add(x[:, ::2], x[:, 1::2], out=out[:x.size // 2].reshape(t, -1))


def _pair_rows(tables: _Tables, e: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The (F S, T) coefficients of T blocks with their R~ rows formed, the b rows not.

    ``e`` holds T blocks' energies e[t, l m + j] = |v_l^H h_j|^2, as (T, L m) or
    (T, n, m): drawn by the Monte Carlo on the n joint eigenvectors, else from
    :func:`_fade_energies`.  One GEMM of ``tables.lam`` against them into the
    first F S T of the flat ``out``, whose view it returns: the one routine
    that forms R~ rows.
    """
    t = len(e)
    out = out[:tables.rows * t].reshape(-1, t)
    np.matmul(tables.lam, e.reshape(t, -1).T, out=out[:len(tables.lam)])
    return out


def _coefficients(tables: _Tables, y: np.ndarray, h: np.ndarray, hc: np.ndarray,
                  stats: np.ndarray, proj: np.ndarray, energies: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """The (F S, T) coefficients [R~_pq; b_p] of each sub-code and block.

    For T complex blocks y, h of shape (T, n, m) and the ``_tables`` of S
    sub-codes; row f S + i holds coefficient f of sub-code i.  The R~ rows
    are :func:`_pair_rows` of the :func:`_fade_energies` of h, in ``proj``,
    ``energies`` and ``out``; then the batched product
    conj(Y) H^T = conj(Y H^H), in the (., n, m) ``hc`` and the (., n, n)
    ``stats``, and one GEMM against the weight half-table form
    b_p = Re tr(W_p H Y^H).  The public decoders own the buffers
    (:func:`_decode_blocks`).
    """
    out = _pair_rows(tables, _fade_energies(tables, h, proj, energies), out)
    t = len(h)
    np.matmul(np.conjugate(y, out=hc[:t]), h.swapaxes(-1, -2), out=stats[:t])
    np.matmul(tables.b, stats[:t].view(np.float64).reshape(t, -1).T, out=out[len(tables.lam):])
    return out


def _unit_rows(tables: _Tables, coef: np.ndarray, *parts: np.ndarray) -> tuple:
    """One unit's rows of R~ per kept pair and of b per weight, and of each ``parts``, each (U, T).

    ``coef`` is T blocks' ``_coefficients`` and each of ``parts`` the real and
    imaginary parts of k = S g symbols, or the noise normals laid out alike, as
    one C-contiguous (2, k, T) array.  Row u = c S + i of each holds block c of
    sub-code i (:class:`_Tables`); s_p of a unit is part p % 2 of its symbol
    p // 2.  Returns the R~ rows, the b rows and one list of s rows per
    ``parts``.  The R~ and b rows are contiguous; the s rows are when a unit
    holds one symbol.  A block builds them once for the noise and the signal.
    """
    s, c, t = tables.subcodes, tables.blocks, coef.shape[-1]
    coef = coef.reshape(-1, c * s, t)
    pairs = len(tables.unit)
    units = [x.reshape(2, s, c, -1, t).swapaxes(1, 2).reshape(2, c * s, -1, t) for x in parts]
    return (coef[:pairs], coef[pairs:],
            *([x[p % 2, :, p // 2] for p in range(len(coef) - pairs)] for x in units))


def _add_signal(tables: _Tables, r: np.ndarray, b: np.ndarray, s: list) -> None:
    """Add sum_q R~_pq s_q (module doc) to the b rows of T blocks' coefficients, in place.

    ``r``, ``b`` and ``s`` are the :func:`_unit_rows` of the coefficients and of
    the real and imaginary parts of the (k, T) sent symbols, k = S g; the sum
    runs over the kept pairs.  One multiply-add per pair and weight of a unit
    on its contiguous (U, T) rows.
    """
    for rpq, (p, q) in zip(r, tables.unit):
        bp = b[p]
        bp += rpq * s[q]
        if p != q:
            bq = b[q]
            bq += rpq * s[p]


def _write_noise(tables: _Tables, r: np.ndarray, b: np.ndarray, g: list) -> None:
    """Write L g, L L^T = R~ (module doc), into the b rows of T blocks' coefficients.

    ``r``, ``b`` and ``g`` are the :func:`_unit_rows` of the coefficients and of
    2k normals per block, laid out as the symbol parts of :func:`_add_signal`:
    the noise coefficients of N ~ CN(0, N0) are these with g times
    sqrt(N0 / 2).  L is the Cholesky factor of each unit's R~, elementwise on
    the (U, T) rows, walking only ``tables.factor``: for an SSD slot the
    closed-form 2 x 2 l11 = sqrt(R~_AA), l21 = R~_AB / l11,
    l22 = sqrt(R~_BB - l21^2).  A pivot that ``gmatrix._negligible`` judges
    negligible against its diagonal entry R~_jj reads as 0, and so does its
    column: R~ is singular when k > n m.
    """
    if len(tables.factor) < len(b):  # a weight that is zero in every sub-code
        b[...] = 0.0
    low = {}  # (i, j) -> the row of L_ij
    for j, diag, left, column in tables.factor:
        d = r[diag]
        for l in left:
            d = d - low[j, l] ** 2
        negligible = _negligible(d, r[diag])
        singular = negligible.any()
        # an infinite divisor gives a negligible pivot's column 0
        piv = np.sqrt(np.where(negligible, np.inf, d) if singular else d)
        for i, row, common in column:
            x = r[row] if row >= 0 else np.zeros_like(piv)
            for l in common:
                x = x - low[i, l] * low[j, l]
            low[i, j] = x / piv
        low[j, j] = np.where(negligible, 0.0, piv) if singular else piv
        # row j of L is complete
        bj = np.multiply(low[j, j], g[j], out=b[j])
        for l in left:
            bj += low[j, l] * g[l]


def _basis(tables: _Tables, x: np.ndarray) -> np.ndarray:
    """The (F, C) basis [s_p s_q (kept p <= q, twice for p < q), -2 s_p] of C complex symbol
    vectors x, (C, g).

    s = (x_1I, x_1Q, ..., x_gI, x_gQ), so column i T + t of the (F, S T) view of
    ``_coefficients`` of Y, dotted with column c, is ||Y - S H||^2 - ||Y||^2 of
    codeword c of sub-code i in block t.  Doubling the pair products and halving
    the pair rows are exact, so each term is s_p s_q R_pq.
    """
    s = np.ascontiguousarray(x).view(np.float64).T
    # C order: a transposed operand is slower
    pairs = s[tables.p] * s[tables.q]
    pairs[tables.p != tables.q] *= 2.0
    return np.concatenate((pairs, -2.0 * s[tables.weights]))


class _Decoder(NamedTuple):
    """A decoder's sub-code tables and its two maps from the coefficients of T blocks."""

    tables: _Tables
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
    """A decoder of T <= ``block`` blocks on ``rx`` receive antennas: its tables and scoring.

    ``w`` is the code's weight stack, at the transmit scale in a simulation.
    The decoder maps the coefficients of T blocks, from :func:`_coefficients`
    or the Monte Carlo's :func:`_pair_rows`, to decoded symbols
    (``decode``) and, with the sent indices, to wrong slots (``wrong``); its
    callers own the coefficient buffers.  SSD scores each slot's one-symbol
    sub-code, the (k, 2, n, n) ``w``, over the |A| points: the (F k, T)
    coefficients read as (F, k T) times the (|A|, F) basis, one GEMM with no
    transposed operand into one block-sized (|A|, k T) buffer; it decodes by
    the first column minimum, found row by row because numpy's argmin over
    axis 0 copies the whole block, and counts by :func:`_wrong`.  Brute-force
    ML scores the whole code, one sub-code of k symbols, over its |A|^k
    codewords in lexicographic chunks of at most ``_ML_CHUNK // max(block, F)``
    codewords, so that neither the (T, C) metrics nor the (F, C) basis pass
    ``_ML_CHUNK`` elements: the argmin of each chunk, and a strict ``<`` across
    chunks, so a tie keeps the earlier chunk.  When one chunk holds every
    codeword, its digits and basis are built once per call.  It decodes to
    point indices and counts by comparing them with the sent ones.
    """
    k, _, n, _ = w.shape
    ssd, total = decoder == DECODER_SSD, len(pts) ** k
    if ssd and not check_ssd(code).ok:
        raise ValueError("per-symbol decoding requires a single-symbol decodable code")
    if not ssd and total > ML_BUDGET:
        raise ValueError(f"brute-force ML needs {total} codewords, over budget {ML_BUDGET}")
    tables = _tables(w if ssd else w.reshape(1, 2 * k, n, n), rx)
    if ssd:
        basis_t = np.ascontiguousarray(_basis(tables, pts[:, None]).T)
        buffer = np.empty(len(pts) * block * k)

        def metrics(coef: np.ndarray) -> np.ndarray:
            coef = coef.reshape(basis_t.shape[1], -1)  # (F, k T), no copy
            out = buffer[:len(pts) * coef.shape[1]].reshape(len(pts), -1)
            return np.matmul(basis_t, coef, out=out)

        def decode(coef: np.ndarray) -> np.ndarray:
            # the first minimum, the smallest index: the column minima, then the points from
            # the last to the first.  numpy's argmin over axis 0 would copy the whole block
            scores = metrics(coef)
            low = scores.min(axis=0)
            arg = np.zeros(scores.shape[1], dtype=np.intp)
            for a in range(len(pts) - 1, -1, -1):
                arg[scores[a] == low] = a
            return pts[arg.reshape(k, -1).T]
        return _Decoder(tables, decode,
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
    return _Decoder(tables, lambda coef: pts[first(coef)],
                    lambda coef, symbols: (first(coef) != symbols).T)


def _decode_blocks(code: LinearDispersionCode, y, h, constellation: Constellation,
                   decoder: str) -> np.ndarray:
    """Decode one (n, m) block y, h to its k symbols, or T (T, n, m) blocks to (T, k).

    One ``_decoder`` (one code check) decodes ``_BLOCK`` blocks at a time in one
    set of :func:`_coefficients` buffers, so memory beyond the (T, k) result is
    bounded in T.
    """
    y = np.asarray(y, dtype=complex)
    h = np.asarray(h, dtype=complex)
    if y.shape != h.shape or h.ndim not in (2, 3) or h.shape[-2] != code.n:
        raise ValueError(f"y and h must share one (n, m) or (T, n, m) shape with n = {code.n}, "
                         f"got {y.shape} and {h.shape}")
    if h.ndim == 2:
        return _decode_blocks(code, y[None], h[None], constellation, decoder)[0]
    block, (n, m) = min(len(h), _BLOCK), h.shape[1:]
    dec = _decoder(code, code.w, constellation.points, decoder, block, m)
    lm = dec.tables.proj.shape[1]
    buffers = (np.empty((block, n, m), dtype=complex), np.empty((block, n, n), dtype=complex),
               np.empty((block, lm), dtype=complex), np.empty(block * lm),
               np.empty(dec.tables.rows * block))  # hc, stats, proj, energies, out
    out = np.empty((len(h), code.k), dtype=complex)
    for b in range(0, len(h), _BLOCK):
        coef = _coefficients(dec.tables, y[b:b + _BLOCK], h[b:b + _BLOCK], *buffers)
        out[b:b + _BLOCK] = dec.decode(coef)
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


class _Screen(NamedTuple):
    """The SSD Monte Carlo's certificate at one SNR point (module doc), from :func:`_screen`."""

    rows: tuple  # the unit rows of R~_AA, R~_BB and R~_AB, the last None where it is pruned
    guard: float  # _SCREEN_GUARD max|x|^2 / d_min^2, per unit trace(R~)
    sums: np.ndarray  # (k, 2k): 4 sigma^2 / d_min^2 kron(I_k, [1, 1]), to X's noise term


def _screen(tables: _Tables, pts: np.ndarray) -> Callable[[float], _Screen | None]:
    """The certificate of the SSD slot sub-codes of ``tables`` over the points ``pts``:
    a map from sigma to the :class:`_Screen` of that SNR point, or to None.

    d_min^2 and max|x|^2 are read once per call, from the points at the scale the
    decoder scores.  None where a slot keeps no R~_AA or no R~_BB, so that its R~
    is singular; where d_min^2 < 2^-64 max|x|^2; and where
    4 sigma^2 / d_min^2 > 2^64.  These clear next to no slot, and the bounds keep
    every X of :func:`_uncleared` finite.
    """
    unit = tables.unit
    i, j = _upper_pairs(len(pts), 1)
    d = pts[i] - pts[j]
    dmin2 = float(np.min(d.real * d.real + d.imag * d.imag))
    mmax = float(np.max(pts.real * pts.real + pts.imag * pts.imag))
    if (0, 0) not in unit or (1, 1) not in unit or not dmin2 >= 2.0 ** -64 * mmax:
        return lambda sigma: None
    rows = (unit.index((0, 0)), unit.index((1, 1)), unit.index((0, 1)) if (0, 1) in unit else None)
    pairs = np.repeat(np.eye(tables.subcodes), 2, axis=1)

    def at(sigma: float) -> _Screen | None:
        scale = 4.0 * sigma * sigma / dmin2
        if scale > 2.0 ** 64:
            return None
        return _Screen(rows, _SCREEN_GUARD * mmax / dmin2, pairs * scale)
    return at


def _uncleared(screen: _Screen, coef: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The flat indices i T + t of the slots of T blocks that the certificate does not clear.

    ``coef`` holds the blocks' R~ rows (:func:`_pair_rows`) and ``g`` their (T, k, 2)
    noise normals.  Slot i of block t, with R~ = [[a, b], [b, c]] (b = 0 where the
    pair is pruned), is cleared when lambda_min(R~) > X =
    (4 sigma^2 ||g||^2 + G) / d_min^2, G = 2^10 u trace(R~) max|x|^2: tested without
    a square root as max(a - X, 0) (c - X) > b^2, so that R~ - X I is positive
    definite.  The noise term of X is one GEMM of ``screen.sums`` with the squared
    normals, so it comes slot-major, as the R~ rows and the flags of :func:`_wrong`.

    The guard.  The count compares float metrics, so the test must hold through the
    rounding of all it computes.  Take u = 2^-53, the stored a, b, c as exact,
    T = a + c, M = max|x|^2, r = sigma ||g||, x and s a point and the sent one,
    d = x - s and q = d^T R~ d, all short of the subnormal range.  Where the test
    passes, R~ is positive definite, |b| <= T / 2, r^2 < T M / 2 and
    ||d||^2 <= 4M, and to first order in u:

    - the factor of :func:`_write_noise` has L^ L^T = R~ + E with
      d^T E d <= 16u T M (a pivot it zeroes only lowers d^T L^ L^T d), which moves
      2 r ||L^T d|| by at most 8u T M since q > 4r^2;
    - the noise and signal writes, at most 4 products per b row, add delta with
      2 |d^T delta| <= 28u T M, and sigma g rounds by 4u T M in 4r^2;
    - the metric GEMM over F <= 5 terms, with the basis' rounding, errs by
      6u (|x|^T |R~| |x| + 2 |x|^T |b|) <= 27u T M per metric, 53u T M for two;
    - the test, d_min^2 and the terms of X err by at most 30u T M in
      lambda_min d_min^2.

    So metric(x) - metric(s) >= q - 2r sqrt(q) - 93u T M, and q - 2r sqrt(q) > G' / 2
    whenever q >= lambda_min d_min^2 > 4r^2 + G'.  A slot the test clears has
    G' >= G - 34u T M, and G >= 220u T M leaves the count no strict minimum
    below the sent point.  ``_SCREEN_GUARD`` takes 2^10 u, over four times that.
    """
    t, k = g.shape[:2]
    r = coef.reshape(-1, k, t)
    aa, bb, ab = screen.rows
    a, c = r[aa], r[bb]
    x = np.matmul(screen.sums, np.square(g).reshape(t, -1).T)
    alpha = np.add(a, c)
    alpha *= screen.guard
    x += alpha
    np.subtract(a, x, out=alpha)
    np.maximum(alpha, 0.0, out=alpha)
    alpha *= np.subtract(c, x, out=x)
    return np.flatnonzero(alpha <= (np.square(r[ab]) if ab is not None else 0.0))


class _Workspace(NamedTuple):
    """The per-call buffers of the Monte Carlo's block step (:func:`_block_flags`)."""

    planes: np.ndarray  # (2, |A|): the real and imaginary parts of the points
    parts: np.ndarray  # 2k T floats: the sent symbols' parts
    noise: np.ndarray  # 2k T floats: the noise normals times sigma
    spare: np.ndarray  # F k T floats: the coefficients of the uncleared slots


def _block_flags(dec: _Decoder, work: _Workspace, coef: np.ndarray, symbols: np.ndarray,
                 g: np.ndarray, sigma: float, screen: _Screen | None = None) -> np.ndarray:
    """The (k, T) wrong-slot flags of T blocks whose R~ rows ``coef`` holds (module doc).

    ``symbols`` are the (T, k) sent indices and ``g`` the (T, k, 2) noise normals.
    The whole block gathers every slot's symbol parts and sigma g, writes the noise
    and the signal into its b rows and scores it.  With the ``screen`` of sigma's
    point, when at least ``_SCREEN_CROSSOVER`` of the slots pass :func:`_uncleared`,
    only the others are gathered, written and scored, as n blocks of one slot in
    the first F n of ``work.spare``, and a cleared slot's flag is 0.  Every index is
    in range, so the gathers into buffers take ``mode="clip"``, which skips
    numpy's buffered copy of ``out``.
    """
    tables = dec.tables
    t, k = symbols.shape
    if screen is not None:
        fail = _uncleared(screen, coef, g)
        n = len(fail)
        if n <= (1.0 - _SCREEN_CROSSOVER) * k * t:
            flags = np.zeros(k * t, dtype=bool)
            if n:
                slot, trial = np.divmod(fail, t)
                trial *= k
                trial += slot  # trial-major, as the symbols and the normals
                sent = np.take(symbols, trial)
                parts = np.take(work.planes, sent, axis=1, out=work.parts[:2 * n].reshape(2, n),
                                mode="clip")
                noise = np.multiply(np.take(g.reshape(-1, 2), trial, axis=0).T, sigma,
                                    out=work.noise[:2 * n].reshape(2, n))
                pairs = len(tables.unit)
                sub = work.spare[:tables.rows // k * n].reshape(-1, n)
                np.take(coef.reshape(-1, k * t)[:pairs], fail, axis=1, out=sub[:pairs],
                        mode="clip")
                _write_noise(tables, sub[:pairs], sub[pairs:], noise)
                _add_signal(tables, sub[:pairs], sub[pairs:], parts)
                flags[fail[dec.wrong(sub, sent[:, None])[0]]] = True
            return flags.reshape(k, t)
    parts = np.take(work.planes, symbols.T, axis=1, out=work.parts[:2 * k * t].reshape(2, k, t),
                    mode="clip")
    noise = np.multiply(g.T, sigma, out=work.noise[:2 * k * t].reshape(2, k, t))
    r, b, s, z = _unit_rows(tables, coef, parts, noise)
    _write_noise(tables, r, b, z)
    _add_signal(tables, r, b, s)
    return dec.wrong(coef, symbols)


def _chunks(config: SimConfig) -> list[Iterator[tuple[int, int, np.ndarray]]]:
    """Per SNR point, in order, the generator of its chunks' (trials, errors, slot_errors).

    The one owner of the seed contract's draw order (module doc): chunk c of
    point p yields its trial count, its codeword errors and its (k,) wrong
    symbols per slot, and draws nothing before it is asked for.  It draws the
    fade energies on the n joint eigenvectors (``_Tables.unitary``), else the
    fades, whose energies :func:`_fade_energies` forms per block; either way
    :func:`_pair_rows` forms the block's R~ rows, and :func:`_block_flags`
    counts the block, SSD through the screen of its point (:func:`_screen`).
    The decoder, the screen and the buffers are set up once, here, for every
    point.
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
    tables = dec.tables
    # one chunk's energies or fades and one block's arrays, in buffers allocated once per
    # call: a chunk's fresh arrays would be alive beside the last chunk's, past malloc's
    # mmap threshold they are mapped and faulted in afresh each time, and a block's fresh
    # arrays fragment the heap (about 1 MB more peak RSS on USSD8, two receive antennas)
    h_all = np.empty((chunk, n, m), dtype=float if tables.unitary else complex)
    if not tables.unitary:
        proj = np.empty((block, tables.proj.shape[1]), dtype=complex)
        energies = np.empty(proj.size)
    coef_block = np.empty(tables.rows * block)
    normals = np.empty(2 * k * block)
    ssd = config.decoder == DECODER_SSD
    screens = _screen(tables, pts) if ssd else lambda sigma: None
    work = _Workspace(np.stack((pts.real, pts.imag)), np.empty(2 * k * block),
                      np.empty(2 * k * block), np.empty(tables.rows * block if ssd else 0))

    def point_chunks(point: int, n0: float) -> Iterator[tuple[int, int, np.ndarray]]:
        sigma = math.sqrt(n0 / 2.0)
        screen = screens(sigma)
        for c, start in enumerate(range(0, config.trials, _CHUNK)):
            t = min(_CHUNK, config.trials - start)
            rng = np.random.default_rng([config.seed, point, c])
            symbols = rng.integers(0, len(pts), size=(t, k))
            h = (rng.standard_exponential(out=h_all[:t]) if tables.unitary
                 else _draw_cn(rng, h_all[:t]))
            errors, slot_errors = 0, np.zeros(k, dtype=np.int64)
            for b in range(0, t, _BLOCK):  # the rest runs per block, in cache
                hb, sb = h[b:b + _BLOCK], symbols[b:b + _BLOCK]
                tb = len(hb)
                # the block's 2k normals per trial, trial-major, continue the chunk's one
                # stream, so they are the slice a whole-chunk draw would give
                g = rng.standard_normal(out=normals[:2 * k * tb].reshape(tb, k, 2))
                e = hb if tables.unitary else _fade_energies(tables, hb, proj, energies)
                coef = _pair_rows(tables, e, coef_block)
                wrong = _block_flags(dec, work, coef, sb, g, sigma, screen)
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
