"""Coding gain: minimum codeword-difference determinants.

The high-SNR error performance of a full-diversity code is governed by the
minimum determinant min det((S - S')^H (S - S')) over codeword pairs
S != S'.  Codewords are real-linear in the symbols, so S - S' is a codeword
of the symbol differences, and the minimum runs over nonzero vectors of
constellation differences.

Energy convention
-----------------
Minimum determinants of different codes are only comparable at equal
average transmit energy.  Every value reported here scales codewords to a
per-symbol dispersion gain of 2: the mean squared Frobenius norm of the
weights, tr Gamma / (2k) on the code's one energy form
``LinearDispersionCode.real_gram``, is brought to 2, the value of the
Alamouti and coordinate-interleaved families, whose published minimum
determinants are reproduced unchanged.  A unitary-weight code on n antennas
has gain n, so its raw determinant is scaled by (2/n)^n; in general the
plain determinant is the reported value times (gain / 2)^n.  The
equal-energy minimum is invariant under a uniform scale of the weights,
which the search reads exactly rescaled by a power of two, so it holds over
the whole float range.

Every determinant is read off the code's one quadratic form: the difference
D = sum_p s_p W_p of the real vector s = (d_1I, d_1Q, ..., d_kI, d_kQ) has
D^H D = sum_{p<=q} s_p s_q M_pq on the pair terms M_pp = W_p^H W_p and
M_pq = W_p^H W_q + W_q^H W_p of :func:`.codes.gram`, so V difference
vectors take one (V, k(2k+1)) @ (k(2k+1), n^2) GEMM over the pairs p <= q
and one batched determinant.  For a single-symbol decodable code every
cross-symbol M_pq vanishes, so D^H D is a sum of one positive-semidefinite
term per symbol, from its pairs (A_i, A_i), (A_i, B_i), (B_i, B_i), and the
determinant is monotone on that cone: a single-symbol difference always
achieves the minimum.  Both searches read the one sorted difference set
``Constellation.differences()`` (d[i] = -d[-1 - i]) and name, by one
rule, ``_first_tied``, the first vector in the lexicographic order of
that set with 0 inserted at its middle whose determinant lies within the
one relative tolerance of the minimum, so a tie that rounds apart at one
scale is one tie.  The single-symbol search reads the first half slot by
slot: that order on single-symbol vectors, one of each pair x, -x (same
D^H D), k times half the differences instead of |A|^k vectors.  The
unreduced search (``force_full``, which validates the reduction) holds
one ``_FULL_CHUNK``-vector block at a time and evaluates the block that
first ties the minimum again only if it was not kept.  A zero minimum is
judged exactly, so there the searches can name different vectors.  D^H D
is positive semidefinite, so a minimum that rounds below 0 (a singular
D^H D on rounded weights) is reported as 0; the vector is named at the
rounded value.

Spectral route.  If every W_p^H W_p = c I (UW, c = dispersion gain / n),
a single-symbol difference d in slot i has

    D^H D = c |d|^2 I + d_I d_Q H_i,    H_i = A_i^H B_i + B_i^H A_i,

so its determinant is prod_j (c |d|^2 + d_I d_Q lambda_ij) over the
eigenvalues of H_i, the slot's pair term M_AB: one ``eigvalsh`` per slot
replaces the determinants.  Since |lambda_ij| <= 2c (A_i^H B_i is c times a
unitary) and c |d|^2 >= 2c |d_I d_Q|, a factor vanishes only if
|d_I| = |d_Q| and lambda_ij = -2c sign(d_I d_Q): such a code loses full
diversity exactly when a slot has an eigenvalue at +-2c and a difference
lies on the matching +-45 degree line, a witness of
:func:`.constellations.diversity_check`.  COD slots have H_i = 0;
maximal-rate slots the spectrum +-2c, split n/2 : n/2, whence the closed
form (c |d_I^2 - d_Q^2|)^n.  The route is the class in the verifier's
cached report, shared with a ``classify`` of the same code: CODs and
unitary-weight SSD codes take the spectral route, other SSD codes (ciod4,
a slot rescaled) one determinant per slot and difference, and not-SSD
codes the unreduced search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import LinearDispersionCode, _encode, gram
from .constellations import Constellation
from .gmatrix import _negligible, _pow2_scaled, _upper_pairs
from .verifier import CLASS_NONUW_SSD, CLASS_NOT_SSD, _report

REFERENCE_DISPERSION_GAIN = 2.0
FULL_SEARCH_BUDGET = 10_000_000
_FULL_CHUNK = 1 << 12  # difference vectors in one block of the unreduced search


@dataclass(frozen=True)
class MinDetResult:
    """Minimum determinant plus the symbol-difference vector achieving it.

    ``full_diversity`` is False when D^H D of that vector is singular by the
    one tolerance rule, so the code loses full diversity on the constellation.
    """

    value: float
    difference: tuple[complex, ...]
    reduced: bool
    full_diversity: bool


def _difference_dets(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """det(sum_{p<=q} s_p s_q M_pq) per row of the real (V, P) s, on the (pairs, n, n) terms m.

    ``m`` is the :func:`.codes.gram` of P weights.  One real GEMM meets the
    (V, pairs) products s_p s_q with the Re/Im pairs of m.
    """
    p, q = _upper_pairs(s.shape[1])
    n = m.shape[-1]
    grams = (s[:, p] * s[:, q]) @ m.reshape(len(m), -1).view(np.float64)
    return np.linalg.det(grams.view(np.complex128).reshape(len(s), n, n)).real


def _first_tied(values: np.ndarray, best: float) -> int:
    """Flat index of the first value within the one tolerance of the minimum ``best``."""
    return int(np.argmax(_negligible(values - best, abs(best))))


def _result(w: np.ndarray, best: float, scale: float, vec: tuple[complex, ...],
            reduced: bool) -> MinDetResult:
    """The report of the minimum ``best`` on the power-of-two-scaled weights ``w``, at ``vec``."""
    # D is formed on the scaled weights, so it is finite at every scale of the code
    delta = _encode(w, np.array([vec]))[0]
    lo, hi = np.linalg.eigvalsh(np.conj(delta.T) @ delta)[[0, -1]]
    return MinDetResult(value=max(0.0, float(best)) * scale, difference=vec, reduced=reduced,
                        full_diversity=not _negligible(lo, hi))


def min_det_bruteforce(code: LinearDispersionCode, constellation: Constellation, *,
                       force_full: bool = False) -> MinDetResult:
    """Search for the minimum codeword-difference determinant.

    Single-symbol decodable codes are searched over single-symbol
    differences (provably sufficient, see module doc) unless
    ``force_full`` demands the unreduced enumeration over all
    difference vectors.  Raises ValueError when the unreduced search would
    exceed ``FULL_SEARCH_BUDGET`` difference vectors, or for a code that
    transmits no energy.
    """
    # the equal-energy minimum is scale-invariant: search 2^e w, largest entry part in [1, 2),
    # whose dispersion gain is tr Gamma / (2k) on the code's real_gram
    w = _pow2_scaled(code.w)[0]
    gain = float(np.trace(code.real_gram[0])) / (2 * code.k)
    if gain == 0.0:
        raise ValueError("code transmits no energy")
    scale = (REFERENCE_DISPERSION_GAIN / gain) ** code.n
    code_class = CLASS_NOT_SSD if force_full else _report(code).code_class
    diffs = constellation.differences()  # d[i] = -d[-1 - i], and x, -x give the same D^H D
    half = len(diffs) // 2
    if code_class != CLASS_NOT_SSD:  # one of each pair x, -x: the first half
        s = diffs[:half].view(np.float64).reshape(-1, 2)
        terms = gram(w)  # each slot's (A_i A_i, A_i B_i, B_i B_i)
        if code_class != CLASS_NONUW_SSD:  # spectral route: prod_j (c |d|^2 + d_I d_Q lambda_ij)
            lam = np.linalg.eigvalsh(terms[:, 1])
            c = gain / code.n
            dets = np.prod(c * np.sum(s ** 2, axis=1)[:, None]
                           + (s[:, 0] * s[:, 1])[:, None] * lam[:, None, :], axis=-1)
        else:  # one GEMM and one det per slot keep memory per slot
            dets = np.stack([_difference_dets(terms[i], s) for i in range(code.k)])
        best = dets.min()
        slot, arg = divmod(_first_tied(dets, best), half)  # slot-major: lexicographic order
        vec = tuple(complex(diffs[arg]) if i == slot else 0j for i in range(code.k))
        return _result(w, best, scale, vec, reduced=True)

    # unreduced: every vector of per-symbol differences, 0 allowed per slot at half
    per_slot = np.insert(diffs, half, 0)
    total = len(per_slot) ** code.k
    if total > FULL_SEARCH_BUDGET:
        raise ValueError(f"unreduced search needs {total} difference vectors, "
                         f"over budget {FULL_SEARCH_BUDGET}")
    m = gram(w.reshape(2 * code.k, code.n, code.n))

    def block(start: int) -> tuple[np.ndarray, np.ndarray]:
        # of x, -x keep the first, whose first nonzero entry is in the lower half; drop 0
        idx = np.stack(np.unravel_index(np.arange(start, min(start + _FULL_CHUNK, total)),
                                        (len(per_slot),) * code.k), axis=1)
        first = idx[np.arange(len(idx)), np.argmax(idx != half, axis=1)]
        x = per_slot[idx[first < half]]
        return x, _difference_dets(m, x.view(np.float64))  # rows (d_1I, d_1Q, ...)

    # block minima, and in hand the last block to undercut the one in hand beyond a tie
    starts = range(0, total, _FULL_CHUNK)
    mins, held = np.empty(len(starts)), None
    for b, start in enumerate(starts):
        x, dets = block(start)
        mins[b] = dets.min(initial=np.inf)
        if held is None or not _negligible(mins[held[0]] - mins[b], abs(mins[b])):
            held = b, x, dets
    best = mins.min()
    b = _first_tied(mins, best)
    x, dets = held[1:] if held[0] == b else block(starts[b])
    vec = tuple(complex(d) for d in x[_first_tied(dets, best)])
    return _result(w, best, scale, vec, reduced=False)


def min_det_closed_form(constellation: Constellation, n: int) -> float:
    """Closed-form minimum determinant of the maximal-rate unitary-weight
    code on n antennas: min over differences d of |d_I^2 - d_Q^2|^n.

    Under the equal-energy convention the unitary weights (dispersion
    gain n) contribute an extra (2/n)^n, matching the brute-force path.
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    d = constellation.differences()
    return float(np.min(abs(d.real ** 2 - d.imag ** 2))) ** n * (REFERENCE_DISPERSION_GAIN / n) ** n

