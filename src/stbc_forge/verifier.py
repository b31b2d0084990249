"""Algebraic condition checks and classification of linear dispersion codes.

The decoding metric ||Y - SH||^2 of a code splits into one term per
complex symbol (single-symbol decodability) exactly when every
cross-symbol Gram combination vanishes:

    SSD-IQ : A_i^H B_j + B_j^H A_i = 0     (i != j)
    SSD-II : A_i^H A_j + A_j^H A_i = 0     (i != j)
    SSD-QQ : B_i^H B_j + B_j^H B_i = 0     (i != j)

with (A_i, B_i) the in-phase/quadrature weight pair of symbol i.  Two
further condition families refine the taxonomy:

    UW          : A_i^H A_i = B_i^H B_i = c I  (all weights unitary up
                  to one common scale c > 0)
    COD-IQ-self : A_i^H B_i + B_i^H A_i = 0  (the orthogonal-design
                  condition within each symbol)

Codes satisfying all three groups are complex orthogonal designs; the
SSD group plus UW but not the self condition gives unitary-weight SSD
codes; the SSD group without UW gives non-unitary-weight SSD codes.

All of them are pairwise conditions on the Gram products
G_pq = W_p^H W_q of the 2k weights, and each is symmetric in (p, q):
G_qp = G_pq^H, so one pass reads the k(2k+1) pairs p <= q only.  The SSD
and self conditions judge G_pq + G_pq^H, UW judges the diagonal G_pp.
The pass takes the products from :func:`.codes.gram_rows` by block rows,
several rows per GEMM while the product stays within the codes module's
element budget, and reduces each block row to the norms of its
G_pq + G_pq^H and its diagonal block before the next is formed: the
(pairs, n, n) stack of the whole code is never alive.  Every residual's
Frobenius norm is judged by the one relative tolerance of
:mod:`.gmatrix`, 1e-10 * c, so the verdicts do not change under a
uniform scale of the weights, and each failed condition carries its
residual relative to c.
The pass is cached for the last code it judged (codes are immutable and
compare by identity), so a command that classifies a code and then
searches or decodes it computes the products once.  On
Gaussian-integer weights the SSD and self residuals are Gaussian-integer
matrices (norm 0 or >= 1) and the UW residual W^H W - cI has entries in
Z[j] / (2kn); at the built-in scales (c <= 1) the tolerance lies far
below both steps, so every verdict there is bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .codes import LinearDispersionCode, gram_rows
from .gmatrix import GaussianMatrix, _frobenius, _negligible, _upper_pairs

COND_UW = "UW"
COND_SSD_IQ = "SSD-IQ"
COND_SSD_II = "SSD-II"
COND_SSD_QQ = "SSD-QQ"
COND_COD_SELF = "COD-IQ-self"

CLASS_COD = "COD"
CLASS_UW_SSD = "unitary-weight-SSD"
CLASS_NONUW_SSD = "non-unitary-weight-SSD"
CLASS_NOT_SSD = "not-SSD"


@dataclass(frozen=True)
class ConditionFailure:
    condition: str
    i: int
    j: int
    # the condition's residual norm relative to c, where the Gram pass judged it;
    # a measurement of the failure, not part of its identity
    residual: float | None = field(default=None, compare=False)


@dataclass(frozen=True)
class CheckResult:
    failures: tuple[ConditionFailure, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class ClassificationReport:
    code_class: str
    failed_conditions: tuple[ConditionFailure, ...]
    linear_independent: bool
    normalized: bool


class _Verdicts(NamedTuple):
    vanish: np.ndarray            # (2k, 2k) bool: ||G_pq + G_pq^H|| negligible
    unitary: np.ndarray           # (2k,) bool: G_pp = c I with c > 0
    vanish_residual: np.ndarray   # (2k, 2k): ||G_pq + G_pq^H|| / c
    unitary_residual: np.ndarray  # (2k,): ||G_pp - c I|| / c


@lru_cache(maxsize=1)
def _gram_verdicts(code: LinearDispersionCode) -> _Verdicts:
    """Every condition of the taxonomy, read off the Gram products G_pq = W_p^H W_q, q >= p.

    ``vanish[p, q]`` (symmetric) is whether W_p^H W_q + W_q^H W_p is
    negligible (SSD-IQ/II/QQ and COD-IQ-self are entries of it), and
    ``unitary[p]`` whether W_p^H W_p = c I for the one common c > 0 (UW).
    c is the mean of trace(W_p^H W_p) / n, and both verdicts are relative
    to it; the residual norms behind them are kept divided by c (by 1 for
    an all-zero code, c = 0).  :func:`.codes.gram_rows` yields the
    products by block rows, and each block row is reduced to the norms of
    its G_pq + G_pq^H and its diagonal blocks G_pp before the next is
    formed, so no (pairs, n, n) stack of the whole code is ever alive.
    Every array is read-only: the last code's are cached, keyed on the
    code object, and shared by every caller.
    """
    m = 2 * code.k
    half = np.zeros((m, m))  # ||G_pq + G_pq^H||, filled by block rows
    diag = []
    for p, q, g in gram_rows(code.w.reshape(m, code.n, code.n)):
        half[p, q] = half[q, p] = _frobenius(g + np.conj(g).swapaxes(1, 2))
        diag.append(g[p == q])
    diag = np.concatenate(diag)
    c = float(np.mean(np.einsum("pii->p", diag).real)) / code.n
    off = _frobenius(diag - c * np.eye(code.n))
    scale = c if c > 0 else 1.0
    verdicts = _Verdicts(_negligible(half, c), _negligible(off, c) & (c > 0),
                         half / scale, off / scale)
    for v in verdicts:
        v.setflags(write=False)
    return verdicts


def _uw_failures(v: _Verdicts) -> list[ConditionFailure]:
    pairs = v.unitary.reshape(-1, 2).all(axis=1)
    return [ConditionFailure(COND_UW, i, i, float(v.unitary_residual[2 * i - 2:2 * i].max()))
            for i, ok in enumerate(pairs, start=1) if not ok]


def _ssd_failures(v: _Verdicts) -> list[ConditionFailure]:
    failures: list[ConditionFailure] = []
    k = len(v.vanish) // 2

    def check(condition: str, i: int, j: int, x: int, y: int) -> None:
        if not v.vanish[x, y]:
            failures.append(ConditionFailure(condition, i + 1, j + 1,
                                             float(v.vanish_residual[x, y])))

    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            check(COND_SSD_IQ, i, j, 2 * i, 2 * j + 1)
            if j > i:
                check(COND_SSD_II, i, j, 2 * i, 2 * j)
                check(COND_SSD_QQ, i, j, 2 * i + 1, 2 * j + 1)
    return failures


def _self_failures(v: _Verdicts) -> list[ConditionFailure]:
    return [ConditionFailure(COND_COD_SELF, i + 1, i + 1,
                             float(v.vanish_residual[2 * i, 2 * i + 1]))
            for i in range(len(v.vanish) // 2) if not v.vanish[2 * i, 2 * i + 1]]


def check_ssd(code: LinearDispersionCode) -> CheckResult:
    """All cross-symbol conditions SSD-IQ / SSD-II / SSD-QQ."""
    return CheckResult(tuple(_ssd_failures(_gram_verdicts(code))))


def check_unitary_weight(code: LinearDispersionCode) -> CheckResult:
    """Every weight matrix a unitary times one common c > 0 (condition UW)."""
    return CheckResult(tuple(_uw_failures(_gram_verdicts(code))))


def classify(code: LinearDispersionCode) -> ClassificationReport:
    """Place a code in the COD / unitary-weight / non-unitary-weight taxonomy."""
    v = _gram_verdicts(code)
    uw, ssd, self_ = _uw_failures(v), _ssd_failures(v), _self_failures(v)
    code_class = (CLASS_NOT_SSD if ssd else CLASS_NONUW_SSD if uw
                  else CLASS_UW_SSD if self_ else CLASS_COD)
    return ClassificationReport(
        code_class=code_class,
        failed_conditions=tuple(uw + ssd + self_),  # the full COD conditions: UW, SSD, self
        linear_independent=code.linearly_independent(),
        normalized=GaussianMatrix(code.w[0, 0]).is_identity(),
    )


def normalize(code: LinearDispersionCode) -> LinearDispersionCode:
    """Left-multiply by the conjugate transpose of the first in-phase weight.

    Afterwards that weight is the identity, which is the form the
    structural conditions below expect.  ``left_multiply`` raises
    ValueError unless the first weight is unitary.
    """
    return code.left_multiply(np.conj(code.w[0, 0]).T)


def check_normalized_structure(code: LinearDispersionCode) -> CheckResult:
    """Structural conditions for a normalized unitary-weight SSD code.

    With the first in-phase weight equal to I, single-symbol
    decodability forces, for i, j >= 2 and i != j:

      * every weight except the pair of symbol 1 squares to -I
        (anti-Hermitian, reported as ``square``),
      * the quadrature weight of symbol 1 commutes with everything
        (reported as ``b1-commute``),
      * all remaining distinct pairs anticommute (``anticommute``).

    Reported indices are (symbol, 0) for in-phase and (symbol, 1) for
    quadrature weights.
    """
    w = code.w.reshape(2 * code.k, code.n, code.n)
    square = _negligible(_frobenius(w @ w + np.eye(code.n)), 1.0)
    # row 1 of the Gram products against W_r W_1: B_1^H W_r - W_r B_1, r >= 2
    others = np.arange(2, len(w))  # flat indices of the weights of symbols 2..k
    p, _, g = next(gram_rows(w[1:]))  # its first block row: B_1^H [B_1 W_2 ... W_{2k-1}]
    b1_commute = _negligible(_frobenius(g[p == 0][1:] - w[others] @ w[1]), 1.0)
    x, y = _upper_pairs(len(w), 1)
    pairs = (x >= 2) & (x // 2 != y // 2)  # within-symbol products are unconstrained here
    x, y = x[pairs], y[pairs]
    anticommute = _negligible(_frobenius(w[x] @ w[y] + w[y] @ w[x]), 1.0)
    failures: list[ConditionFailure] = []
    if not GaussianMatrix(w[0]).is_identity():
        failures.append(ConditionFailure("normalized", 1, 0))
    failures += [ConditionFailure("square", r // 2 + 1, r % 2)
                 for r in others.tolist() if not square[r]]
    failures += [ConditionFailure("b1-commute", r // 2 + 1, r % 2)
                 for r, ok in zip(others.tolist(), b1_commute) if not ok]
    failures += [ConditionFailure("anticommute", i // 2 + 1, j // 2 + 1)
                 for i, j, ok in zip(x.tolist(), y.tolist(), anticommute) if not ok]
    return CheckResult(tuple(failures))
