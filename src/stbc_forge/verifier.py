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

All of them are index patterns on one Gram tensor G[p, q] = W_p^H W_q
over the 2k stacked weights: the SSD and self conditions read
G + G.swapaxes(0, 1), UW reads the diagonal blocks.  Every residual is
judged by the one relative tolerance of :mod:`.gmatrix`, 1e-10 * c,
so the verdicts do not change under a uniform scale of the weights.  On
Gaussian-integer weights the SSD and self residuals are Gaussian-integer
matrices (norm 0 or >= 1) and the UW residual W^H W - cI has entries in
Z[j] / (2kn); at the built-in scales (c <= 1) the tolerance lies far
below both steps, so every verdict there is bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codes import LinearDispersionCode
from .gmatrix import _negligible, product_tensor

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


def _flat_weights(code: LinearDispersionCode) -> np.ndarray:
    """The 2k weights as one (2k, n, n) stack, W_p with p = 2(i-1) + {0: A_i, 1: B_i}."""
    wi, wq = code.weight_arrays()
    return np.stack((wi, wq), axis=1).reshape(2 * code.k, code.n, code.n)


def _gram_verdicts(code: LinearDispersionCode) -> tuple[np.ndarray, np.ndarray]:
    """Every condition of the taxonomy, read off one Gram tensor G[p, q] = W_p^H W_q.

    Returns ``vanish[p, q]``, whether W_p^H W_q + W_q^H W_p is negligible
    (SSD-IQ/II/QQ and COD-IQ-self are entries of it), and ``unitary[p]``,
    whether W_p^H W_p = c I for the one common c > 0 (UW).  c is the mean
    of trace(W_p^H W_p) / n, and both verdicts are relative to it.
    """
    if code.k == 0:
        return np.zeros((0, 0), dtype=bool), np.zeros(0, dtype=bool)
    w = _flat_weights(code)
    g = product_tensor(np.conj(w.swapaxes(1, 2)), w)
    idx = np.arange(len(w))
    diag = g[idx, idx]
    c = float(np.mean(np.trace(diag, axis1=1, axis2=2).real)) / code.n
    vanish = _negligible(np.linalg.norm(g + g.swapaxes(0, 1), axis=(2, 3)), c)
    unitary = _negligible(np.linalg.norm(diag - c * np.eye(code.n), axis=(1, 2)), c) & (c > 0)
    return vanish, unitary


def _uw_failures(unitary: np.ndarray) -> list[ConditionFailure]:
    pairs = unitary.reshape(-1, 2).all(axis=1)
    return [ConditionFailure(COND_UW, i, i) for i, ok in enumerate(pairs, start=1) if not ok]


def _ssd_failures(vanish: np.ndarray) -> list[ConditionFailure]:
    failures: list[ConditionFailure] = []
    k = len(vanish) // 2
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            if not vanish[2 * i, 2 * j + 1]:
                failures.append(ConditionFailure(COND_SSD_IQ, i + 1, j + 1))
            if j > i:
                if not vanish[2 * i, 2 * j]:
                    failures.append(ConditionFailure(COND_SSD_II, i + 1, j + 1))
                if not vanish[2 * i + 1, 2 * j + 1]:
                    failures.append(ConditionFailure(COND_SSD_QQ, i + 1, j + 1))
    return failures


def _self_failures(vanish: np.ndarray) -> list[ConditionFailure]:
    return [ConditionFailure(COND_COD_SELF, i + 1, i + 1)
            for i in range(len(vanish) // 2) if not vanish[2 * i, 2 * i + 1]]


def check_ssd(code: LinearDispersionCode) -> CheckResult:
    """All cross-symbol conditions SSD-IQ / SSD-II / SSD-QQ."""
    vanish, _ = _gram_verdicts(code)
    return CheckResult(tuple(_ssd_failures(vanish)))


def check_unitary_weight(code: LinearDispersionCode) -> CheckResult:
    """Every weight matrix a unitary times one common c > 0 (condition UW)."""
    _, unitary = _gram_verdicts(code)
    return CheckResult(tuple(_uw_failures(unitary)))


def check_cod(code: LinearDispersionCode) -> CheckResult:
    """Full orthogonal-design conditions: UW + SSD + the self condition."""
    vanish, unitary = _gram_verdicts(code)
    return CheckResult(tuple(_uw_failures(unitary) + _ssd_failures(vanish)
                             + _self_failures(vanish)))


def classify(code: LinearDispersionCode) -> ClassificationReport:
    """Place a code in the COD / unitary-weight / non-unitary-weight taxonomy."""
    cod = check_cod(code)  # superset of every individual check
    ssd_ok = not any(f.condition in (COND_SSD_IQ, COND_SSD_II, COND_SSD_QQ)
                     for f in cod.failures)
    uw_ok = not any(f.condition == COND_UW for f in cod.failures)
    self_ok = not any(f.condition == COND_COD_SELF for f in cod.failures)
    if not ssd_ok:
        code_class = CLASS_NOT_SSD
    elif uw_ok and self_ok:
        code_class = CLASS_COD
    elif uw_ok:
        code_class = CLASS_UW_SSD
    else:
        code_class = CLASS_NONUW_SSD
    normalized = code.k == 0 or code.weights[0][0].is_identity()
    return ClassificationReport(
        code_class=code_class,
        failed_conditions=cod.failures,
        linear_independent=code.linearly_independent() if code.k else True,
        normalized=normalized,
    )


def normalize(code: LinearDispersionCode) -> LinearDispersionCode:
    """Left-multiply by the conjugate transpose of the first in-phase weight.

    Afterwards that weight is the identity, which is the form the
    structural conditions below expect.  Requires the first weight to be
    unitary.
    """
    if code.k == 0:
        return code
    first = code.weights[0][0]
    if not first.is_unitary():
        raise ValueError("normalize requires a unitary first in-phase weight")
    return code.left_multiply(first.herm())


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
    if code.k == 0:
        return CheckResult(())
    w = _flat_weights(code)
    idx = np.arange(len(w))
    eye = np.eye(code.n)
    p = product_tensor(w, w)
    square = _negligible(np.linalg.norm(p[idx, idx] + eye, axis=(1, 2)), 1.0)
    b1_commute = _negligible(np.linalg.norm(np.conj(w[1].T) @ w - p[:, 1], axis=(1, 2)), 1.0)
    anticommute = _negligible(np.linalg.norm(p + p.swapaxes(0, 1), axis=(2, 3)), 1.0)
    failures: list[ConditionFailure] = []
    if not code.weights[0][0].is_identity():
        failures.append(ConditionFailure("normalized", 1, 0))
    others = range(2, len(w))  # flat indices of the weights of symbols 2..k
    failures += [ConditionFailure("square", r // 2 + 1, r % 2) for r in others if not square[r]]
    failures += [ConditionFailure("b1-commute", r // 2 + 1, r % 2)
                 for r in others if not b1_commute[r]]
    for x in others:
        for y in range(x + 1, len(w)):
            # within-symbol products are unconstrained here
            if x // 2 != y // 2 and not anticommute[x, y]:
                failures.append(ConditionFailure("anticommute", x // 2 + 1, y // 2 + 1))
    return CheckResult(tuple(failures))
