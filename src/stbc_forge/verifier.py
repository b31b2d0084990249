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

All of them are conditions on the pair terms of the code's one
quadratic form D^H D = sum_{p<=q} s_p s_q M_pq (:mod:`.codes`), with
M_pp = W_p^H W_p and M_pq = W_p^H W_q + W_q^H W_p for the 2k weights, so
one pass reads the k(2k+1) pairs p <= q only.  The SSD and self
conditions judge M_pq = 0 off the diagonal, UW judges the diagonal
M_pp.  The pass takes the terms from :func:`.codes.gram_rows` by block
rows and reduces each to its norms and its diagonal terms before the
next is formed: the (pairs, n, n) stack of the whole code is never
alive.  It reads the weights rescaled by the power of two
that puts their largest entry part in [1, 2) (exact, and 1 for the
built-in codes), and judges every residual's Frobenius norm by the one
relative tolerance of :mod:`.gmatrix`, 1e-10 * c, so the class does not
change under a uniform scale of the weights anywhere in the float range;
each failed condition carries its residual relative to c.
The pass returns the :class:`ClassificationReport` itself, and the report
of the last code is cached (codes are immutable and compare by
identity): ``classify``, the checks, the coding-gain route and the
simulator's SSD gate all read it, so a command computes the products
once.  Its linear independence and normalization are read from the code
on first use, since only ``verify`` reports them.  On Gaussian-integer
weights the SSD and self residuals are Gaussian-integer matrices (norm 0
or >= 1) and the UW residual W^H W - cI has entries in Z[j] / (2kn); at
the built-in scales (c <= 1) the tolerance lies far below both steps, so
every verdict there is bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .codes import LinearDispersionCode, gram_rows
from .gmatrix import _frobenius, _negligible, _pow2_scaled, _upper_pairs

COND_UW = "UW"
COND_SSD_IQ = "SSD-IQ"
COND_SSD_II = "SSD-II"
COND_SSD_QQ = "SSD-QQ"
COND_COD_SELF = "COD-IQ-self"

CLASS_COD = "COD"
CLASS_UW_SSD = "unitary-weight-SSD"
CLASS_NONUW_SSD = "non-unitary-weight-SSD"
CLASS_NOT_SSD = "not-SSD"
CLASSES = (CLASS_COD, CLASS_UW_SSD, CLASS_NONUW_SSD, CLASS_NOT_SSD)


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


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    """The class and failed conditions of ``code``; its two structural verdicts are read
    from the code when first asked for (module doc)."""

    code_class: str
    failed_conditions: tuple[ConditionFailure, ...]
    code: LinearDispersionCode = field(repr=False)

    @cached_property
    def linear_independent(self) -> bool:
        return self.code.linearly_independent()

    @cached_property
    def normalized(self) -> bool:
        """A_1 = t I for some t > 0: kept by a scale s > 0, lost by s < 0."""
        return _scaled_identity(_pow2_scaled(self.code.w)[0][0, 0])[1]

    def __eq__(self, other):
        if not isinstance(other, ClassificationReport):
            return NotImplemented
        return ((self.code_class, self.failed_conditions, self.linear_independent,
                 self.normalized) == (other.code_class, other.failed_conditions,
                                      other.linear_independent, other.normalized))


def _scaled_identity(a: np.ndarray) -> tuple[float, bool]:
    """t = Re tr(a) / n, and whether a = t I with t > 0 (the one tolerance rule at scale t)."""
    t = float(a.trace().real) / len(a)
    residual = a.copy()
    residual.reshape(-1)[::len(a) + 1] -= t  # a - t I
    return t, t > 0 and bool(_negligible(_frobenius(residual), t))


_SSD_CONDITIONS = (COND_SSD_IQ, COND_SSD_II, COND_SSD_QQ)


@lru_cache(maxsize=1)
def _report(code: LinearDispersionCode) -> ClassificationReport:
    """The classification of a code, from one pass over its Gram products (module doc).

    c = tr Gamma / (2kn) on the code's ``real_gram``, and each failure's residual
    is its norm divided by c (by 1 for an all-zero code, c = 0).  The failures
    come in the pinned order UW, SSD (i, j loop order), COD-IQ-self.
    """
    k, m, n = code.k, 2 * code.k, code.n
    w = _pow2_scaled(code.w)[0]
    c = float(code.real_gram[0].trace()) / (m * n)
    scale = c if c > 0 else 1.0
    judged, uw = [], []  # the off-diagonal pairs (x, y) that fail, with their norms
    for p, q, terms in gram_rows(w.reshape(m, n, n)):
        diag = p == q
        # M_pp - c I in place, so one pass of norms holds the UW residuals too; the other
        # terms' diagonals lose 0.0, which changes no bit
        terms.reshape(len(p), -1)[:, ::n + 1] -= c * diag[:, None]
        norms = _frobenius(terms)
        uw.append(norms[diag])
        bad = (~diag & ~_negligible(norms, c)).nonzero()[0]
        judged += zip(p[bad].tolist(), q[bad].tolist(), norms[bad].tolist())
    off = np.concatenate(uw).reshape(k, 2).max(axis=1)  # each symbol's larger residual
    failures = [ConditionFailure(COND_UW, i + 1, i + 1, float(off[i] / scale))
                for i in (~(_negligible(off, c) & (c > 0))).nonzero()[0].tolist()]
    ordered = []  # (sort key, condition, i, j, norm): SSD by (i, j, IQ < II < QQ), then self
    for x, y, norm in judged:
        (i, a), (j, b) = divmod(x, 2), divmod(y, 2)  # weight x is A_i (a = 0) or B_i (a = 1)
        if i == j:
            ordered.append(((k, i, 0), COND_COD_SELF, i, i, norm))
        elif a == b:
            ordered.append(((i, j, 1 + a), (COND_SSD_II, COND_SSD_QQ)[a], i, j, norm))
        elif a:  # B_i with A_j, i < j: the IQ condition of (j, i)
            ordered.append(((j, i, 0), COND_SSD_IQ, j, i, norm))
        else:
            ordered.append(((i, j, 0), COND_SSD_IQ, i, j, norm))
    ordered.sort()
    failures += [ConditionFailure(cond, i + 1, j + 1, norm / scale)
                 for _, cond, i, j, norm in ordered]
    failed = {f.condition for f in failures}
    code_class = (CLASS_NOT_SSD if failed.intersection(_SSD_CONDITIONS)
                  else CLASS_NONUW_SSD if COND_UW in failed
                  else CLASS_UW_SSD if COND_COD_SELF in failed else CLASS_COD)
    # the full COD conditions: UW, SSD, self
    return ClassificationReport(code_class, tuple(failures), code)


def check_ssd(code: LinearDispersionCode) -> CheckResult:
    """All cross-symbol conditions SSD-IQ / SSD-II / SSD-QQ."""
    return CheckResult(tuple(f for f in _report(code).failed_conditions
                             if f.condition in _SSD_CONDITIONS))


def check_unitary_weight(code: LinearDispersionCode) -> CheckResult:
    """Every weight matrix a unitary times one common c > 0 (condition UW)."""
    return CheckResult(tuple(f for f in _report(code).failed_conditions
                             if f.condition == COND_UW))


def classify(code: LinearDispersionCode) -> ClassificationReport:
    """Place a code in the COD / unitary-weight / non-unitary-weight taxonomy (cached)."""
    return _report(code)


def normalize(code: LinearDispersionCode) -> LinearDispersionCode:
    """Left-multiply by the unitary (A_1 / t)^H, with t = ||A_1||_F / sqrt(n).

    Afterwards the first in-phase weight A_1 is t I, t > 0, the form the
    structural conditions below expect, at any uniform scale of the
    weights: t is read from the weights rescaled as in the classification.
    A zero A_1 raises ValueError, and so does ``left_multiply`` unless A_1 is
    t times a unitary.
    """
    a1 = _pow2_scaled(code.w)[0][0, 0]
    t = float(_frobenius(a1)) / np.sqrt(code.n)
    if t == 0.0:
        raise ValueError("normalize requires a nonzero first in-phase weight")
    return code.left_multiply(np.conj(a1 / t).T)


def check_normalized_structure(code: LinearDispersionCode) -> CheckResult:
    """Structural conditions for a normalized unitary-weight SSD code.

    With the first in-phase weight equal to t I, t > 0 (``normalized``),
    single-symbol decodability forces, for i, j >= 2 and i != j:

      * every weight except the pair of symbol 1 squares to -t^2 I
        (anti-Hermitian, reported as ``square``),
      * the quadrature weight of symbol 1 commutes with everything
        (reported as ``b1-commute``),
      * all remaining distinct pairs anticommute (``anticommute``).

    Each product is judged at scale t^2 on the rescaled weights, as in the
    classification.  Reported indices are (symbol, 0) for in-phase and
    (symbol, 1) for quadrature weights.
    """
    w = _pow2_scaled(code.w)[0].reshape(2 * code.k, code.n, code.n)
    t, normalized = _scaled_identity(w[0])
    scale = t * t
    square = _negligible(_frobenius(w @ w + scale * np.eye(code.n)), scale)
    others = np.arange(2, len(w))  # flat indices of the weights of symbols 2..k
    b1_commute = _negligible(_frobenius(np.conj(w[1]).T @ w[others] - w[others] @ w[1]), scale)
    x, y = _upper_pairs(len(w), 1)
    pairs = (x >= 2) & (x // 2 != y // 2)  # within-symbol products are unconstrained here
    x, y = x[pairs], y[pairs]
    anticommute = _negligible(_frobenius(w[x] @ w[y] + w[y] @ w[x]), scale)
    failures: list[ConditionFailure] = []
    if not normalized:
        failures.append(ConditionFailure("normalized", 1, 0))
    failures += [ConditionFailure("square", r // 2 + 1, r % 2)
                 for r in others.tolist() if not square[r]]
    failures += [ConditionFailure("b1-commute", r // 2 + 1, r % 2)
                 for r, ok in zip(others.tolist(), b1_commute) if not ok]
    failures += [ConditionFailure("anticommute", i // 2 + 1, j // 2 + 1)
                 for i, j, ok in zip(x.tolist(), y.tolist(), anticommute) if not ok]
    return CheckResult(tuple(failures))
