"""Maximal families of pairwise anticommuting matrices of size 2^a.

A family here is an ordered list F_1, ..., F_{2a+1} of 2^a x 2^a
matrices over the Gaussian integers that are simultaneously

  * unitary,
  * anti-Hermitian (F^H = -F, equivalently F^2 = -I), and
  * pairwise anticommuting (F_i F_j = -F_j F_i for i != j).

2a+1 is the most such matrices that exist at size 2^a.  The last member
is forced up to scale: F_{2a+1} = c * F_1 F_2 ... F_{2a}, where c = +j
when the product squares to +I and c = +1 when it squares to -I (we fix
the positive sign in both cases so the output is deterministic).

A family is held as one read-only complex128 (2a+1, 2^a, 2^a) stack;
the constructor copies any sequence of equal-size square matrices and
rejects a ragged one.  :func:`verify_family` judges every residual by
``gmatrix._negligible`` at scale 1: exact families are decided
bit-exactly, and a unitary change of basis U F U^H still verifies.

The family is built recursively.  At size 2 the three generators are

    F_1 = [[j, 0], [0, -j]],  F_2 = [[0, 1], [-1, 0]],  F_3 = [[0, j], [j, 0]].

Doubling the size maps every generator G of the previous family to
G (x) diag(1, -1), one batched Kronecker product of the whole stack,
and appends I (x) [[0, j], [j, 0]] as a fresh
generator; the closing member is recomputed from the product rule.  All
tensor factors have Gaussian-integer entries, so the whole construction
stays exact.  For a = 2 the result is reordered once (fixed permutation)
so that the 4x4 family comes out with the diagonal generator first and
the real off-diagonal pair before the imaginary ones; the maximal-rate
code builder relies on that ordering.

Useful parity facts about products of s distinct family members:

  * (F_{i_1} ... F_{i_s})^2 = (-1)^(s(s+1)/2) * I   (see square_sign)
  * two products, of sizes r and s sharing p factors, commute iff
    r, s, p are all odd or rs is even and p is even (products_commute)
  * every product except I is traceless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Sequence

import numpy as np

from .gmatrix import GaussianMatrix, _frobenius, _negligible, _upper_pairs, stack_to_json

MAX_DOUBLINGS = 6  # 64x64

_SIGMA3 = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_J_SIGMA1 = np.array([[0, 1j], [1j, 0]])
_BASE = np.array([[[1j, 0], [0, -1j]], [[0, 1], [-1, 0]], [[0, 1j], [1j, 0]]])
# reorder applied at size 4 (see module docstring)
_ORDER_4TX = [0, 4, 1, 3]


@dataclass(frozen=True, eq=False)
class AnticommutingFamily:
    """Ordered family F_1 ... F_{2a+1} with F_{2a+1} = c * F_1 ... F_{2a}.

    ``matrices`` is the read-only (members, n, n) stack (see module docstring).
    """

    a: int
    matrices: np.ndarray
    c: complex

    def __post_init__(self):
        f = np.array(self.matrices, dtype=np.complex128)
        if f.ndim != 3 or f.shape[1] != f.shape[2]:
            raise ValueError(f"family members must form an (m, n, n) stack, got {f.shape}")
        f.setflags(write=False)
        object.__setattr__(self, "matrices", f)

    @property
    def n(self) -> int:
        return 2 ** self.a


@dataclass(frozen=True)
class FamilyCheck:
    name: str
    indices: tuple[int, ...]
    passed: bool


@dataclass(frozen=True)
class FamilyReport:
    checks: tuple[FamilyCheck, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[FamilyCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _product(stack: np.ndarray) -> np.ndarray:
    """stack[0] @ stack[1] @ ... in order; the identity for an empty (0, n, n) stack."""
    return reduce(np.matmul, stack, np.eye(stack.shape[-1], dtype=np.complex128))


def _negligible_norm(residual: np.ndarray):
    """The family tolerance: ``_negligible`` at scale 1 on each matrix's Frobenius norm."""
    return _negligible(_frobenius(residual), 1.0)


def _close_family(generators: np.ndarray) -> tuple[np.ndarray, complex]:
    """Append c * (product of all generators), c per the sign convention."""
    prod = _product(generators)
    c = 1j if _negligible_norm(prod @ prod - np.eye(len(prod))) else 1.0 + 0j
    return np.concatenate((generators, (prod * c)[None])), c


def generate_family(a: int) -> AnticommutingFamily:
    """Deterministically build the 2a+1 element family at size 2^a.

    Raises ValueError outside 1 <= a <= 6.
    """
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    if a > MAX_DOUBLINGS:
        raise ValueError(f"a = {a} exceeds the practical cap of {MAX_DOUBLINGS}")
    mats = _BASE
    c: complex = 1.0 + 0j  # the 2x2 base already satisfies F_3 = F_1 F_2
    for level in range(2, a + 1):
        fresh = np.kron(np.eye(2 ** (level - 1)), _J_SIGMA1)
        mats, c = _close_family(np.concatenate((np.kron(mats, _SIGMA3), fresh[None])))
        if level == 2:
            mats, c = _close_family(mats[_ORDER_4TX])
    return AnticommutingFamily(a=a, matrices=mats, c=c)


def verify_family(fam: AnticommutingFamily) -> FamilyReport:
    """Exhaustively check every family invariant.

    Per member: unitarity, anti-Hermitian, square = -I.  Per pair:
    anticommutation.  Plus the closing product identity and the sign
    convention on c.  Member and pair checks come from one batched
    product stack F_i F_j, each residual judged by ``_negligible`` at scale 1;
    anticommutation is summed and judged only for the pairs i < j it
    reports.
    Members that are not 2^a x 2^a give one ``shape`` failure, which
    ends the checks.  Nothing raises; failures land in the report.
    """
    f = fam.matrices
    checks = [FamilyCheck("size", (), len(f) == 2 * fam.a + 1)]
    if f.shape[1:] != (fam.n, fam.n):
        return FamilyReport((*checks, FamilyCheck("shape", (), False)))
    fh = np.conj(f.swapaxes(1, 2))
    eye = np.eye(fam.n)
    p = f[:, None] @ f[None, :]  # p[i, j] = F_i F_j
    idx = np.arange(len(f))
    x, y = _upper_pairs(len(f), 1)
    unitary = _negligible_norm(fh @ f - eye)
    anti_hermitian = _negligible_norm(fh + f)
    square = _negligible_norm(p[idx, idx] + eye)
    anticommute = _negligible_norm(p[x, y] + p[y, x])
    for i in range(len(f)):
        checks.append(FamilyCheck("unitary", (i + 1,), bool(unitary[i])))
        checks.append(FamilyCheck("anti-hermitian", (i + 1,), bool(anti_hermitian[i])))
        checks.append(FamilyCheck("square-minus-identity", (i + 1,), bool(square[i])))
    checks += [FamilyCheck("anticommute", (i + 1, j + 1), bool(ok))
               for i, j, ok in zip(x.tolist(), y.tolist(), anticommute)]
    if len(f) == 2 * fam.a + 1:
        prod = _product(f[:-1])
        c_ok = fam.c in ((1j, -1j) if _negligible_norm(prod @ prod - eye) else (1 + 0j, -1 + 0j))
        checks.append(FamilyCheck("closure-scalar", (), c_ok))
        checks.append(FamilyCheck("closure-product", (),
                                  bool(_negligible_norm(f[-1] - prod * fam.c))))
    return FamilyReport(tuple(checks))


def product_subset(fam: AnticommutingFamily, indices: Sequence[int]) -> GaussianMatrix:
    """Ordered product over a strictly increasing 1-based subset of 1..2a.

    The empty subset gives the identity.
    """
    limit = 2 * fam.a
    if any(not 1 <= i <= limit for i in indices):
        raise ValueError(f"indices must lie in 1..{limit}, got {list(indices)}")
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError(f"indices must be strictly increasing, got {list(indices)}")
    return GaussianMatrix(_product(fam.matrices[[i - 1 for i in indices]]))


def square_sign(s: int) -> int:
    """Sign in (F_{i_1} ... F_{i_s})^2 = sign * I for s distinct members."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    return -1 if (s * (s + 1) // 2) % 2 else 1


def products_commute(r: int, s: int, p: int) -> bool:
    """Whether products of r and s family members sharing p factors commute.

    True iff r, s, p are all odd, or r*s is even and p is even; the two
    products anticommute in every other case.
    """
    if r < 1 or s < 1:
        raise ValueError("product sizes must be >= 1")
    if not 0 <= p <= min(r, s):
        raise ValueError(f"overlap p = {p} must lie in 0..min(r, s)")
    if r % 2 == 1 and s % 2 == 1 and p % 2 == 1:
        return True
    return (r * s) % 2 == 0 and p % 2 == 0


def family_to_json_dict(fam: AnticommutingFamily) -> dict:
    return {
        "a": fam.a,
        "n": fam.n,
        "c": [int(fam.c.real), int(fam.c.imag)],
        "matrices": stack_to_json(fam.matrices),
    }
