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

The family is built recursively.  At size 2 the three generators are

    F_1 = [[j, 0], [0, -j]],  F_2 = [[0, 1], [-1, 0]],  F_3 = [[0, j], [j, 0]].

Doubling the size maps every generator G of the previous family to
G (x) diag(1, -1) and appends I (x) [[0, j], [j, 0]] as a fresh
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
from typing import Sequence

import numpy as np

from .gmatrix import GaussianMatrix, product_tensor

MAX_DOUBLINGS = 6  # 64x64

_SIGMA3 = GaussianMatrix.exact([[1, 0], [0, -1]])
_J_SIGMA1 = GaussianMatrix.exact([[0, 1j], [1j, 0]])
_BASE = (
    GaussianMatrix.exact([[1j, 0], [0, -1j]]),
    GaussianMatrix.exact([[0, 1], [-1, 0]]),
    GaussianMatrix.exact([[0, 1j], [1j, 0]]),
)
# reorder applied at size 4 (see module docstring)
_ORDER_4TX = (0, 4, 1, 3)


@dataclass(frozen=True)
class AnticommutingFamily:
    """Ordered family F_1 ... F_{2a+1} with F_{2a+1} = c * F_1 ... F_{2a}."""

    a: int
    matrices: tuple[GaussianMatrix, ...]
    c: complex

    @property
    def n(self) -> int:
        return 2 ** self.a

    def __len__(self) -> int:
        return len(self.matrices)


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


def _ordered_product(mats: Sequence[GaussianMatrix], n: int) -> GaussianMatrix:
    out = GaussianMatrix.identity(n)
    for m in mats:
        out = out @ m
    return out


def _close_family(generators: list[GaussianMatrix]) -> tuple[list[GaussianMatrix], complex]:
    """Append c * (product of all generators), c per the sign convention."""
    n = generators[0].n
    prod = _ordered_product(generators, n)
    c = 1j if (prod @ prod).is_identity() else 1.0 + 0j
    return generators + [prod.scale(c)], c


def generate_family(a: int) -> AnticommutingFamily:
    """Deterministically build the 2a+1 element family at size 2^a.

    Raises ValueError outside 1 <= a <= 6.
    """
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    if a > MAX_DOUBLINGS:
        raise ValueError(f"a = {a} exceeds the practical cap of {MAX_DOUBLINGS}")
    mats = list(_BASE)
    c: complex = 1.0 + 0j  # the 2x2 base already satisfies F_3 = F_1 F_2
    for level in range(2, a + 1):
        half = 2 ** (level - 1)
        generators = [g.kron(_SIGMA3) for g in mats]
        generators.append(GaussianMatrix.identity(half).kron(_J_SIGMA1))
        mats, c = _close_family(generators)
        if level == 2:
            generators = [mats[i] for i in _ORDER_4TX]
            mats, c = _close_family(generators)
    return AnticommutingFamily(a=a, matrices=tuple(mats), c=c)


def verify_family(fam: AnticommutingFamily) -> FamilyReport:
    """Exhaustively check every family invariant, bit-exactly.

    Per member: unitarity, anti-Hermitian, square = -I.  Per pair:
    anticommutation.  Plus the closing product identity and the sign
    convention on c.  Member and pair checks come from one batched
    product tensor.  A member of the wrong size is reported as ``shape``
    and ends the checks.  Nothing raises; failures land in the report.
    """
    mats = fam.matrices
    n = fam.n
    checks = [FamilyCheck("size", (), len(mats) == 2 * fam.a + 1)]
    wrong_shape = [FamilyCheck("shape", (i,), False)
                   for i, f in enumerate(mats, start=1) if f.n != n]
    if wrong_shape or not mats:
        return FamilyReport(tuple(checks + wrong_shape))
    f = np.stack([m.to_array() for m in mats])
    fh = np.conj(f.swapaxes(1, 2))
    eye = np.eye(n)
    p = product_tensor(f, f)
    idx = np.arange(len(f))
    unitary = np.all(fh @ f == eye, axis=(1, 2))
    anti_hermitian = np.all(fh == -f, axis=(1, 2))
    square = np.all(p[idx, idx] == -eye, axis=(1, 2))
    anticommute = np.all(p + p.swapaxes(0, 1) == 0, axis=(2, 3))
    for i in range(len(f)):
        checks.append(FamilyCheck("unitary", (i + 1,), bool(unitary[i])))
        checks.append(FamilyCheck("anti-hermitian", (i + 1,), bool(anti_hermitian[i])))
        checks.append(FamilyCheck("square-minus-identity", (i + 1,), bool(square[i])))
    for i in range(len(f)):
        for j in range(i + 1, len(f)):
            checks.append(FamilyCheck("anticommute", (i + 1, j + 1), bool(anticommute[i, j])))
    if len(mats) == 2 * fam.a + 1:
        prod = _ordered_product(mats[:-1], n)
        square_is_eye = (prod @ prod).is_identity()
        c_ok = fam.c in ((1j, -1j) if square_is_eye else (1 + 0j, -1 + 0j))
        checks.append(FamilyCheck("closure-scalar", (), c_ok))
        checks.append(FamilyCheck("closure-product", (), mats[-1] == prod.scale(fam.c)))
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
    return _ordered_product([fam.matrices[i - 1] for i in indices], fam.n)


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
        "matrices": [m.to_json_dict() for m in fam.matrices],
    }


def family_from_json_dict(obj: dict) -> AnticommutingFamily:
    mats = tuple(GaussianMatrix.from_json_dict(m) for m in obj["matrices"])
    c = complex(obj["c"][0], obj["c"][1])
    return AnticommutingFamily(a=int(obj["a"]), matrices=mats, c=c)
