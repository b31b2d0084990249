"""Square complex matrices over the Gaussian integers, held as complex128.

All the algebraic facts this package verifies (anticommutation,
unitarity, products of generator matrices, the orthogonality conditions
on weight matrices) live over matrices whose entries are Gaussian
integers re + j*im; every weight the package builds has entries in
{0, +-1, +-j}.  A :class:`GaussianMatrix` is one read-only complex128
array, and it is *exact* when every entry is a Gaussian integer and

    n * max|entry|^2 < 2^53        (the magnitude guard).

Every partial sum of a product of two exact matrices is then an integer
below 2^53, which float64 holds exactly, so integer-valued complex128
arithmetic is bit-exact with no separate number type.  Exactness is
derived from the entries, never stored.  A product of exact matrices
whose result would leave the guard raises OverflowError instead of
letting a later product round.

Verification compares a residual norm against one relative tolerance,
:func:`_negligible`: residual <= REL_TOL * scale, where scale is the
size of the quantities compared (for weight matrices, the common c in
W^H W = c I).  A nonzero Gaussian-integer residual has norm >= 1, so
any tolerance below 1 -- every scale below 1 / REL_TOL; the built-in
codes have scale 1 or 1/2 -- decides exact inputs bit-exactly, and no
comparison needs a special case for exactness.  Rotated or rescaled
float inputs get the same rule, which makes every decision invariant
under a uniform scale.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

REL_TOL = 1e-10
_GUARD = 2.0 ** 53

# JSON tags; written from derived exactness, validated on read
EXACT = "exact"
FLOAT = "float"


def _negligible(residual, scale):
    """The one verification tolerance: residual <= REL_TOL * scale (works on arrays)."""
    return residual <= REL_TOL * scale


def product_tensor(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """P[p, q] = xs[p] @ ys[q] for two stacks of n x n matrices.

    Shapes (P, n, n) and (Q, n, n) give (P, Q, n, n).  On stacks of exact
    matrices every entry is computed exactly (see the module docstring).
    """
    return xs[:, None] @ ys[None, :]


class GaussianMatrix:
    """An immutable n-by-n complex matrix held as one read-only complex128 array."""

    __slots__ = ("_z",)

    def __init__(self, entries):
        z = np.array(entries, dtype=np.complex128)
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise ValueError(f"entries must form a square matrix, got shape {z.shape}")
        if z.shape[0] < 1:
            raise ValueError("matrix side length must be positive")
        if not np.all(np.isfinite(z)):
            raise ValueError("entries must be finite")
        z.setflags(write=False)
        self._z = z

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def exact(cls, rows: Sequence[Sequence[complex]]) -> GaussianMatrix:
        """Build a matrix that must be exact: Gaussian integers inside the guard."""
        m = cls(rows)
        if not m.is_exact:
            raise ValueError("exact entries must be Gaussian integers with "
                             "n * max|entry|^2 < 2^53")
        return m

    @classmethod
    def floating(cls, rows) -> GaussianMatrix:
        """Build a matrix from anything array-like of complex."""
        return cls(rows)

    @classmethod
    def identity(cls, n: int) -> GaussianMatrix:
        return cls(np.eye(n))

    # ------------------------------------------------------------------
    # basic queries

    @property
    def n(self) -> int:
        return self._z.shape[0]

    @property
    def is_exact(self) -> bool:
        """Gaussian-integer entries inside the magnitude guard."""
        z = self._z
        return bool(np.array_equal(z, np.round(z))
                    and self.n * float(np.max(z.real ** 2 + z.imag ** 2)) < _GUARD)

    def entry(self, i: int, j: int) -> complex:
        return complex(self._z[i, j])

    def to_array(self) -> np.ndarray:
        """The matrix as a read-only complex128 ndarray."""
        return self._z

    def __repr__(self) -> str:  # pragma: no cover
        return f"GaussianMatrix(n={self.n}, exact={self.is_exact})"

    # ------------------------------------------------------------------
    # arithmetic

    def _same_size(self, other: GaussianMatrix) -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def _product(self, other: GaussianMatrix, z: np.ndarray) -> GaussianMatrix:
        out = GaussianMatrix(z)
        if self.is_exact and other.is_exact and not out.is_exact:
            raise OverflowError("product of exact matrices leaves the magnitude guard "
                                "n * max|entry|^2 < 2^53")
        return out

    def __matmul__(self, other: GaussianMatrix) -> GaussianMatrix:
        if not isinstance(other, GaussianMatrix):
            return NotImplemented
        self._same_size(other)
        return self._product(other, self._z @ other._z)

    def __add__(self, other: GaussianMatrix) -> GaussianMatrix:
        if not isinstance(other, GaussianMatrix):
            return NotImplemented
        self._same_size(other)
        return GaussianMatrix(self._z + other._z)

    def __sub__(self, other: GaussianMatrix) -> GaussianMatrix:
        if not isinstance(other, GaussianMatrix):
            return NotImplemented
        self._same_size(other)
        return GaussianMatrix(self._z - other._z)

    def __neg__(self) -> GaussianMatrix:
        return GaussianMatrix(-self._z)

    def scale(self, c: complex) -> GaussianMatrix:
        """Entrywise multiplication by a scalar."""
        return GaussianMatrix(self._z * complex(c))

    def __mul__(self, c: complex) -> GaussianMatrix:
        if isinstance(c, GaussianMatrix):
            return NotImplemented
        return self.scale(c)

    __rmul__ = __mul__

    def herm(self) -> GaussianMatrix:
        """Conjugate transpose."""
        return GaussianMatrix(self._z.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self._z))

    def frob_norm(self) -> float:
        z = self._z
        return float(np.sqrt(np.sum(z.real * z.real) + np.sum(z.imag * z.imag)))

    def kron(self, other: GaussianMatrix) -> GaussianMatrix:
        """Kronecker product, preserving exactness."""
        return self._product(other, np.kron(self._z, other._z))

    # ------------------------------------------------------------------
    # predicates

    def __eq__(self, other) -> bool:
        """Bit-exact equality of the entries."""
        if not isinstance(other, GaussianMatrix):
            return NotImplemented
        return bool(np.array_equal(self._z, other._z))

    def is_identity(self) -> bool:
        return bool(_negligible(np.linalg.norm(self._z - np.eye(self.n)), 1.0))

    def is_unitary(self) -> bool:
        return (self.herm() @ self).is_identity()

    # ------------------------------------------------------------------
    # JSON interchange: {"n": 4, "mode": "exact", "entries": [[[re, im], ...], ...]}

    def to_json_dict(self) -> dict:
        if self.is_exact:
            tag, part = EXACT, int
        else:
            tag, part = FLOAT, float
        entries = [[[part(v.real), part(v.imag)] for v in row] for row in self._z]
        return {"n": self.n, "mode": tag, "entries": entries}

    @classmethod
    def from_json_dict(cls, obj: dict) -> GaussianMatrix:
        n = int(obj["n"])
        tag = obj["mode"]
        entries = obj["entries"]
        if tag not in (EXACT, FLOAT):
            raise ValueError(f"unknown mode {tag!r}")
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError(f"entries are not {n}x{n}")
        rows = [[complex(re, im) for re, im in row] for row in entries]
        return cls.exact(rows) if tag == EXACT else cls(rows)


def real_rank(matrices: Iterable[GaussianMatrix], rel_tol: float = 1e-9) -> int:
    """Rank over the reals of a set of equally-sized matrices.

    Each matrix is flattened to a real vector of length 2*n*n (real parts
    stacked on imaginary parts).  Singular values below ``rel_tol`` times
    the largest are treated as zero.
    """
    mats = list(matrices)
    if not mats:
        return 0
    n = mats[0].n
    if any(m.n != n for m in mats):
        raise ValueError("all matrices must have the same size")
    rows = np.empty((len(mats), 2 * n * n), dtype=np.float64)
    for i, m in enumerate(mats):
        z = m.to_array()
        rows[i, : n * n] = z.real.ravel()
        rows[i, n * n:] = z.imag.ravel()
    sv = np.linalg.svd(rows, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rel_tol * sv[0]))
