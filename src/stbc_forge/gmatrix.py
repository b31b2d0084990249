"""Square complex matrices over the Gaussian integers, held as complex128.

All the algebraic facts this package verifies (anticommutation,
unitarity, products of generator matrices, the orthogonality conditions
on weight matrices) live over matrices whose entries are Gaussian
integers re + j*im; every weight the package builds has entries in
{0, +-1, +-j}.  A :class:`GaussianMatrix` is one read-only complex128
array (numpy reads it through ``__array__``), and it is *exact* when
every entry is a Gaussian integer and

    n * max|entry|^2 < 2^53        (the magnitude guard).

Every partial sum of a product of two exact matrices is then an integer
below 2^53, which float64 holds exactly, so integer-valued complex128
arithmetic is bit-exact with no separate number type.  Exactness is
derived from the entries, never stored, and one rule, :func:`is_exact`,
judges a single matrix or a whole stack of n x n matrices (a code's
weight stack, a family's member stack).  A product of exact matrices
whose result would leave the guard raises OverflowError instead of
letting a later product round.

Verification compares a residual's Frobenius norm, :func:`_frobenius`,
against one relative tolerance, :func:`_negligible`: residual <=
REL_TOL * scale, where scale is the size of the quantities compared (for
weight matrices, the common c in W^H W = c I; for the unitary members of
a family, 1).  A nonzero
Gaussian-integer residual has norm >= 1, so any tolerance below 1 --
every scale below 1 / REL_TOL; the built-in codes have scale 1 or 1/2 --
decides exact inputs bit-exactly, and no comparison needs a special
case for exactness.  Rotated or rescaled float inputs get the same rule,
which makes every decision invariant under a uniform scale.  A code's
linear independence is judged by it too: the smallest eigenvalue of the
weights' real Gram matrix against the largest.  A code's checks read its
weights scaled exactly by a power of two, :func:`_pow2_scaled`, so no
square of a tiny or huge weight underflows or overflows.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

REL_TOL = 1e-10
_GUARD = 2.0 ** 53

# JSON tags; written from derived exactness, validated on read
EXACT = "exact"
FLOAT = "float"


def _negligible(residual, scale):
    """The one verification tolerance: residual <= REL_TOL * scale (works on arrays)."""
    return residual <= REL_TOL * scale


def _frobenius(z: np.ndarray) -> np.ndarray:
    """Frobenius norms of the matrices of a complex (..., n, n) stack, from its float64 view.

    The sum of squares of the Re/Im pairs is one ``einsum`` reduction, with no
    complex ``abs`` per entry.
    """
    r = np.ascontiguousarray(z, dtype=np.complex128).view(np.float64)
    r = r.reshape(z.shape[:-2] + (2 * z.shape[-2] * z.shape[-1],))
    return np.sqrt(np.einsum("...i,...i->...", r, r))


def _pow2_scaled(z: np.ndarray) -> tuple[np.ndarray, int]:
    """C-contiguous complex z times the 2^e putting its largest |Re|, |Im| in [1, 2), and e.

    ``np.ldexp`` on the float64 view is exact short of the subnormal range, so a
    relative decision on the result is the one on z.  The built-in codes get
    e = 0 and z itself.
    """
    r = z.view(np.float64)
    e = 1 - math.frexp(np.abs(r).max())[1]
    return (np.ldexp(r, e).view(np.complex128) if e else z), e


def _upper_pairs(m: int, offset: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs p + offset <= q of m matrices, row-major as ``np.triu_indices``.

    One comparison and ``np.nonzero``, about a tenth of the cost of ``np.triu_indices``.
    """
    r = np.arange(m)
    return np.nonzero(r[:, None] + offset <= r)


def is_exact(z: np.ndarray, axis=None):
    """Gaussian-integer entries with n * max|entry|^2 < 2^53, over all of z or along ``axis``."""
    with np.errstate(over="ignore"):  # a square past the float range is inf: not exact
        big = z.shape[-1] * np.max(z.real ** 2 + z.imag ** 2, axis=axis, initial=0.0)
    return np.all(z == np.round(z), axis=axis) & (big < _GUARD)


def _json_int(obj: dict, key: str) -> int:
    """``obj[key]`` if it is a JSON integer; 4.5, "4" and true are rejected, not truncated."""
    value = obj[key]
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


class GaussianMatrix:
    """An immutable n-by-n complex matrix held as one read-only complex128 array."""

    __slots__ = ("_z",)

    def __init__(self, entries):
        z = np.array(entries, dtype=np.complex128)
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise ValueError(f"entries must form a square matrix, got shape {z.shape}")
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
        return bool(is_exact(self._z))

    def to_array(self) -> np.ndarray:
        """The matrix as a read-only complex128 ndarray."""
        return self._z

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The entries for numpy, so a sequence of matrices stacks with ``np.array``."""
        return np.array(self._z, dtype=dtype, copy=copy)

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

    def scale(self, c: complex) -> GaussianMatrix:
        """Entrywise multiplication by a scalar."""
        return GaussianMatrix(self._z * complex(c))

    def trace(self) -> complex:
        return complex(np.trace(self._z))

    # ------------------------------------------------------------------
    # predicates

    def __eq__(self, other) -> bool:
        """Bit-exact equality of the entries."""
        if not isinstance(other, GaussianMatrix):
            return NotImplemented
        return bool(np.array_equal(self._z, other._z))

    def is_identity(self) -> bool:
        with np.errstate(over="ignore"):  # a norm past the float range is inf: not I
            return bool(_negligible(np.linalg.norm(self._z - np.eye(self.n)), 1.0))


# ----------------------------------------------------------------------
# JSON interchange of an (N, n, n) stack: one object per matrix,
#     {"n": 4, "mode": "exact", "entries": [[[re, im], ...], ...]}

def stack_to_json(z: np.ndarray) -> list[dict]:
    """The JSON objects of an (N, n, n) stack; a matrix is tagged "exact" iff :func:`is_exact`."""
    n = z.shape[-1]
    return [{"n": n, "mode": EXACT, "entries": parts.astype(np.int64).tolist()} if exact
            else {"n": n, "mode": FLOAT, "entries": parts.tolist()}
            for parts, exact in zip(np.stack((z.real, z.imag), -1), is_exact(z, axis=(1, 2)))]


def stack_from_json(objs: list, n: int) -> np.ndarray:
    """The (N, n, n) complex128 stack of N matrix objects ((0,) for none), read bit-exactly.

    Each object needs the integer ``n``, a known mode and n x n [re, im] entries, the
    stack finite entries, and its "exact" matrices :func:`is_exact`; ValueError otherwise.
    """
    for i, obj in enumerate(objs, start=1):
        entries = obj["entries"]
        if _json_int(obj, "n") != n or len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError(f"matrix {i} is not {n}x{n}")
        if obj["mode"] not in (EXACT, FLOAT):
            raise ValueError(f"unknown mode {obj['mode']!r}")
    z = np.array([[[complex(re, im) for re, im in row] for row in obj["entries"]]
                  for obj in objs], dtype=np.complex128)
    if not np.all(np.isfinite(z)):
        raise ValueError("entries must be finite")
    if not is_exact(z[[obj["mode"] == EXACT for obj in objs]]):
        raise ValueError("exact entries must be Gaussian integers with "
                         "n * max|entry|^2 < 2^53")
    return z

