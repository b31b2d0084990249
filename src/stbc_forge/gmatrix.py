"""Exactness, the tolerance rule and the JSON codec for complex128 matrix stacks.

All the algebraic facts this package verifies (anticommutation,
unitarity, products of generator matrices, the orthogonality conditions
on weight matrices) live over matrices whose entries are Gaussian
integers re + j*im; every weight the package builds has entries in
{0, +-1, +-j}.  Every matrix is a plain complex128 array, and a matrix
is *exact* when every entry is a Gaussian integer and

    n * max|entry|^2 < 2^53        (the magnitude guard).

Every partial sum of a product of two exact matrices is then an integer
below 2^53, which float64 holds exactly, so integer-valued complex128
arithmetic is bit-exact with no separate number type.  Exactness is
derived from the entries, never stored, and one rule, :func:`is_exact`,
judges a single matrix or a whole stack of n x n matrices (a code's
weight stack, a family's member stack).

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
from itertools import chain

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

    Each object needs the integer ``n``, a known mode and n x n [re, im] entries
    that are JSON numbers (true, false, strings and null are not), the stack finite
    entries, and its "exact" matrices :func:`is_exact`; ValueError otherwise.
    """
    for i, obj in enumerate(objs, start=1):
        entries = obj["entries"]
        if _json_int(obj, "n") != n or len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError(f"matrix {i} is not {n}x{n}")
        if obj["mode"] not in (EXACT, FLOAT):
            raise ValueError(f"unknown mode {obj['mode']!r}")
    pairs = list(chain.from_iterable(chain.from_iterable(obj["entries"] for obj in objs)))
    parts = list(chain.from_iterable(pairs))
    # JSON numbers by the rule of _json_int, so true and false are not read as 1 and 0
    if set(map(len, pairs)) - {2} or set(map(type, parts)) - {int, float}:
        raise ValueError("entries must be [re, im] pairs of JSON numbers")
    z = np.array(parts, dtype=np.float64).view(np.complex128)
    z = z.reshape(len(objs), n, n) if objs else z
    if not np.all(np.isfinite(z)):
        raise ValueError("entries must be finite")
    if not is_exact(z[[obj["mode"] == EXACT for obj in objs]]):
        raise ValueError("exact entries must be Gaussian integers with "
                         "n * max|entry|^2 < 2^53")
    return z

