"""Coding gain: minimum codeword-difference determinants.

The high-SNR error performance of a full-diversity code is governed by

    min det( (S - S')^H (S - S') )        over codeword pairs S != S',

called the minimum determinant.  Because codewords are real-linear in
the symbols, the difference S - S' is itself a codeword evaluated at
the symbol differences, so the minimum runs over nonzero vectors of
constellation differences.

Energy convention
-----------------
Minimum determinants of different codes are only comparable when the
codes transmit at the same average energy.  All evaluation here scales
codewords to a common per-symbol dispersion gain of 2, i.e. the mean
squared Frobenius norm of the weight matrices is brought to 2 -- the
value for the Alamouti and coordinate-interleaved families, whose
published minimum determinants are therefore reproduced unchanged.  A
unitary-weight code on n antennas has dispersion gain n, so its raw
determinant is scaled by (2/n)^n.  Pass ``equal_energy=False`` for the
plain unnormalized determinant.

For a single-symbol decodable code the difference Gram matrix is a sum
of one positive-semidefinite term per symbol, and the determinant is
monotone on that cone, so the minimum is always achieved by a
single-symbol difference.  That reduces the search from |A|^k vectors
to k * |A|^2 ordered point pairs; the unreduced search remains
available (``force_full=True``) and is used to validate the reduction.

For the maximal-rate unitary-weight construction the determinant of a
single-symbol difference d has the closed form |d_I^2 - d_Q^2|^n: the
quadrature weight of symbol 1 is traceless Hermitian unitary, its +-1
eigenvalues split evenly, and the Gram determinant factors into
(d_I + d_Q)^2 and (d_I - d_Q)^2 raised to n/2 each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .codes import LinearDispersionCode
from .constellations import Constellation
from .gmatrix import GaussianMatrix, _negligible
from .verifier import check_ssd

REFERENCE_DISPERSION_GAIN = 2.0
FULL_SEARCH_BUDGET = 10_000_000


@dataclass(frozen=True)
class MinDetResult:
    """Minimum determinant plus the symbol-difference vector achieving it."""

    value: float
    difference: tuple[complex, ...]
    reduced: bool

    def __float__(self) -> float:
        return self.value


def dispersion_gain(code: LinearDispersionCode) -> float:
    """Mean squared Frobenius norm of the weight matrices."""
    w = code.w
    return float(np.sum(w.real ** 2 + w.imag ** 2)) / (2 * code.k)


def _det_scale(code: LinearDispersionCode, equal_energy: bool) -> float:
    if not equal_energy:
        return 1.0
    return (REFERENCE_DISPERSION_GAIN / dispersion_gain(code)) ** code.n


def _gram_det(delta: np.ndarray) -> float:
    return float(np.linalg.det(delta.conj().T @ delta).real)


def min_det_bruteforce(code: LinearDispersionCode,
                       constellation: Constellation,
                       *,
                       equal_energy: bool = True,
                       force_full: bool = False,
                       budget: int = FULL_SEARCH_BUDGET) -> MinDetResult:
    """Search for the minimum codeword-difference determinant.

    Single-symbol decodable codes are searched over single-symbol
    differences (provably sufficient, see module doc) unless
    ``force_full`` demands the unreduced enumeration over all
    difference vectors.  The unreduced search raises when the number of
    difference vectors exceeds ``budget``.
    """
    if code.k == 0:
        raise ValueError("cannot search an empty code")
    scale = _det_scale(code, equal_energy)
    wi, wq = code.weight_arrays()
    reduced = not force_full and check_ssd(code).ok

    if reduced:
        diffs = np.asarray(constellation.differences())
        best = np.inf
        best_diff: tuple[complex, ...] = ()
        for slot in range(code.k):
            deltas = (diffs.real[:, None, None] * wi[slot]
                      + diffs.imag[:, None, None] * wq[slot])
            dets = np.linalg.det(np.conj(np.swapaxes(deltas, 1, 2)) @ deltas).real
            arg = int(np.argmin(dets))
            if dets[arg] < best:
                best = float(dets[arg])
                vec = [0j] * code.k
                vec[slot] = complex(diffs[arg])
                best_diff = tuple(vec)
        return MinDetResult(value=best * scale, difference=best_diff, reduced=True)

    # unreduced: every vector of per-symbol differences (0 allowed per slot);
    # deduplicate on rounded keys but keep an unrounded representative
    uniq = {(round(d.real, 12), round(d.imag, 12)): d
            for d in constellation.differences()}
    uniq[(0.0, 0.0)] = 0j
    per_slot = [uniq[k] for k in sorted(uniq)]
    total = len(per_slot) ** code.k
    if total > budget:
        raise ValueError(
            f"unreduced search needs {total} difference vectors, over budget {budget}")
    best = np.inf
    best_diff = ()
    for combo in itertools.product(per_slot, repeat=code.k):
        if not any(combo):
            continue
        x = np.asarray(combo)
        delta = np.tensordot(x.real, wi, axes=1) + np.tensordot(x.imag, wq, axes=1)
        v = _gram_det(delta)
        if v < best:
            best = v
            best_diff = combo
    return MinDetResult(value=best * scale, difference=best_diff, reduced=False)


def min_det_closed_form(constellation: Constellation, n: int, *,
                        equal_energy: bool = True) -> float:
    """Closed-form minimum determinant of the maximal-rate unitary-weight
    code on n antennas: min over differences d of |d_I^2 - d_Q^2|^n.

    Under the equal-energy convention the unitary weights (dispersion
    gain n) contribute an extra (2/n)^n, matching the brute-force path.
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    base = min(abs(d.real ** 2 - d.imag ** 2) for d in constellation.differences())
    scale = (REFERENCE_DISPERSION_GAIN / n) ** n if equal_energy else 1.0
    return base ** n * scale


def eigen_split(mat) -> tuple[int, int]:
    """Multiplicities of the +1 and -1 eigenvalues of a Hermitian unitary matrix.

    The quadrature weight of symbol 1 in a maximal-rate code is
    traceless, so a valid input there splits (n/2, n/2); an unbalanced
    split flags the caller that the matrix cannot play that role.
    """
    if isinstance(mat, GaussianMatrix):
        z = mat.to_array()
    else:
        z = np.asarray(mat, dtype=complex)
    if not _negligible(np.linalg.norm(z - z.conj().T), 1.0):
        raise ValueError("eigen_split requires a Hermitian matrix")
    if not _negligible(np.linalg.norm(z.conj().T @ z - np.eye(z.shape[0])), 1.0):
        raise ValueError("eigen_split requires a unitary matrix")
    eig = np.linalg.eigvalsh(z)
    plus = int(np.sum(np.abs(eig - 1.0) <= 1e-8))
    minus = int(np.sum(np.abs(eig + 1.0) <= 1e-8))
    if plus + minus != z.shape[0]:
        raise ValueError("eigenvalues did not snap to +-1")
    return plus, minus
