"""Linear dispersion space-time block codes and the built-in families.

A codeword over n antennas and n time slots carrying k complex symbols
x_1 ... x_k is

    S = sum_i  Re(x_i) * A_i  +  Im(x_i) * B_i,

where the 2k fixed n x n matrices (A_i, B_i) -- the in-phase/quadrature
weight pair of symbol i -- define the code and must be linearly
independent over the reals.  Three constructions are provided, all with
exact Gaussian-integer weights:

``build_max_rate_ussd(a, fam)``
    The maximal-rate single-symbol decodable code with unitary weights
    on n = 2^a antennas: k = 2a symbols, rate a / 2^(a-1).  With the
    anticommuting family F_1 ... F_{2a+1}, the weights are

        A_1 = I,   A_i = F_{i-1}              (i = 2..2a)
        B_1 = m * F_1 F_2 ... F_{2a-1}        (m = j for odd a, else 1)
        B_i = B_1 @ A_i                       (i = 2..2a)

    B_1 is Hermitian with B_1^2 = I and commutes with every other
    weight; weights of distinct symbols beyond the first anticommute
    pairwise.  For a = 2 the codeword is

        [ x1I+j*x2I   x3I-j*x4Q   x4I+j*x3Q   x2Q-j*x1Q ]
        [-x3I-j*x4Q   x1I-j*x2I   x2Q+j*x1Q  -x4I+j*x3Q ]
        [-x4I+j*x3Q  -x2Q-j*x1Q   x1I-j*x2I   x3I+j*x4Q ]
        [-x2Q+j*x1Q   x4I+j*x3Q  -x3I+j*x4Q   x1I+j*x2I ]

``build_square_cod(a, fam)``
    The square complex orthogonal design: k = a+1 symbols, rate
    (a+1) / 2^a, satisfying S^H S = (sum |x_i|^2) I for all symbol
    values.  a = 1 gives the Alamouti code.

``build_ciod4()``
    The 4-antenna coordinate-interleaved design: two Alamouti blocks on
    the diagonal acting on symbols whose quadrature components have been
    swapped pairwise (1<->3, 2<->4).  Single-symbol decodable but with
    rank-2, non-unitary weights; the standard comparison baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clifford import AnticommutingFamily, product_subset
from .gmatrix import GaussianMatrix, real_rank

WeightPair = tuple[GaussianMatrix, GaussianMatrix]


@dataclass(frozen=True)
class LinearDispersionCode:
    """k complex symbols dispersed over an n x n codeword by weight pairs."""

    label: str
    n: int
    weights: tuple[WeightPair, ...]

    def __post_init__(self):
        for i, (wi, wq) in enumerate(self.weights, start=1):
            if wi.n != self.n or wq.n != self.n:
                raise ValueError(f"weight pair {i} is not {self.n}x{self.n}")

    @property
    def k(self) -> int:
        return len(self.weights)

    @property
    def rate(self) -> float:
        return self.k / self.n

    @property
    def is_exact(self) -> bool:
        return all(wi.is_exact and wq.is_exact for wi, wq in self.weights)

    def flat_weights(self) -> list[GaussianMatrix]:
        """All 2k weight matrices, in-phase before quadrature per symbol."""
        out: list[GaussianMatrix] = []
        for wi, wq in self.weights:
            out.extend((wi, wq))
        return out

    def linearly_independent(self) -> bool:
        return real_rank(self.flat_weights()) == 2 * self.k

    def weight_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Weights as two (k, n, n) complex stacks (in-phase, quadrature)."""
        wi = np.stack([p[0].to_array() for p in self.weights]) if self.k else \
            np.zeros((0, self.n, self.n), dtype=complex)
        wq = np.stack([p[1].to_array() for p in self.weights]) if self.k else \
            np.zeros((0, self.n, self.n), dtype=complex)
        return wi, wq

    def codeword(self, symbols: Sequence[complex]) -> GaussianMatrix:
        """The codeword for one symbol vector."""
        if len(symbols) != self.k:
            raise ValueError(f"expected {self.k} symbols, got {len(symbols)}")
        acc = np.zeros((self.n, self.n), dtype=np.complex128)
        wi, wq = self.weight_arrays()
        x = np.asarray([complex(s) for s in symbols])
        if self.k:
            acc = np.tensordot(x.real, wi, axes=1) + np.tensordot(x.imag, wq, axes=1)
        return GaussianMatrix.floating(acc)

    def left_multiply(self, u: GaussianMatrix) -> LinearDispersionCode:
        """Premultiply every weight by a unitary matrix; preserves SSD-ness."""
        if not u.is_unitary():
            raise ValueError("left_multiply requires a unitary matrix")
        weights = tuple((u @ wi, u @ wq) for wi, wq in self.weights)
        return LinearDispersionCode(label=self.label, n=self.n, weights=weights)

    def scaled(self, s: float) -> LinearDispersionCode:
        """Copy with every weight multiplied by a real scalar."""
        weights = tuple((wi.scale(s), wq.scale(s)) for wi, wq in self.weights)
        return LinearDispersionCode(label=self.label, n=self.n, weights=weights)


def build_max_rate_ussd(a: int, fam: AnticommutingFamily) -> LinearDispersionCode:
    """Maximal-rate unitary-weight SSD code on 2^a antennas (see module doc)."""
    if fam.a != a:
        raise ValueError(f"family is for a = {fam.a}, not {a}")
    n = 2 ** a
    eye = GaussianMatrix.identity(n)
    m = 1j if a % 2 else 1 + 0j
    b1 = product_subset(fam, list(range(1, 2 * a))).scale(m)
    weights: list[WeightPair] = [(eye, b1)]
    for i in range(2, 2 * a + 1):
        ai = fam.matrices[i - 2]
        weights.append((ai, b1 @ ai))
    return LinearDispersionCode(label=f"max-rate-ussd-{n}tx", n=n, weights=tuple(weights))


def build_square_cod(a: int, fam: AnticommutingFamily) -> LinearDispersionCode:
    """Square complex orthogonal design: k = a+1 symbols on 2^a antennas."""
    if fam.a != a:
        raise ValueError(f"family is for a = {fam.a}, not {a}")
    n = 2 ** a
    eye = GaussianMatrix.identity(n)
    weights: list[WeightPair] = [(eye, fam.matrices[0])]
    for i in range(2, a + 2):
        weights.append((fam.matrices[2 * i - 3], fam.matrices[2 * i - 2]))
    return LinearDispersionCode(label=f"square-cod-{n}tx", n=n, weights=tuple(weights))


def build_ciod4() -> LinearDispersionCode:
    """4-antenna coordinate-interleaved design (two Alamouti blocks).

    The blocks carry u_1 = x1I + j*x3Q, u_2 = x2I + j*x4Q on top and
    u_3 = x3I + j*x1Q, u_4 = x4I + j*x2Q below:

        [  u1   u2   0    0  ]
        [ -u2*  u1*  0    0  ]
        [  0    0    u3   u4 ]
        [  0    0   -u4*  u3*]
    """
    def m(entries):
        rows = [[0] * 4 for _ in range(4)]
        for r, c, v in entries:
            rows[r][c] = v
        return GaussianMatrix.exact(rows)

    weights = (
        (m([(0, 0, 1), (1, 1, 1)]), m([(2, 2, 1j), (3, 3, -1j)])),
        (m([(0, 1, 1), (1, 0, -1)]), m([(2, 3, 1j), (3, 2, 1j)])),
        (m([(2, 2, 1), (3, 3, 1)]), m([(0, 0, 1j), (1, 1, -1j)])),
        (m([(2, 3, 1), (3, 2, -1)]), m([(0, 1, 1j), (1, 0, 1j)])),
    )
    return LinearDispersionCode(label="ciod-4tx", n=4, weights=weights)


# ----------------------------------------------------------------------
# JSON interchange: {"label": ..., "n": ..., "k": ..., "class": ...?,
#                    "weights": [[mat, mat], ...]}

def code_to_json_dict(code: LinearDispersionCode, declared_class: str | None = None) -> dict:
    obj = {
        "label": code.label,
        "n": code.n,
        "k": code.k,
        "weights": [[wi.to_json_dict(), wq.to_json_dict()] for wi, wq in code.weights],
    }
    if declared_class is not None:
        obj["class"] = declared_class
    return obj


def code_from_json_dict(obj: dict) -> tuple[LinearDispersionCode, str | None]:
    weights = tuple(
        (GaussianMatrix.from_json_dict(wi), GaussianMatrix.from_json_dict(wq))
        for wi, wq in obj["weights"]
    )
    code = LinearDispersionCode(label=str(obj.get("label", "unnamed")),
                                n=int(obj["n"]), weights=weights)
    if "k" in obj and int(obj["k"]) != code.k:
        raise ValueError(f"file declares k = {obj['k']} but has {code.k} weight pairs")
    return code, obj.get("class")
