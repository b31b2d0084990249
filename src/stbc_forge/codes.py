"""Linear dispersion space-time block codes and the built-in families.

A codeword over n antennas and n time slots carrying k complex symbols
x_1 ... x_k is

    S = sum_i  Re(x_i) * A_i  +  Im(x_i) * B_i,

where the 2k fixed n x n matrices (A_i, B_i) -- the in-phase/quadrature
weight pair of symbol i -- define the code and must be linearly
independent over the reals.  A code holds them as one read-only
complex128 stack ``w`` of shape (k, 2, n, n): w[i-1, 0] = A_i and
w[i-1, 1] = B_i.  Every module that needs the weights reads or views
that stack, and a single matrix, such as a codeword, is a plain
complex128 array.
The verifier, the decoders and the coding gain read one quadratic form.
A real combination D = sum_p s_p W_p of the weights has

    D^H D = sum_{p<=q} s_p s_q M_pq,   M_pp = W_p^H W_p,
                                       M_pq = W_p^H W_q + W_q^H W_p (p < q),

and a code is single-symbol decodable exactly when every cross-symbol
M_pq vanishes.  One routine, :func:`gram_rows`, forms the pair terms
M_pq by block rows: row p comes from W_p^H [W_p ... W_{m-1}], one GEMM
on column ranges of the concatenated weights [W_0 ... W_{m-1}], and
consecutive rows share one GEMM while its product stays within
``_GRAM_CHUNK`` elements, so a code with n <= 8 is one GEMM and a
32-antenna code one GEMM per row.
``gram_rows`` yields each block row before it forms the next: the
classification pass keeps only residual norms, :func:`gram` gathers the
pairs p <= q into one stack for the callers that need them all, and a
code's (k, 2, n, n) ``w`` gives each symbol's own three terms.
:meth:`LinearDispersionCode.codeword` and the coding-gain report's
difference codeword share one encoder, ``_encode``; the simulator forms
no codeword.  Three constructions are provided, all with exact
Gaussian-integer weights; the first two slice a family's member stack:

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
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .clifford import AnticommutingFamily, product_subset
from .gmatrix import (_json_int, _negligible, _pow2_scaled, _upper_pairs, is_exact,
                      stack_from_json, stack_to_json)

_GRAM_CHUNK = 1 << 14  # elements in one product of gram_rows: its rows x columns


@dataclass(frozen=True, eq=False)
class LinearDispersionCode:
    """k complex symbols dispersed over an n x n codeword by 2k weights.

    ``w`` is the code's one weight stack: a read-only complex128 array of
    shape (k, 2, n, n) with w[i, 0] = A_{i+1} and w[i, 1] = B_{i+1}.  The
    constructor copies it, so the code owns it; every other layout is a
    view of it (``weight_arrays()``, and ``w.reshape(2k, n, n)`` for the
    order p = 2(i-1) + {0: A_i, 1: B_i}).  Every code has n >= 1 and
    k >= 1: the constructor is the one place that checks it.  Codes
    compare by identity; compare ``w`` for equal weights.
    """

    label: str
    n: int
    w: np.ndarray

    def __post_init__(self):
        w = np.array(self.w, dtype=np.complex128, order="C")  # float64 views need C order
        if self.n < 1 or w.size == 0:
            raise ValueError(f"a code needs n >= 1 and k >= 1, got n = {self.n}, weights {w.shape}")
        if w.shape[1:] != (2, self.n, self.n):
            raise ValueError(f"weights must form a (k, 2, {self.n}, {self.n}) stack, "
                             f"got shape {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def k(self) -> int:
        return len(self.w)

    @property
    def rate(self) -> float:
        return self.k / self.n

    @property
    def is_exact(self) -> bool:
        return bool(is_exact(self.w))

    @cached_property
    def real_gram(self) -> tuple[np.ndarray, int]:
        """(Gamma, e): the one energy form, formed at most once per code, read-only.

        Gamma_pq = Re tr(W_p^H W_q) of the weights times 2^e (``gmatrix._pow2_scaled``,
        so it is finite), p = 2(i-1) + {0: A_i, 1: B_i}: one GEMM of their float64
        view.  A real symbol vector s has ||S||_F^2 = 4^-e s^T Gamma s.  Independence,
        the UW scale c = tr Gamma / (2kn), the dispersion gain tr Gamma / (2k) and
        the transmit scale all read it.
        """
        w, e = _pow2_scaled(self.w)
        r = w.reshape(2 * self.k, -1).view(np.float64)
        gamma = r @ r.T
        gamma.setflags(write=False)
        return gamma, e

    def linearly_independent(self) -> bool:
        """Whether the 2k weights are linearly independent over the reals.

        They are iff the smallest eigenvalue of ``real_gram`` is not negligible
        against its largest, by the one tolerance rule: sigma_min > 1e-5
        sigma_max on the singular values.
        """
        lam = np.linalg.eigvalsh(self.real_gram[0])
        return not _negligible(lam[0], lam[-1])

    def weight_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Weights as two (k, n, n) read-only views of ``w`` (in-phase, quadrature).

        Kept: perfbench's ``tracer._fingerprint_code`` hashes classified codes through it.
        """
        return self.w[:, 0], self.w[:, 1]

    def codeword(self, symbols: Sequence[complex]) -> np.ndarray:
        """The (n, n) complex128 codeword for one symbol vector."""
        if len(symbols) != self.k:
            raise ValueError(f"expected {self.k} symbols, got {len(symbols)}")
        return _encode(self.w, np.array([symbols], dtype=np.complex128))[0]

    def left_multiply(self, u) -> LinearDispersionCode:
        """Premultiply every weight by a unitary n x n matrix (array-like); preserves SSD-ness."""
        u = np.asarray(u)
        if not _negligible(np.linalg.norm(np.conj(u).T @ u - np.eye(self.n)), 1.0):
            raise ValueError("left_multiply requires a unitary matrix")
        # an exact unitary is monomial with unit entries, so u @ w keeps every
        # magnitude and exact weights stay exact: no product can leave the guard
        return LinearDispersionCode(label=self.label, n=self.n, w=u @ self.w)

    def scaled(self, s: float) -> LinearDispersionCode:
        """Copy with every weight multiplied by a real scalar."""
        return LinearDispersionCode(label=self.label, n=self.n, w=self.w * complex(s))


def gram_rows(ws: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield the pair terms M_pq, q >= p, of a stack's Gram products by block rows.

    With G_pq = W_p^H W_q, the terms are M_pp = G_pp and M_pq = G_pq + G_pq^H
    for p < q, so that D = sum_p s_p W_p of a real s has the one quadratic form
    D^H D = sum_{p<=q} s_p s_q M_pq (G_qp = G_pq^H).  This is the one place
    that forms G_pq + G_pq^H.  ``ws`` is an (..., m, n, n) stack
    W_0 ... W_{m-1}, each leading index a stack of its own: a code's
    ``w.reshape(2k, n, n)`` for all its weights in the order
    p = 2(i-1) + {0: A_i, 1: B_i}, or its (k, 2, n, n) ``w`` for the three
    terms (A_i A_i, A_i B_i, B_i B_i) of each symbol.  Rows p0 <= p < p1 take
    one GEMM of [W_p0 ... W_{p1-1}]^H against [W_p0 ... W_{m-1}], two column
    ranges of one n x mn concatenation [W_0 ... W_{m-1}], so no pair is
    gathered by index before the product.  Each GEMM yields ``(p, q, terms)``:
    its terms M_pq, q >= p, as one (..., len(p), n, n) stack, with the index
    arrays p, q in row-major order; the next GEMM is formed only when the
    caller asks for it.  Chunk rule: a GEMM takes rows while its product
    stays within ``_GRAM_CHUNK`` elements per stack, and at least one row,
    so every built-in code with n <= 8 is one GEMM.
    """
    *batch, m, _, n = ws.shape
    cat = ws.swapaxes(-3, -2).reshape(*batch, n, m * n)
    p_all, q_all = _upper_pairs(m)  # row-major, so rows p0 <= p < p1 are one slice
    p0 = 0
    while p0 < m:
        cols = m - p0
        p1 = min(m, p0 + max(1, _GRAM_CHUNK // (cols * n * n)))
        pairs = slice(p0 * (2 * m - p0 + 1) // 2, p1 * (2 * m - p1 + 1) // 2)
        p, q = p_all[pairs], q_all[pairs]
        # a transposed view, not a transposed copy: matmul hands the transpose to BLAS
        z = cat[..., p0 * n:p1 * n].conj().swapaxes(-1, -2) @ cat[..., p0 * n:]
        terms = z.reshape(*batch, p1 - p0, n, cols, n).swapaxes(-3, -2)[..., p - p0, q - p0, :, :]
        del z  # only the blocks q >= p stay alive while the caller reads them
        # G_pq + G_pq^H in place off the diagonal; the gather above made a fresh array
        np.add(terms, np.conj(terms).swapaxes(-1, -2), out=terms, where=(p != q)[:, None, None])
        yield p, q, terms
        p0 = p1


def gram(ws: np.ndarray) -> np.ndarray:
    """The (..., m(m+1)/2, n, n) pair terms M_pq, p <= q, of an (..., m, n, n) stack.

    In row-major pair order (``gmatrix._upper_pairs(m)``), from the block
    rows of :func:`gram_rows`: M_pp = W_p^H W_p and M_pq = W_p^H W_q + W_q^H W_p.
    """
    return np.concatenate([m for _, _, m in gram_rows(ws)], axis=-3)


def _encode(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The (T, n, n) codewords of (T, k) complex symbols x on a (k, 2, n, n) weight stack w.

    One real (T, 2k) @ (2k, 2n^2) GEMM on float64 views: row (x_1I, x_1Q, ...)
    meets the Re/Im pairs of A_1, B_1, ...
    """
    n = w.shape[-1]
    s = x.view(np.float64) @ w.reshape(-1, n * n).view(np.float64)
    return s.view(np.complex128).reshape(len(x), n, n)


def build_max_rate_ussd(a: int, fam: AnticommutingFamily) -> LinearDispersionCode:
    """Maximal-rate unitary-weight SSD code on 2^a antennas (see module doc)."""
    if fam.a != a:
        raise ValueError(f"family is for a = {fam.a}, not {a}")
    n = 2 ** a
    m = 1j if a % 2 else 1 + 0j
    b1 = product_subset(fam, range(1, 2 * a)) * m
    in_phase = np.concatenate((np.eye(n)[None], fam.matrices[:2 * a - 1]))
    return LinearDispersionCode(label=f"max-rate-ussd-{n}tx", n=n,
                                w=np.stack((in_phase, b1 @ in_phase), axis=1))


def build_square_cod(a: int, fam: AnticommutingFamily) -> LinearDispersionCode:
    """Square complex orthogonal design: k = a+1 symbols on 2^a antennas."""
    if fam.a != a:
        raise ValueError(f"family is for a = {fam.a}, not {a}")
    n = 2 ** a
    in_phase = np.concatenate((np.eye(n)[None], fam.matrices[1::2]))
    return LinearDispersionCode(label=f"square-cod-{n}tx", n=n,
                                w=np.stack((in_phase, fam.matrices[0::2]), axis=1))


def build_ciod4() -> LinearDispersionCode:
    """4-antenna coordinate-interleaved design (two Alamouti blocks).

    The blocks carry u_1 = x1I + j*x3Q, u_2 = x2I + j*x4Q on top and
    u_3 = x3I + j*x1Q, u_4 = x4I + j*x2Q below:

        [  u1   u2   0    0  ]
        [ -u2*  u1*  0    0  ]
        [  0    0    u3   u4 ]
        [  0    0   -u4*  u3*]
    """
    def m(*entries):
        z = np.zeros((4, 4), dtype=np.complex128)
        for r, c, v in entries:
            z[r, c] = v
        return z

    w = [
        (m((0, 0, 1), (1, 1, 1)), m((2, 2, 1j), (3, 3, -1j))),
        (m((0, 1, 1), (1, 0, -1)), m((2, 3, 1j), (3, 2, 1j))),
        (m((2, 2, 1), (3, 3, 1)), m((0, 0, 1j), (1, 1, -1j))),
        (m((2, 3, 1), (3, 2, -1)), m((0, 1, 1j), (1, 0, 1j))),
    ]
    return LinearDispersionCode(label="ciod-4tx", n=4, w=w)


# ----------------------------------------------------------------------
# JSON interchange: {"label": ..., "n": ..., "k": ..., "class": ...?,
#                    "weights": [[mat, mat], ...]}

def code_to_json_dict(code: LinearDispersionCode, declared_class: str | None = None) -> dict:
    mats = stack_to_json(code.w.reshape(2 * code.k, code.n, code.n))
    obj = {
        "label": code.label,
        "n": code.n,
        "k": code.k,
        "weights": [[a, b] for a, b in zip(mats[::2], mats[1::2])],
    }
    if declared_class is not None:
        obj["class"] = declared_class
    return obj


def code_from_json_dict(obj: dict) -> tuple[LinearDispersionCode, str | None]:
    n = _json_int(obj, "n")
    label = obj.get("label", "unnamed")
    if not isinstance(label, str):
        raise ValueError(f"label must be a string, got {label!r}")
    pairs = obj["weights"]
    if not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2 and isinstance(p[0], dict)
            and isinstance(p[1], dict) for p in pairs):
        raise ValueError("weights must be a list of [A, B] pairs of matrix objects")
    flat = stack_from_json([m for a, b in pairs for m in (a, b)], n)
    # no pairs give a (0,) stack, so k = 0 and n < 1 reach the constructor's check
    code = LinearDispersionCode(label=label, n=n, w=flat.reshape(len(pairs), 2, *flat.shape[1:]))
    if "k" in obj and _json_int(obj, "k") != code.k:
        raise ValueError(f"file declares k = {obj['k']} but has {code.k} weight pairs")
    return code, obj.get("class")
