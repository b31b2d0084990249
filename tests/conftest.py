"""Shared fixtures: golden 4-antenna matrices and the built-in codes.

The four 4x4 generators and the codeword layout below are pinned as
literals, independent of the package's own construction, so the tests
can catch any drift in ordering or sign conventions.
"""

from __future__ import annotations

import numpy as np
import pytest

from stbc_forge import (
    AnticommutingFamily,
    build_ciod4,
    build_max_rate_ussd,
    build_square_cod,
    generate_family,
)
from stbc_forge.gmatrix import is_exact


def _exact(rows) -> np.ndarray:
    """A literal Gaussian-integer matrix as a read-only complex128 array, checked with
    ``is_exact``."""
    z = np.array(rows, dtype=np.complex128)
    assert is_exact(z)
    z.setflags(write=False)
    return z


# canonical 4x4 anticommuting, anti-Hermitian, unitary generators
GOLDEN_4TX_GENERATORS = (
    _exact([[1j, 0, 0, 0],
            [0, -1j, 0, 0],
            [0, 0, -1j, 0],
            [0, 0, 0, 1j]]),
    _exact([[0, 1, 0, 0],
            [-1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, -1, 0]]),
    _exact([[0, 0, 1, 0],
            [0, 0, 0, -1],
            [-1, 0, 0, 0],
            [0, 1, 0, 0]]),
    _exact([[0, 1j, 0, 0],
            [1j, 0, 0, 0],
            [0, 0, 0, 1j],
            [0, 0, 1j, 0]]),
)

# the three pinned 2x2 generators
GOLDEN_2TX_GENERATORS = (
    _exact([[1j, 0], [0, -1j]]),
    _exact([[0, 1], [-1, 0]]),
    _exact([[0, 1j], [1j, 0]]),
)


def golden_4tx_codeword(symbols) -> np.ndarray:
    """The reference 4-antenna maximal-rate codeword, written out entrywise."""
    x1, x2, x3, x4 = (complex(s) for s in symbols)
    a, b = x1.real, x1.imag
    c, d = x2.real, x2.imag
    e, f = x3.real, x3.imag
    g, h = x4.real, x4.imag
    return np.array([
        [a + 1j * c,  e - 1j * h,  g + 1j * f,  d - 1j * b],
        [-e - 1j * h, a - 1j * c,  d + 1j * b, -g + 1j * f],
        [-g + 1j * f, -d - 1j * b, a - 1j * c,  e + 1j * h],
        [-d + 1j * b, g + 1j * f, -e + 1j * h,  a + 1j * c],
    ])


def golden_4tx_family() -> AnticommutingFamily:
    """A family built around the golden generators (closure recomputed)."""
    f1, f2, f3, f4 = GOLDEN_4TX_GENERATORS
    prod = f1 @ f2 @ f3 @ f4
    c = 1j if np.array_equal(prod @ prod, np.eye(4)) else 1 + 0j
    return AnticommutingFamily(a=2, matrices=(f1, f2, f3, f4, prod * c), c=c)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture(scope="session")
def fam1():
    return generate_family(1)


@pytest.fixture(scope="session")
def fam2():
    return generate_family(2)


@pytest.fixture(scope="session")
def fam3():
    return generate_family(3)


@pytest.fixture(scope="session")
def ussd2(fam1):
    return build_max_rate_ussd(1, fam1)


@pytest.fixture(scope="session")
def ussd4(fam2):
    return build_max_rate_ussd(2, fam2)


@pytest.fixture(scope="session")
def ussd8(fam3):
    return build_max_rate_ussd(3, fam3)


@pytest.fixture(scope="session")
def cod2(fam1):
    return build_square_cod(1, fam1)


@pytest.fixture(scope="session")
def cod4(fam2):
    return build_square_cod(2, fam2)


@pytest.fixture(scope="session")
def cod8(fam3):
    return build_square_cod(3, fam3)


@pytest.fixture(scope="session")
def ciod4():
    return build_ciod4()
