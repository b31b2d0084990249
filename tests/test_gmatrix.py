"""Matrix core: exact arithmetic, the magnitude guard, rank, JSON."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stbc_forge.gmatrix import GaussianMatrix, real_rank

from conftest import GOLDEN_4TX_GENERATORS


def _random_exact(rng, n=4, span=5):
    re = rng.integers(-span, span + 1, (n, n))
    im = rng.integers(-span, span + 1, (n, n))
    return GaussianMatrix.exact([[complex(int(re[i, j]), int(im[i, j])) for j in range(n)]
                                 for i in range(n)])


# small exact matrices as hypothesis values
_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def exact_matrices(draw, n=3):
    rows = [[complex(draw(_entries), draw(_entries)) for _ in range(n)] for _ in range(n)]
    return GaussianMatrix.exact(rows)


def test_identity_product():
    eye = GaussianMatrix.identity(2)
    assert eye @ eye == eye


def test_golden_generators_anticommute_exactly():
    f1, f2 = GOLDEN_4TX_GENERATORS[:2]
    assert f1 @ f2 == (f2 @ f1).scale(-1)


def _int_parts(m):
    return [[(int(m.entry(i, j).real), int(m.entry(i, j).imag)) for j in range(m.n)]
            for i in range(m.n)]


def _int_product(a, b):
    """Reference product over Python integers, which never round."""
    pa, pb, n = _int_parts(a), _int_parts(b), a.n
    return [[(sum(pa[i][t][0] * pb[t][j][0] - pa[i][t][1] * pb[t][j][1] for t in range(n)),
              sum(pa[i][t][0] * pb[t][j][1] + pa[i][t][1] * pb[t][j][0] for t in range(n)))
             for j in range(n)] for i in range(n)]


def test_exact_matches_float_product():
    # the complex128 product of exact matrices is the integer product, bit for bit
    rng = np.random.default_rng(11)
    for span in (5, 2 ** 10):
        for _ in range(10):
            a = _random_exact(rng, span=span)
            b = _random_exact(rng, span=span)
            assert a.is_exact and b.is_exact
            assert _int_parts(a @ b) == _int_product(a, b)


def test_exact_product_leaving_the_guard_raises():
    # 4 * (2^20)^2 < 2^53, but the product's entries break n * max|entry|^2 < 2^53
    a = GaussianMatrix.exact([[2 ** 20, 0], [0, 2 ** 20]])
    with pytest.raises(OverflowError):
        a @ a
    with pytest.raises(OverflowError):
        a.kron(a)
    assert not GaussianMatrix.floating([[2 ** 27, 0], [0, 1]]).is_exact
    # a float operand makes no exactness claim, so nothing raises
    assert not (a @ a.scale(0.3)).is_exact


def test_trace_examples():
    assert GaussianMatrix.identity(4).trace() == 4
    f1 = GOLDEN_4TX_GENERATORS[0]
    assert f1.trace() == 0
    assert f1.herm() == f1.scale(-1)


@given(exact_matrices())
@settings(max_examples=60, deadline=None)
def test_herm_involution(a):
    assert a.herm().herm() == a


@given(exact_matrices(), exact_matrices())
@settings(max_examples=60, deadline=None)
def test_trace_cyclic(a, b):
    assert (a @ b).trace() == (b @ a).trace()


def test_exact_float_composed_agreement():
    # compositions over entries in {0, +-1, +-j} match plain numpy exactly
    rng = np.random.default_rng(5)
    units = [0, 1, -1, 1j, -1j]
    for _ in range(20):
        za = np.array([[units[rng.integers(len(units))] for _ in range(4)] for _ in range(4)])
        zb = np.array([[units[rng.integers(len(units))] for _ in range(4)] for _ in range(4)])
        a, b = GaussianMatrix.exact(za), GaussianMatrix.exact(zb)
        expr = ((a @ b).herm() @ a.scale(-1j)) + b
        want = (za @ zb).conj().T @ (za * -1j) + zb
        assert expr.is_exact
        assert np.array_equal(expr.to_array(), want)
        assert expr.trace() == np.trace(want)


def test_scalar_restriction_in_exact_mode():
    # any scalar is allowed; exactness of the result follows from its entries
    a = GaussianMatrix.identity(2)
    assert a.scale(-1j).entry(0, 0) == -1j
    assert a.scale(-1j).is_exact and a.scale(2).is_exact
    assert not a.scale(0.5 + 0.5j).is_exact
    assert a.scale(0.5).entry(0, 0) == 0.5


def test_frob_norm():
    f1 = GOLDEN_4TX_GENERATORS[0]
    assert f1.frob_norm() == pytest.approx(2.0)


def test_dimension_mismatch():
    a = GaussianMatrix.identity(2)
    b = GaussianMatrix.identity(4)
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError):
        a + b


def test_constructor_validation():
    with pytest.raises(ValueError):
        GaussianMatrix.exact([[0.5]])
    with pytest.raises(ValueError):
        GaussianMatrix.exact([[1, 2]])  # not square
    with pytest.raises(ValueError):
        GaussianMatrix.floating([[np.nan]])
    with pytest.raises(ValueError):
        GaussianMatrix.exact([[2 ** 27]])  # outside the magnitude guard


def test_real_rank_examples():
    eye = GaussianMatrix.identity(2)
    assert real_rank([eye, eye.scale(1j)]) == 2
    assert real_rank([eye, eye]) == 1
    assert real_rank([]) == 0
    with pytest.raises(ValueError):
        real_rank([eye, GaussianMatrix.identity(4)])


def test_unitary_and_hermitian_predicates():
    f1 = GOLDEN_4TX_GENERATORS[0]
    assert f1.is_unitary()
    assert not f1.herm() == f1
    assert not f1.scale(2).is_unitary()
    assert (f1 @ f1).scale(-1).is_identity()


def test_json_round_trip():
    rng = np.random.default_rng(3)
    a = _random_exact(rng)
    assert GaussianMatrix.from_json_dict(a.to_json_dict()) == a
    d = a.to_json_dict()
    assert d["mode"] == "exact"
    assert isinstance(d["entries"][0][0][0], int)

    f = GaussianMatrix.floating(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    back = GaussianMatrix.from_json_dict(f.to_json_dict())
    assert back == f
    assert not back.is_exact
    assert f.to_json_dict()["mode"] == "float"


def test_json_validation():
    with pytest.raises(ValueError):
        GaussianMatrix.from_json_dict({"n": 2, "mode": "exact", "entries": [[[1, 0]]]})
    with pytest.raises(ValueError):
        GaussianMatrix.from_json_dict(
            {"n": 1, "mode": "other", "entries": [[[1, 0]]]})
    # "exact" entries must be Gaussian integers inside the magnitude guard
    for entry in ([0.5, 0], [2 ** 60, 0]):
        with pytest.raises(ValueError):
            GaussianMatrix.from_json_dict({"n": 1, "mode": "exact", "entries": [[entry]]})
    assert not GaussianMatrix.from_json_dict(
        {"n": 1, "mode": "float", "entries": [[[2 ** 60, 0]]]}).is_exact


def test_entries_are_immutable():
    a = GaussianMatrix.identity(2)
    with pytest.raises(ValueError):
        a.to_array()[0, 0] = 5
    rows = np.eye(2)
    b = GaussianMatrix.floating(rows)
    rows[0, 0] = 5  # the matrix holds its own copy
    assert b == a
