"""Matrix core: exact arithmetic, the magnitude guard, the stack JSON codec."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stbc_forge.gmatrix import GaussianMatrix, is_exact, stack_from_json, stack_to_json

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
    z = m.to_array()
    return [[(int(z[i, j].real), int(z[i, j].imag)) for j in range(m.n)] for i in range(m.n)]


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
    assert not GaussianMatrix([[2 ** 27, 0], [0, 1]]).is_exact
    # a float operand makes no exactness claim, so nothing raises
    assert not (a @ a.scale(0.3)).is_exact


def test_matrices_stack_through_the_array_protocol():
    f1, f2 = GOLDEN_4TX_GENERATORS[:2]
    stack = np.array([f1, f2])
    assert stack.shape == (2, 4, 4) and stack.dtype == np.complex128
    assert np.array_equal(stack[1], f2.to_array())
    stack[0, 0, 0] = 5  # np.array copies, so the read-only entries are untouched
    assert f1.to_array()[0, 0] == 1j
    assert np.asarray(f1, dtype=np.complex64).dtype == np.complex64


def test_trace_examples():
    assert GaussianMatrix.identity(4).trace() == 4
    f1 = GOLDEN_4TX_GENERATORS[0]
    assert f1.trace() == 0


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
        expr = GaussianMatrix(np.conj((a @ b).to_array()).T) @ a.scale(-1j)
        want = (za @ zb).conj().T @ (za * -1j)
        assert expr.is_exact
        assert np.array_equal(expr.to_array(), want)
        assert expr.trace() == np.trace(want)


def test_scalar_restriction_in_exact_mode():
    # any scalar is allowed; exactness of the result follows from its entries
    a = GaussianMatrix.identity(2)
    assert a.scale(-1j).to_array()[0, 0] == -1j
    assert a.scale(-1j).is_exact and a.scale(2).is_exact
    assert not a.scale(0.5 + 0.5j).is_exact
    assert a.scale(0.5).to_array()[0, 0] == 0.5


def test_dimension_mismatch():
    a = GaussianMatrix.identity(2)
    b = GaussianMatrix.identity(4)
    with pytest.raises(ValueError):
        a @ b


def test_constructor_validation():
    with pytest.raises(ValueError):
        GaussianMatrix.exact([[0.5]])
    with pytest.raises(ValueError):
        GaussianMatrix.exact([[1, 2]])  # not square
    with pytest.raises(ValueError):
        GaussianMatrix([[np.nan]])
    with pytest.raises(ValueError):
        GaussianMatrix.exact([[2 ** 27]])  # outside the magnitude guard


# an (N, n, n) stack whose matrices are each exact or float, for the JSON codec
@st.composite
def json_stacks(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    mats = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        parts = np.array(draw(st.lists(_entries, min_size=2 * n * n, max_size=2 * n * n)),
                         dtype=float).reshape(n, n, 2)
        if draw(st.booleans()):  # a float matrix: scale by a non-integer
            parts *= draw(st.floats(min_value=0.01, max_value=100.0).filter(
                lambda x: x != int(x)))
        mats.append(parts.view(np.complex128)[..., 0])
    return np.stack(mats)


@given(json_stacks())
@settings(max_examples=60, deadline=None)
def test_json_round_trip(z):
    objs = stack_to_json(z)
    back = stack_from_json(json.loads(json.dumps(objs)), z.shape[-1])
    assert back.dtype == np.complex128 and back.tobytes() == z.tobytes()
    assert [o["mode"] == "exact" for o in objs] == [bool(is_exact(m)) for m in z]


def _one(entries, mode="exact", n=1):
    return [{"n": n, "mode": mode, "entries": entries}]


@pytest.mark.parametrize("objs, n", [
    (_one([[[1, 0]]], mode="other"), 1),                    # bad mode
    (_one([[[1, 0]]], n=2), 2),                             # one row, not 2 x 2
    (_one([[[1, 0], [0, 0]], [[0, 0]]], n=2), 2),           # ragged rows
    (_one([[[1, 0, 0]]]), 1),                               # an entry is not [re, im]
    (_one([[[1, 0]]]), 2),                                  # n differs from the stack's
    (_one([[[1, 0]]], n=1.0), 1),                           # non-integer n
    (_one([[[1, 0]]], n="1"), 1),
    (_one([[[0.5, 0]]]), 1),                                # exact tag on 0.5
    (_one([[[2 ** 60, 0]]]), 1),                            # exact tag outside the guard
    (_one([[["1", 0]]]), 1),                                # string and None entries
    (_one([[[None, 0]]], mode="float"), 1),
    (_one([[[float("nan"), 0]]], mode="float"), 1),         # NaN
    (_one([[[1, 0]]]) + _one([[[0.5, 0]]]), 1),             # the second matrix is bad
], ids=["mode", "rows", "ragged", "entry", "n-other", "n-float", "n-str", "exact-half",
        "exact-guard", "str", "none", "nan", "second"])
def test_json_validation(objs, n):
    with pytest.raises((ValueError, TypeError)):
        stack_from_json(objs, n)


def test_json_float_tag_outside_the_guard():
    z = stack_from_json(_one([[[2 ** 60, 0]]], mode="float"), 1)
    assert z.shape == (1, 1, 1) and not is_exact(z)
    assert stack_to_json(z)[0]["mode"] == "float"


def test_entries_are_immutable():
    a = GaussianMatrix.identity(2)
    with pytest.raises(ValueError):
        a.to_array()[0, 0] = 5
    rows = np.eye(2)
    b = GaussianMatrix(rows)
    rows[0, 0] = 5  # the matrix holds its own copy
    assert b == a
