"""Exactness of complex128 arrays, the magnitude guard, the stack JSON codec."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stbc_forge.gmatrix import is_exact, stack_from_json, stack_to_json

from conftest import GOLDEN_4TX_GENERATORS


def _random_exact(rng, n=4, span=5):
    z = (rng.integers(-span, span + 1, (n, n))
         + 1j * rng.integers(-span, span + 1, (n, n)))
    assert is_exact(z)
    return z


# small exact matrices as hypothesis values
_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def exact_matrices(draw, n=3):
    z = np.array([[complex(draw(_entries), draw(_entries)) for _ in range(n)]
                  for _ in range(n)])
    assert is_exact(z)
    return z


def test_identity_product():
    eye = np.eye(2, dtype=np.complex128)
    assert is_exact(eye)
    assert np.array_equal(eye @ eye, eye)


def test_golden_generators_anticommute_exactly():
    f1, f2 = GOLDEN_4TX_GENERATORS[:2]
    assert np.array_equal(f1 @ f2, -(f2 @ f1))


def _int_parts(z):
    n = len(z)
    return [[(int(z[i, j].real), int(z[i, j].imag)) for j in range(n)] for i in range(n)]


def _int_product(a, b):
    """Reference product over Python integers, which never round."""
    pa, pb, n = _int_parts(a), _int_parts(b), len(a)
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
            assert is_exact(a) and is_exact(b)
            assert _int_parts(a @ b) == _int_product(a, b)


def test_magnitude_guard():
    # exact means Gaussian-integer entries with n * max|entry|^2 < 2^53: at n = 2 the
    # guard admits magnitudes below 2^26; a fraction or a NaN is not exact
    for value, exact in ((2 ** 26 - 1, True), (2 ** 26, False), (2 ** 27, False),
                         (0.5, False), (np.nan, False)):
        assert is_exact(np.array([[value, 0], [0, 1]], dtype=np.complex128)) == exact, value


def test_exact_product_leaving_the_guard_raises():
    # 2 * (2^20)^2 < 2^53, but the product's entries break n * max|entry|^2 < 2^53
    a = 2 ** 20 * np.eye(2, dtype=np.complex128)
    assert is_exact(a) and not is_exact(a @ a)
    # the product cannot be claimed exact: its "exact" JSON tag is refused on read
    obj = {"n": 2, "mode": "exact",
           "entries": np.stack(((a @ a).real, (a @ a).imag), -1).astype(np.int64).tolist()}
    with pytest.raises(ValueError):
        stack_from_json([obj], 2)
    assert stack_to_json((a @ a)[None])[0]["mode"] == "float"
    assert not is_exact(np.array([[2 ** 27, 0], [0, 1]], dtype=np.complex128))
    # a float operand makes no exactness claim
    assert not is_exact(a @ (0.3 * a))


def test_constructor_validation():
    # an "exact" matrix is built from its JSON object; what is not exact is refused
    with pytest.raises(ValueError):
        stack_from_json(_one([[[0.5, 0]]]), 1)
    with pytest.raises(ValueError):
        stack_from_json(_one([[[1, 0], [2, 0]]]), 1)  # not square
    with pytest.raises(ValueError):
        stack_from_json(_one([[[float("nan"), 0]]], mode="float"), 1)
    with pytest.raises(ValueError):
        stack_from_json(_one([[[2 ** 27, 0]]]), 1)  # outside the magnitude guard


def test_trace_examples():
    assert np.trace(np.eye(4, dtype=np.complex128)) == 4
    f1 = GOLDEN_4TX_GENERATORS[0]
    assert np.trace(f1) == 0


@given(exact_matrices(), exact_matrices())
@settings(max_examples=60, deadline=None)
def test_trace_cyclic(a, b):
    assert np.trace(a @ b) == np.trace(b @ a)


def test_exact_float_composed_agreement():
    # compositions over entries in {0, +-1, +-j} stay exact: (a b)^H (-j a) is the
    # Python-integer product, bit for bit
    rng = np.random.default_rng(5)
    units = np.array([0, 1, -1, 1j, -1j])
    for _ in range(20):
        za, zb = units[rng.integers(len(units), size=(2, 4, 4))]
        expr = (za @ zb).conj().T @ (za * -1j)
        assert is_exact(expr)
        ab = np.array([[complex(*e) for e in row] for row in _int_product(za, zb)])
        assert _int_parts(expr) == _int_product(ab.conj().T, za * -1j)


def test_scalar_restriction_in_exact_mode():
    # any scalar is allowed; exactness of the result follows from its entries
    a = np.eye(2, dtype=np.complex128)
    assert (-1j * a)[0, 0] == -1j
    assert is_exact(-1j * a) and is_exact(2 * a)
    assert not is_exact((0.5 + 0.5j) * a)
    assert (0.5 * a)[0, 0] == 0.5


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
    (_one([[[True, False]]]), 1),                           # booleans are not read as 1, 0
    (_one([[[1.5, True]]], mode="float"), 1),
    (_one([[[1, 0]]]) + _one([[[0.5, 0]]]), 1),             # the second matrix is bad
], ids=["mode", "rows", "ragged", "entry", "n-other", "n-float", "n-str", "exact-half",
        "exact-guard", "str", "none", "nan", "bool", "bool-float", "second"])
def test_json_validation(objs, n):
    with pytest.raises((ValueError, TypeError)):
        stack_from_json(objs, n)


def test_json_float_tag_outside_the_guard():
    z = stack_from_json(_one([[[2 ** 60, 0]]], mode="float"), 1)
    assert z.shape == (1, 1, 1) and not is_exact(z)
    assert stack_to_json(z)[0]["mode"] == "float"
