"""Condition checks, classification taxonomy, normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stbc_forge.clifford import generate_family
from stbc_forge.codes import (
    LinearDispersionCode,
    build_ciod4,
    build_max_rate_ussd,
    build_square_cod,
)
from stbc_forge.gmatrix import GaussianMatrix
from stbc_forge.verifier import (
    CLASS_COD,
    CLASS_NONUW_SSD,
    CLASS_NOT_SSD,
    CLASS_UW_SSD,
    COND_COD_SELF,
    COND_SSD_II,
    COND_UW,
    check_cod,
    check_normalized_structure,
    check_ssd,
    check_unitary_weight,
    classify,
    normalize,
)

from conftest import random_unitary


def _replace_weight(code, symbol, which, matrix):
    weights = [list(pair) for pair in code.weights]
    weights[symbol][which] = matrix
    return LinearDispersionCode(label=code.label + "-mutated", n=code.n,
                                weights=tuple(tuple(p) for p in weights))


def test_check_ssd_passes_builders(ussd4, cod4, ciod4):
    for code in (ussd4, cod4, ciod4):
        assert check_ssd(code).ok


def test_check_ssd_flags_duplicated_weight(ussd4):
    # copying the first in-phase weight into slot 2 breaks the pair condition
    bad = _replace_weight(ussd4, 1, 0, ussd4.weights[0][0])
    result = check_ssd(bad)
    assert not result.ok
    assert any(f.condition == COND_SSD_II and {f.i, f.j} == {1, 2}
               for f in result.failures)
    assert not classify(bad).linear_independent
    # the j-scaled copy evades the (1,2) pair condition (and stays
    # real-independent of I) but breaks every other pair with slot 2
    sneaky = _replace_weight(ussd4, 1, 0, ussd4.weights[0][0].scale(1j))
    failing = check_ssd(sneaky).failures
    assert not any({f.i, f.j} == {1, 2} for f in failing)
    assert failing


def test_check_unitary_weight(ussd4, ciod4):
    assert check_unitary_weight(ussd4).ok
    result = check_unitary_weight(ciod4)
    assert not result.ok
    assert all(f.condition == COND_UW for f in result.failures)
    # all-identity weights satisfy unitarity even though they are dependent
    eye = GaussianMatrix.identity(4)
    degenerate = LinearDispersionCode(label="deg", n=4, weights=((eye, eye), (eye, eye)))
    assert check_unitary_weight(degenerate).ok
    assert not classify(degenerate).linear_independent


def test_check_cod(cod2, cod4, cod8, ussd4):
    for code in (cod2, cod4, cod8):
        assert check_cod(code).ok
    result = check_cod(ussd4)
    assert not result.ok
    assert all(f.condition == COND_COD_SELF for f in result.failures)


def test_check_cod_vacuous_on_empty_code():
    empty = LinearDispersionCode(label="empty", n=2, weights=())
    assert check_cod(empty).ok
    assert classify(empty).code_class == CLASS_COD


def test_cod_implies_ssd_and_unitary(cod2, cod4, cod8):
    for code in (cod2, cod4, cod8):
        assert check_ssd(code).ok and check_unitary_weight(code).ok


def test_classify_taxonomy(cod2, ussd4, ciod4):
    assert classify(cod2).code_class == CLASS_COD
    assert classify(ussd4).code_class == CLASS_UW_SSD
    assert classify(ciod4).code_class == CLASS_NONUW_SSD
    bad = _replace_weight(ussd4, 1, 0, ussd4.weights[2][0])
    assert classify(bad).code_class == CLASS_NOT_SSD


def test_classify_reports_normalization(ussd4):
    assert classify(ussd4).normalized
    rng = np.random.default_rng(47)
    moved = ussd4.left_multiply(random_unitary(4, rng))
    assert not classify(moved).normalized


def test_classify_invariant_under_unitary(ussd4, ciod4, cod4):
    rng = np.random.default_rng(53)
    for code in (ussd4, ciod4, cod4):
        want = classify(code).code_class
        for _ in range(10):
            moved = code.left_multiply(random_unitary(4, rng))
            assert classify(moved).code_class == want


def test_normalize(ussd4):
    # already normalized: unchanged
    again = normalize(ussd4)
    assert all(a == b and c == d
               for (a, c), (b, d) in zip(again.weights, ussd4.weights))
    rng = np.random.default_rng(59)
    moved = ussd4.left_multiply(random_unitary(4, rng))
    back = normalize(moved)
    assert back.weights[0][0].is_identity()
    assert check_normalized_structure(back).ok
    assert classify(back).code_class == classify(moved).code_class


def test_normalize_requires_unitary_first_weight(ciod4):
    with pytest.raises(ValueError):
        normalize(ciod4)  # first in-phase weight is rank deficient


def test_metric_difference_depends_only_on_changed_slot(ussd4):
    # single-symbol decodability, stated operationally on the ML metric
    rng = np.random.default_rng(61)
    pts = rng.standard_normal(8) + 1j * rng.standard_normal(8)

    def metric(x, y, h):
        s = ussd4.codeword(x).to_array()
        return np.linalg.norm(y - s @ h, "fro") ** 2

    for _ in range(10):
        h = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        y = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        slot = int(rng.integers(4))
        xa, xb = pts[rng.integers(8)], pts[rng.integers(8)]
        others1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        others2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        deltas = []
        for others in (others1, others2):
            x1 = others.copy()
            x2 = others.copy()
            x1[slot] = xa
            x2[slot] = xb
            deltas.append(metric(x1, y, h) - metric(x2, y, h))
        assert deltas[0] == pytest.approx(deltas[1], abs=1e-8)


def test_float_tolerance_on_rotated_codes(ussd4):
    rng = np.random.default_rng(67)
    moved = ussd4.left_multiply(random_unitary(4, rng))
    assert check_ssd(moved).ok
    assert check_unitary_weight(moved).ok
    assert not check_cod(moved).ok


def _mutants(ussd4):
    bad = _replace_weight(ussd4, 1, 0, ussd4.weights[0][0])
    sneaky = _replace_weight(ussd4, 1, 0, ussd4.weights[0][0].scale(1j))
    return bad, sneaky


def _as_tuples(failures):
    return tuple((f.condition, f.i, f.j) for f in failures)


def test_failed_conditions_order_is_pinned(ussd4, ciod4):
    # the order feeds ``verify --report``; these are the seed's lists
    bad, sneaky = _mutants(ussd4)
    self_all = tuple(("COD-IQ-self", i, i) for i in range(1, 5))
    assert _as_tuples(classify(ussd4).failed_conditions) == self_all
    assert _as_tuples(classify(ciod4).failed_conditions) == tuple(
        ("UW", i, i) for i in range(1, 5))
    assert _as_tuples(classify(bad).failed_conditions) == (
        ("SSD-II", 1, 2), ("SSD-IQ", 2, 1),
        ("COD-IQ-self", 1, 1), ("COD-IQ-self", 3, 3), ("COD-IQ-self", 4, 4))
    assert _as_tuples(classify(sneaky).failed_conditions) == (
        ("SSD-IQ", 2, 3), ("SSD-II", 2, 3), ("SSD-IQ", 2, 4), ("SSD-II", 2, 4)) + self_all


def _reference_failures(code):
    """Per-pair loop over the conditions as the module docstring states them."""
    w = [(wi.to_array(), wq.to_array()) for wi, wq in code.weights]
    n = code.n
    c = np.mean([np.trace(m.conj().T @ m).real for pair in w for m in pair]) / n

    def vanishes(a, b):
        return np.linalg.norm(a.conj().T @ b + b.conj().T @ a) <= 1e-10 * c

    def unitary(a):
        return np.linalg.norm(a.conj().T @ a - c * np.eye(n)) <= 1e-10 * c

    out = [(COND_UW, i, i) for i, (a, b) in enumerate(w, 1) if not (unitary(a) and unitary(b))]
    for i in range(code.k):
        for j in range(code.k):
            if i == j:
                continue
            if not vanishes(w[i][0], w[j][1]):
                out.append(("SSD-IQ", i + 1, j + 1))
            if j > i and not vanishes(w[i][0], w[j][0]):
                out.append(("SSD-II", i + 1, j + 1))
            if j > i and not vanishes(w[i][1], w[j][1]):
                out.append(("SSD-QQ", i + 1, j + 1))
    out += [(COND_COD_SELF, i, i) for i, (a, b) in enumerate(w, 1) if not vanishes(a, b)]
    return tuple(out)


def test_failed_conditions_match_reference_loop(ussd4, ciod4, cod4):
    rng = np.random.default_rng(71)
    bases = (ussd4, ciod4, cod4) + _mutants(ussd4)
    for t in range(20):
        code = bases[t % len(bases)].left_multiply(random_unitary(4, rng))
        want = _reference_failures(code)
        assert _as_tuples(check_cod(code).failures) == want
        assert _as_tuples(classify(code).failed_conditions) == want


_FAM2 = generate_family(2)
_USSD4 = build_max_rate_ussd(2, _FAM2)
_CODES = {
    "ussd2": build_max_rate_ussd(1, generate_family(1)),
    "ussd4": _USSD4,
    "cod4": build_square_cod(2, _FAM2),
    "ciod4": build_ciod4(),
    "not-ssd": _mutants(_USSD4)[0],
}


@given(name=st.sampled_from(sorted(_CODES)),
       scale=st.floats(min_value=1e-3, max_value=1e3),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_class_invariant_under_scale_and_unitary(name, scale, seed):
    code = _CODES[name]
    want = classify(code).code_class
    u = random_unitary(code.n, np.random.default_rng(seed))
    assert classify(code.scaled(scale)).code_class == want
    assert classify(code.left_multiply(u)).code_class == want
    assert classify(code.scaled(scale).left_multiply(u)).code_class == want
