"""Condition checks, classification taxonomy, normalization."""

import dataclasses

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
from stbc_forge.codinggain import min_det_bruteforce
from stbc_forge.constellations import optimal_angle, rotated_qam
from stbc_forge.simulator import SimConfig, simulate_cer
from stbc_forge.verifier import (
    CLASS_COD,
    CLASS_NONUW_SSD,
    CLASS_NOT_SSD,
    CLASS_UW_SSD,
    COND_COD_SELF,
    COND_SSD_II,
    COND_SSD_IQ,
    COND_SSD_QQ,
    COND_UW,
    _report,
    check_normalized_structure,
    check_ssd,
    check_unitary_weight,
    classify,
    normalize,
)

from conftest import random_unitary
from exact_codes import exact_built_in_codes


def _replace_weight(code, symbol, which, matrix):
    w = np.array(code.w)
    w[symbol, which] = matrix
    return LinearDispersionCode(label=code.label + "-mutated", n=code.n, w=w)


def test_check_ssd_passes_builders(ussd4, cod4, ciod4):
    for code in (ussd4, cod4, ciod4):
        assert check_ssd(code).ok


def test_check_ssd_flags_duplicated_weight(ussd4):
    # copying the first in-phase weight into slot 2 breaks the pair condition
    bad = _replace_weight(ussd4, 1, 0, ussd4.w[0, 0])
    result = check_ssd(bad)
    assert not result.ok
    assert any(f.condition == COND_SSD_II and {f.i, f.j} == {1, 2}
               for f in result.failures)
    assert not classify(bad).linear_independent
    # the j-scaled copy evades the (1,2) pair condition (and stays
    # real-independent of I) but breaks every other pair with slot 2
    sneaky = _replace_weight(ussd4, 1, 0, ussd4.w[0, 0] * 1j)
    failing = check_ssd(sneaky).failures
    assert not any({f.i, f.j} == {1, 2} for f in failing)
    assert failing


def test_check_unitary_weight(ussd4, ciod4):
    assert check_unitary_weight(ussd4).ok
    result = check_unitary_weight(ciod4)
    assert not result.ok
    assert all(f.condition == COND_UW for f in result.failures)
    # all-identity weights satisfy unitarity even though they are dependent
    degenerate = LinearDispersionCode(label="deg", n=4, w=np.broadcast_to(np.eye(4), (2, 2, 4, 4)))
    assert check_unitary_weight(degenerate).ok
    assert not classify(degenerate).linear_independent


def test_check_cod(cod2, cod4, cod8, ussd4):
    # the full COD conditions are classify's failed_conditions
    for code in (cod2, cod4, cod8):
        assert not classify(code).failed_conditions
    failures = classify(ussd4).failed_conditions
    assert failures and all(f.condition == COND_COD_SELF for f in failures)


def test_cod_implies_ssd_and_unitary(cod2, cod4, cod8):
    for code in (cod2, cod4, cod8):
        assert check_ssd(code).ok and check_unitary_weight(code).ok


def test_classify_taxonomy(cod2, ussd4, ciod4):
    assert classify(cod2).code_class == CLASS_COD
    assert classify(ussd4).code_class == CLASS_UW_SSD
    assert classify(ciod4).code_class == CLASS_NONUW_SSD
    bad = _replace_weight(ussd4, 1, 0, ussd4.w[2, 0])
    assert classify(bad).code_class == CLASS_NOT_SSD


def test_classify_reports_normalization(ussd4):
    assert classify(ussd4).normalized
    rng = np.random.default_rng(47)
    moved = ussd4.left_multiply(random_unitary(4, rng))
    assert not classify(moved).normalized
    # A_1 = t I needs t > 0: a zero A_1 (t = 0) is not normalized
    assert not classify(_replace_weight(ussd4, 0, 0, np.zeros((4, 4)))).normalized


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
    assert np.array_equal(again.w, ussd4.w)
    rng = np.random.default_rng(59)
    moved = ussd4.left_multiply(random_unitary(4, rng))
    back = normalize(moved)
    assert np.linalg.norm(back.w[0, 0] - np.eye(4)) <= 1e-10
    assert check_normalized_structure(back).ok
    assert classify(back).code_class == classify(moved).code_class
    # A_1 = t U goes to t I at any uniform scale: x3, x1e160 and x1e-100 (whose
    # squares overflow and underflow), and x3 after a unitary left-multiply
    three = ussd4.scaled(3)
    moved = three.left_multiply(random_unitary(4, rng))
    for code in (three, ussd4.scaled(1e160), ussd4.scaled(1e-100), moved):
        back = normalize(code)
        assert classify(back).normalized
        assert check_normalized_structure(back).ok
    assert np.allclose(normalize(moved).w, three.w, rtol=0.0, atol=1e-12)


def test_normalize_requires_unitary_first_weight(ciod4, ussd4):
    with pytest.raises(ValueError):
        normalize(ciod4)  # first in-phase weight is rank deficient
    with pytest.raises(ValueError, match="nonzero first in-phase weight"):
        normalize(_replace_weight(ussd4, 0, 0, np.zeros((4, 4))))


def test_metric_difference_depends_only_on_changed_slot(ussd4):
    # single-symbol decodability, stated operationally on the ML metric
    rng = np.random.default_rng(61)
    pts = rng.standard_normal(8) + 1j * rng.standard_normal(8)

    def metric(x, y, h):
        s = ussd4.codeword(x)
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
    assert classify(moved).code_class == CLASS_UW_SSD


def _mutants(ussd4):
    bad = _replace_weight(ussd4, 1, 0, ussd4.w[0, 0])
    sneaky = _replace_weight(ussd4, 1, 0, ussd4.w[0, 0] * 1j)
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
    """The failed conditions with their residuals relative to c, by a loop over the
    conditions as the module docstring states them, one pair at a time, with np.linalg.norm."""
    w, n = code.w, code.n
    c = np.mean([np.trace(m.conj().T @ m).real for pair in w for m in pair]) / n
    scale = c if c > 0 else 1.0
    out = []

    def check(condition, i, j, residual):
        if residual > 1e-10 or condition == COND_UW and c <= 0:
            out.append((condition, i + 1, j + 1, residual))

    def vanish(a, b):
        return np.linalg.norm(a.conj().T @ b + b.conj().T @ a) / scale

    def unitary(a):
        return np.linalg.norm(a.conj().T @ a - c * np.eye(n)) / scale

    for i, (a, b) in enumerate(w):
        check(COND_UW, i, i, max(unitary(a), unitary(b)))
    for i in range(code.k):
        for j in range(code.k):
            if i == j:
                continue
            check(COND_SSD_IQ, i, j, vanish(w[i][0], w[j][1]))
            if j > i:
                check(COND_SSD_II, i, j, vanish(w[i][0], w[j][0]))
                check(COND_SSD_QQ, i, j, vanish(w[i][1], w[j][1]))
    for i, (a, b) in enumerate(w):
        check(COND_COD_SELF, i, i, vanish(a, b))
    return out


def _assert_matches_reference(code):
    got = classify(code).failed_conditions
    want = _reference_failures(code)
    assert _as_tuples(got) == tuple(f[:3] for f in want)
    assert np.allclose([f.residual for f in got], [f[3] for f in want], rtol=1e-9, atol=1e-12)
    return got


def test_failed_conditions_match_reference_loop(ussd4, ciod4, cod4):
    rng = np.random.default_rng(71)
    bases = (ussd4, ciod4, cod4) + _mutants(ussd4)
    for t in range(20):
        _assert_matches_reference(bases[t % len(bases)].left_multiply(random_unitary(4, rng)))


_FAM2 = generate_family(2)
_USSD4 = build_max_rate_ussd(2, _FAM2)
_CODES = {
    "ussd2": build_max_rate_ussd(1, generate_family(1)),
    "ussd4": _USSD4,
    "cod4": build_square_cod(2, _FAM2),
    "ciod4": build_ciod4(),
    "not-ssd": _mutants(_USSD4)[0],
}


_QAM4 = rotated_qam(4, optimal_angle())


@given(name=st.sampled_from(sorted(_CODES)),
       exponent=st.floats(min_value=-300, max_value=300),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_class_invariant_under_scale_and_unitary(name, exponent, seed):
    # log-uniform scales over the float range: the squares of the weights would
    # underflow or overflow, the power-of-two rescale keeps them near 1
    code = _CODES[name]
    want = classify(code)
    want_det = min_det_bruteforce(code, _QAM4).value
    scale = 10.0 ** exponent
    u = random_unitary(code.n, np.random.default_rng(seed))
    for moved in (code.scaled(scale), code.left_multiply(u), code.scaled(scale).left_multiply(u)):
        got = classify(moved)
        assert got.code_class == want.code_class
        assert got.linear_independent == want.linear_independent
        assert min_det_bruteforce(moved, _QAM4).value == pytest.approx(want_det, rel=1e-9)


@pytest.mark.parametrize("name", ["ussd4", "ciod4", "cod4"])
@pytest.mark.parametrize("scale", [1e-300, 1e-100, 1e-40, 1e40, 1e100, 1e300])
def test_extreme_scales_keep_class_independence_and_min_det(name, scale):
    code = _CODES[name]
    want, got = classify(code), classify(code.scaled(scale))
    assert got.code_class == want.code_class
    assert got.linear_independent and want.linear_independent
    assert min_det_bruteforce(code.scaled(scale), _QAM4).value == pytest.approx(
        min_det_bruteforce(code, _QAM4).value, rel=1e-9)


def _residuals(report):
    return [f.residual for f in report.failed_conditions]


@pytest.mark.parametrize("name", sorted(_CODES))
def test_power_of_two_scales_are_bit_identical(name):
    # 2^+-900 rescales back to the very same weights: the same report, ``normalized``
    # and residuals included, the same minimum determinant and the same seeded CER counts
    code = _CODES[name]
    want = classify(code)
    want_det = min_det_bruteforce(code, _QAM4).value
    ssd = want.code_class != CLASS_NOT_SSD

    def cer(c):
        return simulate_cer(SimConfig(code=c, constellation=_QAM4, snr_db_list=(6.0,),
                                      trials=3000, seed=11, decoder="ssd" if ssd else "brute-ml"))

    want_cer = cer(code)
    for exponent in (-900, 900):
        scaled = code.scaled(2.0 ** exponent)
        got = classify(scaled)
        assert got == want and _residuals(got) == _residuals(want)
        assert min_det_bruteforce(scaled, _QAM4).value == want_det
        assert cer(scaled) == want_cer


# one block-row GEMM per code up to n = 8, several from n = 16 on
_BUILT_IN = {name: code for name, code in exact_built_in_codes().items() if code.n <= 32}


@given(name=st.sampled_from(sorted(_BUILT_IN)),
       scale=st.floats(min_value=1e-3, max_value=1e3),
       rel=st.sampled_from([1e-13, 1e-8]),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_half_gram_verdicts_match_reference_loop(name, scale, rel, seed):
    # one weight perturbed 1e-13 relative stays inside the tolerance 1e-10 * c, and 1e-8
    # relative leaves it, so the drawn cases fall on both sides
    rng = np.random.default_rng(seed)
    code = _BUILT_IN[name].scaled(scale).left_multiply(random_unitary(_BUILT_IN[name].n, rng))
    w = np.array(code.w)
    i, j = rng.integers(code.k), rng.integers(2)
    e = rng.standard_normal((code.n, code.n)) + 1j * rng.standard_normal((code.n, code.n))
    w[i, j] += rel * np.linalg.norm(w[i, j]) * e / np.linalg.norm(e)
    code = LinearDispersionCode(label=name, n=code.n, w=w)
    failures = _as_tuples(_assert_matches_reference(code))
    if rel == 1e-8 and name != "ciod4":  # a built-in unitary weight, pushed off unitarity
        assert (COND_UW, i + 1, i + 1) in failures


@pytest.mark.parametrize("name", sorted(exact_built_in_codes()))
def test_exact_verdicts_match_reference_loop(name):
    # the exact built-in codes up to 64 antennas, on both sides of the one-GEMM chunk rule
    _assert_matches_reference(exact_built_in_codes()[name])


def test_cached_verdicts_are_read_only(ussd4):
    _report.cache_clear()
    report = classify(ussd4)
    assert classify(ussd4) is report  # the second call is served from the cache
    assert check_ssd(ussd4).ok  # and so is the check's
    assert _report.cache_info().hits == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.code_class = CLASS_COD
