"""Anticommuting families: construction, verification, parity rules."""

import itertools

import numpy as np
import pytest

from stbc_forge.clifford import (
    AnticommutingFamily,
    family_from_json_dict,
    family_to_json_dict,
    generate_family,
    product_subset,
    products_commute,
    square_sign,
    verify_family,
)
from stbc_forge.gmatrix import GaussianMatrix

from conftest import GOLDEN_2TX_GENERATORS, GOLDEN_4TX_GENERATORS


def test_size_4_matches_golden_generators(fam2):
    for built, golden in zip(fam2.matrices[:4], GOLDEN_4TX_GENERATORS):
        assert built == golden
    assert fam2.c == 1j
    assert fam2.matrices[4] == (
        GOLDEN_4TX_GENERATORS[0] @ GOLDEN_4TX_GENERATORS[1]
        @ GOLDEN_4TX_GENERATORS[2] @ GOLDEN_4TX_GENERATORS[3]).scale(1j)


def test_size_2_matches_pinned_generators(fam1):
    for built, golden in zip(fam1.matrices, GOLDEN_2TX_GENERATORS):
        assert built == golden
    assert fam1.c == 1


@pytest.mark.parametrize("a", [1, 2, 3, 4])
def test_generated_families_verify(a):
    fam = generate_family(a)
    assert len(fam.matrices) == 2 * a + 1
    assert fam.n == 2 ** a
    report = verify_family(fam)
    assert report.ok, report.failures


def test_generation_is_deterministic():
    f1 = generate_family(3)
    f2 = generate_family(3)
    assert all(a == b for a, b in zip(f1.matrices, f2.matrices))
    assert f1.c == f2.c


def test_closure_scalar_rule():
    # even a: the 2a-fold product squares to +I, so c = +j; odd a: c = +1
    assert generate_family(1).c == 1
    assert generate_family(2).c == 1j
    assert generate_family(3).c == 1
    assert generate_family(4).c == 1j


def test_generate_family_bounds():
    with pytest.raises(ValueError):
        generate_family(0)
    with pytest.raises(ValueError):
        generate_family(7)


def test_verify_flags_duplicate_member(fam2):
    mats = list(fam2.matrices)
    mats[1] = mats[0]  # a matrix never anticommutes with itself
    report = verify_family(AnticommutingFamily(a=2, matrices=tuple(mats), c=fam2.c))
    assert not report.ok
    assert any(f.name == "anticommute" and f.indices == (1, 2) for f in report.failures)


def test_verify_flags_scaled_member(fam2):
    mats = list(fam2.matrices)
    mats[2] = mats[2].scale(2)  # doubled: no longer unitary
    report = verify_family(AnticommutingFamily(a=2, matrices=tuple(mats), c=fam2.c))
    assert any(f.name == "unitary" and f.indices == (3,) for f in report.failures)
    assert any(f.name == "square-minus-identity" for f in report.failures)


def test_verify_flags_wrong_scalar(fam2):
    report = verify_family(AnticommutingFamily(a=2, matrices=fam2.matrices, c=1 + 0j))
    assert any(f.name == "closure-scalar" for f in report.failures)


def test_product_subset_empty_is_identity(fam2):
    assert product_subset(fam2, []) == GaussianMatrix.identity(4)


def test_product_subset_full_gives_last_member(fam2, fam3):
    for fam in (fam2, fam3):
        full = product_subset(fam, list(range(1, 2 * fam.a + 1)))
        assert full.scale(fam.c) == fam.matrices[-1]


def test_product_subset_pair_squares_to_minus_identity(fam2):
    p = product_subset(fam2, [1, 2])
    assert p @ p == GaussianMatrix.identity(4).scale(-1)


def test_product_subset_validation(fam2):
    with pytest.raises(ValueError):
        product_subset(fam2, [2, 1])
    with pytest.raises(ValueError):
        product_subset(fam2, [1, 1])
    with pytest.raises(ValueError):
        product_subset(fam2, [0, 1])
    with pytest.raises(ValueError):
        product_subset(fam2, [1, 5])  # only 1..2a are allowed


def test_square_sign_values():
    assert square_sign(1) == -1
    assert square_sign(2) == -1
    assert square_sign(3) == 1
    assert square_sign(4) == 1
    with pytest.raises(ValueError):
        square_sign(0)


@pytest.mark.parametrize("a", [1, 2, 3])
def test_square_sign_exhaustive_against_products(a):
    fam = generate_family(a)
    n = fam.n
    eye = GaussianMatrix.identity(n)
    for r in range(1, 2 * a + 1):
        for subset in itertools.combinations(range(1, 2 * a + 1), r):
            p = product_subset(fam, list(subset))
            assert p @ p == eye.scale(square_sign(r))


@pytest.mark.parametrize("a", [1, 2, 3])
def test_products_traceless_exhaustive(a):
    fam = generate_family(a)
    for r in range(1, 2 * a + 1):
        for subset in itertools.combinations(range(1, 2 * a + 1), r):
            assert product_subset(fam, list(subset)).trace() == 0


def test_commute_predicate_examples():
    assert products_commute(1, 1, 1) is True
    assert products_commute(1, 1, 0) is False
    assert products_commute(2, 1, 1) is False
    with pytest.raises(ValueError):
        products_commute(1, 1, 2)
    with pytest.raises(ValueError):
        products_commute(0, 1, 0)


@pytest.mark.parametrize("a", [2, 3])
def test_commute_predicate_against_matrices(a):
    fam = generate_family(a)
    rng = np.random.default_rng(17 + a)
    indices = list(range(1, 2 * a + 1))
    for _ in range(100):
        r = int(rng.integers(1, 2 * a + 1))
        s = int(rng.integers(1, 2 * a + 1))
        s1 = sorted(rng.choice(indices, size=r, replace=False).tolist())
        s2 = sorted(rng.choice(indices, size=s, replace=False).tolist())
        p = len(set(s1) & set(s2))
        m1 = product_subset(fam, s1)
        m2 = product_subset(fam, s2)
        if products_commute(r, s, p):
            assert m1 @ m2 == m2 @ m1
        else:
            assert m1 @ m2 == (m2 @ m1).scale(-1)


@pytest.mark.parametrize("a", [1, 2, 3])
def test_products_span_all_matrices(a):
    # the 2^(2a) products over subsets of 1..2a are a complex basis
    fam = generate_family(a)
    n = fam.n
    vectors = []
    for r in range(0, 2 * a + 1):
        for subset in itertools.combinations(range(1, 2 * a + 1), r):
            vectors.append(product_subset(fam, list(subset)).to_array().ravel())
    stack = np.asarray(vectors)
    assert stack.shape == (2 ** (2 * a), n * n)
    assert np.linalg.matrix_rank(stack) == 2 ** (2 * a)


def test_family_json_round_trip(fam2):
    back = family_from_json_dict(family_to_json_dict(fam2))
    assert back.a == fam2.a
    assert back.c == fam2.c
    assert all(a == b for a, b in zip(back.matrices, fam2.matrices))
    assert verify_family(back).ok
