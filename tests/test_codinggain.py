"""Minimum determinants: brute force, closed form, energy convention."""

import itertools

import numpy as np
import pytest

from stbc_forge.codes import LinearDispersionCode
from stbc_forge.codinggain import (
    dispersion_gain,
    eigen_split,
    min_det_bruteforce,
    min_det_closed_form,
)
from stbc_forge.constellations import ciod_optimal_angle, optimal_angle, rotated_qam
from stbc_forge.gmatrix import GaussianMatrix

from conftest import random_unitary


def _pairwise_min_det(code, constellation):
    """Literal enumeration over ordered codeword-vector pairs (test oracle)."""
    pts = list(constellation.points)
    best = np.inf
    for xa in itertools.product(pts, repeat=code.k):
        sa = code.codeword(xa).to_array()
        for xb in itertools.product(pts, repeat=code.k):
            if xa == xb:
                continue
            d = sa - code.codeword(xb).to_array()
            best = min(best, float(np.linalg.det(d.conj().T @ d).real))
    return best


def test_table_values_4qam(ussd4, ciod4):
    r = min_det_bruteforce(ussd4, rotated_qam(4, optimal_angle()))
    assert r.value == pytest.approx(10.24, abs=1e-6)
    r = min_det_bruteforce(ciod4, rotated_qam(4, ciod_optimal_angle()))
    assert r.value == pytest.approx(10.24, abs=1e-6)


def test_unrotated_qam_gives_zero(ussd4):
    r = min_det_bruteforce(ussd4, rotated_qam(4))
    assert r.value == pytest.approx(0.0, abs=1e-9)


def test_energy_convention_factor(ussd4, ciod4, ussd2, cod2):
    # unitary weights on 4 antennas carry dispersion gain 4 -> factor 16
    assert dispersion_gain(ussd4) == pytest.approx(4.0)
    assert dispersion_gain(ciod4) == pytest.approx(2.0)
    assert dispersion_gain(ussd2) == pytest.approx(2.0)
    assert dispersion_gain(cod2) == pytest.approx(2.0)
    c = rotated_qam(4, optimal_angle())
    raw = min_det_bruteforce(ussd4, c, equal_energy=False)
    fair = min_det_bruteforce(ussd4, c)
    assert raw.value == pytest.approx(163.84, abs=1e-6)
    assert raw.value == pytest.approx(16 * fair.value, rel=1e-9)


def test_achieving_difference_consistent(ussd4):
    c = rotated_qam(4, optimal_angle())
    r = min_det_bruteforce(ussd4, c, equal_energy=False)
    delta = ussd4.codeword(r.difference).to_array()
    det = float(np.linalg.det(delta.conj().T @ delta).real)
    assert det == pytest.approx(r.value, rel=1e-9)
    assert sum(1 for d in r.difference if d != 0) == 1  # single active slot


def test_closed_form_matches_full_search_two_antennas(ussd2):
    rng = np.random.default_rng(71)
    for angle in rng.uniform(0.05, 1.5, 10):
        c = rotated_qam(4, float(angle))
        full = min_det_bruteforce(ussd2, c, force_full=True)
        closed = min_det_closed_form(c, 2)
        assert abs(full.value - closed) < 1e-9
        assert not full.reduced


def test_closed_form_matches_reduced_search_four_antennas(ussd4):
    rng = np.random.default_rng(73)
    for angle in rng.uniform(0.05, 1.5, 10):
        c = rotated_qam(4, float(angle))
        reduced = min_det_bruteforce(ussd4, c)
        closed = min_det_closed_form(c, 4)
        assert abs(reduced.value - closed) < 1e-9


def test_closed_form_pi_over_4_equals_product_distance_form():
    # rotating by pi/4 turns |d_I^2 - d_Q^2| into |2 e_I e_Q| of the
    # unrotated differences
    base = rotated_qam(4)
    rot = rotated_qam(4, np.pi / 4)
    direct = min_det_closed_form(rot, 4, equal_energy=False)
    product_form = min(abs(2 * d.real * d.imag) ** 4 for d in base.differences())
    assert direct == pytest.approx(product_form, rel=1e-12)


def test_closed_form_zero_without_diversity():
    assert min_det_closed_form(rotated_qam(4), 4) == 0.0
    with pytest.raises(ValueError):
        min_det_closed_form(rotated_qam(4), 3)


def test_reduction_matches_full_search(ussd2, ciod4):
    # single-symbol reduction validated against the unreduced enumeration
    c2 = rotated_qam(4, optimal_angle())
    full = min_det_bruteforce(ussd2, c2, force_full=True)
    reduced = min_det_bruteforce(ussd2, c2)
    assert abs(full.value - reduced.value) < 1e-9
    c4 = rotated_qam(4, ciod_optimal_angle())
    full = min_det_bruteforce(ciod4, c4, force_full=True)
    reduced = min_det_bruteforce(ciod4, c4)
    assert abs(full.value - reduced.value) < 1e-9


def test_full_search_agrees_with_pairwise_oracle(ussd2):
    c = rotated_qam(4, 0.7)
    assert min_det_bruteforce(ussd2, c, force_full=True, equal_energy=False).value == \
        pytest.approx(_pairwise_min_det(ussd2, c), rel=1e-9)


def test_min_det_invariant_under_unitary(ussd4):
    c = rotated_qam(4, optimal_angle())
    want = min_det_bruteforce(ussd4, c).value
    rng = np.random.default_rng(79)
    for _ in range(10):
        moved = ussd4.left_multiply(random_unitary(4, rng))
        got = min_det_bruteforce(moved, c).value
        assert abs(got - want) < 1e-9


def test_budget_error(ussd4):
    c = rotated_qam(16, optimal_angle())
    with pytest.raises(ValueError):
        min_det_bruteforce(ussd4, c, force_full=True, budget=1000)


def test_empty_code_rejected():
    empty = LinearDispersionCode(label="empty", n=2, weights=())
    with pytest.raises(ValueError):
        min_det_bruteforce(empty, rotated_qam(4))


def test_eigen_split(ussd4, ussd8):
    assert eigen_split(ussd4.weights[0][1]) == (2, 2)
    assert eigen_split(ussd8.weights[0][1]) == (4, 4)
    assert eigen_split(GaussianMatrix.identity(4)) == (4, 0)
    with pytest.raises(ValueError):
        eigen_split(ussd4.weights[1][0])  # anti-Hermitian, not Hermitian
    with pytest.raises(ValueError):
        eigen_split(np.eye(4) * 0.5)
