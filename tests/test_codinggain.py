"""Minimum determinants: brute force, closed form, energy convention."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stbc_forge import codinggain
from stbc_forge.clifford import generate_family
from stbc_forge.codes import (
    LinearDispersionCode,
    build_ciod4,
    build_max_rate_ussd,
    build_square_cod,
)
from stbc_forge.codinggain import dispersion_gain, min_det_bruteforce, min_det_closed_form
from stbc_forge.constellations import ciod_optimal_angle, optimal_angle, rotated_qam, special_8qam

from conftest import random_unitary


def _pairwise_min_det(code, constellation):
    """Literal enumeration over ordered codeword-vector pairs (test oracle)."""
    pts = list(constellation.points)
    best = np.inf
    for xa in itertools.product(pts, repeat=code.k):
        sa = code.codeword(xa)
        for xb in itertools.product(pts, repeat=code.k):
            if xa == xb:
                continue
            d = sa - code.codeword(xb)
            best = min(best, float(np.linalg.det(d.conj().T @ d).real))
    return best


def _difference_det(code, difference):
    d = code.codeword(difference)
    return float(np.linalg.det(d.conj().T @ d).real)


def _per_slot_differences(constellation):
    uniq = {(round(d.real, 12), round(d.imag, 12)): d for d in constellation.differences()}
    uniq[(0.0, 0.0)] = 0j
    return [uniq[key] for key in sorted(uniq)]


def _itertools_min_det(code, constellation):
    """The unreduced search as one loop over itertools.product (reference).

    The first minimum over every nonzero vector of per-slot differences, in
    lexicographic order, of det(D^H D) with D formed from the weights.
    """
    wi, wq = code.weight_arrays()
    best, best_diff = np.inf, ()
    for combo in itertools.product(_per_slot_differences(constellation), repeat=code.k):
        if not any(combo):
            continue
        x = np.asarray(combo)
        delta = np.tensordot(x.real, wi, axes=1) + np.tensordot(x.imag, wq, axes=1)
        v = float(np.linalg.det(delta.conj().T @ delta).real)
        if v < best:
            best, best_diff = v, combo
    return best, best_diff


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
    assert dispersion_gain(ussd4.w) == pytest.approx(4.0)
    assert dispersion_gain(ciod4.w) == pytest.approx(2.0)
    assert dispersion_gain(ussd2.w) == pytest.approx(2.0)
    assert dispersion_gain(cod2.w) == pytest.approx(2.0)
    c = rotated_qam(4, optimal_angle())
    raw = min_det_bruteforce(ussd4, c, equal_energy=False)
    fair = min_det_bruteforce(ussd4, c)
    assert raw.value == pytest.approx(163.84, abs=1e-6)
    assert raw.value == pytest.approx(16 * fair.value, rel=1e-9)


def test_achieving_difference_consistent(ussd4):
    c = rotated_qam(4, optimal_angle())
    r = min_det_bruteforce(ussd4, c, equal_energy=False)
    delta = ussd4.codeword(r.difference)
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


def test_reduction_exact_on_ussd8(ussd8):
    # 9^6 = 531441 difference vectors: reduced == unreduced == closed form
    c = rotated_qam(4, optimal_angle())
    full = min_det_bruteforce(ussd8, c, force_full=True)
    reduced = min_det_bruteforce(ussd8, c)
    closed = min_det_closed_form(c, 8)
    assert not full.reduced and reduced.reduced
    assert full.value == pytest.approx(closed, rel=1e-9)
    assert reduced.value == pytest.approx(closed, rel=1e-9)
    scale = (2 / 8) ** 8  # equal-energy factor of unitary weights on 8 antennas
    assert _difference_det(ussd8, full.difference) * scale == pytest.approx(closed, rel=1e-9)


@given(n=st.sampled_from([2, 3]), k=st.integers(min_value=1, max_value=2),
       chunk=st.integers(min_value=1, max_value=7),
       angle=st.floats(min_value=0.0, max_value=1.6),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
# x and -x once took dets in blocks of two rows and of one, whose BLAS kernels
# round apart, so the block shape decided their exact tie
@example(n=2, k=1, chunk=2, angle=0.25, seed=11116)
def test_unreduced_search_matches_itertools_loop(n, k, chunk, angle, seed):
    # random non-SSD weights; blocks of 1-7 vectors put ties across blocks
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((k, 2, n, n)) + 1j * rng.standard_normal((k, 2, n, n))
    code = LinearDispersionCode(label="random", n=n, w=w)
    c = rotated_qam(4, angle)
    want, _ = _itertools_min_det(code, c)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codinggain, "_FULL_CHUNK", chunk)
        got = min_det_bruteforce(code, c, force_full=True, equal_energy=False)
    assert not got.reduced
    assert got.value == pytest.approx(want, rel=1e-9)
    assert _difference_det(code, got.difference) == pytest.approx(got.value, rel=1e-9)
    # x and -x tie exactly; the search reports the one first in lexicographic order
    order = {d: i for i, d in enumerate(_per_slot_differences(c))}
    position = [order[d] for d in got.difference]
    assert position <= [len(order) - 1 - i for i in position]


def test_unreduced_search_memory_bounded(cod4):
    # the peak follows the block size, not the number of difference vectors
    peaks = []
    for c in (special_8qam("rect", 0.3), rotated_qam(16, 0.3)):  # 21^3 and 49^3 vectors
        tracemalloc.start()
        try:
            min_det_bruteforce(cod4, c, force_full=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 8 * 2 ** 20
    assert peaks[1] < 1.25 * peaks[0]


def test_reduction_reads_each_slot(ussd4):
    # halving slot 2's weights keeps the code SSD and moves the minimum there
    w = ussd4.w.copy()
    w[1] *= 0.5
    code = LinearDispersionCode(label="uneven", n=4, w=w)
    c = rotated_qam(4, optimal_angle())
    reduced = min_det_bruteforce(code, c, equal_energy=False)
    full = min_det_bruteforce(code, c, force_full=True, equal_energy=False)
    assert reduced.reduced and not full.reduced
    assert reduced.value == pytest.approx(full.value, rel=1e-9)
    assert reduced.value == pytest.approx(0.5 ** 8 * 163.84, rel=1e-9)
    assert [d != 0 for d in reduced.difference] == [False, True, False, False]


def test_full_search_agrees_with_pairwise_oracle(ussd2):
    c = rotated_qam(4, 0.7)
    assert min_det_bruteforce(ussd2, c, force_full=True, equal_energy=False).value == \
        pytest.approx(_pairwise_min_det(ussd2, c), rel=1e-9)


_INVARIANCE_CODES = {
    "ussd2": build_max_rate_ussd(1, generate_family(1)),
    "ussd4": build_max_rate_ussd(2, generate_family(2)),
    "ussd8": build_max_rate_ussd(3, generate_family(3)),
    "cod4": build_square_cod(2, generate_family(2)),
    "ciod4": build_ciod4(),
}


@given(name=st.sampled_from(sorted(_INVARIANCE_CODES)),
       scale=st.floats(min_value=1e-2, max_value=1e2),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_min_det_invariant_under_unitary(name, scale, seed):
    # the equal-energy min det ignores a unitary left-multiply and a uniform scale
    code = _INVARIANCE_CODES[name]
    c = rotated_qam(4, ciod_optimal_angle() if name == "ciod4" else optimal_angle())
    want = min_det_bruteforce(code, c).value
    u = random_unitary(code.n, np.random.default_rng(seed))
    for moved in (code.left_multiply(u), code.scaled(scale), code.left_multiply(u).scaled(scale)):
        got = min_det_bruteforce(moved, c).value
        assert abs(got - want) < 1e-9


def test_budget_error(ussd4):
    c = rotated_qam(64, optimal_angle())  # 225^4 difference vectors, over FULL_SEARCH_BUDGET
    with pytest.raises(ValueError, match="over budget"):
        min_det_bruteforce(ussd4, c, force_full=True)


def _slot_hermitians(code):
    """Each slot's H_i = A_i^H B_i + B_i^H A_i, (k, n, n), by plain products."""
    a, b = code.w[:, 0], code.w[:, 1]
    return np.conj(a.swapaxes(1, 2)) @ b + np.conj(b.swapaxes(1, 2)) @ a


def _builtin(family, a):
    return (build_max_rate_ussd if family == "ussd" else build_square_cod)(a, generate_family(a))


@pytest.mark.parametrize("a", [1, 2, 3, 4, 5])
def test_slot_spectra(a):
    # H_i = A_i^H B_i + B_i^H A_i: +-2c split n/2 : n/2 on every ussd slot, 0 on every cod slot
    n = 2 ** a
    lam = np.linalg.eigvalsh(_slot_hermitians(_builtin("ussd", a)))
    assert np.allclose(lam, np.repeat([-2.0, 2.0], n // 2), atol=1e-12)
    assert not np.any(_slot_hermitians(_builtin("cod", a)))


def _determinant_route(code, constellation):
    """The reduced search's minimum by one determinant per slot and unique difference."""
    diffs = np.array([d for d in _per_slot_differences(constellation) if d])
    s = np.stack((diffs.real, diffs.imag), axis=1)
    dets = np.stack([codinggain._difference_dets(*codinggain._pair_terms(code.w[i:i + 1]), s)
                     for i in range(code.k)])
    return float(dets.min()) * (2 / dispersion_gain(code.w)) ** code.n


@pytest.mark.parametrize("family", ["ussd", "cod"])
@pytest.mark.parametrize("a", [1, 2, 3, 4, 5])
def test_spectral_route_matches_determinants(family, a):
    code = _builtin(family, a)
    for size in (4, 16, 64):
        for angle in (optimal_angle(), 0.0, 0.3):
            c = rotated_qam(size, angle)
            want = _determinant_route(code, c)
            got = min_det_bruteforce(code, c).value
            if want == 0.0 or got == 0.0:
                assert got == want, (size, angle)
            else:
                assert got == pytest.approx(want, rel=1e-9), (size, angle)
            # only unrotated QAM meets the 45 degree line, and only ussd has -2c eigenvalues
            assert (got == 0.0) == (family == "ussd" and angle == 0.0), (size, angle)


def test_spectral_route_on_uneven_spectrum():
    # one slot, A = I and B = diag(1, 1, 1, -1): H has the spectrum (-2, 2, 2, 2), which
    # is not symmetric, so the sign of d_I d_Q matters
    w = np.stack((np.eye(4), np.diag([1.0, 1.0, 1.0, -1.0])))[None]
    code = LinearDispersionCode(label="uneven-spectrum", n=4, w=w)
    for angle in (optimal_angle(), 0.0, 0.3, 1.0):
        c = rotated_qam(16, angle)
        got = min_det_bruteforce(code, c)
        assert got.value == pytest.approx(_determinant_route(code, c), rel=1e-9, abs=0.0)
        d = got.difference[0]
        want = (d.real ** 2 + d.imag ** 2 + 2 * d.real * d.imag) ** 3 \
            * (d.real ** 2 + d.imag ** 2 - 2 * d.real * d.imag) * (2 / 4) ** 4
        assert got.value == pytest.approx(want, rel=1e-9, abs=0.0)


def test_route_by_verdicts(ussd4, ussd8, cod4, ciod4, monkeypatch):
    # unitary-weight SSD codes and CODs take the spectral route, other SSD codes the
    # determinant route; no code takes both
    calls = []
    dets = codinggain._difference_dets
    monkeypatch.setattr(codinggain, "_difference_dets",
                        lambda *args: calls.append(1) or dets(*args))
    uneven = ussd4.w.copy()
    uneven[1] *= 0.5  # the code of test_reduction_reads_each_slot
    c = rotated_qam(4, optimal_angle())
    for code, spectral in ((ussd4, True), (ussd8, True), (cod4, True), (ciod4, False),
                           (LinearDispersionCode(label="uneven", n=4, w=uneven), False)):
        calls.clear()
        assert min_det_bruteforce(code, c).reduced
        assert (not calls) == spectral, code.label
