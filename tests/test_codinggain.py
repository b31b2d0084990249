"""Minimum determinants: brute force, closed form, energy convention."""

import itertools
import math
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
    gram,
)
from stbc_forge.codinggain import min_det_bruteforce, min_det_closed_form
from stbc_forge.constellations import (Constellation, ciod_optimal_angle, optimal_angle,
                                       rotated_qam, special_8qam)

from conftest import difference_keys, random_unitary


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


def _equal_energy(code):
    """(2 / gain)^n, gain = tr Gamma / (2k): the reported min det over the plain determinant."""
    gamma, e = code.real_gram  # Gamma of the weights times 2^e
    return (2 / (math.ldexp(float(np.trace(gamma)), -2 * e) / (2 * code.k))) ** code.n


def _difference_det(code, difference):
    d = code.codeword(difference)
    return float(np.linalg.det(d.conj().T @ d).real)


def _per_slot_differences(constellation):
    """0 and one difference per key, the last ordered pair of the key, sorted by key."""
    keyed = dict(difference_keys(constellation.points))
    keyed[(0.0, 0.0)] = 0j
    return [keyed[key] for key in sorted(keyed)]


def _itertools_min_det(code, constellation):
    """The unreduced search as one loop over itertools.product (reference).

    The minimum over every nonzero vector of per-slot differences of
    det(D^H D) with D formed from the weights, and the first vector, in
    lexicographic order, within 1e-10 relative of it.
    """
    wi, wq = code.weight_arrays()
    found = []
    for combo in itertools.product(_per_slot_differences(constellation), repeat=code.k):
        if not any(combo):
            continue
        x = np.asarray(combo)
        delta = np.tensordot(x.real, wi, axes=1) + np.tensordot(x.imag, wq, axes=1)
        found.append((float(np.linalg.det(delta.conj().T @ delta).real), combo))
    best = min(v for v, _ in found)
    return best, next(combo for v, combo in found if v - best <= 1e-10 * abs(best))


def test_table_values_4qam(ussd4, ciod4):
    r = min_det_bruteforce(ussd4, rotated_qam(4, optimal_angle()))
    assert r.value == pytest.approx(10.24, abs=1e-6)
    r = min_det_bruteforce(ciod4, rotated_qam(4, ciod_optimal_angle()))
    assert r.value == pytest.approx(10.24, abs=1e-6)


def test_unrotated_qam_gives_zero(ussd4):
    r = min_det_bruteforce(ussd4, rotated_qam(4))
    assert r.value == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("scale, vector", [(1e160, ((-14 - 14j), (-12 - 12j))),
                                           (1e-100, ((-10 - 10j), (-14 - 14j)))])
def test_lost_diversity_reports_no_negative_min_det(ussd2, scale, vector):
    # D^H D is positive semidefinite; a non-power-of-two scale rounds the weights, and
    # the determinant of a singular D^H D rounds to about -1e-11 at these scales.
    # The report is 0, and the vector is the one the tie rule names at the rounded value
    r = min_det_bruteforce(ussd2.scaled(scale), rotated_qam(64), force_full=True)
    assert r.value == 0.0 and math.copysign(1.0, r.value) == 1.0
    assert r.difference == vector


@pytest.mark.filterwarnings("error")
def test_singular_difference_with_a_nan_determinant_reads_zero(ussd4):
    # A_1[1, 0] = 1e-160 leaves D^H D singular at the zero minimum of unrotated QAM4,
    # and numpy's complex det returns NaN, with a divide and an invalid warning, on 12
    # of the 3,280 sums of the unreduced search: they read 0, as exact zeros do
    w = np.array(ussd4.w)
    w[0, 0, 1, 0] = 1e-160
    tiny = LinearDispersionCode(label="ussd4-tiny-entry", n=4, w=w)
    c = rotated_qam(4)
    got = min_det_bruteforce(tiny, c, force_full=True)
    want = min_det_bruteforce(ussd4, c, force_full=True)
    assert got.value == 0.0 == want.value
    assert got.difference == want.difference == ((-2 - 2j),) * 4


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("force_full", [False, True])
@pytest.mark.parametrize("grid_scale", [1e100, 1e200, 1e-100])
def test_a_minimum_outside_the_float_range_is_a_value_error(ussd2, grid_scale, force_full):
    # the minimum scales as grid^(2n): ussd2's 12.8 on rotated QAM4 times 1e+-400 or more
    # is no float.  The search reads the grid times a power of two, so no determinant
    # overflows on the way; it once returned inf, or 0.0 with full_diversity=True
    grid = Constellation("qam4", rotated_qam(4, optimal_angle()).points * grid_scale)
    with pytest.raises(ValueError, match="outside the float range"):
        min_det_bruteforce(ussd2, grid, force_full=force_full)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("force_full", [False, True])
@pytest.mark.parametrize("name, exponent", [("ussd2", 100), ("ussd4", 40), ("ciod4", -60)])
def test_a_power_of_two_grid_scale_is_carried_exactly(name, exponent, force_full, request):
    # the determinants of the grid times 2^e are the grid's times 2^(2 n e), exactly
    code = request.getfixturevalue(name)
    grid = rotated_qam(16, ciod_optimal_angle() if name == "ciod4" else optimal_angle())
    want = min_det_bruteforce(code, grid, force_full=force_full)
    got = min_det_bruteforce(code, Constellation("qam16", grid.points * 2.0 ** exponent),
                             force_full=force_full)
    assert got.value == math.ldexp(want.value, 2 * code.n * exponent) > 0.0
    assert got.difference == tuple(d * 2.0 ** exponent for d in want.difference)
    assert (got.reduced, got.full_diversity) == (want.reduced, want.full_diversity)


def test_energy_convention_factor(ussd4, ciod4, ussd2, cod2):
    # unitary weights on 4 antennas carry dispersion gain tr Gamma / (2k) = 4 -> factor 16
    for code, gain in ((ussd4, 4.0), (ciod4, 2.0), (ussd2, 2.0), (cod2, 2.0)):
        assert np.trace(code.real_gram[0]) / (2 * code.k) == pytest.approx(gain)
    assert _equal_energy(ussd4) == pytest.approx(1 / 16)
    c = rotated_qam(4, optimal_angle())
    fair = min_det_bruteforce(ussd4, c)
    raw = _difference_det(ussd4, fair.difference)
    assert raw == pytest.approx(163.84, abs=1e-6)
    assert raw == pytest.approx(16 * fair.value, rel=1e-9)


def test_achieving_difference_consistent(ussd4):
    c = rotated_qam(4, optimal_angle())
    r = min_det_bruteforce(ussd4, c)
    delta = ussd4.codeword(r.difference)
    det = float(np.linalg.det(delta.conj().T @ delta).real)
    assert det * _equal_energy(ussd4) == pytest.approx(r.value, rel=1e-9)
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
    direct = min_det_closed_form(rot, 4)
    product_form = min(abs(2 * d.real * d.imag) ** 4 for d in base.differences()) * (2 / 4) ** 4
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
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1), linear=st.booleans())
@settings(max_examples=60, deadline=None)
# x and -x once took dets in blocks of two rows and of one, whose BLAS kernels
# round apart, so the block shape decided their exact tie
@example(n=2, k=1, chunk=2, angle=0.25, seed=11116, linear=False)
# the differences of one modulus tie, and rounding once chose among them
@example(n=3, k=1, chunk=3, angle=0.3, seed=0, linear=True)
def test_unreduced_search_matches_itertools_loop(n, k, chunk, angle, seed, linear):
    # random non-SSD weights, or complex-linear ones (B_i = j A_i, so det D^H D is
    # |d|^2n |det A|^2 for k = 1); blocks of 1-7 vectors put ties across blocks
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((k, 2, n, n)) + 1j * rng.standard_normal((k, 2, n, n))
    if linear:
        w[:, 1] = 1j * w[:, 0]
    code = LinearDispersionCode(label="random", n=n, w=w)
    c = rotated_qam(4, angle)
    want, first = _itertools_min_det(code, c)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codinggain, "_FULL_CHUNK", chunk)
        got = min_det_bruteforce(code, c, force_full=True)
    assert not got.reduced
    assert got.value == pytest.approx(want * _equal_energy(code), rel=1e-9)
    assert _difference_det(code, got.difference) * _equal_energy(code) == \
        pytest.approx(got.value, rel=1e-9)
    # x and -x tie exactly; the search names the first tied vector in lexicographic order
    assert got.difference == first


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
    reduced = min_det_bruteforce(code, c)
    full = min_det_bruteforce(code, c, force_full=True)
    assert reduced.reduced and not full.reduced
    assert reduced.value == pytest.approx(full.value, rel=1e-9)
    assert reduced.value == pytest.approx(0.5 ** 8 * 163.84 * _equal_energy(code), rel=1e-9)
    assert [d != 0 for d in reduced.difference] == [False, True, False, False]


def test_full_search_agrees_with_pairwise_oracle(ussd2):
    c = rotated_qam(4, 0.7)
    assert min_det_bruteforce(ussd2, c, force_full=True).value == \
        pytest.approx(_pairwise_min_det(ussd2, c) * _equal_energy(ussd2), rel=1e-9)


_INVARIANCE_CODES = {
    "ussd2": build_max_rate_ussd(1, generate_family(1)),
    "ussd4": build_max_rate_ussd(2, generate_family(2)),
    "ussd8": build_max_rate_ussd(3, generate_family(3)),
    "cod4": build_square_cod(2, generate_family(2)),
    "ciod4": build_ciod4(),
}


@pytest.mark.parametrize("name", ["ussd2", "ciod4"])
@pytest.mark.parametrize("scale", [1e-13, 1e13])
def test_unreduced_search_keys_differences_relative(name, scale):
    # differences of 1e-13 once all rounded to the zero key, and the search found no vector
    code = _INVARIANCE_CODES[name]
    base = rotated_qam(4, ciod_optimal_angle() if name == "ciod4" else optimal_angle())
    c = Constellation(name="tiny", points=tuple(p * scale for p in base.points))
    full = min_det_bruteforce(code, c, force_full=True)
    assert full.value == pytest.approx(min_det_bruteforce(code, c).value, rel=1e-9)
    assert any(full.difference)


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


@pytest.mark.parametrize("name", ["ussd4", "ciod4"])
def test_achieving_difference_invariant_under_scale(name):
    # determinants tied with the minimum up to rounding are one tie: the first in the
    # sorted difference order is reported, whichever of them rounding makes smallest
    code = _INVARIANCE_CODES[name]
    angle = ciod_optimal_angle() if name == "ciod4" else optimal_angle()
    want = {"ussd4": {4: "-2.406004-1.486992j", 16: "-5.271513-4.920482j"},
            "ciod4": {4: "-2.752764+0.649839j", 16: "-7.206829+0.248217j"}}[name]
    # the unreduced search too, on QAM4 (6,561 vectors)
    for size, force_full in ((4, False), (16, False), (4, True)):
        got = {tuple(f"{d.real:+.6f}{d.imag:+.6f}j" for d in
                     min_det_bruteforce(code.scaled(s), rotated_qam(size, angle),
                                        force_full=force_full).difference)
               for s in (1.0, 3.0, 1e160, 1e-100, 2.0 ** -900)}
        assert got == {(want[size],) + ("+0.000000+0.000000j",) * 3}  # as coding-gain prints it


@pytest.mark.parametrize("name", ["ussd4", "ciod4", "cod4"])
def test_both_searches_name_one_vector(name):
    # one tie rule: the first vector in lexicographic order within the one tolerance, which
    # the single-symbol search's slot-major order over the first half already is
    code = _INVARIANCE_CODES[name]
    auto = ciod_optimal_angle() if name == "ciod4" else optimal_angle()
    for angle in (auto, 0.3):
        for c in (rotated_qam(4, angle), special_8qam("rect", angle),
                  special_8qam("square-derived", angle)):
            reduced = min_det_bruteforce(code, c)
            full = min_det_bruteforce(code, c, force_full=True)
            assert reduced.reduced and not full.reduced
            assert full.value == pytest.approx(reduced.value, rel=1e-9)
            assert full.difference == reduced.difference


@pytest.mark.parametrize("name", ["ussd4", "ciod4"])
@pytest.mark.parametrize("force_full", [False, True])
def test_full_diversity_verdict(name, force_full):
    # unrotated QAM4 loses full diversity on both codes (ussd4 on a 45 degree line, ciod4
    # on an axis); the code's auto angle keeps it
    code = _INVARIANCE_CODES[name]
    auto = ciod_optimal_angle() if name == "ciod4" else optimal_angle()
    lost = min_det_bruteforce(code, rotated_qam(4, 0.0), force_full=force_full)
    assert lost.value == 0.0 and not lost.full_diversity
    kept = min_det_bruteforce(code, rotated_qam(4, auto), force_full=force_full)
    assert kept.value == pytest.approx(10.24) and kept.full_diversity


@pytest.mark.parametrize("name", ["ussd4", "ciod4"])
def test_unreduced_search_evaluates_each_pair_once(name, monkeypatch):
    # one of each pair x, -x and no block evaluated twice: (9^4 - 1) / 2 determinants
    rows, original = [], codinggain._difference_dets

    def counted(m, s):
        rows.append(len(s))
        return original(m, s)

    monkeypatch.setattr(codinggain, "_difference_dets", counted)
    angle = ciod_optimal_angle() if name == "ciod4" else optimal_angle()
    min_det_bruteforce(_INVARIANCE_CODES[name], rotated_qam(4, angle), force_full=True)
    assert sum(rows) == 3280


def test_reduced_search_names_first_of_each_pair(ussd4, ciod4, cod4):
    # x and -x give the same D^H D: the search reads the first half of the sorted
    # differences, one of each pair, and its minimum is that of all of them
    for code in (ussd4, ciod4, cod4):
        for c in (rotated_qam(4, 0.3), special_8qam("rect", 0.3), rotated_qam(16, 0.3)):
            d = c.differences()
            r = min_det_bruteforce(code, c)
            (slot, x), = ((i, x) for i, x in enumerate(r.difference) if x)
            assert list(d).index(x) < len(d) // 2
            dets = [_difference_det(code, [y if i == slot else 0 for i in range(code.k)])
                    for y in d]
            assert r.value == pytest.approx(min(dets) * _equal_energy(code), rel=1e-9)


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
    terms = gram(code.w)  # each slot's three pair terms
    dets = np.stack([codinggain._difference_dets(terms[i], s) for i in range(code.k)])
    return float(dets.min()) * _equal_energy(code)


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
