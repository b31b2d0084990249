"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import stbc_forge as sf
from stbc_forge import (
    build_max_rate_ussd,
    build_square_cod,
    check_ssd,
    check_unitary_weight,
    classify,
    generate_family,
    min_det_bruteforce,
    min_det_closed_form,
    ml_decode_bruteforce,
    product_subset,
    products_commute,
    rotated_qam,
    simulate_cer,
    square_sign,
    ssd_decode,
    transmit_scale,
)

from conftest import golden_4tx_codeword, golden_4tx_family, random_unitary

WILSON_FACTOR = 3.0


def _verdict(num: int, text: str) -> None:
    print(f"\n[criterion {num}] PASS - {text}")


def test_criterion_1_construction_rate():
    start = time.perf_counter()
    for a in (1, 2, 3):
        fam = generate_family(a)
        code = build_max_rate_ussd(a, fam)
        assert code.k == 2 * a
        assert Fraction(code.k, code.n) == Fraction(a, 2 ** (a - 1))
        assert code.is_exact
        assert check_ssd(code).ok          # bit-exact on exact weights
        assert check_unitary_weight(code).ok
        assert code.linearly_independent()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"construction took {elapsed:.2f}s"
    _verdict(1, f"max-rate codes for a=1,2,3: k=2a, rate a/2^(a-1), "
                f"SSD + unitary-weight exact ({elapsed * 1000:.0f} ms)")


def test_criterion_2_golden_codeword():
    fam = golden_4tx_family()  # the pinned 4x4 generators
    code = build_max_rate_ussd(2, fam)
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = code.codeword(x)
        worst = max(worst, float(np.max(np.abs(got - golden_4tx_codeword(x)))))
    assert worst <= 1e-12, f"worst entrywise error {worst:.3e}"
    _verdict(2, f"codeword matches the reference 4x4 layout entrywise "
                f"on 20 random symbol vectors (worst {worst:.1e} <= 1e-12)")


def test_criterion_3_table_of_minimum_determinants():
    start = time.perf_counter()
    fam = generate_family(2)
    ussd4 = build_max_rate_ussd(2, fam)
    ciod4 = sf.build_ciod4()
    cells = []
    for m in (4, 16, 64):
        for code, angle in ((ussd4, sf.optimal_angle()), (ciod4, sf.ciod_optimal_angle())):
            result = min_det_bruteforce(code, rotated_qam(m, angle))
            assert result.reduced, "expected the single-symbol reduction"
            assert abs(result.value - 10.24) <= 1e-6, \
                f"{code.label} on {m}-QAM gave {result.value}"
            cells.append(result.value)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _verdict(3, f"all six minimum determinants equal 10.24 +- 1e-6 "
                f"(spread {max(cells) - min(cells):.2e}, {elapsed:.2f}s)")


def test_criterion_4_closed_form_against_full_enumeration():
    fam = generate_family(1)
    code = build_max_rate_ussd(1, fam)
    rng = np.random.default_rng(41)
    worst = 0.0
    for angle in rng.uniform(0.02, 1.55, 10):
        c = rotated_qam(4, float(angle))
        full = min_det_bruteforce(code, c, force_full=True)
        assert not full.reduced
        closed = min_det_closed_form(c, 2)
        worst = max(worst, abs(full.value - closed))
    assert worst <= 1e-9
    _verdict(4, f"closed form equals the unreduced search on n=2 at 10 "
                f"random angles (worst gap {worst:.1e} <= 1e-9)")


def test_criterion_5_clifford_properties():
    checked_squares = 0
    checked_pairs = 0
    for a in (1, 2, 3):
        fam = generate_family(a)
        eye = np.eye(fam.n)
        indices = list(range(1, 2 * a + 1))
        for r in range(1, 2 * a + 1):
            for subset in itertools.combinations(indices, r):
                p = product_subset(fam, list(subset))
                assert np.array_equal(p @ p, square_sign(r) * eye)  # exact
                assert np.trace(p) == 0                              # exact
                checked_squares += 1
        rng = np.random.default_rng(1000 + a)
        for _ in range(200):
            r = int(rng.integers(1, 2 * a + 1))
            s = int(rng.integers(1, 2 * a + 1))
            s1 = sorted(rng.choice(indices, size=r, replace=False).tolist())
            s2 = sorted(rng.choice(indices, size=s, replace=False).tolist())
            p = len(set(s1) & set(s2))
            m1, m2 = product_subset(fam, s1), product_subset(fam, s2)
            if products_commute(r, s, p):
                assert np.array_equal(m1 @ m2, m2 @ m1)     # exact
            else:
                assert np.array_equal(m1 @ m2, -(m2 @ m1))  # exact
            checked_pairs += 1
    _verdict(5, f"{checked_squares} exhaustive subset squares/traces and "
                f"{checked_pairs} random commutation pairs, all bit-exact")


def test_criterion_6_decoder_equivalence():
    fam = generate_family(2)
    code = build_max_rate_ussd(2, fam)
    constellation = rotated_qam(4, sf.optimal_angle())
    scaled = code.scaled(transmit_scale(code, constellation))
    n0 = 10.0 ** (-10.0 / 10.0)  # SNR 10 dB
    rng = np.random.default_rng(606)
    pts = np.asarray(constellation.points)
    agree = 0
    trials = 1000
    for _ in range(trials):
        x = pts[rng.integers(0, len(pts), size=code.k)]
        h = (rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))) / math.sqrt(2)
        noise = (rng.standard_normal((4, 1))
                 + 1j * rng.standard_normal((4, 1))) * math.sqrt(n0 / 2)
        y = scaled.codeword(x) @ h + noise
        fast = ssd_decode(scaled, y, h, constellation)
        exhaustive = ml_decode_bruteforce(scaled, y, h, constellation)
        agree += int(np.array_equal(fast, exhaustive))
    assert agree == trials, f"only {agree}/{trials} decodes agreed"
    _verdict(6, f"per-symbol and exhaustive ML decoding agree on "
                f"{agree}/{trials} noisy instances at 10 dB")


def test_criterion_7_cer_parity_and_rotation_gain():
    start = time.perf_counter()
    fam = generate_family(2)
    ussd4 = build_max_rate_ussd(2, fam)
    ciod4 = sf.build_ciod4()
    snrs = (4.0, 8.0, 12.0, 16.0, 20.0)
    trials = 100_000
    seed = 20260809  # same stream for every config couples the comparison
    configs = {
        "ussd-rotated": (ussd4, rotated_qam(4, sf.optimal_angle())),
        "ciod-rotated": (ciod4, rotated_qam(4, sf.ciod_optimal_angle())),
        "ussd-unrotated": (ussd4, rotated_qam(4, 0.0)),
    }
    reports = {
        name: simulate_cer(sf.SimConfig(code=code, constellation=con,
                                        snr_db_list=snrs, trials=trials, seed=seed))
        for name, (code, con) in configs.items()
    }
    for snr in snrs:
        a = reports["ussd-rotated"].cer_at(snr)
        b = reports["ciod-rotated"].cer_at(snr)
        gap = abs(a.cer - b.cer)
        limit = WILSON_FACTOR * max(a.ci95, b.ci95)
        assert gap <= limit, f"{snr} dB: |{a.cer} - {b.cer}| > {limit}"
    for snr in (12.0, 16.0, 20.0):
        unrot = reports["ussd-unrotated"].cer_at(snr).cer
        assert reports["ussd-rotated"].cer_at(snr).cer < unrot
        assert reports["ciod-rotated"].cer_at(snr).cer < unrot
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _verdict(7, f"rotated max-rate and interleaved codes agree within "
                f"{WILSON_FACTOR:g} Wilson half-widths at 5 SNRs and beat "
                f"unrotated QAM from 12 dB ({trials} trials/point, {elapsed:.0f}s)")


def test_criterion_8_unitary_invariance():
    fam = generate_family(2)
    code = build_max_rate_ussd(2, fam)
    constellation = rotated_qam(4, sf.optimal_angle())
    base_class = classify(code).code_class
    base_det = min_det_bruteforce(code, constellation).value
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(10):
        moved = code.left_multiply(random_unitary(4, rng))
        assert classify(moved).code_class == base_class
        worst = max(worst, abs(min_det_bruteforce(moved, constellation).value - base_det))
    assert worst <= 1e-9
    _verdict(8, f"classification and minimum determinant unchanged under 10 "
                f"random unitary left-multiplications (worst drift {worst:.1e})")
