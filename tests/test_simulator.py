"""Channel statistics, decoders, and the Monte Carlo sweep."""

import math

import numpy as np
import pytest

from stbc_forge.codes import LinearDispersionCode
from stbc_forge.constellations import ciod_optimal_angle, optimal_angle, rotated_qam
from stbc_forge.gmatrix import GaussianMatrix
from stbc_forge.simulator import (
    SimConfig,
    _slot_metrics,
    ml_decode_bruteforce,
    simulate_cer,
    ssd_decode,
    transmit_scale,
    wilson_halfwidth,
)


def test_transmit_scale(ussd4, ciod4):
    unit = rotated_qam(4, optimal_angle(), "unit-average")
    assert transmit_scale(ussd4, unit) == pytest.approx(0.5)
    assert transmit_scale(ciod4, unit) == pytest.approx(1 / math.sqrt(2))
    raw = rotated_qam(4, optimal_angle())  # mean energy 2
    assert transmit_scale(ussd4, raw) == pytest.approx(0.5 / math.sqrt(2))


def test_ssd_decode_noiseless(ussd4):
    c = rotated_qam(4, optimal_angle(), "unit-average")
    rng = np.random.default_rng(11)
    pts = np.asarray(c.points)
    for _ in range(25):
        x = pts[rng.integers(0, 4, size=4)]
        h = (rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))) / math.sqrt(2)
        y = ussd4.codeword(x).to_array() @ h
        got = ssd_decode(ussd4, y, h, c)
        assert np.array_equal(got, x)


def test_ssd_decode_complexity_contract(ussd4):
    c = rotated_qam(4, optimal_angle(), "unit-average")
    rng = np.random.default_rng(13)
    h = (rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))) / math.sqrt(2)
    y = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    metrics = _slot_metrics(ussd4, y, h, c)
    assert metrics.shape == (ussd4.k, len(c))  # exactly k * |A| evaluations


def test_ssd_decode_rejects_non_ssd():
    # two symbols interfering on the same antenna: not single-symbol decodable
    a1 = GaussianMatrix.exact([[1, 0], [0, 0]])
    a2 = GaussianMatrix.exact([[0, 1], [1, 0]])
    code = LinearDispersionCode(label="blast-ish", n=2, weights=(
        (a1, a1.scale(1j)), (a2, a2.scale(1j))))
    c = rotated_qam(4, 0.0, "unit-average")
    with pytest.raises(ValueError):
        ssd_decode(code, np.zeros((2, 1)), np.ones((2, 1)), c)


def test_per_slot_decoding_fails_without_ssd():
    # negative control: on a non-SSD code the per-slot argmin disagrees
    # with exhaustive ML for some noisy instance
    a1 = GaussianMatrix.exact([[1, 0], [0, 0]])
    a2 = GaussianMatrix.exact([[0, 1], [1, 0]])
    code = LinearDispersionCode(label="blast-ish", n=2, weights=(
        (a1, a1.scale(1j)), (a2, a2.scale(1j))))
    c = rotated_qam(4, 0.0, "unit-average")
    pts = np.asarray(c.points)
    rng = np.random.default_rng(17)
    disagreements = 0
    for _ in range(200):
        x = pts[rng.integers(0, 4, size=2)]
        h = (rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))) / math.sqrt(2)
        noise = (rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))) * 0.4
        y = code.codeword(x).to_array() @ h + noise
        per_slot = pts[np.argmin(_slot_metrics(code, y, h, c), axis=1)]
        ml = ml_decode_bruteforce(code, y, h, c)
        if not np.array_equal(per_slot, ml):
            disagreements += 1
    assert disagreements > 0


def test_decoders_agree_on_ssd_code(ussd4, ussd2):
    c = rotated_qam(4, optimal_angle(), "unit-average")
    rng = np.random.default_rng(19)
    for code in (ussd2, ussd4):
        scaled = code.scaled(transmit_scale(code, c))
        n = code.n
        pts = np.asarray(c.points)
        for _ in range(1000):
            x = pts[rng.integers(0, 4, size=code.k)]
            h = (rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))) / math.sqrt(2)
            noise = (rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))) * 0.2
            y = scaled.codeword(x).to_array() @ h + noise
            assert np.array_equal(ssd_decode(scaled, y, h, c),
                                  ml_decode_bruteforce(scaled, y, h, c))


def test_ml_budget():
    a1 = GaussianMatrix.identity(2)
    code = LinearDispersionCode(label="c", n=2, weights=((a1, a1.scale(1j)),) * 10)
    c = rotated_qam(4, 0.3, "unit-average")
    with pytest.raises(ValueError):
        ml_decode_bruteforce(code, np.zeros((2, 1)), np.ones((2, 1)), c, budget=100)


def test_simulate_cer_reproducible(ussd4):
    c = rotated_qam(4, optimal_angle(), "unit-average")
    config = SimConfig(code=ussd4, constellation=c, snr_db_list=(6.0, 10.0),
                       trials=2000, seed=424242)
    r1 = simulate_cer(config)
    r2 = simulate_cer(config)
    assert r1 == r2
    assert all(0 <= p.cer <= 1 and p.errors <= p.trials for p in r1.points)


def test_simulate_cer_vanishes_at_high_snr(ussd4):
    c = rotated_qam(4, optimal_angle(), "unit-average")
    config = SimConfig(code=ussd4, constellation=c, snr_db_list=(60.0,),
                       trials=2000, seed=3)
    assert simulate_cer(config).points[0].errors == 0


def test_simulate_decoders_identical_on_ssd(ciod4):
    c = rotated_qam(4, ciod_optimal_angle(), "unit-average")
    kwargs = dict(code=ciod4, constellation=c, snr_db_list=(8.0,), trials=400, seed=11)
    ssd = simulate_cer(SimConfig(decoder="ssd", **kwargs))
    ml = simulate_cer(SimConfig(decoder="brute-ml", **kwargs))
    assert ssd.points[0].errors == ml.points[0].errors


def test_simulate_rotated_beats_unrotated(ussd4):
    rot = rotated_qam(4, optimal_angle(), "unit-average")
    unrot = rotated_qam(4, 0.0, "unit-average")
    snrs = (16.0,)
    a = simulate_cer(SimConfig(code=ussd4, constellation=rot, snr_db_list=snrs,
                               trials=20000, seed=5))
    b = simulate_cer(SimConfig(code=ussd4, constellation=unrot, snr_db_list=snrs,
                               trials=20000, seed=5))
    assert a.points[0].cer < b.points[0].cer


def test_high_snr_slope_shows_full_diversity(ussd4):
    # between the two highest SNR points the log-log slope must exceed
    # 3 decades per 10 dB: the full-diversity asymptote is 4, a
    # diversity-2 code (e.g. unrotated QAM) would give about 2, so 3 is
    # the documented soft threshold separating them; 4e5 trials keep
    # enough error events at 20 dB for the pinned seed to clear it
    c = rotated_qam(4, optimal_angle(), "unit-average")
    config = SimConfig(code=ussd4, constellation=c, snr_db_list=(16.0, 20.0),
                       trials=400_000, seed=20260809)
    lo, hi = simulate_cer(config).points
    assert lo.errors > 0
    if hi.errors == 0:
        return  # slope unbounded: even steeper than required
    slope = (math.log10(lo.cer) - math.log10(hi.cer)) / ((20.0 - 16.0) / 10.0)
    assert slope > 3.0, f"slope {slope:.2f} decades/10dB"


def test_simulate_8qam_at_3_bpcu(ussd4):
    # rect 8-QAM has unequal I/Q second moments and a nonzero cross
    # moment once rotated; the energy scaling must absorb both
    from stbc_forge.constellations import special_8qam

    for kind in ("rect", "square-derived"):
        c = special_8qam(kind, optimal_angle(), "unit-average")
        config = SimConfig(code=ussd4, constellation=c, snr_db_list=(14.0,),
                           trials=2000, seed=77)
        point = simulate_cer(config).points[0]
        assert 0.0 < point.cer < 1.0


def test_config_validation(ussd4):
    c = rotated_qam(4, 0.0, "unit-average")
    with pytest.raises(ValueError):
        SimConfig(code=ussd4, constellation=c, snr_db_list=(), trials=10, seed=1)
    with pytest.raises(ValueError):
        SimConfig(code=ussd4, constellation=c, snr_db_list=(1.0,), trials=0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(code=ussd4, constellation=c, snr_db_list=(1.0,), trials=10,
                  seed=1, decoder="genie")


def test_wilson_halfwidth():
    assert wilson_halfwidth(0, 1000) > 0
    mid = wilson_halfwidth(500, 1000)
    assert mid == pytest.approx(1.96 * math.sqrt(0.25 / 1000), rel=0.01)
    assert wilson_halfwidth(10, 1000) < mid
