"""Channel statistics, decoders, and the Monte Carlo sweep."""

import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stbc_forge import simulator
from stbc_forge.clifford import generate_family
from stbc_forge.codes import (LinearDispersionCode, _encode, build_ciod4, build_max_rate_ussd,
                              build_square_cod, gram)
from stbc_forge.constellations import (Constellation, ciod_optimal_angle, optimal_angle,
                                       rotated_qam, special_8qam)
from stbc_forge.gmatrix import _frobenius, _negligible, _pow2_scaled
from stbc_forge.simulator import (
    _CHUNK,
    SimConfig,
    _add_signal,
    _basis,
    _block_flags,
    _chunks,
    _coefficients,
    _decoder,
    _draw_cn,
    _fade_energies,
    _noise_power,
    _pair_basis,
    _pair_rows,
    _represents,
    _screen,
    _tables,
    _transmit_scale,
    _uncleared,
    _unit_rows,
    _Workspace,
    _write_noise,
    _wrong,
    ml_decode_bruteforce,
    simulate_cer,
    ssd_decode,
    transmit_scale,
    wilson_halfwidth,
)
from stbc_forge.verifier import check_ssd, classify

from conftest import random_unitary
from survey_pins import (SURVEY, SURVEY_SEED, SURVEY_SNRS, SURVEY_TRIALS, SURVEY_V1,
                         SURVEY_V2)


def _coefs(tables, z, h):
    """``_coefficients`` of the T blocks z, h, in fresh buffers."""
    t, n, m = h.shape
    lm = tables.proj.shape[1]
    return _coefficients(tables, z, h, np.empty((t, n, m), dtype=complex),
                         np.empty((t, n, n), dtype=complex), np.empty((t, lm), dtype=complex),
                         np.empty(t * lm), np.empty(tables.rows * t))


def _quad(tables, h):
    """The ``_pair_rows`` of the ``_fade_energies`` of the T blocks h, in fresh buffers."""
    t, lm = len(h), tables.proj.shape[1]
    e = _fade_energies(tables, h, np.empty((t, lm), dtype=complex), np.empty(t * lm))
    return _pair_rows(tables, e, np.empty(tables.rows * t))


def _slot_metrics(tables, y, h, pts):
    """The (T, k, |A|) per-slot metrics of T blocks, from the SSD decoder's pieces."""
    basis = _basis(tables, pts[:, None])
    metrics = basis.T @ _coefs(tables, y, h).reshape(len(basis), -1)
    return metrics.reshape(len(pts), -1, len(h)).transpose(2, 1, 0)


def test_transmit_scale(ussd4, ciod4):
    raw = rotated_qam(4, optimal_angle())  # mean energy 2
    unit = Constellation("qam4", raw.points / math.sqrt(2))
    assert transmit_scale(ussd4, unit) == pytest.approx(0.5)
    assert transmit_scale(ciod4, unit) == pytest.approx(1 / math.sqrt(2))
    assert transmit_scale(ussd4, raw) == pytest.approx(0.5 / math.sqrt(2))


@pytest.mark.parametrize("weight_scale, grid_scale", [(1e-300, 1e-200), (1e300, 1e200)])
def test_transmit_scale_outside_the_float_range_is_a_value_error(ussd4, weight_scale,
                                                                 grid_scale):
    # the scales are about 2^1659 and 2^-1663: one line naming the cause, not
    # math.ldexp's bare OverflowError nor a silent 0.0
    c = rotated_qam(16, optimal_angle())
    grid = Constellation("qam16", c.points * grid_scale)
    with pytest.raises(ValueError, match="transmit scale, about 2\\^-?16[56][0-9], is outside "
                                         "the float range") as rejected:
        transmit_scale(ussd4.scaled(weight_scale), grid)
    assert "\n" not in str(rejected.value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid_scale", [1.0, 3.0, 2.0 ** -30, 2.0 ** -1000,
                                        1e160, 1e-160, 1e200, 1e-200])
def test_a_uniform_scale_of_the_grid_changes_no_count(ussd4, ciod4, grid_scale):
    # simulate_cer reads the points at the power of two of gmatrix._pow2_scaled and scales
    # the weights for those, so every metric moves by an exact power of two; grids of
    # 1e+-160 and 1e+-200 raised before, through an overflow or a transmit scale of 0
    qam16 = rotated_qam(16, optimal_angle())
    grid = Constellation("qam16", qam16.points * grid_scale)
    for code, want in ((ussd4, [2040, 647]), (ciod4, [2158, 804])):
        assert transmit_scale(code, grid) * grid_scale == pytest.approx(
            transmit_scale(code, qam16), rel=1e-12)
        reports = [simulate_cer(SimConfig(code=code.scaled(weight_scale), constellation=c,
                                          snr_db_list=(10.0, 15.0), trials=3000, seed=5))
                   for c in (qam16, grid) for weight_scale in (1.0, 1e300, 1e-300)]
        assert [p.errors for p in reports[0].points] == want
        assert all(r.points == reports[0].points for r in reports)


@given(n=st.sampled_from([2, 3]), k=st.integers(min_value=1, max_value=2),
       size=st.integers(min_value=2, max_value=8),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_transmit_scale_counts_cross_symbol_energy(n, k, size, seed):
    # random weights, whose distinct symbols do not cancel, on points of nonzero mean:
    # every codeword, each equally likely, averages unit energy per channel use
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((k, 2, n, n)) + 1j * rng.standard_normal((k, 2, n, n))
    code = LinearDispersionCode(label="random", n=n, w=w)
    points = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    points += 2 * np.exp(2j * np.pi * rng.uniform()) - np.mean(points)  # mean of modulus 2
    c = Constellation(name="random", points=tuple(points.tolist()))
    for scale in (1.0, 3.0, 2.0 ** 600, 2.0 ** -600):
        scaled = code.scaled(scale)
        s = transmit_scale(scaled, c)
        energy = [np.linalg.norm(s * scaled.codeword(x)) ** 2 / n
                  for x in itertools.product(c.points, repeat=k)]
        assert abs(np.mean(energy) - 1.0) < 1e-12, scale


def test_ssd_decode_noiseless(ussd4):
    c = rotated_qam(4, optimal_angle())
    rng = np.random.default_rng(11)
    pts = np.asarray(c.points)
    for _ in range(25):
        x = pts[rng.integers(0, 4, size=4)]
        h = (rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))) / math.sqrt(2)
        y = ussd4.codeword(x) @ h
        got = ssd_decode(ussd4, y, h, c)
        assert np.array_equal(got, x)


def test_ssd_decode_complexity_contract(ussd4):
    c = rotated_qam(4, optimal_angle())
    rng = np.random.default_rng(13)
    h = (rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))) / math.sqrt(2)
    y = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    metrics = _slot_metrics(_tables(ussd4.w, 1), y[None], h[None], np.asarray(c.points))
    assert metrics.shape == (1, ussd4.k, len(c))  # exactly k * |A| evaluations


def test_ssd_decode_rejects_non_ssd():
    # two symbols interfering on the same antenna: not single-symbol decodable
    a1 = np.array([[1, 0], [0, 0]])
    a2 = np.array([[0, 1], [1, 0]])
    code = LinearDispersionCode(label="blast-ish", n=2, w=[(a1, a1 * 1j), (a2, a2 * 1j)])
    c = rotated_qam(4, 0.0)
    with pytest.raises(ValueError):
        ssd_decode(code, np.zeros((2, 1)), np.ones((2, 1)), c)


def test_per_slot_decoding_fails_without_ssd():
    # negative control: on a non-SSD code the per-slot argmin disagrees
    # with exhaustive ML for some noisy instance
    a1 = np.array([[1, 0], [0, 0]])
    a2 = np.array([[0, 1], [1, 0]])
    code = LinearDispersionCode(label="blast-ish", n=2, w=[(a1, a1 * 1j), (a2, a2 * 1j)])
    c = rotated_qam(4, 0.0)
    pts = np.asarray(c.points)
    tables = _tables(code.w, 1)
    rng = np.random.default_rng(17)
    disagreements = 0
    for _ in range(200):
        x = pts[rng.integers(0, 4, size=2)]
        h = (rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))) / math.sqrt(2)
        noise = (rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))) * 0.4
        y = code.codeword(x) @ h + noise
        per_slot = pts[np.argmin(_slot_metrics(tables, y[None], h[None], pts)[0], axis=1)]
        ml = ml_decode_bruteforce(code, y, h, c)
        if not np.array_equal(per_slot, ml):
            disagreements += 1
    assert disagreements > 0


def test_decoders_agree_on_ssd_code(ussd4, ussd2):
    c = rotated_qam(4, optimal_angle())
    rng = np.random.default_rng(19)
    for code in (ussd2, ussd4):
        scaled = code.scaled(transmit_scale(code, c))
        n = code.n
        pts = np.asarray(c.points)
        ys, hs = [], []
        for _ in range(1000):
            x = pts[rng.integers(0, 4, size=code.k)]
            h = (rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))) / math.sqrt(2)
            noise = (rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))) * 0.2
            ys.append(scaled.codeword(x) @ h + noise)
            hs.append(h)
        y, h = np.stack(ys), np.stack(hs)
        assert np.array_equal(ssd_decode(scaled, y, h, c), ml_decode_bruteforce(scaled, y, h, c))


@pytest.mark.parametrize("size", [4, 16, 64])
def test_ssd_decode_exact_ties_take_the_first_point(ussd4, size):
    # with Y = 0 a slot's metric is an even quadratic form of its symbol, so x and -x tie
    # exactly; the decoder names the smaller point index, as argmin over the points does
    c = rotated_qam(size, optimal_angle())
    pts = np.asarray(c.points)
    rng = np.random.default_rng(5)
    h = rng.standard_normal((9, 4, 2)) + 1j * rng.standard_normal((9, 4, 2))
    y = np.zeros_like(h)
    metrics = _slot_metrics(_tables(ussd4.w, 2), y, h, pts)  # (T, k, |A|)
    first = np.argmin(metrics, axis=2)
    tied = metrics == metrics.min(axis=2, keepdims=True)
    assert np.all(tied.sum(axis=2) >= 2)  # every slot's minimum is a tie
    assert np.array_equal(ssd_decode(ussd4, y, h, c), pts[first])


def test_ssd_decode_batch_matches_blocks_and_checks_once(ussd4, monkeypatch):
    c = rotated_qam(4, optimal_angle())
    rng = np.random.default_rng(37)
    h = rng.standard_normal((9, 4, 2)) + 1j * rng.standard_normal((9, 4, 2))
    y = rng.standard_normal((9, 4, 2)) + 1j * rng.standard_normal((9, 4, 2))
    one_by_one = np.stack([ssd_decode(ussd4, y[b], h[b], c) for b in range(9)])
    checks = []
    monkeypatch.setattr(simulator, "check_ssd", lambda code: checks.append(code) or check_ssd(code))
    batched = ssd_decode(ussd4, y, h, c)
    assert batched.shape == (9, ussd4.k)
    assert np.array_equal(batched, one_by_one)
    assert len(checks) == 1


def test_ssd_decode_rejects_mismatched_blocks(ussd4):
    c = rotated_qam(4, 0.3)
    with pytest.raises(ValueError, match="shape"):
        ssd_decode(ussd4, np.ones((4, 1)), np.ones((3, 4, 1)), c)
    with pytest.raises(ValueError, match="shape"):
        ssd_decode(ussd4, np.ones((4,)), np.ones((4,)), c)


def test_decoders_take_a_code_with_no_pair_term():
    # all weights zero: no pair is kept, every metric is 0 and both decoders name the
    # first point of each slot
    code = LinearDispersionCode(label="zero", n=2, w=np.zeros((2, 2, 2, 2)))
    c = rotated_qam(4, 0.0)
    y, h = np.ones((3, 2, 2)), np.ones((3, 2, 2))
    want = np.full((3, 2), c.points[0])
    assert np.array_equal(ml_decode_bruteforce(code, y, h, c), want)
    assert np.array_equal(ssd_decode(code, y, h, c), want)


def test_decoders_accept_real_blocks(ussd4):
    # real y and h decode as their complex casts, one block or a batch
    c = rotated_qam(4, optimal_angle())
    rng = np.random.default_rng(41)
    y, h = rng.standard_normal((2, 5, 4, 1))
    for decode in (ssd_decode, ml_decode_bruteforce):
        want = decode(ussd4, y.astype(complex), h.astype(complex), c)
        assert np.array_equal(decode(ussd4, y, h, c), want)
        assert np.array_equal(decode(ussd4, y[0], h[0], c), want[0])


@pytest.mark.parametrize("shape", [(1, 2, 1), (7, 4, 2), (3, 8, 3)])
def test_draw_cn_bit_identical_to_complex_formula(shape):
    # the seed contract: the zero-copy view draws what (a + 1j b) / sqrt(2) drew
    parts = np.random.default_rng(43).standard_normal(shape + (2,))
    want = (parts[..., 0] + 1j * parts[..., 1]) / math.sqrt(2.0)
    got = _draw_cn(np.random.default_rng(43), np.empty(shape, dtype=complex))
    assert got.shape == shape
    assert np.array_equal(got, want)


def test_draw_cn_in_pieces_continues_one_stream():
    # the seed contract draws a chunk's noise block by block: 7-trial pieces of one
    # buffer, drawn in turn from one Generator, are the values of one whole draw
    want = _draw_cn(np.random.default_rng(44), np.empty((30, 4, 2), dtype=complex))
    rng = np.random.default_rng(44)
    got = np.empty_like(want)
    for b in range(0, len(got), 7):
        _draw_cn(rng, got[b:b + 7])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["ussd8", "ciod4", "random"])
def test_encode_matches_codeword(name, ussd8, ciod4):
    rng = np.random.default_rng(47)
    code = {"ussd8": ussd8, "ciod4": ciod4, "random": _random_code(rng, 3, 4)}[name]
    x = rng.standard_normal((6, code.k)) + 1j * rng.standard_normal((6, code.k))
    got = _encode(code.w, x)
    # S = sum_i x_iI A_i + x_iQ B_i, written out
    want = np.stack([sum(xi.real * a + xi.imag * b for xi, (a, b) in zip(row, code.w))
                     for row in x])
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    assert np.max(np.abs(code.codeword(x[1]) - want[1])) <= 1e-15 * np.max(np.abs(want))


_SSD_CODES = {
    "ussd2": build_max_rate_ussd(1, generate_family(1)),
    "ussd4": build_max_rate_ussd(2, generate_family(2)),
    "ciod4": build_ciod4(),
}


@given(name=st.sampled_from(sorted(_SSD_CODES)),
       scale=st.floats(min_value=1e-2, max_value=1e2),
       angle=st.floats(min_value=0.0, max_value=math.pi / 2),
       sigma=st.floats(min_value=1e-2, max_value=2.0),
       rx=st.integers(min_value=1, max_value=2),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_ssd_decode_equals_bruteforce_ml(name, scale, angle, sigma, rx, seed):
    rng = np.random.default_rng(seed)
    base = _SSD_CODES[name]
    code = base.left_multiply(random_unitary(base.n, rng)).scaled(scale)
    c = rotated_qam(4, angle)
    pts = np.asarray(c.points)
    for _ in range(5):
        x = pts[rng.integers(0, 4, size=code.k)]
        h = (rng.standard_normal((code.n, rx)) + 1j * rng.standard_normal((code.n, rx))) / math.sqrt(2)
        noise = (rng.standard_normal((code.n, rx)) + 1j * rng.standard_normal((code.n, rx))) * sigma
        y = code.codeword(x) @ h + noise
        assert np.array_equal(ssd_decode(code, y, h, c), ml_decode_bruteforce(code, y, h, c))


@given(name=st.sampled_from(["ussd2", "ussd4", "ussd8", "ciod4", "cod4"]),
       points=st.sampled_from(["qam4", "qam16", "qam64", "rect", "square-derived"]),
       scale=st.floats(min_value=1e-2, max_value=1e2),
       angle=st.floats(min_value=0.0, max_value=math.pi / 2),
       sigma=st.floats(min_value=1e-2, max_value=2.0),
       t=st.sampled_from([1, 7]),
       rx=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_slot_count_flags_the_ssd_decoder_errors(name, points, scale, angle, sigma, t, rx, seed,
                                                 ussd2, ussd4, ussd8, ciod4, cod4):
    # the Monte Carlo counts a slot as wrong when some point's metric is strictly
    # below the sent point's, without decoding: the slots ssd_decode gets wrong
    rng = np.random.default_rng(seed)
    base = {"ussd2": ussd2, "ussd4": ussd4, "ussd8": ussd8, "ciod4": ciod4, "cod4": cod4}[name]
    code = base.left_multiply(random_unitary(base.n, rng)).scaled(scale)
    c = (rotated_qam(int(points[3:]), angle) if points.startswith("qam")
         else special_8qam(points, angle))
    pts = np.asarray(c.points)
    symbols = rng.integers(0, len(pts), size=(t, code.k))
    shape = (t, code.n, rx)
    h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)
    noise = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * sigma * scale
    y = _encode(code.w, pts[symbols]) @ h + noise
    dec = _decoder(code, code.w, pts, "ssd", t, rx)
    flags = dec.wrong(_coefs(dec.tables, y, h), symbols)
    assert flags.shape == (code.k, t)
    assert np.array_equal(flags.T, ssd_decode(code, y, h, c) != pts[symbols])


def test_slot_count_keeps_an_exact_tie_with_an_earlier_point():
    # crafted (|A|, k T) metrics of two blocks of two slots over three points, column
    # i T + t for slot i of block t.  Column 0: the sent point 2 ties with the earlier
    # point 0 at the minimum, which argmin names; column 1: the sent point is the only
    # minimum; column 2: point 0 beats the sent point 1 by one ulp; column 3: the sent
    # point 0 ties with the later point 2
    metrics = np.array([[1.0, 2.0, np.nextafter(1.0, 0.0), 0.5],
                        [2.0, 1.0, 1.0, 3.0],
                        [1.0, 4.0, 3.0, 0.5]])
    symbols = np.array([[2, 1], [1, 0]])
    assert np.array_equal(np.argmin(metrics, axis=0), [0, 1, 0, 0])
    assert np.array_equal(_wrong(metrics, symbols), [[False, False], [True, False]])


def _workspace(tables, pts, t):
    """The block step's buffers for T blocks, fresh."""
    k = tables.subcodes
    return _Workspace(np.stack((pts.real, pts.imag)), np.empty(2 * k * t), np.empty(2 * k * t),
                      np.empty(tables.rows * t))


def _whole_and_screened(dec, pts, r_rows, symbols, g, sigma, screen):
    """The flags of ``_block_flags`` on the whole block and, screening forced, on the slots
    the certificate does not clear, each from a fresh copy of the R~ rows ``r_rows``."""
    t = len(symbols)
    work = _workspace(dec.tables, pts, t)

    def coef():
        out = np.zeros((dec.tables.rows, t))
        out[:len(r_rows)] = r_rows
        return out
    want = _block_flags(dec, work, coef(), symbols, g, sigma)
    got = _block_flags(dec, work, coef(), symbols, g, sigma, screen._replace(crossover=0.0))
    return want, got


@pytest.mark.filterwarnings("error")
@given(name=st.sampled_from(["ussd4", "ussd8", "ciod4"]),
       points=st.sampled_from(["qam4", "qam16", "qam64", "rect", "square-derived"]),
       grid_scale=st.sampled_from([1.0, 1e100, 1e-100, 2.0 ** 600, 2.0 ** -600]),
       angle=st.floats(min_value=0.0, max_value=math.pi / 2),
       snr=st.floats(min_value=-10.0, max_value=60.0),
       t=st.sampled_from([1, 7, 64]),
       rx=st.integers(min_value=1, max_value=2),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_screened_flags_equal_the_full_count(name, points, grid_scale, angle, snr, t, rx, seed,
                                             ussd4, ussd8, ciod4):
    # a slot the certificate clears cannot be wrong, so the block that scores only the
    # others flags what _wrong flags over the full metric block, on the Monte Carlo's
    # own route: the points at gmatrix._pow2_scaled, drawn energies, the draws' layout
    code = {"ussd4": ussd4, "ussd8": ussd8, "ciod4": ciod4}[name]
    c = (rotated_qam(int(points[3:]), angle) if points.startswith("qam")
         else special_8qam(points, angle))
    pts = _pow2_scaled(np.asarray(c.points) * grid_scale)[0]
    dec = _decoder(code, code.scaled(_transmit_scale(code, pts)).w, pts, "ssd", t, rx)
    rng = np.random.default_rng(seed)
    symbols = rng.integers(0, len(pts), size=(t, code.k))
    r_rows = _pair_rows(dec.tables, rng.standard_exponential((t, code.n, rx)),
                        np.empty(dec.tables.rows * t))[:len(dec.tables.lam)]
    g = rng.standard_normal((t, code.k, 2))
    sigma = math.sqrt(_noise_power(snr) / 2.0)
    screen = _screen(dec.tables, pts)(sigma)
    assert screen is not None
    want, got = _whole_and_screened(dec, pts, r_rows, symbols, g, sigma, screen)
    assert got.shape == (code.k, t)
    assert np.array_equal(got, want)


def test_the_screen_guard_covers_a_near_tie(ussd4):
    # every slot is built at a near-tie: R~ has its smaller eigenvalue 1 along the
    # difference d to a nearest neighbour of the sent point (condition 30), and g lies
    # along L^T d with 4 sigma^2 ||g||^2 = lambda_min d_min^2 (1 - 2^-50)^2, a margin of
    # a few ulps.  Rounding in the noise write and the metric GEMM then flags some of
    # them wrong that a bare certificate clears; the guard must send those to the count
    pts = _pow2_scaled(rotated_qam(64, optimal_angle()).points)[0]
    k, t, sigma = ussd4.k, 256, 1.0
    dec = _decoder(ussd4, ussd4.w, pts, "ssd", t, 1)
    screen = _screen(dec.tables, pts)(sigma)
    aa, bb, ab = screen.rows
    gaps = np.abs(pts[:, None] - pts[None]) ** 2
    dmin2 = gaps[gaps > 0].min()
    rng = np.random.default_rng(11)
    sent = rng.integers(0, len(pts), k * t)
    near = [rng.choice(np.flatnonzero(np.isclose(gaps[s], dmin2))) for s in sent]
    d = pts[near] - pts[sent]
    u = np.stack((d.real, d.imag)) / np.abs(d)
    a, b, c = u[0] ** 2 + 30.0 * u[1] ** 2, -29.0 * u[0] * u[1], u[1] ** 2 + 30.0 * u[0] ** 2
    l11 = np.sqrt(a)
    l21 = b / l11
    w = np.stack((l11 * d.real + l21 * d.imag, np.sqrt(c - l21 ** 2) * d.imag))  # L^T d
    lmin = (a + c) / 2.0 - np.sqrt(((a - c) / 2.0) ** 2 + b ** 2)
    g = w * (np.sqrt(lmin * dmin2) / (2.0 * sigma) * (1.0 - 2.0 ** -50)
             / np.linalg.norm(w, axis=0))
    g = np.ascontiguousarray(g.reshape(2, k, t).transpose(2, 1, 0))
    r_rows = np.zeros((len(dec.tables.unit), k, t))
    r_rows[aa], r_rows[bb], r_rows[ab] = a.reshape(k, t), c.reshape(k, t), b.reshape(k, t)
    r_rows = r_rows.reshape(-1, t)
    symbols = np.ascontiguousarray(sent.reshape(k, t).T)
    want, got = _whole_and_screened(dec, pts, r_rows, symbols, g, sigma, screen)
    bare = np.ones(k * t, dtype=bool)
    bare[_uncleared(screen._replace(guard=0.0), r_rows, g)] = False
    assert np.count_nonzero(bare & want.ravel()) > 0
    assert np.array_equal(got, want)
    assert len(_uncleared(screen, r_rows, g)) == k * t


def test_the_screen_skips_most_slots_at_high_snr(ussd4, monkeypatch):
    # ussd4 on QAM64 at 25 dB: about 92 % of the slots pass the certificate, and a block
    # scores only the others, so a silent fallback to the whole block fails here
    scored = []
    monkeypatch.setattr(simulator, "_wrong", lambda metrics, symbols: (
        scored.append(metrics.shape[1]) or _wrong(metrics, symbols)))
    config = SimConfig(code=ussd4, constellation=rotated_qam(64, optimal_angle()),
                       snr_db_list=(25.0,), trials=20_000, seed=5)
    assert simulate_cer(config).points[0].errors > 0
    assert 0 < sum(scored) < 0.2 * config.trials * ussd4.k


def test_the_screen_crossover_falls_with_the_grid_size():
    # the share of a block that must pass before it screens falls with |A|: a whole QAM64
    # block scores 64 points per slot, so there screening pays from a share under 0.09
    shares = [simulator._screen_crossover(size) for size in (2, 4, 8, 16, 32, 64, 256)]
    assert shares == sorted(shares, reverse=True) and shares[1] == 0.5
    assert shares[5] < 0.09 and 0.0 < shares[-1]


@given(n=st.sampled_from([2, 4, 8]),
       k=st.integers(min_value=2, max_value=4),
       rx=st.integers(min_value=1, max_value=3),
       t=st.sampled_from([1, 7]),
       size=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_slot_metrics_match_definition(n, k, rx, t, size, seed):
    # random complex weights are neither unitary nor SSD and random points
    # form no constellation: the tables assume nothing of either
    rng = np.random.default_rng(seed)

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    code = LinearDispersionCode(label="random", n=n, w=cn(k, 2, n, n))
    assert not check_ssd(code).ok
    wi, wq = code.weight_arrays()
    pts = cn(size)
    y, h = cn(t, n, rx), cn(t, n, rx)
    ref = np.empty((t, k, size))
    for b in range(t):
        for i in range(k):
            for j, x in enumerate(pts):
                sh = (x.real * wi[i] + x.imag * wq[i]) @ h[b]
                ref[b, i, j] = np.linalg.norm(sh) ** 2 - 2.0 * np.vdot(y[b], sh).real
    got = _slot_metrics(_tables(code.w, rx), y, h, pts)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


def _pair_term(w, p, q):
    """M_pq of the (2g, n, n) weights w by its definition."""
    g = np.conj(w[p]).T @ w[q]
    return g if p == q else g + np.conj(g).T


@given(name=st.sampled_from(["random", "ussd2", "ussd4", "ussd8", "cod4", "ciod4", "ussd4-uvs"]),
       whole=st.booleans(),
       n=st.sampled_from([2, 4, 8]),
       k=st.integers(min_value=1, max_value=3),
       rx=st.integers(min_value=1, max_value=3),
       t=st.sampled_from([1, 7]),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_coefficients_from_noise_and_symbols(name, whole, n, k, rx, t, seed, ussd2, ussd4, ussd8,
                                             cod4, ciod4):
    # P = Q S^H + H N^H: the coefficients of the noise plus the signal term are those
    # of Y = S H + N, so the simulator forms no codeword.  The whole code as one
    # sub-code (brute-force ML) holds for any weights; random weights are not SSD, so
    # only it.  Slot sub-codes drop the cross-slot terms, exactly zero in the built-in
    # codes and of rounding size in ussd4 under a random unitary U W V
    rng = np.random.default_rng(seed)

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if name == "random":
        w = cn(k, 2, n, n)
    elif name == "ussd4-uvs":
        w = random_unitary(4, rng) @ ussd4.w @ random_unitary(4, rng)
    else:
        w = {"ussd2": ussd2, "ussd4": ussd4, "ussd8": ussd8, "cod4": cod4, "ciod4": ciod4}[name].w
    k, _, n, _ = w.shape
    subcodes = w.reshape(1, 2 * k, n, n) if whole or name == "random" else w
    tables = _tables(subcodes, rx)
    x, h, noise = cn(t, k), cn(t, n, rx), cn(t, n, rx)
    want = _coefs(tables, _encode(w, x) @ h + noise, h)
    got = _coefs(tables, noise, h)
    _add_signal(tables, *_unit_rows(tables, got, np.stack((x.real.T, x.imag.T))))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # the pruned pairs are exactly those whose M_pq is zero in every sub-code, in row-major
    # order within a block of 2g / C weights and over the C blocks fastest
    pairs = [(p, q) for p in range(subcodes.shape[1]) for q in range(p, subcodes.shape[1])]
    nonzero = [(p, q) for p, q in pairs if any(np.any(_pair_term(sc, p, q)) for sc in subcodes)]
    size = subcodes.shape[1] // tables.blocks
    order = sorted(nonzero, key=lambda pq: (pq[0] % size, pq[1] % size, pq[0] // size))
    assert list(zip(tables.p.tolist(), tables.q.tolist())) == order
    assert tables.blocks == (k if whole and name not in ("random", "ussd4-uvs") else 1)


def _pair_matrix_and_b(tables, coef):
    """R~ as (S, T, 2g, 2g) and the b rows as (S, T, 2g), in weight order, of T blocks."""
    s, t = tables.subcodes, coef.shape[1]
    rows = coef.reshape(-1, s, t)
    g2 = len(tables.weights)
    rt = np.zeros((s, t, g2, g2))
    for row, (p, q) in enumerate(zip(tables.p.tolist(), tables.q.tolist())):
        rt[:, :, p, q] = rt[:, :, q, p] = rows[row]
    b = np.zeros((s, t, g2))
    b[:, :, tables.weights] = rows[len(tables.p):].transpose(1, 2, 0)
    return rt, b


def _noise_case(name, ussd8, ciod4):
    """The sub-code stack and receive antennas of one factor case, and whether R~ is singular."""
    rng = np.random.default_rng(2024)
    if name.startswith("random"):  # k > n m: R~ of rank at most 2 n m < 2 k
        k, n, rx = {"random-k3-rx1": (3, 2, 1), "random-k5-rx2": (5, 2, 2)}[name]
        w = rng.standard_normal((k, 2, n, n)) + 1j * rng.standard_normal((k, 2, n, n))
        return w.reshape(1, 2 * k, n, n), rx, True
    if name == "ciod4-zero-weight":  # B_2 = 0: a pruned R~_jj, no column, a zero b row
        w = np.array(ciod4.w)
        w[1, 1] = 0.0
        return w.reshape(1, -1, 4, 4), 1, True
    code = {"ussd8": ussd8, "ciod4": ciod4}[name.split("-")[0]]
    whole = name.endswith("whole")
    return (code.w.reshape(1, -1, code.n, code.n) if whole else code.w), 2, False


_NOISE_CASES = ["ussd8-slots", "ussd8-whole", "ciod4-slots", "ciod4-whole", "random-k3-rx1",
                "random-k5-rx2", "ciod4-zero-weight"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", _NOISE_CASES)
def test_noise_factor_reproduces_the_pair_matrix(name, ussd8, ciod4):
    # unit normals give the columns of L: L L^T = R~ to rounding, L is lower triangular in
    # weight order, and only a singular R~ (k > n m) has a pivot that reads 0
    subcodes, rx, singular = _noise_case(name, ussd8, ciod4)
    s, g2, n, _ = subcodes.shape
    tables = _tables(subcodes, rx)
    rng = np.random.default_rng(7)
    h = np.repeat(_draw_cn(rng, np.empty((1, n, rx), dtype=complex)), g2, axis=0)
    coef = _quad(tables, h)
    g = np.zeros((2, s, g2 // 2, g2))  # block t draws e_t in every sub-code
    for t in range(g2):
        g[t % 2, :, t // 2, t] = 1.0
    _write_noise(tables, *_unit_rows(tables, coef, g.reshape(2, -1, g2)))
    rt, b = _pair_matrix_and_b(tables, coef)
    low = b.transpose(0, 2, 1)  # (S, 2g, 2g): column t of sub-code i's L is block t's b
    assert np.array_equal(low, np.tril(low))
    assert np.max(np.abs(low @ low.transpose(0, 2, 1) - rt[:, 0])) <= 1e-9 * np.max(rt)
    assert np.any(np.diagonal(low, axis1=1, axis2=2) == 0.0) == singular


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["ussd8-slots", "random-k3-rx1"])
def test_noise_coefficients_have_the_noise_covariance(name, ussd8, ciod4):
    # for one fixed H, the b rows of T = 4,096 draws of sqrt(N0 / 2) g, 2k normals per
    # block, have covariance (N0 / 2) R~: the covariance of Re tr(W_p H N^H) under
    # N ~ CN(0, N0).  Each entry within 5 standard errors, sqrt((S_pp S_qq + S_pq^2) / T)
    subcodes, rx, _ = _noise_case(name, ussd8, ciod4)
    s, g2, n, _ = subcodes.shape
    t, n0 = 4096, 0.3
    tables = _tables(subcodes, rx)
    rng = np.random.default_rng(11)
    h = np.repeat(_draw_cn(rng, np.empty((1, n, rx), dtype=complex)), t, axis=0)
    coef = _quad(tables, h)
    g = rng.standard_normal((t, s * g2 // 2, 2)).T * math.sqrt(n0 / 2)
    _write_noise(tables, *_unit_rows(tables, coef, np.ascontiguousarray(g)))
    rt, b = _pair_matrix_and_b(tables, coef)
    want = n0 / 2 * rt[:, 0]
    got = np.einsum("itp,itq->ipq", b, b) / t  # zero-mean noise
    var = np.diagonal(want, axis1=1, axis2=2)
    se = np.sqrt((var[:, :, None] * var[:, None, :] + want ** 2) / t)
    assert np.all(np.abs(got - want) <= 5 * se)


_BUILT_IN = [f"{family}{2 ** a}" for family in ("ussd", "cod") for a in range(1, 6)] + ["ciod4"]


def _pair_case(name):
    """The sub-code stack of one pair-row case: a code's slots, or the whole of a random code."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name.startswith("random"):  # n = 1, 2, 4, 8 with k = 3, 3, 3, 4: brute-force ML only
        n = int(name.removeprefix("random-n"))
        k = 4 if n == 8 else 3
        w = rng.standard_normal((k, 2, n, n)) + 1j * rng.standard_normal((k, 2, n, n))
        return w.reshape(1, 2 * k, n, n)
    if name == "ussd4-uvs":
        return random_unitary(4, rng) @ build_max_rate_ussd(2, generate_family(2)).w \
            @ random_unitary(4, rng)
    if name == "ciod4":
        return build_ciod4().w
    family, n = re.fullmatch(r"(ussd|cod)(\d+)", name).groups()
    a = int(n).bit_length() - 1
    build = build_max_rate_ussd if family == "ussd" else build_square_cod
    return build(a, generate_family(a)).w


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rx", [1, 2, 3])
@pytest.mark.parametrize("name", _BUILT_IN + ["ussd4-uvs", "random-n1", "random-n2", "random-n4",
                                              "random-n8"])
def test_pair_rows_are_the_quadratic_form(name, rx):
    # every R~ row of _pair_rows on _fade_energies is Re tr(M~_pq Q) of Q = H H^H, to a
    # relative 1e-12 of ||M~_pq|| ||Q||, through L = n eigenvectors for the commuting pair
    # terms of every built-in code and the n^2 closed-form vectors for random ones.  The
    # basis is unitary exactly on the n eigenvectors, where n^2 = n when n = 1; an odd
    # rx puts the strided Re/Im add on an odd row length
    subcodes = _pair_case(name)
    s, g2, n, _ = subcodes.shape
    tables = _tables(subcodes, rx)
    assert tables.proj.shape == (n * rx, (n * n if name.startswith("random") else n) * rx)
    assert tables.unitary == (not name.startswith("random") or n == 1)
    t = 5
    rng = np.random.default_rng(3)
    h = rng.standard_normal((t, n, rx)) + 1j * rng.standard_normal((t, n, rx))
    got = _quad(tables, h)[:len(tables.lam)].reshape(-1, s, t)
    q = h @ np.conj(h).swapaxes(-1, -2)
    for f, (p, pq) in enumerate(zip(tables.p.tolist(), tables.q.tolist())):
        for i in range(s):
            m = _pair_term(subcodes[i], p, pq) * (1.0 if p == pq else 0.5)
            want = np.trace(m @ q, axis1=1, axis2=2).real
            bound = 1e-12 * np.linalg.norm(m) * np.linalg.norm(q, axis=(1, 2))
            assert np.all(np.abs(got[f, i] - want) <= bound), (p, pq, i)


@pytest.mark.parametrize("name, rx", [("ussd8", 2), ("cod4", 2), ("ciod4", 1)])
def test_drawn_energies_have_the_law_of_the_fades(name, rx):
    # on the n joint eigenvectors V is unitary, so V^H h_j ~ CN(0, I_n) for CN(0, 1) fades
    # and the energies |v_l^H h_j|^2 are i.i.d. Exp(1): the R~ rows of drawn energies and
    # of drawn fades both have mean m Lambda 1 and covariance m Lambda Lambda^T.  Each
    # entry over 2^16 seeded trials within 5 standard errors of its sample mean
    tables = _tables(_pair_case(name), rx)
    n = tables.proj.shape[0] // rx
    v = tables.proj.reshape(n, rx, -1, rx)[:, 0, :, 0].conj()  # kron(conj(V), I_m)
    assert v.shape == (n, n)
    assert _negligible(_frobenius(v.conj().T @ v - np.eye(n)), math.sqrt(n))
    lam = tables.lam[:, ::rx]
    assert np.array_equal(tables.lam, np.repeat(lam, rx, axis=1))
    t = 1 << 16
    rng = np.random.default_rng(2027)
    h = _draw_cn(rng, np.empty((t, n, rx), dtype=complex))
    fades = _quad(tables, h)[:len(lam)].T
    energies = _pair_rows(tables, rng.standard_exponential((t, n, rx)),
                          np.empty(tables.rows * t))[:len(lam)].T
    mean, cov = rx * lam.sum(axis=1), rx * lam @ lam.T
    for rows in (fades, energies):
        d = rows - rows.mean(axis=0)
        # the mean and the spread of the products d_r d_s, without the (T, P, P) array
        got, square = d.T @ d / t, np.square(d).T @ np.square(d) / t
        assert np.all(np.abs(rows.mean(axis=0) - mean) <= 5 * rows.std(axis=0) / math.sqrt(t))
        assert np.all(np.abs(got - cov) <= 5 * np.sqrt((square - got ** 2) / t))
    # and the energies of given fades give their R~ rows to rounding
    e = np.abs(h[:64].reshape(64, -1) @ tables.proj) ** 2
    got = _pair_rows(tables, e.reshape(64, n, rx), np.empty(tables.rows * 64))[:len(lam)]
    assert np.allclose(got, fades[:64].T, rtol=1e-12, atol=1e-12 * np.max(np.abs(fades)))


@pytest.mark.parametrize("name", _BUILT_IN + ["ussd4-uvs"])
def test_whole_ssd_code_has_the_slot_tables(name):
    # brute-force ML of an SSD code reads the list of pair terms of its slots, so the
    # pair rows of the twins come from bit-equal tables
    w = _pair_case(name)
    k, _, n, _ = w.shape
    slots, whole = _tables(w, 2), _tables(w.reshape(1, 2 * k, n, n), 2)
    if name == "ussd4-uvs":  # its cross-slot terms are of rounding size, not zero: kept
        assert whole.blocks == 1
        return
    assert whole.blocks == k
    assert np.array_equal(slots.proj, whole.proj) and np.array_equal(slots.lam, whole.lam)


@pytest.mark.parametrize("name", ["ussd8", "cod4", "ciod4", "random-n4"])
def test_a_basis_short_of_a_vector_fails_the_check(name):
    # _pair_basis takes the eigenvectors only when _represents accepts them, and a
    # basis that drops any one vector no longer represents the pair terms
    subcodes = _pair_case(name)
    s, g2, n, _ = subcodes.shape
    terms = gram(subcodes).reshape(-1, n, n)
    terms = terms[np.any(terms != 0, axis=(1, 2))]
    v, lam = _pair_basis(terms)
    assert _represents(v, lam, terms)
    for drop in range(v.shape[1]):
        assert not _represents(np.delete(v, drop, axis=1), np.delete(lam, drop, axis=1), terms)


def test_survey_agrees_with_the_earlier_seed_contract():
    # the contracts draw different fades or noise of one law: each survey point's errors
    # under this contract and under each frozen earlier contract's (SURVEY_V1, SURVEY_V2)
    # agree within |z| <= 4, two-sample binomial z with the pooled rate; the largest |z|
    # of the 256 points is 2.49 against v1 and 2.86 against v2
    for earlier in (SURVEY_V1, SURVEY_V2):
        zs = []
        for config, points in SURVEY.items():
            for (new, _), (old, _) in zip(points, earlier[config], strict=True):
                rate = (new + old) / (2 * SURVEY_TRIALS)
                spread = math.sqrt(2 * SURVEY_TRIALS * rate * (1 - rate))
                zs.append(0.0 if spread == 0 else (new - old) / spread)
        assert sorted(SURVEY) == sorted(earlier) and len(zs) == 256
        assert max(map(abs, zs)) <= 4.0


def test_survey_twins_are_equal():
    # SSD and brute-force ML draw the same symbols, fades and normals and factor R~ by the
    # same arithmetic, so every configuration that runs both pins the same counts
    twins = [c for c in SURVEY if c.endswith("-brute-ml")]
    assert len(twins) == 14
    for config in twins:
        assert SURVEY[config] == SURVEY[config.removesuffix("brute-ml") + "ssd"], config


def _random_code(rng, n, k):
    w = rng.standard_normal((k, 2, n, n)) + 1j * rng.standard_normal((k, 2, n, n))
    return LinearDispersionCode(label="random", n=n, w=w)


def _ml_chunk_for(codewords, t, k):
    """The ``_ML_CHUNK`` that makes ``ml_decode_bruteforce`` take ``codewords`` per block."""
    return codewords * max(t, k * (2 * k + 1) + 2 * k)


@given(n=st.sampled_from([2, 4]),
       k=st.integers(min_value=2, max_value=3),
       rx=st.integers(min_value=1, max_value=2),
       t=st.sampled_from([1, 7]),
       size=st.sampled_from([4, 16]),
       chunk=st.integers(min_value=1, max_value=15),
       whole=st.booleans(),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_ml_decode_bruteforce_matches_direct_argmin(n, k, rx, t, size, chunk, whole, seed):
    # random complex weights are neither unitary nor SSD, so only the full
    # quadratic form decodes them; chunks of fewer than |A|^k >= 16
    # codewords make the first minimum cross chunk boundaries and build one
    # basis per chunk and block, and a chunk that just holds every codeword
    # builds its basis once per call
    rng = np.random.default_rng(seed)
    code = _random_code(rng, n, k)
    c = rotated_qam(size, rng.uniform(0.0, math.pi / 2))
    pts = np.asarray(c.points)
    wi, wq = code.weight_arrays()
    shape = (t, n, rx)
    h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x = pts[rng.integers(0, size, size=(t, k))]
    s = np.tensordot(x.real, wi, axes=1) + np.tensordot(x.imag, wq, axes=1)
    y = s @ h + 0.5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    # every codeword, lexicographic: np.argmin keeps the first minimum
    xs = pts[np.array(list(itertools.product(range(size), repeat=k)))]
    codewords = np.tensordot(xs.real, wi, axes=1) + np.tensordot(xs.imag, wq, axes=1)
    want = np.stack([xs[np.argmin([np.linalg.norm(y[b] - cw @ h[b]) ** 2 for cw in codewords])]
                     for b in range(t)])
    builds = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_ML_CHUNK", _ml_chunk_for(size ** k if whole else chunk, t, k))
        mp.setattr(simulator, "_basis", lambda *args: builds.append(args) or _basis(*args))
        batched = ml_decode_bruteforce(code, y, h, c)
        batched_builds = len(builds)
        one_by_one = np.stack([ml_decode_bruteforce(code, y[b], h[b], c) for b in range(t)])
    assert np.array_equal(batched, want)
    assert np.array_equal(one_by_one, batched)
    # each call decodes one block: one basis per call, or one per chunk
    per_call = 1 if whole else -(-size ** k // chunk)
    assert batched_builds == per_call
    assert len(builds) == (1 + t) * per_call


def test_ml_decode_bruteforce_exact_tie_takes_first_codeword(monkeypatch):
    # y = 0 and h = 0 make every metric exactly 0; the first codeword in
    # lexicographic order wins, in the one GEMM over all 64 codewords and
    # also when later codeword chunks tie with it
    code = _random_code(np.random.default_rng(23), 2, 3)
    c = rotated_qam(4, 0.3)
    first = np.full(3, c.points[0])
    assert np.array_equal(ml_decode_bruteforce(code, np.zeros((2, 1)), np.zeros((2, 1)), c),
                          first)
    for codewords in (64, 5):
        monkeypatch.setattr(simulator, "_ML_CHUNK", _ml_chunk_for(codewords, 7, 3))
        got = ml_decode_bruteforce(code, np.zeros((7, 2, 1)), np.zeros((7, 2, 1)), c)
        assert np.array_equal(got, np.tile(first, (7, 1))), codewords


def test_ml_decode_bruteforce_memory_bounded():
    # 64^3 = 4^9 codewords: the codeword chunk, not T or |A|^k, sets the peak
    rng = np.random.default_rng(29)
    code = _random_code(rng, 2, 3)
    c = rotated_qam(64, 0.3)

    def peak(t):
        h = rng.standard_normal((t, 2, 1)) + 1j * rng.standard_normal((t, 2, 1))
        y = rng.standard_normal((t, 2, 1)) + 1j * rng.standard_normal((t, 2, 1))
        tracemalloc.start()
        try:
            ml_decode_bruteforce(code, y, h, c)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = peak(64)
    assert small < 32 * 2 ** 20
    assert peak(1024) < 1.25 * small


@pytest.mark.parametrize("decoder, size", [("ssd", 64), ("brute-ml", 4)])
def test_public_decoders_memory_bounded_in_blocks(ussd4, decoder, size):
    # a batch is decoded _BLOCK blocks at a time through one decoder, so beyond the
    # (T, k) result (1 MiB at T = 16,384) the peak does not grow with T; decoding the
    # whole batch at once peaks at 16 times the metric block
    decode = {"ssd": ssd_decode, "brute-ml": ml_decode_bruteforce}[decoder]
    c = rotated_qam(size, optimal_angle())
    rng = np.random.default_rng(47)
    decode(ussd4, np.ones((4, 1)), np.ones((4, 1)), c)  # lazy imports outside the window

    def peak(t):
        h = rng.standard_normal((t, 4, 1)) + 1j * rng.standard_normal((t, 4, 1))
        y = rng.standard_normal((t, 4, 1)) + 1j * rng.standard_normal((t, 4, 1))
        tracemalloc.start()
        try:
            decode(ussd4, y, h, c)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(16384) < 1.5 * peak(1024)


def test_ml_decode_bruteforce_rejects_mismatched_blocks(ussd4):
    # one y against a batch of fades would otherwise broadcast silently
    c = rotated_qam(4, 0.3)
    with pytest.raises(ValueError, match="shape"):
        ml_decode_bruteforce(ussd4, np.ones((4, 1)), np.ones((3, 4, 1)), c)
    with pytest.raises(ValueError, match="shape"):
        ml_decode_bruteforce(ussd4, np.ones((4,)), np.ones((4,)), c)


@pytest.mark.parametrize("rows", [2, 3, 8])
def test_decoders_reject_blocks_of_another_row_count(ussd4, rows):
    # blocks of the wrong row count are one line naming both sizes, not numpy's matmul error
    c = rotated_qam(4, 0.3)
    for decode in (ssd_decode, ml_decode_bruteforce):
        for shape in ((rows, 1), (5, rows, 2)):
            with pytest.raises(ValueError, match=re.escape(
                    f"shape with n = 4, got {shape} and {shape}")) as rejected:
                decode(ussd4, np.ones(shape), np.ones(shape), c)
            assert "\n" not in str(rejected.value)


def test_ml_budget(ussd4):
    c = rotated_qam(64, 0.3)  # 64^4 codewords, over ML_BUDGET
    with pytest.raises(ValueError, match="over budget"):
        ml_decode_bruteforce(ussd4, np.zeros((4, 1)), np.ones((4, 1)), c)


def test_simulate_cer_reproducible(ussd4):
    c = rotated_qam(4, optimal_angle())
    config = SimConfig(code=ussd4, constellation=c, snr_db_list=(6.0, 10.0),
                       trials=2000, seed=424242)
    r1 = simulate_cer(config)
    r2 = simulate_cer(config)
    assert r1 == r2
    assert all(0 <= p.cer <= 1 and p.errors <= p.trials for p in r1.points)


def _errors(code, constellation, snrs, trials, seed, rx=1, decoder="ssd"):
    config = SimConfig(code=code, constellation=constellation, snr_db_list=snrs,
                       trials=trials, seed=seed, rx_antennas=rx, decoder=decoder)
    return [p.errors for p in simulate_cer(config).points]


def test_seed_contract_golden_counts(ussd4, ussd8, ciod4):
    # pinned error counts; a change here changes every seeded report
    qam16 = rotated_qam(16, optimal_angle())
    assert _errors(ussd4, qam16, (10.0, 15.0, 20.0), 2000, 7) == [1363, 424, 38]
    qam4 = rotated_qam(4, optimal_angle())
    assert _errors(ussd4, qam4, (4.0, 10.0), 2 * _CHUNK + 1000, 7) == [15491, 2033]
    # the benchmark's large shape: 8 antennas, 16-QAM, two receive antennas,
    # pinned per slot too
    large = simulate_cer(SimConfig(code=ussd8, constellation=qam16, snr_db_list=(10.0, 15.0),
                                   trials=2 * _CHUNK + 1000, seed=7, rx_antennas=2))
    assert [p.errors for p in large.points] == [7478, 107]
    assert [p.slot_errors for p in large.points] == [(1464, 1443, 1543, 1402, 1463, 1456),
                                                     (18, 19, 15, 20, 14, 21)]
    # brute-force ML over one trial chunk and across two
    assert _errors(ussd4, qam4, (6.0, 10.0), _CHUNK + 500, 7, decoder="brute-ml") == [4792, 1043]
    ciod_qam4 = rotated_qam(4, ciod_optimal_angle())
    assert _errors(ciod4, ciod_qam4, (10.0,), 2000, 7, decoder="brute-ml") == [123]
    # both decoders over a sweep from 0 dB, as `simulate --snr 0:4:12 --seed 5` runs it
    for decoder in ("ssd", "brute-ml"):
        assert _errors(ussd4, qam4, (0.0, 4.0, 8.0, 12.0), 3000, 5,
                       decoder=decoder) == [2278, 1335, 430, 50], decoder


def test_seed_contract_golden_counts_on_64_and_8_points(ussd4, ciod4):
    # pinned error counts and slot errors: QAM64 at the benchmark's small sweeps'
    # 15:5:25 dB and 2,000 trials, and rect 8-QAM on two receive antennas; auto angles
    qam64 = rotated_qam(64, optimal_angle())
    ciod_qam64 = rotated_qam(64, ciod_optimal_angle())
    rect = special_8qam("rect", ciod_optimal_angle())
    for code, constellation, snrs, rx, errors, slot_errors in (
            (ussd4, qam64, (15.0, 20.0, 25.0), 1, [1659, 720, 91],
             [(843, 822, 801, 836), (261, 229, 250, 257), (32, 25, 27, 27)]),
            (ciod4, ciod_qam64, (15.0, 20.0, 25.0), 1, [1654, 725, 90],
             [(842, 821, 798, 838), (261, 253, 267, 250), (30, 26, 28, 28)]),
            (ciod4, rect, (0.0, 5.0, 10.0), 2, [1838, 1107, 200],
             [(923, 934, 982, 951), (400, 382, 373, 404), (52, 49, 61, 57)])):
        report = simulate_cer(SimConfig(code=code, constellation=constellation, snr_db_list=snrs,
                                        trials=2000, seed=7, rx_antennas=rx))
        assert [p.errors for p in report.points] == errors, constellation.name
        assert [p.slot_errors for p in report.points] == slot_errors, constellation.name


@pytest.mark.parametrize("config", sorted(SURVEY))
def test_seeded_survey_is_pinned(config, request):
    # errors and slot errors of one seeded configuration of the survey grid
    # (tests/survey_pins.py); a failure names the code, grid, receive antennas and decoder
    name, rest = config.split("-", 1)
    grid, rx, decoder = re.fullmatch(r"(.+)-rx(\d)-(.+)", rest).groups()
    angle = ciod_optimal_angle() if name == "ciod4" else optimal_angle()
    c = (rotated_qam(int(grid[3:]), angle) if grid.startswith("qam")
         else special_8qam("rect" if grid == "8qam-rect" else "square-derived", angle))
    report = simulate_cer(SimConfig(code=request.getfixturevalue(name), constellation=c,
                                    snr_db_list=SURVEY_SNRS[grid], trials=SURVEY_TRIALS,
                                    seed=SURVEY_SEED, rx_antennas=int(rx), decoder=decoder))
    assert tuple((p.errors, p.slot_errors) for p in report.points) == SURVEY[config]


@pytest.mark.parametrize("rx, want", [
    (1, [(1253, (867, 711)), (536, (356, 306)), (147, (108, 60))]),
    (2, [(498, (348, 228)), (103, (70, 47)), (4, (3, 1))])])
def test_non_commuting_code_keeps_the_fade_draw(rx, want):
    # a random n = 4, k = 2 code: its pair terms do not commute, so its tables take the
    # n^2 closed-form basis and the Monte Carlo draws its fades, as the second contract
    # did.  These counts were recorded under that contract and hold unchanged
    code = _random_code(np.random.default_rng(2026), 4, 2)
    c = rotated_qam(4, optimal_angle())
    dec = _decoder(code, code.w, np.asarray(c.points), "brute-ml", 1, rx)
    assert dec.tables.proj.shape == (4 * rx, 16 * rx) and not dec.tables.unitary
    report = simulate_cer(SimConfig(code=code, constellation=c, snr_db_list=(0.0, 4.0, 8.0),
                                    trials=3000, seed=5, rx_antennas=rx, decoder="brute-ml"))
    assert [(p.errors, p.slot_errors) for p in report.points] == want


@pytest.mark.parametrize("decoder", ["ssd", "brute-ml"])
def test_slot_errors_bound_codeword_errors(ussd4, decoder):
    # a codeword error has at least one wrong slot and at most k of them
    c = rotated_qam(4, optimal_angle())
    config = SimConfig(code=ussd4, constellation=c, snr_db_list=(0.0, 8.0), trials=3000,
                       seed=31, decoder=decoder)
    for p in simulate_cer(config).points:
        assert len(p.slot_errors) == ussd4.k
        assert p.errors > 0
        assert max(p.slot_errors) <= p.errors <= sum(p.slot_errors)


def test_seed_contract_trial_prefix_stability(ussd4):
    # a longer run repeats every full chunk of a shorter one
    c = rotated_qam(4, optimal_angle())
    short = _errors(ussd4, c, (0.0, 6.0), _CHUNK, 21)
    longer = _errors(ussd4, c, (0.0, 6.0), _CHUNK + 1, 21)
    assert all(b - a in (0, 1) for a, b in zip(short, longer))


@pytest.mark.parametrize("decoder", ["ssd", "brute-ml"])
def test_chunks_follow_the_seed_contract(ussd4, decoder):
    # chunk c of point p draws from [seed, p, c] alone: the first C chunks of a long
    # run count what a run of C whole chunks counts, and all its chunks sum to the report
    c = rotated_qam(4, optimal_angle())
    config = SimConfig(code=ussd4, constellation=c, snr_db_list=(4.0, 8.0),
                       trials=3 * _CHUNK + 500, seed=17, decoder=decoder)

    def summed(chunks):
        return [(sum(t for t, _, _ in point), sum(e for _, e, _ in point),
                 tuple(sum(s for _, _, s in point).tolist())) for point in chunks]

    def report(trials):
        points = simulate_cer(dataclasses.replace(config, trials=trials)).points
        return [(p.trials, p.errors, p.slot_errors) for p in points]

    chunks = [list(point) for point in _chunks(config)]
    assert [[t for t, _, _ in point] for point in chunks] == [[_CHUNK] * 3 + [500]] * 2
    for whole in (1, 2):
        assert summed(point[:whole] for point in chunks) == report(whole * _CHUNK), whole
    assert summed(chunks) == report(config.trials)


def test_simulate_cer_memory_bounded_in_trials(ussd4):
    c = rotated_qam(4, optimal_angle())

    def peak(trials):
        config = SimConfig(code=ussd4, constellation=c, snr_db_list=(10.0,),
                           trials=trials, seed=1)
        tracemalloc.start()
        try:
            simulate_cer(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4 * _CHUNK) < 1.5 * peak(_CHUNK)


def test_simulate_cer_chunk_memory(ussd8):
    # one chunk's symbol indices and fade energies (2.75 MiB) plus one 2^10-trial
    # block's symbols, normals, coefficients and metrics: about 4.3 MiB.  Blocks of
    # 2^11 trials peak at 5.8 MiB, and arrays that each spanned the whole chunk would
    # take about 27 MiB
    c = rotated_qam(16, optimal_angle())
    config = SimConfig(code=ussd8, constellation=c, snr_db_list=(10.0,), trials=_CHUNK,
                       seed=1, rx_antennas=2)
    classify(ussd8)  # as the CLI does: the SSD gate then reads the cached classification
    # one trial first, so the window does not count the lazy imports of a first call
    simulate_cer(dataclasses.replace(config, trials=1))
    tracemalloc.start()
    try:
        simulate_cer(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


@pytest.mark.parametrize("name", ["ussd8-ssd", "ciod4-ssd", "ussd4-brute-ml", "ussd4-qam64-ssd",
                                  "ussd4-qam4-crossover", "ussd4-8qam-crossover",
                                  "ussd4-qam16-crossover", "ussd4-qam64-crossover"])
def test_simulate_cer_block_invariance(name, ussd4, ussd8, ciod4, monkeypatch):
    # the block size only schedules the work: 7 divides neither 2^14 nor the tail of 1000
    code, constellation, snr, rx, decoder = {
        "ussd8-ssd": (ussd8, rotated_qam(16, optimal_angle()), 10.0, 2, "ssd"),
        "ciod4-ssd": (ciod4, rotated_qam(4, ciod_optimal_angle()), 8.0, 1,
                      "ssd"),
        "ussd4-brute-ml": (ussd4, rotated_qam(4, optimal_angle()), 6.0, 1,
                           "brute-ml"),
        # about 0.69 of the slots pass the screen: every block counts only the others
        "ussd4-qam64-ssd": (ussd4, rotated_qam(64, optimal_angle()), 20.0, 1, "ssd"),
        # a pass share near the grid's crossover (simulator._screen_crossover): blocks of
        # 7 (28 slots) fall on both sides of it, so both schedules count
        "ussd4-qam4-crossover": (ussd4, rotated_qam(4, optimal_angle()), 4.0, 1, "ssd"),
        "ussd4-8qam-crossover": (ussd4, special_8qam("rect", optimal_angle()), 8.0, 1, "ssd"),
        "ussd4-qam16-crossover": (ussd4, rotated_qam(16, optimal_angle()), 9.0, 1, "ssd"),
        "ussd4-qam64-crossover": (ussd4, rotated_qam(64, optimal_angle()), 5.0, 1, "ssd"),
    }[name]
    config = SimConfig(code=code, constellation=constellation, snr_db_list=(snr,),
                       trials=2 * _CHUNK + 1000, seed=13, rx_antennas=rx, decoder=decoder)
    want = simulate_cer(config)
    assert want.points[0].errors > 0
    monkeypatch.setattr(simulator, "_BLOCK", 7)
    shares, crossovers = [], set()  # each block's share of cleared slots, the crossover
    uncleared = simulator._uncleared

    def recorded(screen, coef, g):
        fail = uncleared(screen, coef, g)
        shares.append(1.0 - len(fail) / (g.shape[0] * g.shape[1]))
        crossovers.add(screen.crossover)
        return fail
    monkeypatch.setattr(simulator, "_uncleared", recorded)
    assert simulate_cer(config) == want
    if name.endswith("crossover"):
        (crossover,) = crossovers
        assert min(shares) < crossover <= max(shares)


def test_simulate_cer_vanishes_at_high_snr(ussd4):
    c = rotated_qam(4, optimal_angle())
    config = SimConfig(code=ussd4, constellation=c, snr_db_list=(60.0,),
                       trials=2000, seed=3)
    assert simulate_cer(config).points[0].errors == 0


def test_simulate_decoders_identical_on_ssd(ciod4):
    c = rotated_qam(4, ciod_optimal_angle())
    kwargs = dict(code=ciod4, constellation=c, snr_db_list=(8.0,), trials=400, seed=11)
    ssd = simulate_cer(SimConfig(decoder="ssd", **kwargs))
    ml = simulate_cer(SimConfig(decoder="brute-ml", **kwargs))
    assert ssd.points[0].errors == ml.points[0].errors
    # the signal term of a code without unitary weights, with two receive antennas: the
    # same nonzero error column over a sweep
    sweep = [_errors(ciod4, c, (0.0, 4.0, 8.0, 12.0), 3000, 5, rx=2, decoder=decoder)
             for decoder in ("ssd", "brute-ml")]
    assert sweep == [[1533, 486, 34, 1]] * 2


def test_simulate_rotated_beats_unrotated(ussd4):
    rot = rotated_qam(4, optimal_angle())
    unrot = rotated_qam(4, 0.0)
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
    c = rotated_qam(4, optimal_angle())
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
    for kind in ("rect", "square-derived"):
        c = special_8qam(kind, optimal_angle())
        config = SimConfig(code=ussd4, constellation=c, snr_db_list=(14.0,),
                           trials=2000, seed=77)
        point = simulate_cer(config).points[0]
        assert 0.0 < point.cer < 1.0


def test_config_validation(ussd4):
    c = rotated_qam(4, 0.0)
    with pytest.raises(ValueError):
        SimConfig(code=ussd4, constellation=c, snr_db_list=(), trials=10, seed=1)
    with pytest.raises(ValueError):
        SimConfig(code=ussd4, constellation=c, snr_db_list=(1.0,), trials=0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(code=ussd4, constellation=c, snr_db_list=(1.0,), trials=10,
                  seed=1, decoder="genie")


@pytest.mark.parametrize("field, value", [("seed", 1.5), ("seed", -1), ("trials", 2.5),
                                          ("rx_antennas", 1.5), ("trials", True),
                                          ("rx_antennas", True), ("seed", True),
                                          ("seed", False), ("snr_db_list", (True,)),
                                          ("snr_db_list", ("4",)), ("snr_db_list", (None,)),
                                          ("snr_db_list", (10.0, np.True_))])
def test_config_rejects_non_integer_or_negative(ussd4, field, value):
    # rejected at the boundary: not left to fail inside numpy or range, nor truncated,
    # and a bool is not read as 1 or 0 (the rule of gmatrix._json_int)
    kwargs = dict(code=ussd4, constellation=rotated_qam(4, 0.0),
                  snr_db_list=(1.0,), trials=10, seed=1)
    with pytest.raises(ValueError, match=field):
        SimConfig(**{**kwargs, field: value})


@pytest.mark.parametrize("snr", [-4000.0, -3090.0, math.inf, -math.inf, math.nan])
def test_config_rejects_snr_without_finite_noise_power(ussd4, snr):
    # N0 = 10^(-SNR/10) overflows below about -3083 dB: rejected at the boundary,
    # not left to end in an OverflowError inside simulate_cer
    kwargs = dict(code=ussd4, constellation=rotated_qam(4, 0.0),
                  trials=10, seed=1)
    with pytest.raises(ValueError, match="noise power"):
        SimConfig(snr_db_list=(10.0, snr), **kwargs)
    SimConfig(snr_db_list=(-3080.0, 4000.0), **kwargs)  # N0 = 1e308 and N0 = 0 are finite


def test_wilson_halfwidth():
    assert wilson_halfwidth(0, 1000) > 0
    mid = wilson_halfwidth(500, 1000)
    assert mid == pytest.approx(1.96 * math.sqrt(0.25 / 1000), rel=0.01)
    assert wilson_halfwidth(10, 1000) < mid
