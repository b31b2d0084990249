"""Code constructions: golden codeword, structural identities, baselines."""

import numpy as np
import pytest

from stbc_forge.codes import (
    LinearDispersionCode,
    build_max_rate_ussd,
    build_square_cod,
    code_from_json_dict,
    code_to_json_dict,
)
from stbc_forge.gmatrix import GaussianMatrix, real_rank
from stbc_forge.verifier import (
    check_cod,
    check_normalized_structure,
    check_ssd,
    check_unitary_weight,
    classify,
)

from conftest import golden_4tx_codeword, golden_4tx_family, random_unitary


def test_codeword_matches_golden_layout(ussd4):
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = ussd4.codeword(x).to_array()
        assert np.max(np.abs(got - golden_4tx_codeword(x))) < 1e-12


def test_codeword_unit_probes(ussd4):
    eye = ussd4.codeword([1, 0, 0, 0]).to_array()
    assert np.array_equal(eye, np.eye(4))
    herm_antidiag = ussd4.codeword([1j, 0, 0, 0]).to_array()
    expected = np.array([
        [0, 0, 0, -1j],
        [0, 0, 1j, 0],
        [0, -1j, 0, 0],
        [1j, 0, 0, 0],
    ])
    assert np.array_equal(herm_antidiag, expected)
    assert not np.any(ussd4.codeword([0, 0, 0, 0]).to_array())


def test_weights_recoverable_by_probing(ussd4):
    # evaluating the golden layout at unit symbols recovers each weight
    probed = []
    for i in range(4):
        real_probe = [0] * 4
        real_probe[i] = 1
        imag_probe = [0] * 4
        imag_probe[i] = 1j
        probed.append((GaussianMatrix.floating(golden_4tx_codeword(real_probe)),
                       GaussianMatrix.floating(golden_4tx_codeword(imag_probe))))
    for (bi, bq), (wi, wq) in zip(probed, ussd4.weights):
        assert bi == wi
        assert bq == wq
    flat = [m for pair in probed for m in pair]
    assert real_rank(flat) == 8


def test_codeword_symbol_count(ussd4):
    with pytest.raises(ValueError):
        ussd4.codeword([1, 2])


@pytest.mark.parametrize("a", [1, 2, 3])
def test_max_rate_code_parameters(a, request):
    code = request.getfixturevalue(f"ussd{2 ** a}")
    assert code.k == 2 * a
    assert code.n == 2 ** a
    assert code.rate == pytest.approx(a / 2 ** (a - 1))
    assert code.is_exact
    assert check_ssd(code).ok
    assert check_unitary_weight(code).ok
    assert code.linearly_independent()


@pytest.mark.parametrize("a", [1, 2, 3])
def test_max_rate_normalized_structure(a, request):
    # anti-Hermitian squares, commuting quadrature-1 weight, anticommuting rest
    code = request.getfixturevalue(f"ussd{2 ** a}")
    assert check_normalized_structure(code).ok


@pytest.mark.parametrize("a", [1, 2, 3])
def test_max_rate_structure_identities(a, request):
    code = request.getfixturevalue(f"ussd{2 ** a}")
    eye = GaussianMatrix.identity(code.n)
    b1 = code.weights[0][1]
    assert b1.herm() == b1
    assert b1 @ b1 == eye
    for wi, wq in code.weights[1:]:
        prod = wi @ b1
        assert wq == prod or wq == prod.scale(-1)
    # per-symbol products agree up to sign across symbols
    ref = code.weights[1][0] @ code.weights[1][1]
    for wi, wq in code.weights[2:]:
        p = wi @ wq
        assert p == ref or p == ref.scale(-1)


def test_build_with_golden_family_reproduces_layout():
    code = build_max_rate_ussd(2, golden_4tx_family())
    rng = np.random.default_rng(29)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.max(np.abs(code.codeword(x).to_array() - golden_4tx_codeword(x))) < 1e-12


def test_family_parameter_mismatch(fam2):
    with pytest.raises(ValueError):
        build_max_rate_ussd(3, fam2)
    with pytest.raises(ValueError):
        build_square_cod(1, fam2)


@pytest.mark.parametrize("a", [1, 2, 3])
def test_square_cod(a, request):
    code = request.getfixturevalue(f"cod{2 ** a}")
    assert code.k == a + 1
    assert check_cod(code).ok
    assert code.linearly_independent()
    rng = np.random.default_rng(31 + a)
    eye = np.eye(code.n)
    for _ in range(100):
        x = rng.standard_normal(code.k) + 1j * rng.standard_normal(code.k)
        s = code.codeword(x).to_array()
        gram = s.conj().T @ s
        assert np.max(np.abs(gram - np.sum(np.abs(x) ** 2) * eye)) < 1e-10


def test_alamouti_layout(cod2):
    x1, x2 = 0.3 - 0.7j, -1.1 + 0.2j
    s = cod2.codeword([x1, x2]).to_array()
    expected = np.array([[x1, x2], [-np.conj(x2), np.conj(x1)]])
    assert np.max(np.abs(s - expected)) < 1e-14


def test_ciod4_contracts(ciod4):
    assert ciod4.n == 4 and ciod4.k == 4
    assert check_ssd(ciod4).ok
    assert not check_unitary_weight(ciod4).ok
    assert classify(ciod4).code_class == "non-unitary-weight-SSD"
    assert ciod4.linearly_independent()
    assert not np.any(ciod4.codeword([0, 0, 0, 0]).to_array())


def test_ciod4_block_structure(ciod4):
    # top-left block carries x1I, x3Q; bottom-right carries x3I, x1Q
    s = ciod4.codeword([1 + 2j, 0, 3 + 4j, 0]).to_array()
    assert np.array_equal(s[:2, 2:], np.zeros((2, 2)))
    assert np.array_equal(s[2:, :2], np.zeros((2, 2)))
    u1 = 1 + 4j   # x1I + j*x3Q
    u3 = 3 + 2j   # x3I + j*x1Q
    assert s[0, 0] == u1 and s[1, 1] == np.conj(u1)
    assert s[2, 2] == u3 and s[3, 3] == np.conj(u3)


def test_left_multiply(ussd4):
    eye = GaussianMatrix.identity(4)
    same = ussd4.left_multiply(eye)
    assert all(a == b and c == d
               for (a, c), (b, d) in zip(same.weights, ussd4.weights))
    rng = np.random.default_rng(41)
    u = random_unitary(4, rng)
    moved = ussd4.left_multiply(u)
    assert check_ssd(moved).ok
    assert check_unitary_weight(moved).ok
    with pytest.raises(ValueError):
        ussd4.left_multiply(GaussianMatrix.floating(np.eye(4) * 2.0))


def test_scaled(ussd4):
    half = ussd4.scaled(0.5)
    assert half.weights[0][0].entry(0, 0) == 0.5
    assert check_ssd(half).ok  # homogeneous conditions survive scaling
    assert check_unitary_weight(half).ok  # UW allows one common scale c > 0
    assert not half.weights[0][0].is_unitary()


def test_code_json_round_trip(ussd4, ciod4):
    for code in (ussd4, ciod4):
        obj = code_to_json_dict(code, declared_class=classify(code).code_class)
        back, declared = code_from_json_dict(obj)
        assert back.n == code.n and back.k == code.k
        assert all(a == b and c == d
                   for (a, c), (b, d) in zip(back.weights, code.weights))
        assert declared == classify(code).code_class
    bad = code_to_json_dict(ussd4)
    bad["k"] = 7
    with pytest.raises(ValueError):
        code_from_json_dict(bad)


def test_weight_shape_validation(fam2):
    with pytest.raises(ValueError):
        LinearDispersionCode(label="bad", n=2,
                             weights=((GaussianMatrix.identity(4),
                                       GaussianMatrix.identity(4)),))
