"""Anticommuting families: construction, verification, parity rules."""

import hashlib
import itertools
import json

import numpy as np
import pytest

from stbc_forge.clifford import (
    MAX_DOUBLINGS,
    AnticommutingFamily,
    family_to_json_dict,
    generate_family,
    product_subset,
    products_commute,
    square_sign,
    verify_family,
)
from stbc_forge.codes import build_ciod4, build_max_rate_ussd, build_square_cod, code_to_json_dict
from stbc_forge.gmatrix import stack_from_json
from stbc_forge.verifier import CLASS_COD, CLASS_UW_SSD, classify

from conftest import GOLDEN_2TX_GENERATORS, GOLDEN_4TX_GENERATORS, random_unitary


def _checks(a: int) -> int:
    """Checks in the report of a well-formed family of 2a+1 members."""
    m = 2 * a + 1
    return 1 + 3 * m + m * (m - 1) // 2 + 2


def test_size_4_matches_golden_generators(fam2):
    for built, golden in zip(fam2.matrices[:4], GOLDEN_4TX_GENERATORS):
        assert np.array_equal(built, golden)
    assert fam2.c == 1j
    assert np.array_equal(fam2.matrices[4], 1j * (
        GOLDEN_4TX_GENERATORS[0] @ GOLDEN_4TX_GENERATORS[1]
        @ GOLDEN_4TX_GENERATORS[2] @ GOLDEN_4TX_GENERATORS[3]))


def test_size_2_matches_pinned_generators(fam1):
    for built, golden in zip(fam1.matrices, GOLDEN_2TX_GENERATORS):
        assert np.array_equal(built, golden)
    assert fam1.c == 1


@pytest.mark.parametrize("a", [1, 2, 3, 4, 5, 6])
def test_generated_families_verify(a):
    fam = generate_family(a)
    assert fam.matrices.shape == (2 * a + 1, 2 ** a, 2 ** a)
    assert fam.n == 2 ** a
    report = verify_family(fam)
    assert report.ok, report.failures
    assert len(report.checks) == _checks(a)


def test_codes_at_the_cap_classify():
    fam = generate_family(MAX_DOUBLINGS)
    assert classify(build_max_rate_ussd(MAX_DOUBLINGS, fam)).code_class == CLASS_UW_SSD
    assert classify(build_square_cod(MAX_DOUBLINGS, fam)).code_class == CLASS_COD


def test_generation_is_deterministic():
    f1 = generate_family(3)
    f2 = generate_family(3)
    assert np.array_equal(f1.matrices, f2.matrices)
    assert f1.c == f2.c


def test_family_is_one_read_only_stack(fam2):
    f = fam2.matrices
    assert f.dtype == np.complex128 and f.shape == (5, 4, 4)
    with pytest.raises(ValueError):
        f[0, 0, 0] = 5
    # the constructor copies any sequence of n x n matrices
    members = [np.array(m) for m in f]
    fam = AnticommutingFamily(a=2, matrices=members, c=fam2.c)
    members[0][0, 0] = 5
    assert np.array_equal(fam.matrices, f)
    assert np.array_equal(AnticommutingFamily(a=2, matrices=list(GOLDEN_4TX_GENERATORS),
                                              c=1j).matrices[0], GOLDEN_4TX_GENERATORS[0])
    for ragged in ([f[0], f[1][:2, :2]], [np.eye(4)[:, :3]], [], np.eye(4)):
        with pytest.raises(ValueError):
            AnticommutingFamily(a=2, matrices=ragged, c=fam2.c)


# sha256 of json.dumps(..., sort_keys=True) for the built-in families and codes
_JSON_SHA256 = {
    "family1": "1ff04670a5d31b5f491eebfe3dd38581efa9cbdcfd6ef0981459c3b2637a8719",
    "family2": "3fdb35a737daad8833adda218ad54a8b31babed72ae861eb622bdf6af3ef78c1",
    "family3": "7cd3b9cf692a809d50457b467ab2550037f85085a85fbb2519e7c7943cc3ea28",
    "family4": "7b5d2af751ccd9cb289ef388419612f9d7eebee6b51e15b8643f936efe9ffc34",
    "family5": "f52044e752099411983442f05e3e22dbc3467d4798e68c5cdbfaca1fa0016d12",
    "family6": "4a2d9dc1f22e895dcfc4f48f161aa0148bd11ea40680023be3467426813b2946",
    "ussd2": "58307df468bd69a1e62ae30a15d48248df593dfea54d3272e282fbc489ef70fb",
    "ussd4": "3a5cb617726e42550abf0c46df9809817a988077518fc1c9f008d916363c8e19",
    "ussd8": "4392debb4c25ea8f75fef4eb60b7b9d7aafaca9c30425bad566b472cd4f262fa",
    "ussd16": "81e34f1055034a626318a35ad6bb37ece4731bea40e01359510c549b4bc506ec",
    "ussd32": "9294377019175847286a0a5fdb6fddfc1b3da2f92d6abdcee6c70c88be37dba2",
    "ussd64": "e13e0659752b0e4a2c35684c0a247803b5f92bdbb69b9a9f10a23f8978c2570c",
    "cod2": "2c09ee0b6a6d00ccdaf951b26cffab90293c9452b9c21a155d1d74e90d7b0da5",
    "cod4": "56e32b174e8a219c2fdb10d5bea0006e57a7d26e889835c4eafbb080484c1379",
    "cod8": "648948a5acce82d9ad1ac47a61b492935d8eea1bb489b0d8b05ae6277eff9536",
    "cod16": "ca59e3875ae9b3063e8c2895fa1d6001930ec13b76f9f746dddd26451a7981c0",
    "cod32": "f8cec78840070537739abd64b202663d596fde1eddf80f960a07401f9a121817",
    "cod64": "cc4e5120749517e41b1cea0c4e3395bdf2e9694350a142f79bf5e629f4103f60",
    "ciod4": "f652ee8e33734310fafefa1a2b53a1ef3a25479ba8c06de3f6cc349e392bbdfe",
}


def test_family_and_code_json_is_pinned():
    def sha(obj):
        return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()

    got = {"ciod4": sha(code_to_json_dict(build_ciod4()))}
    for a in range(1, MAX_DOUBLINGS + 1):
        fam = generate_family(a)
        got[f"family{a}"] = sha(family_to_json_dict(fam))
        got[f"ussd{fam.n}"] = sha(code_to_json_dict(build_max_rate_ussd(a, fam)))
        got[f"cod{fam.n}"] = sha(code_to_json_dict(build_square_cod(a, fam)))
    assert got == _JSON_SHA256


@pytest.mark.parametrize("a", [1, 2, 3])
def test_verify_accepts_conjugated_family(a):
    # U F U^H is a valid family for any unitary U; its residuals are rounding, not zero
    fam = generate_family(a)
    u = random_unitary(fam.n, np.random.default_rng(70 + a))
    moved = AnticommutingFamily(a=a, matrices=u @ fam.matrices @ u.conj().T, c=fam.c)
    assert not np.array_equal(moved.matrices, np.round(moved.matrices))
    report = verify_family(moved)
    assert report.ok, report.failures
    assert len(report.checks) == _checks(a)


def test_verify_reports_wrong_member_size_once(fam2):
    report = verify_family(AnticommutingFamily(a=3, matrices=fam2.matrices, c=fam2.c))
    assert [(c.name, c.passed) for c in report.checks] == [("size", False), ("shape", False)]


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
    mats = np.array(fam2.matrices)
    mats[1] = mats[0]  # a matrix never anticommutes with itself
    report = verify_family(AnticommutingFamily(a=2, matrices=mats, c=fam2.c))
    assert not report.ok
    assert any(f.name == "anticommute" and f.indices == (1, 2) for f in report.failures)


def test_verify_flags_scaled_member(fam2):
    mats = np.array(fam2.matrices)
    mats[2] *= 2  # doubled: no longer unitary
    report = verify_family(AnticommutingFamily(a=2, matrices=mats, c=fam2.c))
    assert any(f.name == "unitary" and f.indices == (3,) for f in report.failures)
    assert any(f.name == "square-minus-identity" for f in report.failures)


def test_verify_flags_wrong_scalar(fam2):
    report = verify_family(AnticommutingFamily(a=2, matrices=fam2.matrices, c=1 + 0j))
    assert any(f.name == "closure-scalar" for f in report.failures)


def test_product_subset_empty_is_identity(fam2):
    assert np.array_equal(product_subset(fam2, []), np.eye(4))


def test_product_subset_full_gives_last_member(fam2, fam3):
    for fam in (fam2, fam3):
        full = product_subset(fam, list(range(1, 2 * fam.a + 1)))
        assert np.array_equal(full * fam.c, fam.matrices[-1])


def test_product_subset_pair_squares_to_minus_identity(fam2):
    p = product_subset(fam2, [1, 2])
    assert np.array_equal(p @ p, -np.eye(4))


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
    eye = np.eye(n)
    for r in range(1, 2 * a + 1):
        for subset in itertools.combinations(range(1, 2 * a + 1), r):
            p = product_subset(fam, list(subset))
            assert np.array_equal(p @ p, square_sign(r) * eye)


@pytest.mark.parametrize("a", [1, 2, 3])
def test_products_traceless_exhaustive(a):
    fam = generate_family(a)
    for r in range(1, 2 * a + 1):
        for subset in itertools.combinations(range(1, 2 * a + 1), r):
            assert np.trace(product_subset(fam, list(subset))) == 0


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
            assert np.array_equal(m1 @ m2, m2 @ m1)
        else:
            assert np.array_equal(m1 @ m2, -(m2 @ m1))


@pytest.mark.parametrize("a", [1, 2, 3])
def test_products_span_all_matrices(a):
    # the 2^(2a) products over subsets of 1..2a are a complex basis
    fam = generate_family(a)
    n = fam.n
    vectors = []
    for r in range(0, 2 * a + 1):
        for subset in itertools.combinations(range(1, 2 * a + 1), r):
            vectors.append(product_subset(fam, list(subset)).ravel())
    stack = np.asarray(vectors)
    assert stack.shape == (2 ** (2 * a), n * n)
    assert np.linalg.matrix_rank(stack) == 2 ** (2 * a)


def test_family_json_round_trip(fam2):
    obj = json.loads(json.dumps(family_to_json_dict(fam2)))
    assert (obj["a"], obj["n"], obj["c"]) == (2, 4, [0, 1])
    assert [m["mode"] for m in obj["matrices"]] == ["exact"] * 5
    back = AnticommutingFamily(a=obj["a"], matrices=stack_from_json(obj["matrices"], obj["n"]),
                               c=complex(*obj["c"]))
    assert back.c == fam2.c
    assert np.array_equal(back.matrices, fam2.matrices)
    assert verify_family(back).ok
