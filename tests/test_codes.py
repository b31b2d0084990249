"""Code constructions: golden codeword, structural identities, baselines."""

import numpy as np
import pytest

from stbc_forge.clifford import generate_family
from stbc_forge.codes import (
    LinearDispersionCode,
    build_max_rate_ussd,
    build_square_cod,
    code_from_json_dict,
    code_to_json_dict,
    gram,
    gram_rows,
    lexicographic_first_min,
)
from stbc_forge.gmatrix import _upper_pairs, is_exact
from stbc_forge.verifier import (
    check_normalized_structure,
    check_ssd,
    check_unitary_weight,
    classify,
)

from conftest import golden_4tx_codeword, golden_4tx_family, random_unitary
from exact_codes import exact_built_in_codes


def test_codeword_matches_golden_layout(ussd4):
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = ussd4.codeword(x)
        assert np.max(np.abs(got - golden_4tx_codeword(x))) < 1e-12


def test_codeword_unit_probes(ussd4):
    eye = ussd4.codeword([1, 0, 0, 0])
    assert np.array_equal(eye, np.eye(4))
    herm_antidiag = ussd4.codeword([1j, 0, 0, 0])
    expected = np.array([
        [0, 0, 0, -1j],
        [0, 0, 1j, 0],
        [0, -1j, 0, 0],
        [1j, 0, 0, 0],
    ])
    assert np.array_equal(herm_antidiag, expected)
    assert not np.any(ussd4.codeword([0, 0, 0, 0]))


def test_weights_recoverable_by_probing(ussd4):
    # evaluating the golden layout at unit symbols recovers each weight
    probed = []
    for i in range(4):
        real_probe = [0] * 4
        real_probe[i] = 1
        imag_probe = [0] * 4
        imag_probe[i] = 1j
        probed.append((golden_4tx_codeword(real_probe), golden_4tx_codeword(imag_probe)))
    for (bi, bq), (wi, wq) in zip(probed, ussd4.w):
        assert np.array_equal(bi, wi)
        assert np.array_equal(bq, wq)
    assert ussd4.linearly_independent()


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", [1, 2, 3])
def test_max_rate_normalized_structure(a, request):
    # anti-Hermitian squares, commuting quadrature-1 weight, anticommuting rest; A_1 = t I
    # with t > 0 is normalized at every scale, and no product overflows (warnings are errors)
    code = request.getfixturevalue(f"ussd{2 ** a}")
    for s in (1, 3, 2.0 ** 900, 2.0 ** -900, 1e160):
        assert check_normalized_structure(code.scaled(s)).ok, s
        assert classify(code.scaled(s)).normalized, s
    # A_1 = -I: t < 0, so only the normalization fails
    flipped = code.scaled(-1)
    assert not classify(flipped).normalized
    assert [(f.condition, f.i, f.j) for f in check_normalized_structure(flipped).failures] == [
        ("normalized", 1, 0)]


@pytest.mark.parametrize("a", [1, 2, 3])
def test_max_rate_structure_identities(a, request):
    code = request.getfixturevalue(f"ussd{2 ** a}")
    eye = np.eye(code.n)
    b1 = code.w[0, 1]
    assert np.array_equal(b1.conj().T, b1)
    assert np.array_equal(b1 @ b1, eye)
    for wi, wq in code.w[1:]:
        prod = wi @ b1
        assert np.array_equal(wq, prod) or np.array_equal(wq, -prod)
    # per-symbol products agree up to sign across symbols
    ref = code.w[1, 0] @ code.w[1, 1]
    for wi, wq in code.w[2:]:
        p = wi @ wq
        assert np.array_equal(p, ref) or np.array_equal(p, -ref)


def test_build_with_golden_family_reproduces_layout():
    code = build_max_rate_ussd(2, golden_4tx_family())
    rng = np.random.default_rng(29)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.max(np.abs(code.codeword(x) - golden_4tx_codeword(x))) < 1e-12


def test_family_parameter_mismatch(fam2):
    with pytest.raises(ValueError):
        build_max_rate_ussd(3, fam2)
    with pytest.raises(ValueError):
        build_square_cod(1, fam2)


@pytest.mark.parametrize("a", [1, 2, 3])
def test_square_cod(a, request):
    code = request.getfixturevalue(f"cod{2 ** a}")
    assert code.k == a + 1
    assert not classify(code).failed_conditions
    assert code.linearly_independent()
    rng = np.random.default_rng(31 + a)
    eye = np.eye(code.n)
    for _ in range(100):
        x = rng.standard_normal(code.k) + 1j * rng.standard_normal(code.k)
        s = code.codeword(x)
        gram = s.conj().T @ s
        assert np.max(np.abs(gram - np.sum(np.abs(x) ** 2) * eye)) < 1e-10


def test_alamouti_layout(cod2):
    x1, x2 = 0.3 - 0.7j, -1.1 + 0.2j
    s = cod2.codeword([x1, x2])
    expected = np.array([[x1, x2], [-np.conj(x2), np.conj(x1)]])
    assert np.max(np.abs(s - expected)) < 1e-14


def test_ciod4_contracts(ciod4):
    assert ciod4.n == 4 and ciod4.k == 4
    assert check_ssd(ciod4).ok
    assert not check_unitary_weight(ciod4).ok
    assert classify(ciod4).code_class == "non-unitary-weight-SSD"
    assert ciod4.linearly_independent()
    assert not np.any(ciod4.codeword([0, 0, 0, 0]))


def test_ciod4_block_structure(ciod4):
    # top-left block carries x1I, x3Q; bottom-right carries x3I, x1Q
    s = ciod4.codeword([1 + 2j, 0, 3 + 4j, 0])
    assert np.array_equal(s[:2, 2:], np.zeros((2, 2)))
    assert np.array_equal(s[2:, :2], np.zeros((2, 2)))
    u1 = 1 + 4j   # x1I + j*x3Q
    u3 = 3 + 2j   # x3I + j*x1Q
    assert s[0, 0] == u1 and s[1, 1] == np.conj(u1)
    assert s[2, 2] == u3 and s[3, 3] == np.conj(u3)


def test_left_multiply(ussd4):
    eye = np.eye(4)
    same = ussd4.left_multiply(eye)
    assert np.array_equal(same.w, ussd4.w)
    rng = np.random.default_rng(41)
    u = random_unitary(4, rng)
    moved = ussd4.left_multiply(u)
    assert check_ssd(moved).ok
    assert check_unitary_weight(moved).ok
    with pytest.raises(ValueError):
        ussd4.left_multiply(np.eye(4) * 2.0)


def test_scaled(ussd4):
    half = ussd4.scaled(0.5)
    assert half.w[0, 0, 0, 0] == 0.5
    assert check_ssd(half).ok  # homogeneous conditions survive scaling
    assert check_unitary_weight(half).ok  # UW allows one common scale c > 0
    a1 = half.w[0, 0]
    assert np.array_equal(np.conj(a1).T @ a1, 0.25 * np.eye(4))  # not unitary


def _k1_code(eps):
    """A_1 = I_2, B_1 = diag(1 + eps, 1 - eps): the weights' singular values are in the ratio eps/2."""
    return LinearDispersionCode(label=f"eps-{eps:g}", n=2,
                                w=[(np.eye(2), np.diag([1.0 + eps, 1.0 - eps]))])


def test_linearly_independent_examples():
    eye = np.eye(2)
    assert LinearDispersionCode(label="i-ji", n=2, w=[(eye, eye * 1j)]).linearly_independent()
    assert not LinearDispersionCode(label="i-i", n=2, w=[(eye, eye)]).linearly_independent()
    assert not LinearDispersionCode(label="zero", n=2,
                                    w=np.zeros((1, 2, 2, 2))).linearly_independent()
    # the one tolerance rule on the real Gram eigenvalues, lambda = sigma^2:
    # independent iff sigma_min > 1e-5 sigma_max
    assert _k1_code(1e-4).linearly_independent()  # sigma ratio 5e-5
    assert not _k1_code(1e-6).linearly_independent()  # sigma ratio 5e-7


def test_linear_independence_is_invariant_under_scale_and_unitary():
    rng = np.random.default_rng(61)
    eye = np.eye(2)
    dependent = {"eps-1e-06": _k1_code(1e-6),
                 "i-i": LinearDispersionCode(label="i-i", n=2, w=[(eye, eye)])}
    cases = {**exact_built_in_codes(), "eps-0.0001": _k1_code(1e-4), **dependent}
    for name, code in cases.items():
        want = name not in dependent
        assert code.linearly_independent() == want, name
        for s in (1e-100, 1e-3, 1e3, 1e100):
            assert code.scaled(s).linearly_independent() == want, (name, s)
        assert code.left_multiply(random_unitary(code.n, rng)).linearly_independent() == want, name


def test_weights_are_copied_in_c_order(ussd4):
    # the encoder and the Gram matrix take float64 views of w, which need its last
    # axis contiguous: a broadcast view and a Fortran-ordered stack are copied in C order
    degenerate = LinearDispersionCode(label="deg", n=4, w=np.broadcast_to(np.eye(4), (2, 2, 4, 4)))
    fortran = LinearDispersionCode(label="fortran", n=4, w=np.asfortranarray(ussd4.w))
    for code in (degenerate, fortran):
        assert code.w.flags.c_contiguous
    assert np.array_equal(degenerate.codeword([1, 1]), 2 * np.eye(4))
    assert not degenerate.linearly_independent()
    x = [1, 1j, -1 + 1j, 3]
    assert np.array_equal(fortran.codeword(x), ussd4.codeword(x))
    assert fortran.linearly_independent()


def test_code_json_round_trip(ussd4, ciod4):
    for code in (ussd4, ciod4):
        obj = code_to_json_dict(code, declared_class=classify(code).code_class)
        back, declared = code_from_json_dict(obj)
        assert back.n == code.n and back.k == code.k
        assert np.array_equal(back.w, code.w)
        assert declared == classify(code).code_class
    bad = code_to_json_dict(ussd4)
    bad["k"] = 7
    with pytest.raises(ValueError):
        code_from_json_dict(bad)


def test_weight_shape_validation(fam2):
    with pytest.raises(ValueError):
        LinearDispersionCode(label="bad", n=2, w=np.stack([[np.eye(4), np.eye(4)]]))
    for w in (np.zeros((4, 2, 2)), np.zeros((1, 2, 2, 3)), [], np.full((1, 2, 2, 2), np.nan)):
        with pytest.raises(ValueError):
            LinearDispersionCode(label="bad", n=2, w=w)
    # every code has k >= 1 and n >= 1
    for n, w in ((2, np.zeros((0, 2, 2, 2))), (0, np.zeros((1, 2, 0, 0))),
                 (0, np.zeros((0, 2, 0, 0))), (-1, np.zeros((0, 2)))):
        with pytest.raises(ValueError, match="n >= 1 and k >= 1"):
            LinearDispersionCode(label="bad", n=n, w=w)
    for obj in ({"n": 2, "weights": []}, {"n": 0, "weights": []}, {"n": -1, "weights": []}):
        with pytest.raises(ValueError, match="n >= 1 and k >= 1"):
            code_from_json_dict(obj)
    obj = code_to_json_dict(build_square_cod(1, generate_family(1)))
    obj["weights"][1][0] = code_to_json_dict(build_square_cod(2, fam2))["weights"][0][0]
    with pytest.raises(ValueError, match="matrix 3 is not 2x2"):
        code_from_json_dict(obj)


def test_lexicographic_first_min_on_trailing_unit_axis():
    # np.unravel_index misreads an (N, 1) index array this large, so the
    # search must unravel its best indices flat
    rng = np.random.default_rng(53)
    table = rng.standard_normal((16384, 1, 9))

    def metric(vectors):
        return table[..., 3 * vectors[:, 0] + vectors[:, 1]]

    best, vectors = lexicographic_first_min(np.arange(3), 2, 4, metric)
    assert vectors.shape == (16384, 1, 2)
    assert np.array_equal(3 * vectors[..., 0] + vectors[..., 1], np.argmin(table, axis=-1))
    assert np.array_equal(best, np.min(table, axis=-1))


def test_weights_are_one_read_only_stack(ussd4, ciod4):
    for code in (ussd4, ciod4):
        w = code.w
        assert w.shape == (code.k, 2, code.n, code.n) and w.dtype == np.complex128
        wi, wq = code.weight_arrays()
        assert np.shares_memory(wi, w) and np.shares_memory(wq, w)
        assert np.array_equal(wi, w[:, 0]) and np.array_equal(wq, w[:, 1])
        for view in (w, wi, wq):
            with pytest.raises(ValueError):
                view[0, 0, 0] = 5
    # the code holds its own copy, and left-multiplying by an exact unitary
    # (a signed permutation) keeps it exact
    src = np.array(ussd4.w)
    code = LinearDispersionCode(label="copy", n=4, w=src)
    src[0, 0, 0, 0] = 5
    assert np.array_equal(code.w, ussd4.w)
    perm = np.eye(4)[[2, 0, 3, 1]] * [1, -1j, 1j, -1]
    assert is_exact(perm)
    assert code.left_multiply(perm).is_exact
    assert not code.scaled(0.5).is_exact


def _pair_terms(ws, p, q):
    """G_pq and M_pq of the pairs (p, q) of a stack, from one matmul per pair."""
    g = np.conj(ws[..., p, :, :]).swapaxes(-1, -2) @ ws[..., q, :, :]
    off = (p != q)[:, None, None]
    return g, np.where(off, g + np.conj(g).swapaxes(-1, -2), g)


def test_gram_pairs():
    # gram_rows yields every pair q >= p in row-major order, one GEMM for a code with
    # n <= 8 and several from n = 16 on, and each block is the pair term M_pp = G_pp,
    # M_pq = G_pq + G_pq^H of G_pq = W_p^H W_q bit for bit on the exact built-in codes;
    # gram gathers all the pairs p <= q from it
    for name, code in exact_built_in_codes().items():
        w = code.w.reshape(2 * code.k, code.n, code.n)
        chunks = list(gram_rows(w))
        assert (len(chunks) == 1) == (code.n <= 8), name
        p, q, m = (np.concatenate(parts) for parts in zip(*chunks))
        assert all(np.array_equal(x, y) for x, y in zip((p, q), _upper_pairs(len(w))))
        assert np.array_equal(m, _pair_terms(w, p, q)[1]), name
        assert np.array_equal(gram(w), m), name
        # each symbol's own three terms, (A A, A B, B B), in one GEMM
        (p, q, m), = gram_rows(code.w)
        assert p.tolist() == [0, 0, 1] and q.tolist() == [0, 1, 1]
        assert m.shape == (code.k, 3, code.n, code.n)
        assert np.array_equal(m, _pair_terms(code.w, p, q)[1]), name
    # on float weights the block-row GEMM and a per-pair one may round differently
    rng = np.random.default_rng(29)
    noise = rng.standard_normal((3, 2, 4, 4)) + 1j * rng.standard_normal((3, 2, 4, 4))
    ussd8 = exact_built_in_codes()["ussd8"]
    for code in (ussd8.scaled(0.3).left_multiply(random_unitary(8, rng)),
                 LinearDispersionCode(label="noise", n=4, w=noise)):
        w = code.w.reshape(2 * code.k, code.n, code.n)
        p, q = _upper_pairs(len(w))
        g, want = _pair_terms(w, p, q)
        # relative to G_pq: the cross terms of the SSD code cancel to rounding
        err = np.max(np.abs(gram(w) - want), axis=(1, 2))
        assert np.all(err <= 1e-14 * np.max(np.abs(g), axis=(1, 2)))


def test_gram_is_the_quadratic_form():
    # sum_{p<=q} s_p s_q M_pq = D^H D for D = sum_p s_p W_p and random real s
    rng = np.random.default_rng(31)
    noise = rng.standard_normal((3, 2, 4, 4)) + 1j * rng.standard_normal((3, 2, 4, 4))
    exact = exact_built_in_codes()
    codes = [exact[name] for name in ("ussd2", "ussd4", "cod4", "ciod4", "ussd8")]
    for code in codes + [LinearDispersionCode(label="noise", n=4, w=noise)]:
        w = code.w.reshape(2 * code.k, code.n, code.n)
        p, q = _upper_pairs(len(w))
        m = gram(w)
        for _ in range(5):
            s = rng.standard_normal(len(w))
            d = np.tensordot(s, w, axes=1)
            want = np.conj(d).T @ d
            got = np.tensordot(s[p] * s[q], m, axes=1)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), code.label
