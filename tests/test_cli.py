"""End-to-end CLI: JSON round trips, exit codes, output files."""

import hashlib
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import stbc_forge
from stbc_forge import (__version__, ciod_optimal_angle, codes, constellations,
                        min_det_closed_form, optimal_angle, rotated_qam, simulator, verifier)
from stbc_forge.cli import MAX_SNR_POINTS, _parse_snr, _write_json, main
from stbc_forge.clifford import (
    MAX_DOUBLINGS,
    AnticommutingFamily,
    family_to_json_dict,
    generate_family,
    verify_family,
)
from stbc_forge.codes import (
    LinearDispersionCode,
    build_ciod4,
    build_max_rate_ussd,
    build_square_cod,
    code_from_json_dict,
    code_to_json_dict,
)
from stbc_forge.constellations import Constellation
from stbc_forge.gmatrix import stack_from_json
from stbc_forge.simulator import _CHUNK, SEED_CONTRACT
from stbc_forge.verifier import classify


@pytest.fixture()
def runner():
    return CliRunner()


def _invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def test_family_command(runner, tmp_path):
    out = tmp_path / "f.json"
    result = _invoke(runner, "family", "--a", "2", "--out", str(out))
    assert result.exit_code == 0
    obj = json.loads(out.read_text())
    assert len(obj["matrices"]) == 5
    fam = AnticommutingFamily(a=obj["a"], matrices=stack_from_json(obj["matrices"], obj["n"]),
                              c=complex(*obj["c"]))
    assert verify_family(fam).ok


@pytest.mark.parametrize("antennas,family,klass", [
    (2, "ussd", "unitary-weight-SSD"),
    (4, "ussd", "unitary-weight-SSD"),
    (8, "ussd", "unitary-weight-SSD"),
    (2, "cod", "COD"),
    (4, "cod", "COD"),
    (8, "cod", "COD"),
    (64, "ussd", "unitary-weight-SSD"),
    (64, "cod", "COD"),
    (4, "ciod4", "non-unitary-weight-SSD"),
])
def test_construct_verify_round_trip(runner, tmp_path, antennas, family, klass):
    out = tmp_path / "code.json"
    result = _invoke(runner, "construct", "--antennas", str(antennas),
                     "--family", family, "--out", str(out))
    assert result.exit_code == 0
    code, declared = code_from_json_dict(json.loads(out.read_text()))
    assert declared == klass
    assert classify(code).code_class == klass
    result = _invoke(runner, "verify", str(out))
    assert result.exit_code == 0
    assert klass in result.output


def test_verify_flags_corrupted_code(runner, tmp_path):
    out = tmp_path / "code.json"
    _invoke(runner, "construct", "--antennas", "4", "--family", "ussd",
            "--out", str(out))
    obj = json.loads(out.read_text())
    # overwrite the in-phase weight of symbol 2 with symbol 3's: breaks SSD-II
    obj["weights"][1][0] = obj["weights"][2][0]
    bad = tmp_path / "badcode.json"
    bad.write_text(json.dumps(obj))
    report = tmp_path / "report.json"
    result = runner.invoke(main, ["verify", str(bad), "--report", str(report)])
    assert result.exit_code == 1
    rep = json.loads(report.read_text())
    assert any(f["condition"] == "SSD-II" and {f["i"], f["j"]} == {2, 3}
               for f in rep["failed_conditions"])
    assert "SSD-II" in result.output
    # each console line gives the residual of its condition, as the report does
    lines = [line for line in result.output.splitlines() if "violated at" in line]
    assert len(lines) == len(rep["failed_conditions"]) > 0
    for line, f in zip(lines, rep["failed_conditions"]):
        assert line == (f"  condition {f['condition']} violated at ({f['i']},{f['j']}): "
                        f"residual {f['residual']:.3e} relative to c")


def test_verify_flags_wrong_declared_class(runner, tmp_path):
    out = tmp_path / "code.json"
    _invoke(runner, "construct", "--antennas", "4", "--family", "ussd",
            "--out", str(out))
    obj = json.loads(out.read_text())
    obj["class"] = "COD"
    out.write_text(json.dumps(obj))
    result = runner.invoke(main, ["verify", str(out)])
    assert result.exit_code == 1
    # ussd4 misses the orthogonal-design condition of each symbol by ||2 B_i|| = 4 c
    assert [line for line in result.output.splitlines() if "violated" in line] == [
        f"  condition COD-IQ-self violated at ({i},{i}): residual 4.000e+00 relative to c"
        for i in range(1, 5)]
    # null is undeclared, not a wrong class
    obj["class"] = None
    out.write_text(json.dumps(obj))
    assert runner.invoke(main, ["verify", str(out)]).exit_code == 0


def test_coding_gain_prints_table_value(runner, tmp_path):
    out = tmp_path / "ussd4.json"
    _invoke(runner, "construct", "--antennas", "4", "--family", "ussd", "--out", str(out))
    result = _invoke(runner, "coding-gain", "--code", str(out),
                     "--constellation", "qam4", "--angle", "auto")
    assert result.exit_code == 0
    assert "min_det = 1.024000e+01" in result.output

    ciod = tmp_path / "ciod4.json"
    _invoke(runner, "construct", "--antennas", "4", "--family", "ciod4", "--out", str(ciod))
    result = _invoke(runner, "coding-gain", "--code", str(ciod),
                     "--constellation", "qam4", "--angle", "auto")
    assert result.exit_code == 0
    assert "min_det = 1.024000e+01" in result.output


def test_coding_gain_prints_tiny_min_det(runner, tmp_path):
    # about 1.5e-21 at 32 antennas: six fixed decimals printed 0.000000, like a code that
    # lost diversity; the maximal-rate codes take the single-symbol search
    for antennas in (32, 64):
        out = tmp_path / f"ussd{antennas}.json"
        _invoke(runner, "construct", "--antennas", str(antennas), "--family", "ussd",
                "--out", str(out))
        result = _invoke(runner, "coding-gain", "--code", str(out), "--constellation", "qam16")
        assert "single-symbol search" in result.output.splitlines()[0]
        value = float(result.output.split("min_det = ")[1].split()[0])
        want = min_det_closed_form(rotated_qam(16, optimal_angle()), antennas)
        assert 0 < want < 1e-20
        assert abs(value - want) <= 1e-6 * want


def test_coding_gain_reports_lost_diversity(runner, tmp_path):
    ussd = tmp_path / "ussd4.json"
    ciod = tmp_path / "ciod4.json"
    _invoke(runner, "construct", "--antennas", "4", "--family", "ussd", "--out", str(ussd))
    _invoke(runner, "construct", "--antennas", "4", "--family", "ciod4", "--out", str(ciod))

    def lines(code, angle, *extra):
        result = _invoke(runner, "coding-gain", "--code", str(code),
                         "--constellation", "qam4", "--angle", angle, *extra)
        assert result.exit_code == 0
        return result.output.splitlines()

    # unrotated QAM puts 2 + 2j on the 45 degree line, where a -2c eigenvalue of
    # every ussd slot zeroes a factor of the determinant
    out = lines(ussd, "0")
    assert out[0].startswith("min_det = 0.000000e+00")
    assert len(out) == 3
    assert out[2].startswith("full diversity lost in slot 1: witness ")
    witness = out[2].split("witness ")[1].split()[0]
    assert witness in out[1]  # the reported difference itself
    assert abs(abs(complex(witness).real) - abs(complex(witness).imag)) < 1e-6
    assert len(lines(ussd, "auto")) == 2
    assert len(lines(ciod, "auto")) == 2
    # ciod4 loses diversity at angle 0 too, but on an axis, not on a 45 degree line; and
    # the unreduced search's vector of four nonzero differences has no single witness
    for code, extra in ((ciod, ()), (ussd, ("--brute-force",)), (ciod, ("--brute-force",))):
        out = lines(code, "0", *extra)
        assert out[0].startswith("min_det = 0.000000e+00") and len(out) == 3
        vector = out[1].split("achieved by difference vector ")[1]
        assert out[2] == f"full diversity lost: difference vector {vector} has a zero determinant"
    assert len(lines(ussd, "auto", "--brute-force")) == 2
    assert len(lines(ciod, "auto", "--brute-force")) == 2


@pytest.mark.filterwarnings("error")
def test_coding_gain_reads_a_nan_determinant_as_zero(runner, tmp_path):
    # a float file whose A_1[1, 0] is 1e-160: numpy's det is NaN on some singular
    # differences of unrotated QAM4, which once printed two RuntimeWarnings
    ussd = tmp_path / "ussd4.json"
    _invoke(runner, "construct", "--antennas", "4", "--family", "ussd", "--out", str(ussd))
    obj = json.loads(ussd.read_text())
    a1 = obj["weights"][0][0]
    a1["mode"] = "float"
    a1["entries"][1][0] = [1e-160, 0]
    del obj["class"]
    tiny = tmp_path / "ussd4-tiny.json"
    tiny.write_text(json.dumps(obj))
    result = _invoke(runner, "coding-gain", "--code", str(tiny), "--constellation", "qam4",
                     "--angle", "0", "--brute-force")
    assert result.exit_code == 0
    assert result.stderr == ""
    vector = ", ".join(["-2.000000-2.000000j"] * 4)
    assert result.output.splitlines()[:2] == [
        "min_det = 0.000000e+00  (angle 0.000000 rad, full search)",
        f"achieved by difference vector [{vector}]"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags", [(), ("--brute-force",)])
def test_coding_gain_outside_the_float_range_exits_2(runner, tmp_path, monkeypatch, flags):
    # no built-in grid reaches it: a grid times 1e200 has a minimum of about 1e800
    code = tmp_path / "ussd2.json"
    _invoke(runner, "construct", "--antennas", "2", "--family", "ussd", "--out", str(code))
    monkeypatch.setattr(constellations, "rotated_qam", lambda size, angle=0.0: Constellation(
        f"qam{size}", rotated_qam(size, angle).points * 1e200))
    result = runner.invoke(main, ["coding-gain", "--code", str(code), "--constellation", "qam4",
                                  *flags])
    assert result.exit_code == 2
    assert "outside the float range" in result.output and "Traceback" not in result.output


def test_coding_gain_brute_force_is_pinned(runner, tmp_path):
    # the unreduced search names the single-symbol search's vector at the auto angles:
    # the first in lexicographic order within the one tolerance of the minimum
    zero = "+0.000000+0.000000j"
    for family, angle, first in (("ussd", "1.338973", "-2.406004-1.486992j"),
                                 ("ciod4", "0.553574", "-2.752764+0.649839j")):
        out = tmp_path / f"{family}.json"
        _invoke(runner, "construct", "--antennas", "4", "--family", family, "--out", str(out))
        result = _invoke(runner, "coding-gain", "--code", str(out), "--constellation", "qam4",
                         "--brute-force")
        assert result.output.splitlines() == [
            f"min_det = 1.024000e+01  (angle {angle} rad, full search)",
            f"achieved by difference vector [{first}, {zero}, {zero}, {zero}]"]
        # the single-symbol search prints the same minimum and names the same vector
        result = _invoke(runner, "coding-gain", "--code", str(out), "--constellation", "qam4")
        assert result.output.splitlines() == [
            f"min_det = 1.024000e+01  (angle {angle} rad, single-symbol search)",
            f"achieved by difference vector [{first}, {zero}, {zero}, {zero}]"]


@pytest.mark.parametrize("family, klass", [("ussd", "unitary-weight-SSD"),
                                           ("ciod4", "non-unitary-weight-SSD")])
def test_scaled_code_files_verify_and_score_as_the_code(runner, tmp_path, family, klass):
    # float-mode files of the code x1e-100 and x1e160, where the squares of the weights
    # underflow and overflow, and x3: the class, and every line coding-gain prints on the
    # single-symbol route and the unreduced search, are the unscaled code's
    out = tmp_path / "code.json"
    _invoke(runner, "construct", "--antennas", "4", "--family", family, "--out", str(out))
    code, _ = code_from_json_dict(json.loads(out.read_text()))

    def gains(path):
        return [_invoke(runner, "coding-gain", "--code", str(path), *args).output
                for args in (("--constellation", "qam16"),
                             ("--constellation", "qam4", "--brute-force"))]

    want = gains(out)
    assert "min_det = 1.024000e+01" in want[1]
    for scale in (1e-100, 1e160, 3.0):
        path = tmp_path / f"scaled-{scale:g}.json"
        path.write_text(json.dumps(code_to_json_dict(code.scaled(scale))))
        report = tmp_path / f"report-{scale:g}.json"
        result = _invoke(runner, "verify", str(path), "--report", str(report))
        assert result.exit_code == 0, result.output
        assert f"computed={klass} " in result.output
        assert gains(path) == want, scale
        if family == "ussd" and scale == 3.0:  # A_1 = 3 I is normalized: A_1 = t I, t > 0
            assert json.loads(report.read_text())["normalized"] is True


def test_coding_gain_8qam_choice(runner, tmp_path):
    out = tmp_path / "ussd4.json"
    _invoke(runner, "construct", "--antennas", "4", "--family", "ussd", "--out", str(out))
    result = _invoke(runner, "coding-gain", "--code", str(out),
                     "--constellation", "8qam-sq", "--angle", "auto")
    assert result.exit_code == 0
    assert "min_det" in result.output


def test_coding_gain_explicit_angle_and_full_search(runner, tmp_path):
    out = tmp_path / "ussd2.json"
    _invoke(runner, "construct", "--antennas", "2", "--family", "ussd", "--out", str(out))
    result = _invoke(runner, "coding-gain", "--code", str(out),
                     "--constellation", "qam4", "--angle", "0.7", "--brute-force")
    assert result.exit_code == 0
    assert "full search" in result.output


def test_simulate_writes_csv_and_sidecar(runner, tmp_path):
    code = tmp_path / "ussd4.json"
    _invoke(runner, "construct", "--antennas", "4", "--family", "ussd", "--out", str(code))
    csv_path = tmp_path / "cer.csv"
    result = _invoke(runner, "simulate", "--code", str(code),
                     "--constellation", "qam4", "--angle", "auto",
                     "--snr", "0:5:10", "--trials", "500", "--seed", "9",
                     "--out", str(csv_path))
    assert result.exit_code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "snr_db,trials,errors,cer,ci95"
    assert len(lines) == 4  # header + 0, 5, 10 dB
    sidecar = json.loads((tmp_path / "cer.csv.config.json").read_text())
    assert sidecar["seed"] == 9
    assert sidecar["snr_db"] == [0.0, 5.0, 10.0]
    assert sidecar["seed_contract"] == SEED_CONTRACT
    assert "[seed, point, chunk]" in sidecar["seed_contract"]
    assert str(_CHUNK) in sidecar["seed_contract"]
    # one list of k = 4 wrong-symbol counts per SNR point, consistent with the CSV
    assert len(sidecar["slot_errors"]) == 3
    for line, slots in zip(lines[1:], sidecar["slot_errors"]):
        errors = int(line.split(",")[2])
        assert len(slots) == 4
        assert max(slots) <= errors <= sum(slots)
    assert sidecar["class"] == "unitary-weight-SSD"
    assert sidecar["stbc_forge_version"] == __version__
    assert sidecar["numpy_version"] == np.__version__
    # the sha256 of the weight stack's shape as little-endian int64s, then of its entries as
    # little-endian complex128: here the file's [re, im] pairs as little-endian float64s
    parts = np.array([[m["entries"] for m in pair]
                      for pair in json.loads(code.read_text())["weights"]], dtype="<f8")
    stack = np.array(parts.shape[:-1], dtype="<i8").tobytes() + parts.tobytes()
    assert sidecar["code_sha256"] == hashlib.sha256(stack).hexdigest()
    # deterministic repeat
    first = csv_path.read_text()
    _invoke(runner, "simulate", "--code", str(code), "--constellation", "qam4",
            "--angle", "auto", "--snr", "0:5:10", "--trials", "500", "--seed", "9",
            "--out", str(csv_path))
    assert csv_path.read_text() == first
    # the sidecar names the computed class, here the one that picks the CIOD angle
    ciod = tmp_path / "ciod4.json"
    _invoke(runner, "construct", "--antennas", "4", "--family", "ciod4", "--out", str(ciod))
    _invoke(runner, "simulate", "--code", str(ciod), "--constellation", "qam4",
            "--angle", "auto", "--snr", "10", "--trials", "50", "--out", str(csv_path))
    sidecar = json.loads((tmp_path / "cer.csv.config.json").read_text())
    assert sidecar["class"] == "non-unitary-weight-SSD"
    assert sidecar["rotation_rad"] == ciod_optimal_angle()


def test_code_sha256_fingerprints_the_loaded_weights(runner, tmp_path, monkeypatch):
    # the same weights give one code_sha256 whatever their label, exact/float tag, number
    # formatting and signed zeros; one ulp in one entry gives another, and simulate never
    # re-encodes the code to JSON to get it
    exact = tmp_path / "ussd4.json"
    _invoke(runner, "construct", "--antennas", "4", "--family", "ussd", "--out", str(exact))
    obj = json.loads(exact.read_text())

    def as_float(m):
        return {"n": m["n"], "mode": "float",
                "entries": [[[float(re), float(im) if im else -0.0] for re, im in row]
                            for row in m["entries"]]}

    by_hand = dict(obj, label="by hand", weights=[[as_float(a), as_float(b)]
                                                  for a, b in obj["weights"]])
    floats = tmp_path / "floats.json"
    floats.write_text(json.dumps(by_hand))
    assert "-0.0" in floats.read_text() and '"float"' in floats.read_text()
    by_hand["weights"][0][0]["entries"][0][0][0] = np.nextafter(1.0, 2.0)  # A_1[0, 0] = 1
    nudged = tmp_path / "nudged.json"
    nudged.write_text(json.dumps(by_hand))

    def fail(*args, **kwargs):
        raise AssertionError("code_to_json_dict called")

    monkeypatch.setattr(codes, "code_to_json_dict", fail)

    def code_sha256(path):
        out = tmp_path / f"{path.stem}.csv"
        _invoke(runner, "simulate", "--code", str(path), "--constellation", "qam4",
                "--snr", "10", "--trials", "10", "--out", str(out))
        return json.loads((tmp_path / f"{path.stem}.csv.config.json").read_text())["code_sha256"]

    assert code_sha256(exact) == code_sha256(floats) != code_sha256(nudged)


def test_simulate_sidecar_records_blas_threads(runner, tmp_path, monkeypatch):
    # the BLAS thread settings are recorded as the environment gives them, null when unset,
    # and the CLI does not set them
    code = tmp_path / "ussd2.json"
    _invoke(runner, "construct", "--antennas", "2", "--family", "ussd", "--out", str(code))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    _invoke(runner, "simulate", "--code", str(code), "--constellation", "qam4", "--snr", "10",
            "--trials", "10", "--out", str(tmp_path / "cer.csv"))
    sidecar = json.loads((tmp_path / "cer.csv.config.json").read_text())
    assert sidecar["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3",
                                       "MKL_NUM_THREADS": None}
    assert "MKL_NUM_THREADS" not in os.environ


def test_one_verdict_pass_per_command(runner, tmp_path, monkeypatch):
    # coding-gain --angle auto classifies the code and then searches it, and simulate
    # classifies it and then checks it is SSD: each runs the verdicts' Gram pass once, and
    # the pass calls gram_rows once
    calls = []
    products = verifier.gram_rows
    monkeypatch.setattr(verifier, "gram_rows", lambda *args: calls.append(1) or products(*args))
    code = tmp_path / "ussd4.json"
    _invoke(runner, "construct", "--antennas", "4", "--family", "ussd", "--out", str(code))
    for command in (("coding-gain", "--code", str(code), "--constellation", "qam16"),
                    ("simulate", "--code", str(code), "--constellation", "qam4", "--snr", "10",
                     "--trials", "10", "--decoder", "ssd", "--out", str(tmp_path / "c.csv"))):
        calls.clear()
        assert _invoke(runner, *command).exit_code == 0
        assert len(calls) == 1, command[0]


def test_simulate_rx_is_bounded(runner, tmp_path):
    # each chunk draws (2^14, n, rx) arrays, so an unbounded --rx exhausted memory
    code = tmp_path / "c.json"
    _invoke(runner, "construct", "--antennas", "4", "--family", "ussd", "--out", str(code))
    for rx in ("65", "0"):
        result = runner.invoke(main, ["simulate", "--code", str(code), "--constellation", "qam4",
                                      "--snr", "10", "--trials", "10", "--rx", rx,
                                      "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2, result.output
        assert [line.startswith("Error:") for line in result.output.splitlines()].count(True) == 1
        assert "--rx" in result.output and "Traceback" not in result.output
    assert not list(tmp_path.glob("o.csv*"))


def test_usage_errors(runner, tmp_path):
    code = tmp_path / "c.json"
    _invoke(runner, "construct", "--antennas", "4", "--family", "ussd", "--out", str(code))
    assert runner.invoke(main, ["construct", "--antennas", "8", "--family", "ciod4",
                                "--out", str(tmp_path / "x.json")]).exit_code == 2
    assert runner.invoke(main, ["construct", "--antennas", "3", "--family", "ussd",
                                "--out", str(tmp_path / "x.json")]).exit_code == 2
    assert runner.invoke(main, ["coding-gain", "--code", str(code),
                                "--constellation", "qam7"]).exit_code == 2
    assert runner.invoke(main, ["simulate", "--code", str(code),
                                "--constellation", "qam4", "--snr", "1:2",
                                "--out", str(tmp_path / "o.csv")]).exit_code == 2
    assert runner.invoke(main, ["bogus"]).exit_code == 2
    # bad values fail at the boundary with exit 2 and a one-line message
    not_ssd = json.loads(code.read_text())
    not_ssd["weights"][1][0] = not_ssd["weights"][2][0]  # breaks SSD-II
    not_ssd_path = tmp_path / "not-ssd.json"
    not_ssd_path.write_text(json.dumps(not_ssd))
    code8 = tmp_path / "c8.json"
    _invoke(runner, "construct", "--antennas", "8", "--family", "ussd", "--out", str(code8))
    sim = ["simulate", "--code", str(code), "--constellation", "qam4",
           "--out", str(tmp_path / "o.csv")]
    # a code that transmits no energy has no equal-energy scale; weights of 1e-200, whose
    # squares underflow, are an ordinary code and score as the unit code they scale
    zero, tiny, unit = (tmp_path / f"{name}.json" for name in ("zero", "tiny", "unit"))
    for path, value in ((zero, 0.0), (tiny, 1e-200), (unit, 1.0)):
        w = np.full((1, 2, 2, 2), value)
        path.write_text(json.dumps(code_to_json_dict(LinearDispersionCode(label="x", n=2, w=w))))
    for extra in ([], ["--brute-force"]):
        first_lines = [_invoke(runner, "coding-gain", "--code", str(path), "--constellation",
                               "qam4", *extra).output.splitlines()[0] for path in (tiny, unit)]
        assert first_lines[0].startswith("min_det = ")
        assert first_lines[0] == first_lines[1]
    bad_inputs = [
        *(["coding-gain", "--code", str(zero), "--constellation", "qam4", *extra]
          for extra in ([], ["--brute-force"])),
        sim + ["--snr", "-4000"],  # N0 = 10^400 overflows
        sim + ["--snr", "10", "--trials", "0"],
        sim + ["--snr", "10", "--trials", "-5"],
        sim + ["--snr", "10", "--rx", "0"],
        sim + ["--snr", "10", "--seed", "-3"],
        sim + ["--snr", "10", "--angle", "foo"],
        sim + ["--snr", "a:1:3"],
        sim + ["--snr", "5:1:3"],  # stop below start: no SNR point
        sim + ["--snr", "0:1:inf"],
        sim + ["--snr", "0:1e-5:1"],  # 100001 points, over MAX_SNR_POINTS
        sim + ["--snr", "0:1e-300:1"],
        sim + ["--snr", "1e20:1:1e20"],  # the step is below the float spacing at 1e20
        ["simulate", "--code", str(not_ssd_path), "--constellation", "qam4",
         "--snr", "10", "--decoder", "ssd", "--out", str(tmp_path / "o.csv")],
        ["simulate", "--code", str(code), "--constellation", "qam64", "--snr", "10",
         "--decoder", "brute-ml", "--out", str(tmp_path / "o.csv")],  # 64^4 > ML budget
        ["coding-gain", "--code", str(code), "--constellation", "qam4", "--angle", "foo"],
        ["coding-gain", "--code", str(code), "--constellation", "qam4", "--angle", "nan"],
        ["coding-gain", "--code", str(code8), "--constellation", "qam16",
         "--brute-force"],  # 49^6 difference vectors, over the unreduced search's budget
        ["family", "--a", "9", "--out", str(tmp_path / "x.json")],
        ["construct", "--antennas", "128", "--family", "ussd", "--out", str(tmp_path / "x.json")],
    ]
    for args in bad_inputs:
        result = runner.invoke(main, args)
        assert result.exit_code == 2, (args, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit), args
        assert "Error:" in result.output and "Traceback" not in result.output
    assert not (tmp_path / "o.csv").exists()
    # lists within the bound keep the values the accumulating loop gives
    assert len(_parse_snr("0:1:999")) == MAX_SNR_POINTS
    assert _parse_snr("0:0.1:1") == [round(0.1 * i, 9) for i in range(11)]
    # malformed code files fail at the boundary with one line, not a traceback
    obj = json.loads(code.read_text())
    obj["weights"][0][0]["entries"][0][0] = [2 ** 60, 0]  # outside the magnitude guard
    boolean = json.loads(code.read_text())
    boolean["weights"][0][0]["entries"][0][0] = [True, False]  # not read as 1 + 0j
    # sizes must be JSON integers: 4.5 is not read as 4, nor "4" as 4
    not_int = []
    for where, key, value in ((None, "n", 4.5), (None, "n", "4"), (None, "n", True),
                              (None, "k", 4.0), ((0, 0), "n", 4.5), ((1, 1), "n", "4")):
        bad = json.loads(code.read_text())
        (bad if where is None else bad["weights"][where[0]][where[1]])[key] = value
        not_int.append((f"not-int-{len(not_int)}.json", bad))
    # a declared class is null or one of the four class names, and a label is a string
    fields = []
    for key, value in (("class", 3), ("class", "COD "), ("class", ["COD"]),
                       ("label", {"x": 1}), ("label", 5), ("label", None)):
        bad = json.loads(code.read_text())
        bad[key] = value
        fields.append((f"{key}-{len(fields)}.json", bad))
    # a weights value that is not a list of [A, B] pairs of matrix objects says so, where
    # Python's own text ("not enough values to unpack", "list indices must be integers")
    # named no field
    matrix = json.loads(code.read_text())["weights"][0][0]
    weights = []
    for value in ({"A": matrix}, 4, None, [[matrix]], [[matrix, matrix, matrix]],
                  [[1, matrix]], [[matrix, matrix["entries"]]]):
        bad = json.loads(code.read_text())
        bad["weights"] = value
        weights.append((f"weights-{len(weights)}.json", bad))
    # so do codes with no weight pairs or n < 1
    for name, content in [("keys.json", {"n": 4}), ("guard.json", obj), ("bool.json", boolean),
                          ("empty.json", {"n": 4, "weights": []}),
                          ("n0.json", {"n": 0, "weights": []}),
                          ("negative-n.json", {"n": -1, "weights": []})] + not_int + fields \
            + weights:
        path = tmp_path / name
        path.write_text(json.dumps(content))
        for args in (["verify", str(path)],
                     ["coding-gain", "--code", str(path), "--constellation", "qam4"],
                     ["simulate", "--code", str(path), "--constellation", "qam4",
                      "--snr", "10", "--trials", "10", "--out", str(tmp_path / "o.csv")]):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, result.output
            assert result.exception is None or isinstance(result.exception, SystemExit)
            line = _one_error_line(result)
            assert "not a valid code file" in line
            if name.startswith("weights-"):
                assert "ValueError: weights must be" in line, line
    assert not (tmp_path / "o.csv").exists()


def _one_error_line(result) -> str:
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and "Traceback" not in result.output, result.output
    return errors[0]


def test_deeply_nested_code_file_is_a_usage_error(runner, tmp_path):
    # json's scanner raises RecursionError on deep nesting: like any malformed code file it
    # is exit 2 and one line, not a traceback under 1, the verification-failure code
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000)
    for args in (["verify", str(path)],
                 ["coding-gain", "--code", str(path), "--constellation", "qam4"],
                 ["simulate", "--code", str(path), "--constellation", "qam4", "--snr", "10",
                  "--trials", "10", "--out", str(tmp_path / "o.csv")]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit), args
        assert "not a valid code file: RecursionError" in _one_error_line(result)
    assert not list(tmp_path.glob("o.csv*"))


def test_output_in_missing_directory_is_a_usage_error(runner, tmp_path, monkeypatch):
    # every output path is checked as its option is parsed: exit 2 and one line before any
    # work, so simulate never starts its sweep and nothing is written
    code = tmp_path / "c.json"
    _invoke(runner, "construct", "--antennas", "4", "--family", "ussd", "--out", str(code))
    monkeypatch.setattr(simulator, "simulate_cer", lambda config: pytest.fail("sweep started"))
    missing = str(tmp_path / "missing" / "out.json")
    before = sorted(tmp_path.rglob("*"))
    for args in (["family", "--a", "2", "--out", missing],
                 ["construct", "--antennas", "4", "--family", "ussd", "--out", missing],
                 ["verify", str(code), "--report", missing],
                 ["simulate", "--code", str(code), "--constellation", "qam4", "--snr", "10",
                  "--trials", "10", "--out", missing]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, (args, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit), args
        assert "does not exist" in _one_error_line(result)
    assert sorted(tmp_path.rglob("*")) == before


def test_verify_fails_a_code_with_nearly_dependent_weights(runner, tmp_path):
    # A_1 = I, B_1 = diag(1 + 1e-6, 1 - 1e-6): singular values in the ratio 5e-7, at or
    # below the rule's 1e-5, so the weights count as dependent
    code = LinearDispersionCode(label="eps", n=2, w=[(np.eye(2), np.diag([1 + 1e-6, 1 - 1e-6]))])
    path = tmp_path / "eps.json"
    path.write_text(json.dumps(code_to_json_dict(code)))
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 1
    assert "independent=False [FAIL]" in result.output


def test_verify_report_gives_the_residual_of_a_failed_condition(runner, tmp_path):
    # cod4 with A_2 scaled by 1 + 1e-9 and B_2 by s, (1 + 1e-9)^2 + s^2 = 2, keeps c and every
    # vanishing sum, and misses UW for symbol 2 only, by a near miss; the report gives the
    # residual the verdict judged, ||G_pp - c I|| / c, the worse of the symbol's two
    a_scale = 1 + 1e-9
    b_scale = np.sqrt(2 - a_scale ** 2)
    w = np.array(build_square_cod(2, generate_family(2)).w)
    w[1, 0] *= a_scale
    w[1, 1] *= b_scale
    path = tmp_path / "near.json"
    path.write_text(json.dumps(code_to_json_dict(LinearDispersionCode(label="near", n=4, w=w))))
    report = tmp_path / "report.json"
    assert _invoke(runner, "verify", str(path), "--report", str(report)).exit_code == 0
    rep = json.loads(report.read_text())
    assert rep["class"] == "non-unitary-weight-SSD"
    c = (a_scale ** 2 + b_scale ** 2 + 4) / 6  # the mean of trace(W_p^H W_p) / n
    want = 2 * max(abs(a_scale ** 2 - c), abs(b_scale ** 2 - c)) / c  # ||x I|| = 2 |x|, n = 4
    (failure,) = rep["failed_conditions"]
    assert (failure["condition"], failure["i"], failure["j"]) == ("UW", 2, 2)
    assert failure["residual"] == pytest.approx(want, rel=1e-4)
    assert 1e-10 < failure["residual"] < 1e-8  # above the tolerance 1e-10 c, but barely
    # a report with no failure keeps its bytes
    clean = tmp_path / "cod4.json"
    _invoke(runner, "construct", "--antennas", "4", "--family", "cod", "--out", str(clean))
    assert _invoke(runner, "verify", str(clean), "--report", str(report)).exit_code == 0
    assert report.read_text() == json.dumps({
        "label": "square-cod-4tx", "class": "COD", "declared_class": "COD",
        "linear_independent": True, "normalized": True, "failed_conditions": []}) + "\n"

@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_output_files_follow_the_umask(runner, tmp_path, umask):
    # a new file gets the mode open(path, "w") gives it, not the temp file's 0600
    code, report, csv_path = (tmp_path / name for name in ("c.json", "report.json", "cer.csv"))
    old = os.umask(umask)
    try:
        _invoke(runner, "construct", "--antennas", "2", "--family", "ussd", "--out", str(code))
        _invoke(runner, "verify", str(code), "--report", str(report))
        _invoke(runner, "simulate", "--code", str(code), "--constellation", "qam4", "--snr", "10",
                "--trials", "10", "--out", str(csv_path))
    finally:
        os.umask(old)
    for path in (code, report, csv_path, tmp_path / "cer.csv.config.json"):
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path.name


def test_failed_rename_keeps_the_target_and_leaves_no_temp_file(runner, tmp_path,
                                                                monkeypatch):
    out = tmp_path / "c.json"
    _invoke(runner, "construct", "--antennas", "2", "--family", "ussd", "--out", str(out))
    before = out.read_bytes()

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    result = runner.invoke(main, ["construct", "--antennas", "4", "--family", "ussd",
                                  "--out", str(out)])
    assert isinstance(result.exception, OSError) and "rename failed" in str(result.exception)
    assert out.read_bytes() == before
    assert os.listdir(tmp_path) == ["c.json"]


def test_writes_leave_the_umask_alone(runner, tmp_path, monkeypatch):
    # the kernel applies the umask to the temp file's one open: no command reads or sets it
    def fail(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", fail)
    code, report, csv_path = (tmp_path / name for name in ("c.json", "report.json", "cer.csv"))
    _invoke(runner, "construct", "--antennas", "2", "--family", "ussd", "--out", str(code))
    _invoke(runner, "verify", str(code), "--report", str(report))
    _invoke(runner, "simulate", "--code", str(code), "--constellation", "qam4", "--snr", "10",
            "--trials", "10", "--out", str(csv_path))
    assert sorted(os.listdir(tmp_path)) == ["c.json", "cer.csv", "cer.csv.config.json",
                                            "report.json"]


def test_long_output_names_are_written(runner, tmp_path):
    # the temp file's name has a fixed length, so any name the directory takes can be written:
    # 250-byte code, report and sidecar names, and a CSV whose sidecar name is the longest
    name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
    code, report = tmp_path / ("c" * 245 + ".json"), tmp_path / ("r" * 245 + ".json")
    assert _invoke(runner, "construct", "--antennas", "4", "--family", "ussd",
                   "--out", str(code)).exit_code == 0
    assert _invoke(runner, "verify", str(code), "--report", str(report)).exit_code == 0
    csv_names = ["s" * (250 - len(".csv.config.json")) + ".csv",
                 "t" * (name_max - len(".csv.config.json")) + ".csv"]
    for name in csv_names:
        result = _invoke(runner, "simulate", "--code", str(code), "--constellation", "qam4",
                         "--snr", "10", "--trials", "10", "--out", str(tmp_path / name))
        assert result.exit_code == 0
    names = [code.name, report.name] + [n + s for n in csv_names for s in ("", ".config.json")]
    assert [len(name.encode()) for name in names] == [250, 250, 238, 250, name_max - 12, name_max]
    assert sorted(os.listdir(tmp_path)) == sorted(names)
    assert json.loads(code.read_text())["label"] == "max-rate-ussd-4tx"


def test_output_names_that_cannot_be_written_are_usage_errors(runner, tmp_path, monkeypatch):
    # a name longer than the directory takes is exit 2 and one line before any work; for
    # simulate that includes its sidecar, so no CSV is written without one
    name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
    code = tmp_path / "c.json"
    _invoke(runner, "construct", "--antennas", "4", "--family", "ussd", "--out", str(code))
    monkeypatch.setattr(simulator, "simulate_cer", lambda config: pytest.fail("sweep started"))
    too_long = str(tmp_path / ("x" * (name_max - len(".json") + 1) + ".json"))
    csv_path = str(tmp_path / ("s" * (name_max - len(".csv.config.json") + 1) + ".csv"))
    for args, named in (
            (["family", "--a", "2", "--out", too_long], too_long),
            (["construct", "--antennas", "4", "--family", "ussd", "--out", too_long], too_long),
            (["verify", str(code), "--report", too_long], too_long),
            (["simulate", "--code", str(code), "--constellation", "qam4", "--snr", "10",
              "--trials", "10", "--out", csv_path], csv_path + ".config.json")):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, (args, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit), args
        line = _one_error_line(result)
        assert repr(named) in line and f"longer than the {name_max} bytes" in line
    assert os.listdir(tmp_path) == ["c.json"]
    # a directory where the sidecar goes is caught at the boundary too
    (tmp_path / "cer.csv.config.json").mkdir()
    result = runner.invoke(main, ["simulate", "--code", str(code), "--constellation", "qam4",
                                  "--snr", "10", "--trials", "10",
                                  "--out", str(tmp_path / "cer.csv")])
    assert result.exit_code == 2, result.output
    assert f"{str(tmp_path / 'cer.csv.config.json')!r} is a directory" in _one_error_line(result)
    assert sorted(os.listdir(tmp_path)) == ["c.json", "cer.csv.config.json"]


def test_process_exit_codes(tmp_path):
    # CliRunner emulates sys.exit; here a real interpreter runs the CLI module and exits
    src = os.path.dirname(os.path.dirname(stbc_forge.__file__))  # the package under test
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "stbc_forge.cli", *args], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)

    assert run("construct", "--antennas", "4", "--family", "ussd",
               "--out", "ussd4.json").returncode == 0
    assert run("verify", "ussd4.json").returncode == 0
    obj = json.loads((tmp_path / "ussd4.json").read_text())
    obj["weights"][1][0] = obj["weights"][2][0]  # breaks SSD-II
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    result = run("verify", "bad.json")
    assert result.returncode == 1 and "SSD-II" in result.stdout
    (tmp_path / "empty.json").write_text(json.dumps({"n": 4, "weights": []}))
    result = run("verify", "empty.json")
    assert result.returncode == 2
    assert [line.startswith("Error:") for line in result.stderr.splitlines()].count(True) == 1
    assert "Traceback" not in result.stderr

# ----------------------------------------------------------------------
# _write_json writes json.dumps(obj) and a newline


def test_write_json_on_every_output_file(runner, tmp_path):
    """Every family, code, report and sidecar the CLI writes is json.dumps(obj) and a newline."""
    def code_dict(code):
        return code_to_json_dict(code, declared_class=classify(code).code_class)

    cases = [("ciod4.json", ["construct", "--antennas", "4", "--family", "ciod4"],
              code_dict(build_ciod4()))]
    for a in range(1, MAX_DOUBLINGS + 1):
        fam = generate_family(a)
        cases += [
            (f"family{a}.json", ["family", "--a", str(a)], family_to_json_dict(fam)),
            (f"ussd{fam.n}.json", ["construct", "--antennas", str(fam.n), "--family", "ussd"],
             code_dict(build_max_rate_ussd(a, fam))),
            (f"cod{fam.n}.json", ["construct", "--antennas", str(fam.n), "--family", "cod"],
             code_dict(build_square_cod(a, fam))),
        ]
    for name, args, obj in cases:
        assert _invoke(runner, *args, "--out", str(tmp_path / name)).exit_code == 0
        assert (tmp_path / name).read_text() == json.dumps(obj) + "\n", name
    # the outputs whose objects the CLI builds: a report with failures, a sidecar
    corrupt = json.loads((tmp_path / "ussd4.json").read_text())
    corrupt["weights"][1][0] = corrupt["weights"][2][0]
    (tmp_path / "bad.json").write_text(json.dumps(corrupt))
    report = tmp_path / "report.json"
    assert _invoke(runner, "verify", str(tmp_path / "bad.json"), "--report",
                   str(report)).exit_code == 1
    csv_path = tmp_path / "cer.csv"
    assert _invoke(runner, "simulate", "--code", str(tmp_path / "ciod4.json"),
                   "--constellation", "qam16", "--snr", "0:2.5:10", "--trials", "200",
                   "--out", str(csv_path)).exit_code == 0
    for path in (report, tmp_path / "cer.csv.config.json"):
        text = path.read_text()
        assert text == json.dumps(json.loads(text)) + "\n"
    assert json.loads(report.read_text())["failed_conditions"]


def _cycles():
    """Containers inside themselves: through a rectangular block, a ragged list, a dict."""
    block = []
    block += [block, block]
    ragged = [1]
    ragged.append(ragged)
    mapping = {}
    mapping["a"] = [mapping]
    deep = [[1]]
    deep[0].append(deep)
    return [block, ragged, mapping, deep]


@pytest.mark.parametrize("obj", [
    np.int64(3), {"n": np.int64(4)}, [[np.int64(1), 2]], [[1, 2], [3, np.int64(4)]],
    [object()], {"a": {1, 2}}, {(1, 2): 3},
] + _cycles())
def test_write_json_rejects_what_json_rejects(tmp_path, obj):
    with pytest.raises((TypeError, ValueError)) as rejected:
        json.dumps(obj)
    with pytest.raises(rejected.type):
        _write_json(str(tmp_path / "x.json"), obj)
    assert not (tmp_path / "x.json").exists()
