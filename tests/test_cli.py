"""End-to-end CLI: JSON round trips, exit codes, output files."""

import json

import pytest
from click.testing import CliRunner

from stbc_forge.cli import main
from stbc_forge.clifford import family_from_json_dict, verify_family
from stbc_forge.codes import code_from_json_dict
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
    fam = family_from_json_dict(obj)
    assert verify_family(fam).ok


@pytest.mark.parametrize("antennas,family,klass", [
    (2, "ussd", "unitary-weight-SSD"),
    (4, "ussd", "unitary-weight-SSD"),
    (8, "ussd", "unitary-weight-SSD"),
    (2, "cod", "COD"),
    (4, "cod", "COD"),
    (8, "cod", "COD"),
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


def test_verify_flags_wrong_declared_class(runner, tmp_path):
    out = tmp_path / "code.json"
    _invoke(runner, "construct", "--antennas", "4", "--family", "ussd",
            "--out", str(out))
    obj = json.loads(out.read_text())
    obj["class"] = "COD"
    out.write_text(json.dumps(obj))
    result = runner.invoke(main, ["verify", str(out)])
    assert result.exit_code == 1


def test_coding_gain_prints_table_value(runner, tmp_path):
    out = tmp_path / "ussd4.json"
    _invoke(runner, "construct", "--antennas", "4", "--family", "ussd", "--out", str(out))
    result = _invoke(runner, "coding-gain", "--code", str(out),
                     "--constellation", "qam4", "--angle", "auto", "--energy", "raw")
    assert result.exit_code == 0
    assert "10.240000" in result.output

    ciod = tmp_path / "ciod4.json"
    _invoke(runner, "construct", "--antennas", "4", "--family", "ciod4", "--out", str(ciod))
    result = _invoke(runner, "coding-gain", "--code", str(ciod),
                     "--constellation", "qam4", "--angle", "auto", "--energy", "raw")
    assert result.exit_code == 0
    assert "10.240000" in result.output


def test_coding_gain_8qam_choice(runner, tmp_path):
    out = tmp_path / "ussd4.json"
    _invoke(runner, "construct", "--antennas", "4", "--family", "ussd", "--out", str(out))
    result = _invoke(runner, "coding-gain", "--code", str(out),
                     "--constellation", "8qam-sq", "--angle", "auto", "--energy", "raw")
    assert result.exit_code == 0
    assert "min_det" in result.output


def test_coding_gain_explicit_angle_and_full_search(runner, tmp_path):
    out = tmp_path / "ussd2.json"
    _invoke(runner, "construct", "--antennas", "2", "--family", "ussd", "--out", str(out))
    result = _invoke(runner, "coding-gain", "--code", str(out),
                     "--constellation", "qam4", "--angle", "0.7",
                     "--energy", "raw", "--brute-force")
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
    # deterministic repeat
    first = csv_path.read_text()
    _invoke(runner, "simulate", "--code", str(code), "--constellation", "qam4",
            "--angle", "auto", "--snr", "0:5:10", "--trials", "500", "--seed", "9",
            "--out", str(csv_path))
    assert csv_path.read_text() == first


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
    # malformed code files fail at the boundary with one line, not a traceback
    obj = json.loads(code.read_text())
    obj["weights"][0][0]["entries"][0][0] = [2 ** 60, 0]  # outside the magnitude guard
    for name, content in (("keys.json", {"n": 4}), ("guard.json", obj)):
        path = tmp_path / name
        path.write_text(json.dumps(content))
        for args in (["verify", str(path)],
                     ["coding-gain", "--code", str(path), "--constellation", "qam4"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, result.output
            assert result.exception is None or isinstance(result.exception, SystemExit)
            assert "not a valid code file" in result.output
            assert "Traceback" not in result.output
