"""The three workloads: their set-up, the commands of one round, and the
oracle that checks every command's output.

A round is a fixed list of operations; the client issues them one at a
time (a closed loop with one client).  Each operation is one in-process
CLI call (``stbc_forge.cli.main`` with ``standalone_mode=False``) or,
where the CLI has no command, one call to the package's public API.

Every workload measures every end-to-end metric, so each round holds
three groups of operations:

``design``  CLI commands that build, verify and score codes;
``ssd``     ``simulate --decoder ssd`` sweeps;
``ml``      ``simulate --decoder brute-ml`` jobs;

plus ``twin`` commands, the SSD runs that repeat a brute-ML job's draws
for the decoder-equivalence check, which no metric counts.

The workload decides how large each group is.  ``design`` is dominated
by the full design pass and carries small, fixed simulation probes;
``mc-small`` and ``mc-large`` are dominated by their simulations and
carry a small design pass over the 4-antenna code.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("design", "mc-small", "mc-large")
LADDER = (2, 3, 4, 5)          # a = 6 is left out for run length, see README.md
CER_Z = 6.0                    # statistical tolerance of a CER check, in standard deviations

UW_SSD = "unitary-weight-SSD"

# simulation configurations: code file, constellation, SNR list, rx, trials per point
SWEEPS_SMALL = (("ussd4", "qam16", "10:5:20"), ("ciod4", "qam16", "10:5:20"),
                ("ussd4", "qam64", "15:5:25"), ("ciod4", "qam64", "15:5:25"))
SMALL_TRIALS = 2000
PROBE_SWEEP = ("ussd4", "qam16", "10:5:20")
PROBE_TRIALS = 10000
ML_JOB = ("ussd4", "qam4", "6:4:10")
ML_TRIALS = 500
LARGE_SIM = ("ussd8", "qam16", "10")
LARGE_RX = 2
LARGE_TRIALS = 100_000


@dataclass
class Outcome:
    code: int                    # exit code; 0 when a library call returned
    stdout: str
    error: str | None = None     # the exception, when the call raised
    value: object = None         # return value of a library call


@dataclass
class Op:
    label: str                   # names the operation in the oracle verdicts
    group: str                   # "design", "ssd", "ml", "twin" or "setup"
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    check: Callable[[Outcome, dict], list[str]] | None = None
    trials: int = 0
    pass_id: int = 0             # design pass within the round
    outputs: tuple[str, ...] = ()


@dataclass
class Setup:
    workload: str
    seed: int
    workdir: Path
    ref: dict
    files: dict[str, str] = field(default_factory=dict)

    def path(self, name: str) -> str:
        return str(self.workdir / name)


def load_reference() -> dict:
    with open(Path(__file__).with_name("reference.json")) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# output parsing and checks

_MIN_DET = re.compile(r"min_det = (\S+)")
_DIFF = re.compile(r"([+-]\d+\.\d+)([+-]\d+\.\d+)j")


def _expect_exit(out: Outcome, code: int) -> list[str]:
    if out.error is not None and out.code not in (0, 1, 2):
        return [f"raised {out.error}"]
    if out.code != code:
        return [f"exit code {out.code}, expected {code}" + (f" ({out.error})" if out.error else "")]
    return []


def _close(value: float, expected: float, rel: float = 1e-5, abs_: float = 1.5e-6) -> bool:
    return abs(value - expected) <= max(abs_, rel * abs(expected))


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def check_family(a: int, path: str):
    def check(out: Outcome, ctx: dict) -> list[str]:
        fails = _expect_exit(out, 0)
        if not fails and len(_read_json(path)["matrices"]) != 2 * a + 1:
            fails.append(f"family does not have {2 * a + 1} matrices")
        return fails
    return check


def check_construct(expected_class: str):
    def check(out: Outcome, ctx: dict) -> list[str]:
        fails = _expect_exit(out, 0)
        if not fails and f"class={expected_class} " not in out.stdout:
            fails.append(f"class is not {expected_class}: {out.stdout.strip()}")
        return fails
    return check


def check_verify(report: str, expected_class: str, expected_exit: int):
    def check(out: Outcome, ctx: dict) -> list[str]:
        fails = _expect_exit(out, expected_exit)
        if out.error is None:
            rep = _read_json(report)
            if rep["class"] != expected_class:
                fails.append(f"class {rep['class']}, expected {expected_class}")
            if not rep["linear_independent"]:
                fails.append("weights reported linearly dependent")
        return fails
    return check


def check_min_det(expected: float, key: str | None = None):
    """Min det printed by ``coding-gain`` equals ``expected``; the value and
    the difference vector are kept in ``ctx[key]`` for later checks."""
    def check(out: Outcome, ctx: dict) -> list[str]:
        fails = _expect_exit(out, 0)
        if fails:
            return fails
        value = float(_MIN_DET.search(out.stdout).group(1))
        diff = [complex(float(r), float(i)) for r, i in _DIFF.findall(out.stdout)]
        if key is not None:
            ctx[key] = (value, diff)
        if not _close(value, expected):
            fails.append(f"min det {value:.6f}, expected {expected:.6f}")
        return fails
    return check


def check_closed_form(expected: float, n: int, search_key: str):
    """Closed form equals the stored reference and the reduced search of
    the same pass, both in value and in the minimizing difference."""
    def check(out: Outcome, ctx: dict) -> list[str]:
        fails = _expect_exit(out, 0)
        if fails:
            return fails
        closed = float(out.value)
        if not _close(closed, expected, rel=1e-9, abs_=0.0):
            fails.append(f"closed form {closed!r}, reference {expected!r}")
        if search_key not in ctx:
            return fails + ["no reduced search to compare with"]
        value, diff = ctx[search_key]
        if not _close(value, closed):
            fails.append(f"closed form {closed:.6g} != reduced search {value:.6f}")
        # the minimizing single-symbol difference d must reach the closed
        # form's base |d_I^2 - d_Q^2| = (closed / (2/n)^n)^(1/n)
        nonzero = [d for d in diff if abs(d) > 1e-9]
        base = (closed / (2.0 / n) ** n) ** (1.0 / n)
        if len(nonzero) != 1 or not _close(abs(nonzero[0].real ** 2 - nonzero[0].imag ** 2),
                                           base, rel=1e-4, abs_=0.0):
            fails.append(f"reduced search difference {diff} does not reach base {base:.6f}")
        return fails
    return check


def read_cer(path: str) -> list[dict]:
    with open(path) as fh:
        return [{"snr": float(r["snr_db"]), "trials": int(r["trials"]),
                 "errors": int(r["errors"])} for r in csv.DictReader(fh)]


def cer_within(errors: int, trials: int, p_ref: float, n_ref: int, z: float = CER_Z) -> bool:
    """Error count consistent with a reference CER measured on n_ref trials.

    The tolerance is z standard deviations of the difference between the
    two binomial estimates, plus one error for the discreteness.
    """
    var = trials * p_ref * (1 - p_ref) + (trials ** 2) * p_ref * (1 - p_ref) / n_ref
    return abs(errors - trials * p_ref) <= z * math.sqrt(var) + 1.0


def check_cer(out_csv: str, key: str, rx: int, trials: int, ref: dict, ml_key: str | None = None,
              twin_of: str | None = None):
    """CER per point within tolerance of the stored reference.

    ``ml_key`` stores the per-point error counts for a later twin;
    ``twin_of`` demands the counts equal that earlier job's exactly.
    """
    def check(out: Outcome, ctx: dict) -> list[str]:
        fails = _expect_exit(out, 0)
        if fails:
            return fails
        rows = read_cer(out_csv)
        for row in rows:
            pref, nref = ref[f"{key}/rx{rx}/{row['snr']:g}"]
            if row["trials"] != trials:
                fails.append(f"{row['trials']} trials at {row['snr']:g} dB, expected {trials}")
            elif not cer_within(row["errors"], row["trials"], pref, nref):
                fails.append(f"{row['errors']} errors in {row['trials']} at {row['snr']:g} dB, "
                             f"reference CER {pref:.5f}")
        counts = [r["errors"] for r in rows]
        if ml_key is not None:
            ctx[ml_key] = counts
        if twin_of is not None and ctx.get(twin_of) != counts:
            fails.append(f"SSD errors {counts} != brute-ML errors {ctx.get(twin_of)} "
                         "on identical draws")
        if not Path(out_csv + ".config.json").is_file():
            fails.append("no config sidecar")
        return fails
    return check


# ----------------------------------------------------------------------
# operations

def _cli(label, group, argv, check, outputs=(), trials=0, pass_id=0) -> Op:
    return Op(label=label, group=group, argv=[str(a) for a in argv], check=check,
              trials=trials, pass_id=pass_id, outputs=tuple(outputs))


def _npoints(snr: str) -> int:
    parts = [float(p) for p in snr.split(":")]
    return 1 if len(parts) == 1 else int(round((parts[2] - parts[0]) / parts[1])) + 1


def simulate_op(s: Setup, label, group, code, constellation, snr, rx, trials, seed, out,
                decoder="ssd", ml_key=None, twin_of=None) -> Op:
    out_csv = s.path(out)
    argv = ["simulate", "--code", s.files[code], "--constellation", constellation,
            "--angle", "auto", "--snr", snr, "--rx", rx, "--trials", trials, "--seed", seed,
            "--decoder", decoder, "--out", out_csv]
    check = check_cer(out_csv, f"{code}/{constellation}", rx, trials, s.ref["cer"],
                      ml_key=ml_key, twin_of=twin_of)
    return _cli(label, group, argv, check, outputs=(out_csv, out_csv + ".config.json"),
                trials=trials * _npoints(snr))


def ml_ops(s: Setup, rng: random.Random, tag: str) -> list[Op]:
    """A brute-ML job and its SSD twin on the same seed and configuration."""
    code, constellation, snr = ML_JOB
    seed = rng.getrandbits(31)
    return [
        simulate_op(s, f"simulate brute-ml {code} {constellation}", "ml", code, constellation,
                    snr, 1, ML_TRIALS, seed, f"ml-{tag}.csv", decoder="brute-ml",
                    ml_key=f"ml-{tag}"),
        simulate_op(s, f"simulate ssd twin of brute-ml {code} {constellation}", "twin", code,
                    constellation, snr, 1, ML_TRIALS, seed, f"twin-{tag}.csv",
                    twin_of=f"ml-{tag}"),
    ]


def _closed_form(n: int):
    def call():
        import stbc_forge as sf
        return sf.min_det_closed_form(sf.rotated_qam(16, sf.optimal_angle()), n)
    return call


def code_chain(s: Setup, family: str, a: int, pass_id: int, prefix: str = "") -> list[Op]:
    """construct, verify --report and coding-gain --angle auto on QAM16."""
    n = 2 ** a
    name = f"{family}{n}"
    code_file, report = s.path(f"{prefix}{name}.json"), s.path(f"{prefix}{name}.report.json")
    cls = s.ref["classes"][family]
    return [
        _cli(f"construct {name}", "design",
             ["construct", "--antennas", n, "--family", family, "--out", code_file],
             check_construct(cls), (code_file,), pass_id=pass_id),
        _cli(f"verify {name}", "design", ["verify", code_file, "--report", report],
             check_verify(report, cls, 0), (report,), pass_id=pass_id),
        _cli(f"coding-gain {name} qam16", "design",
             ["coding-gain", "--code", code_file, "--constellation", "qam16", "--angle", "auto"],
             check_min_det(s.ref["min_det"][f"{name}/qam16"], key=f"{prefix}{name}/qam16"),
             pass_id=pass_id),
    ]


def ussd_closed_form_op(s: Setup, a: int, pass_id: int, prefix: str = "") -> Op:
    n = 2 ** a
    return Op(label=f"closed form ussd{n} qam16", group="design", call=_closed_form(n),
              check=check_closed_form(s.ref["min_det"][f"ussd{n}/qam16"], n,
                                      f"{prefix}ussd{n}/qam16"),
              pass_id=pass_id)


def mini_pass(s: Setup, pass_id: int) -> list[Op]:
    """The design pass cut to the 4-antenna unitary-weight code."""
    fam = s.path(f"mini-family{pass_id}.json")
    return ([_cli("family a=2", "design", ["family", "--a", 2, "--out", fam],
                  check_family(2, fam), (fam,), pass_id=pass_id)]
            + code_chain(s, "ussd", 2, pass_id, prefix="mini-")
            + [ussd_closed_form_op(s, 2, pass_id, prefix="mini-")])


def design_pass(s: Setup) -> list[Op]:
    ops: list[Op] = []
    ref = s.ref["min_det"]
    for a in LADDER:
        fam = s.path(f"family{a}.json")
        ops.append(_cli(f"family a={a}", "design", ["family", "--a", a, "--out", fam],
                        check_family(a, fam), (fam,)))
        ops += code_chain(s, "ussd", a, 0) + code_chain(s, "cod", a, 0)
        ops.append(ussd_closed_form_op(s, a, 0))
    # the 4-antenna interleaved baseline
    ciod = s.path("ciod4.json")
    report = s.path("ciod4.report.json")
    ops += [
        _cli("construct ciod4", "design",
             ["construct", "--antennas", 4, "--family", "ciod4", "--out", ciod],
             check_construct(s.ref["classes"]["ciod4"]), (ciod,)),
        _cli("verify ciod4", "design", ["verify", ciod, "--report", report],
             check_verify(report, s.ref["classes"]["ciod4"], 0), (report,)),
        _cli("coding-gain ciod4 qam16", "design",
             ["coding-gain", "--code", ciod, "--constellation", "qam16", "--angle", "auto"],
             check_min_det(ref["ciod4/qam16"])),
    ]
    # unreduced search against the reduced one on QAM4
    for name, path in (("ussd4", s.path("ussd4.json")), ("ciod4", ciod)):
        ops += [
            _cli(f"coding-gain {name} qam4", "design",
                 ["coding-gain", "--code", path, "--constellation", "qam4", "--angle", "auto"],
                 check_min_det(ref[f"{name}/qam4"], key=f"{name}/qam4")),
            _cli(f"coding-gain --brute-force {name} qam4", "design",
                 ["coding-gain", "--code", path, "--constellation", "qam4", "--angle", "auto",
                  "--brute-force"],
                 _full_equals_reduced(ref[f"{name}/qam4"], f"{name}/qam4")),
        ]
    # float-mode inputs: a unitary left-multiply and a uniform scale change
    # neither the class nor the min det of the 4-antenna code
    for name in ("ussd4-unitary", "ussd4-scaled2"):
        report = s.path(f"{name}.report.json")
        ops += [
            _cli(f"verify {name}", "design", ["verify", s.files[name], "--report", report],
                 check_verify(report, UW_SSD, 0), (report,)),
            _cli(f"coding-gain {name} qam16", "design",
                 ["coding-gain", "--code", s.files[name], "--constellation", "qam16",
                  "--angle", "auto"],
                 check_min_det(ref["ussd4/qam16"])),
        ]
    # a declared class that contradicts the computed one must exit 1
    report = s.path("ussd4-mislabelled.report.json")
    ops.append(_cli("verify ussd4-mislabelled", "design",
                    ["verify", s.files["ussd4-mislabelled"], "--report", report],
                    check_verify(report, UW_SSD, 1), (report,)))
    return ops


def _full_equals_reduced(expected: float, reduced_key: str):
    by_value = check_min_det(expected)

    def check(out: Outcome, ctx: dict) -> list[str]:
        fails = by_value(out, ctx)
        if not fails:
            if "full search" not in out.stdout:
                fails.append("search was not the unreduced one")
            value = float(_MIN_DET.search(out.stdout).group(1))
            if reduced_key not in ctx or not _close(value, ctx[reduced_key][0]):
                fails.append(f"full search {value:.6f} != reduced search {ctx.get(reduced_key)}")
        return fails
    return check


def round_ops(s: Setup, r: int) -> list[Op]:
    """The operations of round r; the same (seed, r) gives the same list."""
    rng = random.Random(f"{s.seed}:{s.workload}:{r}")
    ops: list[Op] = []
    if s.workload == "design":
        ops += design_pass(s)
        for i in range(8):
            if i < 6:
                code, constellation, snr = PROBE_SWEEP
                ops.append(simulate_op(s, f"simulate ssd {code} {constellation}", "ssd", code,
                                       constellation, snr, 1, PROBE_TRIALS, rng.getrandbits(31),
                                       f"probe{i}.csv"))
            ops += ml_ops(s, rng, str(i))
    elif s.workload == "mc-small":
        for i, (code, constellation, snr) in enumerate(SWEEPS_SMALL):
            ops.append(simulate_op(s, f"simulate ssd {code} {constellation}", "ssd", code,
                                   constellation, snr, 1, SMALL_TRIALS, rng.getrandbits(31),
                                   f"sweep{i}.csv"))
        ops += ml_ops(s, rng, "0")
        ops += mini_pass(s, 0)
    elif s.workload == "mc-large":
        code, constellation, snr = LARGE_SIM
        ops.append(simulate_op(s, f"simulate ssd {code} {constellation} rx{LARGE_RX}", "ssd",
                               code, constellation, snr, LARGE_RX, LARGE_TRIALS,
                               rng.getrandbits(31), "large.csv"))
        for i in range(5):
            ops += ml_ops(s, rng, str(i))
            ops += mini_pass(s, i)
    else:
        raise ValueError(f"unknown workload {s.workload!r}")
    return ops


# ----------------------------------------------------------------------
# set-up: input files and warm-up

def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _transform_code(obj: dict, fn, label: str, declared: str) -> dict:
    """Apply fn to every weight matrix of a code file, in float mode."""
    def mat(m):
        z = np.array([[complex(re_, im_) for re_, im_ in row] for row in m["entries"]])
        w = fn(z)
        return {"n": m["n"], "mode": "float",
                "entries": [[[float(v.real), float(v.imag)] for v in row] for row in w]}
    return {"label": label, "n": obj["n"], "k": obj["k"], "class": declared,
            "weights": [[mat(a), mat(b)] for a, b in obj["weights"]]}


def input_ops(s: Setup) -> list[Op]:
    """CLI commands that write the workload's input code files."""
    codes = {"design": ("ussd4",), "mc-small": ("ussd4", "ciod4"),
             "mc-large": ("ussd4", "ussd8")}[s.workload]
    ops = []
    for name in codes:
        path = s.path(f"input-{name}.json")
        s.files[name] = path
        family = "ciod4" if name == "ciod4" else "ussd"
        ops.append(_cli(f"input {name}", "setup",
                        ["construct", "--antennas", name[-1], "--family", family, "--out", path],
                        check_construct(s.ref["classes"][family])))
    return ops


def write_float_inputs(s: Setup) -> None:
    """ussd4 left-multiplied by a seeded random unitary, ussd4 scaled by 2,
    and ussd4 with a wrong declared class."""
    base = _read_json(s.files["ussd4"])
    u = random_unitary(4, np.random.default_rng(s.seed))
    variants = {
        "ussd4-unitary": _transform_code(base, lambda w: u @ w, "ussd4-unitary", UW_SSD),
        "ussd4-scaled2": _transform_code(base, lambda w: 2.0 * w, "ussd4-scaled2", UW_SSD),
        "ussd4-mislabelled": dict(base, label="ussd4-mislabelled", **{"class": "COD"}),
    }
    for name, obj in variants.items():
        path = s.path(f"input-{name}.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        s.files[name] = path


def warmup_ops(s: Setup) -> list[Op]:
    """One small command of every kind the rounds issue, unchecked."""
    rng = random.Random(f"{s.seed}:{s.workload}:warmup")
    ops = mini_pass(s, 0)
    code, constellation, snr = PROBE_SWEEP
    ops.append(simulate_op(s, "warm-up ssd", "ssd", code, constellation, snr, 1, 200,
                           rng.getrandbits(31), "warm-ssd.csv"))
    ops += ml_ops(s, rng, "warm")
    if s.workload == "mc-large":
        code, constellation, snr = LARGE_SIM
        ops.append(simulate_op(s, "warm-up ssd large", "ssd", code, constellation, snr,
                               LARGE_RX, 200, rng.getrandbits(31), "warm-large.csv"))
    for op in ops:
        op.check = None
    return ops
