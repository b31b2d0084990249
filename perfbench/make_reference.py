"""Regenerate perfbench/reference.json, the oracle's stored references.

    PYTHONPATH=src python3 perfbench/make_reference.py

Classes are the paper's taxonomy of the built-in families.  Minimum
determinants come from the reduced search at full precision.  Each
reference CER is measured on at least a million trials per point (1.5
million for the 8-antenna point) with seeds the benchmark does not use,
and is stored with its trial count so the oracle can allow for the
reference's own sampling error.  Takes a few minutes and under 1 GB.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path
from tempfile import TemporaryDirectory

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stbc_forge as sf  # noqa: E402
from stbc_forge.cli import main as cli_main  # noqa: E402

from workloads import (LADDER, LARGE_RX, LARGE_SIM, ML_JOB, SWEEPS_SMALL, UW_SSD,  # noqa: E402
                       read_cer)

CLASSES = {"ussd": UW_SSD, "cod": "COD", "ciod4": "non-unitary-weight-SSD"}
KNOWN_DEFECTS = {
    "verify ussd4-scaled2": "classification is not scale-invariant (ROADMAP open item 4)",
    "coding-gain ussd4-scaled2 qam16": "the scale changes the class, so --angle auto picks "
                                       "the interleaved rotation (ROADMAP open item 4)",
}
REF_SEED = 900_000


def min_dets() -> dict:
    out = {}
    uw = sf.optimal_angle()
    for a in LADDER:
        fam = sf.generate_family(a)
        for name, code in ((f"ussd{2 ** a}", sf.build_max_rate_ussd(a, fam)),
                           (f"cod{2 ** a}", sf.build_square_cod(a, fam))):
            out[f"{name}/qam16"] = sf.min_det_bruteforce(code, sf.rotated_qam(16, uw)).value
    ussd4 = sf.build_max_rate_ussd(2, sf.generate_family(2))
    ciod4 = sf.build_ciod4()
    ci = sf.ciod_optimal_angle()
    out["ciod4/qam16"] = sf.min_det_bruteforce(ciod4, sf.rotated_qam(16, ci)).value
    out["ussd4/qam4"] = sf.min_det_bruteforce(ussd4, sf.rotated_qam(4, uw)).value
    out["ciod4/qam4"] = sf.min_det_bruteforce(ciod4, sf.rotated_qam(4, ci)).value
    return out


def cers(tmp: Path) -> dict:
    files = {}
    for name, family, n in (("ussd4", "ussd", 4), ("ciod4", "ciod4", 4), ("ussd8", "ussd", 8)):
        files[name] = str(tmp / f"{name}.json")
        _cli(["construct", "--antennas", n, "--family", family, "--out", files[name]])
    jobs = [(c, m, snr, 1, 200_000, 5) for c, m, snr in SWEEPS_SMALL + (ML_JOB,)]
    jobs.append(LARGE_SIM + (LARGE_RX, 150_000, 10))
    out: dict = {}
    seed = REF_SEED
    for code, constellation, snr, rx, trials, reps in jobs:
        totals: dict = {}
        for _ in range(reps):
            seed += 1
            csv_path = str(tmp / "ref.csv")
            _cli(["simulate", "--code", files[code], "--constellation", constellation,
                  "--angle", "auto", "--snr", snr, "--rx", rx, "--trials", trials,
                  "--seed", seed, "--out", csv_path])
            for row in read_cer(csv_path):
                e, t = totals.get(row["snr"], (0, 0))
                totals[row["snr"]] = (e + row["errors"], t + row["trials"])
        for s, (e, t) in totals.items():
            out[f"{code}/{constellation}/rx{rx}/{s:g}"] = [e / t, t]
            print(f"{code}/{constellation}/rx{rx}/{s:g}: CER {e / t:.6f} on {t} trials",
                  file=sys.stderr)
    return out


def _cli(argv) -> None:
    with redirect_stdout(io.StringIO()):
        cli_main([str(a) for a in argv], standalone_mode=False)


def main() -> None:
    with TemporaryDirectory() as tmp:
        ref = {"classes": CLASSES, "known_defects": KNOWN_DEFECTS, "min_det": min_dets(),
               "cer": cers(Path(tmp))}
    with open(HERE / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
