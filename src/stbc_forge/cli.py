"""Command-line interface: family / construct / verify / coding-gain / simulate.

All file outputs are written atomically (temp file + rename).  Exit
status is 0 on success, 1 on a verification failure, 2 on usage errors.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import click

from . import clifford, codes, codinggain, constellations, simulator
from .verifier import CLASS_NONUW_SSD, CLASS_NOT_SSD, classify

CONSTELLATION_CHOICES = ("qam4", "qam16", "qam64", "8qam-rect", "8qam-sq")


def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, obj) -> None:
    _atomic_write_text(path, json.dumps(obj, indent=2) + "\n")


def _load_code(path: str):
    """Read a code file; a malformed one is a usage error (exit 2), not a traceback."""
    with open(path) as fh:
        try:
            return codes.code_from_json_dict(json.load(fh))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise click.UsageError(
                f"{path} is not a valid code file: {type(exc).__name__}: {exc}") from None


def _make_constellation(name: str, angle: float, energy_mode: str):
    if name.startswith("qam"):
        return constellations.rotated_qam(int(name[3:]), angle, energy_mode)
    kind = "rect" if name == "8qam-rect" else "square-derived"
    return constellations.special_8qam(kind, angle, energy_mode)


def _resolve_angle(angle: str, code) -> float:
    if angle != "auto":
        return float(angle)
    if classify(code).code_class == CLASS_NONUW_SSD:
        return constellations.ciod_optimal_angle()
    return constellations.optimal_angle()


@click.group()
def main() -> None:
    """Single-symbol decodable space-time block code toolkit."""


@main.command()
@click.option("--a", "a", type=int, required=True, help="Doublings: matrices are 2^a x 2^a.")
@click.option("--out", "out", type=click.Path(dir_okay=False), required=True)
def family(a: int, out: str) -> None:
    """Generate the 2a+1 pairwise anticommuting matrices of size 2^a."""
    fam = clifford.generate_family(a)
    report = clifford.verify_family(fam)
    if not report.ok:  # pragma: no cover - construction is self-verifying
        click.echo("generated family failed verification", err=True)
        sys.exit(1)
    _write_json(out, clifford.family_to_json_dict(fam))
    click.echo(f"wrote {len(fam.matrices)} matrices of size {fam.n}x{fam.n} to {out}")


@main.command()
@click.option("--antennas", type=int, required=True, help="Transmit antennas (power of 2).")
@click.option("--family", "family_name", type=click.Choice(["ussd", "cod", "ciod4"]),
              required=True)
@click.option("--out", "out", type=click.Path(dir_okay=False), required=True)
def construct(antennas: int, family_name: str, out: str) -> None:
    """Build one of the known code families."""
    if family_name == "ciod4":
        if antennas != 4:
            raise click.UsageError("ciod4 is defined for 4 antennas")
        code = codes.build_ciod4()
    else:
        a = antennas.bit_length() - 1
        if antennas < 2 or 2 ** a != antennas:
            raise click.UsageError(f"antennas must be a power of 2 >= 2, got {antennas}")
        fam = clifford.generate_family(a)
        if family_name == "ussd":
            code = codes.build_max_rate_ussd(a, fam)
        else:
            code = codes.build_square_cod(a, fam)
    declared = classify(code).code_class
    _write_json(out, codes.code_to_json_dict(code, declared_class=declared))
    click.echo(f"wrote {code.label}: n={code.n}, k={code.k}, rate={code.rate:g}, "
               f"class={declared} to {out}")


@main.command()
@click.argument("code_json", type=click.Path(exists=True, dir_okay=False))
@click.option("--report", "report_path", type=click.Path(dir_okay=False), default=None)
def verify(code_json: str, report_path: str | None) -> None:
    """Classify a code file and check it against its declared class."""
    code, declared = _load_code(code_json)
    rep = classify(code)
    failures = [{"condition": f.condition, "i": f.i, "j": f.j}
                for f in rep.failed_conditions]
    out = {
        "label": code.label,
        "class": rep.code_class,
        "declared_class": declared,
        "linear_independent": rep.linear_independent,
        "normalized": rep.normalized,
        "failed_conditions": failures,
    }
    if report_path:
        _write_json(report_path, out)
    ok = rep.linear_independent and rep.code_class != CLASS_NOT_SSD \
        and (declared is None or declared == rep.code_class)
    status = "ok" if ok else "FAIL"
    click.echo(f"{code.label}: computed={rep.code_class} declared={declared or '-'} "
               f"independent={rep.linear_independent} [{status}]")
    if not ok:
        for f in failures:
            click.echo(f"  condition {f['condition']} violated at ({f['i']},{f['j']})")
        sys.exit(1)


@main.command(name="coding-gain")
@click.option("--code", "code_json", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--constellation", "constellation_name",
              type=click.Choice(CONSTELLATION_CHOICES), required=True)
@click.option("--angle", default="auto", help='"auto" or radians.')
@click.option("--energy", type=click.Choice(["raw", "unit"]), default="raw")
@click.option("--brute-force", is_flag=True, help="Unreduced search over all difference vectors.")
def coding_gain(code_json: str, constellation_name: str, angle: str, energy: str,
                brute_force: bool) -> None:
    """Minimum codeword-difference determinant of a code on a constellation."""
    code, _ = _load_code(code_json)
    mode = constellations.ENERGY_RAW if energy == "raw" else constellations.ENERGY_UNIT
    theta = _resolve_angle(angle, code)
    constellation = _make_constellation(constellation_name, theta, mode)
    result = codinggain.min_det_bruteforce(code, constellation, force_full=brute_force)
    diff = ", ".join(f"{d.real:+.6f}{d.imag:+.6f}j" for d in result.difference)
    click.echo(f"min_det = {result.value:.6f}  (angle {theta:.6f} rad, "
               f"{'full' if not result.reduced else 'single-symbol'} search)")
    click.echo(f"achieved by difference vector [{diff}]")


@main.command()
@click.option("--code", "code_json", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--constellation", "constellation_name",
              type=click.Choice(CONSTELLATION_CHOICES), required=True)
@click.option("--angle", default="auto", help='"auto" or radians.')
@click.option("--snr", required=True, help="start:step:stop in dB (inclusive).")
@click.option("--rx", type=int, default=1, show_default=True)
@click.option("--trials", type=int, default=100_000, show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--decoder", type=click.Choice(["ssd", "brute-ml"]), default="ssd")
@click.option("--out", "out", type=click.Path(dir_okay=False), required=True)
def simulate(code_json: str, constellation_name: str, angle: str, snr: str, rx: int,
             trials: int, seed: int, decoder: str, out: str) -> None:
    """Monte Carlo codeword-error-rate sweep; writes CSV plus a config sidecar."""
    code, _ = _load_code(code_json)
    theta = _resolve_angle(angle, code)
    constellation = _make_constellation(constellation_name, theta,
                                        constellations.ENERGY_UNIT)
    snr_list = _parse_snr(snr)
    config = simulator.SimConfig(code=code, constellation=constellation,
                                 snr_db_list=tuple(snr_list), trials=trials,
                                 seed=seed, rx_antennas=rx, decoder=decoder)
    report = simulator.simulate_cer(config)
    lines = ["snr_db,trials,errors,cer,ci95"]
    for p in report.points:
        lines.append(f"{p.snr_db:g},{p.trials},{p.errors},{p.cer:.8g},{p.ci95:.8g}")
    _atomic_write_text(out, "\n".join(lines) + "\n")
    sidecar = {
        "code": code.label,
        "constellation": constellation.name,
        "rotation_rad": theta,
        "energy_mode": constellation.energy_mode,
        "snr_definition": "unit average transmit energy per channel use; SNR = 1/N0 per receive antenna",
        "snr_db": list(snr_list),
        "rx_antennas": rx,
        "trials": trials,
        "seed": seed,
        "decoder": decoder,
    }
    _write_json(out + ".config.json", sidecar)
    click.echo(f"wrote {len(report.points)} CER points to {out}")


def _parse_snr(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise click.UsageError(f"--snr expects start:step:stop, got {text!r}")
    start, step, stop = (float(p) for p in parts)
    if step <= 0:
        raise click.UsageError("--snr step must be positive")
    out = []
    v = start
    while v <= stop + 1e-9:
        out.append(round(v, 9))
        v += step
    return out


if __name__ == "__main__":  # pragma: no cover
    main()
