"""Command-line interface: family / construct / verify / coding-gain / simulate.

All file outputs are written atomically: each is written to a fresh temp
file in the target's directory, ``.tmp-`` and 16 random hex digits, opened
once with ``O_CREAT | O_EXCL`` and mode 0666, so the kernel applies the
umask and the file gets the mode ``open(path, "w")`` would give it; then
the temp file is renamed over the target.  JSON files are compact,
``json.dumps(obj)`` plus a newline (``python -m json.tool FILE``
pretty-prints one).  Exit status is 0 on success, 1 on a verification
failure, 2 on usage errors.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys

import click
import numpy as np

from . import __version__, clifford, codes, codinggain, constellations, simulator
from .verifier import CLASS_NONUW_SSD, CLASS_NOT_SSD, CLASSES, classify

CONSTELLATION_CHOICES = ("qam4", "qam16", "qam64", "8qam-rect", "8qam-sq")
MAX_SNR_POINTS = 1000
SIDECAR_SUFFIX = ".config.json"  # simulate's sidecar is the CSV's path plus this


def _atomic_write_text(path: str, text: str) -> None:
    # a fixed-length temp name, so any name the directory accepts for path can be written
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        # UTF-8 bytes straight to the descriptor: no buffered text stream to set up
        data = memoryview(text.encode())
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_json(path: str, obj) -> None:
    _atomic_write_text(path, json.dumps(obj) + "\n")


def _load_code(path: str):
    """Read a code file; a malformed one is a usage error (exit 2), not a traceback."""
    with open(path, "rb", buffering=0) as fh:
        data = fh.read()
    try:
        # strict UTF-8, as a text-mode read: json.loads of bytes would take a BOM or UTF-16
        code, declared = codes.code_from_json_dict(json.loads(data.decode()))
        if declared not in (None, *CLASSES):  # null is undeclared
            raise ValueError(f"class must be null or one of {CLASSES}, got {declared!r}")
    # RecursionError: json's scanner on deeply nested brackets
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise click.UsageError(
            f"{path} is not a valid code file: {type(exc).__name__}: {exc}") from None
    return code, declared


def _output_path(ctx: click.Context, param: click.Parameter, path: str | None) -> str | None:
    """An output path whose directory exists and takes its name, checked as the option is
    parsed, before any work."""
    if path is not None:
        _check_names(ctx, param, path)
    return path


def _csv_path(ctx: click.Context, param: click.Parameter, path: str) -> str:
    """``simulate --out``: an output path whose sidecar, written after it, fits as well."""
    _check_names(ctx, param, path, path + SIDECAR_SUFFIX)
    return path


def _check_names(ctx: click.Context, param: click.Parameter, path: str, *more: str) -> None:
    """``path`` and the paths ``more`` beside it are names their one directory accepts,
    and none of them is a directory."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise click.BadParameter(f"the directory of {path!r} does not exist", ctx, param)
    name_max = os.pathconf(directory, "PC_NAME_MAX")  # -1: the file system sets no limit
    for p in (path, *more):
        if 0 <= name_max < len(os.fsencode(os.path.basename(p))):
            raise click.BadParameter(f"the name of {p!r} is longer than the {name_max} bytes "
                                     "its directory allows", ctx, param)
        if os.path.isdir(p):
            raise click.BadParameter(f"{p!r} is a directory", ctx, param)


def _finite_float(text: str, option: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise click.BadParameter(f"expected a finite number, got {text!r}", param_hint=option)
    return value


def _code_on_grid(code_json: str, constellation_name: str, angle: str):
    """The one grid path of ``coding-gain`` and ``simulate``: the loaded code, its computed
    class, the ``--angle`` in radians ("auto" picks the rotation for the class) and the
    constellation at that angle."""
    code, _ = _load_code(code_json)
    code_class = classify(code).code_class
    if angle != "auto":
        theta = _finite_float(angle, "--angle")
    elif code_class == CLASS_NONUW_SSD:
        theta = constellations.ciod_optimal_angle()
    else:
        theta = constellations.optimal_angle()
    if constellation_name.startswith("qam"):
        grid = constellations.rotated_qam(int(constellation_name[3:]), theta)
    else:
        kind = "rect" if constellation_name == "8qam-rect" else "square-derived"
        grid = constellations.special_8qam(kind, theta)
    return code, code_class, theta, grid


@click.group()
def main() -> None:
    """Single-symbol decodable space-time block code toolkit."""


@main.command()
@click.option("--a", "a", type=click.IntRange(1, clifford.MAX_DOUBLINGS), required=True,
              help="Doublings: matrices are 2^a x 2^a.")
@click.option("--out", "out", type=click.Path(dir_okay=False), required=True,
              callback=_output_path)
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
@click.option("--out", "out", type=click.Path(dir_okay=False), required=True,
              callback=_output_path)
def construct(antennas: int, family_name: str, out: str) -> None:
    """Build one of the known code families."""
    if family_name == "ciod4":
        if antennas != 4:
            raise click.UsageError("ciod4 is defined for 4 antennas")
        code = codes.build_ciod4()
    else:
        a = antennas.bit_length() - 1
        if antennas < 2 or 2 ** a != antennas or a > clifford.MAX_DOUBLINGS:
            raise click.UsageError(
                f"antennas must be a power of 2 in 2..{2 ** clifford.MAX_DOUBLINGS}, got {antennas}")
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
@click.option("--report", "report_path", type=click.Path(dir_okay=False), default=None,
              callback=_output_path)
def verify(code_json: str, report_path: str | None) -> None:
    """Classify a code file and check it against its declared class."""
    code, declared = _load_code(code_json)
    rep = classify(code)
    failures = [{"condition": f.condition, "i": f.i, "j": f.j, "residual": f.residual}
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
            click.echo(f"  condition {f['condition']} violated at ({f['i']},{f['j']}): "
                       f"residual {f['residual']:.3e} relative to c")
        sys.exit(1)


@main.command(name="coding-gain")
@click.option("--code", "code_json", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--constellation", "constellation_name",
              type=click.Choice(CONSTELLATION_CHOICES), required=True)
@click.option("--angle", default="auto", help='"auto" or radians.')
@click.option("--brute-force", is_flag=True, help="Unreduced search over all difference vectors.")
def coding_gain(code_json: str, constellation_name: str, angle: str, brute_force: bool) -> None:
    """Minimum codeword-difference determinant of a code on a constellation."""
    code, _, theta, constellation = _code_on_grid(code_json, constellation_name, angle)
    try:
        result = codinggain.min_det_bruteforce(code, constellation, force_full=brute_force)
    except ValueError as exc:  # the unreduced search's budget, no energy, a minimum past the range
        raise click.UsageError(str(exc)) from None
    diff = ", ".join(f"{d.real:+.6f}{d.imag:+.6f}j" for d in result.difference)
    click.echo(f"min_det = {result.value:.6e}  (angle {theta:.6f} rad, "
               f"{'full' if not result.reduced else 'single-symbol'} search)")
    click.echo(f"achieved by difference vector [{diff}]")
    if result.full_diversity:
        return
    (slot, d), *more = ((i, d) for i, d in enumerate(result.difference, start=1) if d)
    if not more and d in constellations.diversity_check(constellation).witnesses:
        click.echo(f"full diversity lost in slot {slot}: witness {d.real:+.6f}{d.imag:+.6f}j "
                   "lies on a +-45 degree line")
    else:
        click.echo(f"full diversity lost: difference vector [{diff}] has a zero determinant")


@main.command()
@click.option("--code", "code_json", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--constellation", "constellation_name",
              type=click.Choice(CONSTELLATION_CHOICES), required=True)
@click.option("--angle", default="auto", help='"auto" or radians.')
@click.option("--snr", required=True, help="start:step:stop in dB (inclusive).")
@click.option("--rx", type=click.IntRange(1, 2 ** clifford.MAX_DOUBLINGS), default=1,
              show_default=True)
@click.option("--trials", type=int, default=100_000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=42, show_default=True)
@click.option("--decoder", type=click.Choice(["ssd", "brute-ml"]), default="ssd")
@click.option("--out", "out", type=click.Path(dir_okay=False), required=True,
              callback=_csv_path)
def simulate(code_json: str, constellation_name: str, angle: str, snr: str, rx: int,
             trials: int, seed: int, decoder: str, out: str) -> None:
    """Monte Carlo codeword-error-rate sweep; writes CSV plus a config sidecar."""
    code, code_class, theta, constellation = _code_on_grid(code_json, constellation_name, angle)
    snr_list = _parse_snr(snr)
    try:
        report = simulator.simulate_cer(simulator.SimConfig(
            code=code, constellation=constellation, snr_db_list=tuple(snr_list),
            trials=trials, seed=seed, rx_antennas=rx, decoder=decoder))
    except ValueError as exc:  # SimConfig's range checks, a non-SSD code, the ML budget
        raise click.UsageError(str(exc)) from None
    lines = ["snr_db,trials,errors,cer,ci95"]
    for p in report.points:
        lines.append(f"{p.snr_db:g},{p.trials},{p.errors},{p.cer:.8g},{p.ci95:.8g}")
    _atomic_write_text(out, "\n".join(lines) + "\n")
    sidecar = {
        "code": code.label,
        "class": code_class,
        "constellation": constellation.name,
        "rotation_rad": theta,
        "snr_definition": "unit average transmit energy per channel use; SNR = 1/N0 per receive antenna",
        "snr_db": list(snr_list),
        "rx_antennas": rx,
        "trials": trials,
        "seed": seed,
        "decoder": decoder,
        "seed_contract": simulator.SEED_CONTRACT,
        "slot_errors": [list(p.slot_errors) for p in report.points],  # per SNR point
        "code_sha256": _weights_sha256(code.w),
        "stbc_forge_version": __version__,
        "numpy_version": np.__version__,
        "blas_threads": {name: os.environ.get(name) for name in  # recorded, never set
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    _write_json(out + SIDECAR_SUFFIX, sidecar)
    click.echo(f"wrote {len(report.points)} CER points to {out}")


def _weights_sha256(w: np.ndarray) -> str:
    """sha256 of a weight stack: its shape as little-endian int64s, then its little-endian
    complex128 entries, -0.0 read as 0.0; the label, formatting and exact/float tag do not
    enter it."""
    digest = hashlib.sha256(np.array(w.shape, dtype="<i8").tobytes())
    digest.update(np.ascontiguousarray(w + 0.0, dtype="<c16"))
    return digest.hexdigest()


def _parse_snr(text: str) -> list[float]:
    parts = [_finite_float(p, "--snr") for p in text.split(":")]
    if len(parts) == 1:
        return parts
    if len(parts) != 3:
        raise click.UsageError(f"--snr expects start:step:stop, got {text!r}")
    start, step, stop = parts
    if step <= 0:
        raise click.UsageError("--snr step must be positive")
    out = []
    v = start
    while v <= stop + 1e-9:
        # counted per point, not from (stop - start) / step: a step below the
        # spacing of floats near start never moves v
        if len(out) == MAX_SNR_POINTS:
            raise click.UsageError(f"--snr {text!r} gives more than {MAX_SNR_POINTS} points")
        out.append(round(v, 9))
        v += step
    return out


if __name__ == "__main__":  # pragma: no cover
    main()
