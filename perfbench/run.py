"""stbc-forge benchmark: one workload per fresh interpreter, closed loop.

    python3 perfbench/run.py --workload design --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` prints every end-to-end metric named in
``BENCHMARK.json``; ``--trace 1`` runs the workload once untraced and
once traced and prints every per-layer metric.  Human-readable lines
(environment, timings with their tail percentile and sample count,
oracle verdicts) come first; the last line of stdout is one JSON
object.  ``--workload all`` runs the three workloads in turn.  The full
result is also written to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from stats import command_counts, format_summary, timing_summary  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402

# set-up-only interpreters run before and after the measured one, so the
# set-up samples straddle the run rather than one stretch of machine speed
SETUPS_BEFORE = SETUPS_AFTER = 3
BLAS_THREADS = 1           # one client thread; never more than nproc
TRACE_ROUNDS = {"design": 1, "mc-small": 8, "mc-large": 2}
# CPU time of child.calibrate() on the reference machine (2 cores, x86_64,
# 2.1 GHz) when other tenants left it fast; times are reported at this speed
CAL_REF_S = 0.0019
SETUP_TIMEOUT_S = 60
LOOP_GRACE_S = 100         # a round may run past --seconds before it ends


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(workload: str, seed: int, extra: list[str], timeout: float, tag: str) -> dict:
    """Run child.py to completion and return its JSON summary."""
    workdir = OUT / f"work-{workload}-{os.getpid()}-{tag}"
    launched = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--workdir", str(workdir), "--launched", repr(launched)] + extra
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} child ({tag}) did not finish within {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{workload} child ({tag}) exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} child ({tag}) printed no summary")
    summary = json.loads(lines[-1])
    package = summary.get("package_file")
    if package is not None and not Path(package).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"measured {package}, not the package under {ROOT / 'src'}")
    return summary


def verdicts(records: list[dict], known: dict) -> tuple[int, int, bool, list[dict]]:
    """Distinct commands attempted and failed (:func:`stats.command_counts`),
    whether every failure is a known defect, and per-label verdicts that
    count every execution."""
    by_label: dict[str, dict] = {}
    for r in records:
        v = by_label.setdefault(r["label"], {"label": r["label"], "attempted": 0, "failed": 0,
                                             "first_failure": None})
        v["attempted"] += 1
        if r["failures"]:
            v["failed"] += 1
            v["first_failure"] = v["first_failure"] or "; ".join(r["failures"])
    attempted, failed = command_counts(records)
    correct = all(v["label"] in known for v in by_label.values() if v["failed"])
    for v in by_label.values():
        v["known_defect"] = known.get(v["label"]) if v["failed"] else None
    return attempted, failed, correct, list(by_label.values())


def scaled(seconds: float, cal: float) -> float:
    """CPU seconds at the reference speed: ``seconds`` times how much
    faster the calibration kernel ran on the reference machine than
    next to the timed work (``cal``)."""
    return seconds * CAL_REF_S / cal


def end_to_end(summary: dict, setups: list[dict]) -> tuple[dict, dict]:
    """End-to-end metric values, and the timing summaries behind them.

    Times are CPU seconds of the workload interpreter at the reference
    speed (:func:`scaled`), each command by the calibrations run just
    before and after it, each set-up by the calibrations run right after
    it.  Throughputs are trials over summed time; ``design_pass_s`` and
    ``setup_s`` are medians.
    """
    groups = defaultdict(list)
    passes = defaultdict(float)
    for r in summary["records"]:
        if r["group"] == "setup":
            continue
        r["scaled"] = scaled(r["seconds"], r["cal"])
        groups[r["group"]].append(r)
        if r["group"] == "design":
            passes[(r["round"], r["pass"])] += r["scaled"]
    setup_s = [scaled(s["setup_s"], s["setup_cal"]) for s in setups]

    def rate(group):
        return sum(r["trials"] for r in groups[group]) / sum(r["scaled"] for r in groups[group])

    values = {
        "setup_s": statistics.median(setup_s),
        "trials_per_s": rate("ssd"),
        "ml_trials_per_s": rate("ml"),
        "design_pass_s": statistics.median(passes.values()),
        "peak_rss_mb": summary["peak_rss_mb"],
    }
    timings = {
        "setup_s": (timing_summary(setup_s), "s"),
        "set-up, raw CPU": (timing_summary([s["setup_s"] for s in setups]), "s"),
        "set-up, wall": (timing_summary([s["setup_wall_s"] for s in setups]), "s"),
        "calibration kernel": (timing_summary([r["cal"] for r in summary["records"]
                                               if "cal" in r]), "s"),
        "design_pass_s": (timing_summary(list(passes.values())), "s"),
    }
    for group in ("design", "ssd", "ml", "twin"):
        rs = groups[group]
        timings[f"{group} command"] = (timing_summary([r["scaled"] for r in rs]), "s")
        timings[f"{group} command, raw CPU"] = (timing_summary([r["seconds"] for r in rs]), "s")
        timings[f"{group} command, wall"] = (timing_summary([r["wall"] for r in rs]), "s")
    timings["round, wall"] = (timing_summary(summary["round_walls"]), "s")
    return values, timings


def traced_overhead(untraced: dict, traced: dict, rounds: int) -> float:
    """Command time of the first ``rounds`` rounds at the reference speed,
    traced over untraced."""
    def total(summary):
        return sum(scaled(r["seconds"], r["cal"]) for r in summary["records"]
                   if r["group"] != "setup" and r["round"] < rounds)
    return total(traced) / total(untraced)


def environment(args, workload: str, summary: dict) -> dict:
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": summary["numpy_version"],
        "stbc_forge": summary["package_version"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: BLAS_THREADS for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "clock": "process CPU time (user + system) of the workload interpreter, scaled to "
                 f"a calibration kernel time of {CAL_REF_S} s",
    }


def run_workload(args, workload: str, spec: dict) -> dict:
    ref = load_reference()
    known = ref["known_defects"]
    loop = ["--seconds", str(args.seconds)]
    timeout = args.seconds + LOOP_GRACE_S
    if not args.trace:
        def setup_only(i):
            return spawn(workload, args.seed, ["--setup-only"], SETUP_TIMEOUT_S, f"setup{i}")

        setups = [setup_only(i) for i in range(SETUPS_BEFORE)]
        summary = spawn(workload, args.seed, loop, timeout, "main")
        setups += [setup_only(SETUPS_BEFORE + i) for i in range(SETUPS_AFTER)]
        records = summary["records"] + [r for s in setups for r in s["records"]]
        values, timings = end_to_end(summary, setups + [summary])
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        summary = spawn(workload, args.seed, loop, timeout, "untraced")
        rounds = min(TRACE_ROUNDS[workload], len(summary["round_walls"]))
        spans = OUT / f"spans-{workload}-seed{args.seed}.json.gz"
        traced = spawn(workload, args.seed, ["--rounds", str(rounds), "--trace", "1",
                                             "--spans", str(spans)], timeout, "traced")
        records = summary["records"] + traced["records"]
        layer = {k: tuple(v) for k, v in traced["per_layer"].items()}
        layer["trace.overhead_ratio"] = (traced_overhead(summary, traced, rounds), "ratio",
                                         rounds)
        timings = {}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    attempted, failed, correct, verdict = verdicts(records, known)
    ops_failed_ratio = failed / attempted
    if args.trace:
        layer["ops_failed_ratio"] = (ops_failed_ratio, "ratio", attempted)
        values = {k: v[0] for k, v in layer.items()}
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report = {
        "result": result,
        "environment": environment(args, workload, summary),
        "ops_failed_ratio": ops_failed_ratio,
        "timings": {k: dict(s, unit=u) for k, (s, u) in timings.items()},
        "samples": {k: layer[k][2] for k in units} if args.trace else None,
        "verdicts": verdict,
        "round_walls": summary["round_walls"],
    }
    print_report(report, units)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    return result


def print_report(report: dict, units: dict) -> None:
    env = report["environment"]
    res = report["result"]
    print(f"== stbc-forge benchmark: workload {env['workload']}, seed {env['seed']}, "
          f"{env['seconds']} s, trace {env['trace']}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, "
          f"stbc-forge {env['stbc_forge']}, nproc {env['nproc']} "
          f"({env['cpus_usable']} usable), BLAS threads {BLAS_THREADS}, "
          f"{len(report['round_walls'])} rounds")
    print("per-layer metrics (traced run):" if env["trace"] else "end-to-end metrics:")
    for name, unit in units.items():
        value = res["metrics"][name]["value"]
        extra = f"  [{report['samples'][name]} samples]" if report["samples"] else ""
        print(f"  {name:40s} {value:14.6g} {unit}{extra}")
    if "ops_failed_ratio" not in units:
        print(f"  {'ops_failed_ratio':40s} {report['ops_failed_ratio']:14.6g} ratio"
              f"  [{res['failed']} of {res['attempted']} operations]")
    if report["timings"]:
        print("timings, CPU time at the reference speed unless noted (median, highest "
          "percentile with >= 10 samples beyond it, n):")
        for name, s in report["timings"].items():
            print(f"  {name:22s} {format_summary(s, s['unit'])}")
    print("oracle verdicts:")
    for v in sorted(report["verdicts"], key=lambda v: (v["failed"] == 0, v["label"])):
        if v["failed"]:
            known = f" [known defect: {v['known_defect']}]" if v["known_defect"] else ""
            print(f"  FAILED {v['failed']}/{v['attempted']}  {v['label']}: "
                  f"{v['first_failure']}{known}")
        else:
            print(f"  ok     {v['attempted']}/{v['attempted']}  {v['label']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "stbc_forge" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'stbc_forge'}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(args, w, spec) for w in names]
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    for r in results:
        print(json.dumps(r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
