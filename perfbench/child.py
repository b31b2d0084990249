"""One workload in one fresh interpreter: set-up, then the closed loop.

Started by ``run.py``.  Set-up time is the CPU time the process has
used by the end of the warm-up; the wall time from the parent's launch
(``--launched``) is recorded beside it.  Then the closed loop runs
rounds until ``--seconds`` of wall time have passed, or exactly
``--rounds`` rounds, timing every operation in CPU and wall time.  A
calibration kernel runs after set-up and between operations, so the
parent can scale times to the machine's speed when they were taken.
The process prints one JSON summary line; the package's own output is
captured, so that line is all it writes to stdout.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import numpy as np

import workloads


def execute(op, cli_main, click, tracer) -> tuple[float, float, workloads.Outcome]:
    """Run one operation; returns its CPU time, wall time and outcome."""
    buf = io.StringIO()
    code, error, value = 0, None, None
    span = tracer.span("cli." + op.argv[0]) if tracer and op.argv else nullcontext()
    cpu0, start = time.process_time(), time.perf_counter()
    with redirect_stdout(buf):
        try:
            with span:
                if op.argv is not None:
                    cli_main(op.argv, standalone_mode=False, prog_name="stbc-forge")
                else:
                    value = op.call()
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except click.ClickException as e:
            code, error = e.exit_code, e.format_message()
        except Exception as e:  # a crash of the program is a failed operation
            code, error = -1, repr(e)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
    return cpu, wall, workloads.Outcome(code=code, stdout=buf.getvalue(), error=error, value=value)


def calibrate() -> float:
    """CPU seconds of a fixed kernel of about 2 ms: a Python loop, 32x32
    and 4x4 complex matmuls.  It runs between operations to follow the
    machine's speed, which other tenants' load moves by up to 40%."""
    cpu0 = time.process_time()
    acc = 0
    for i in range(15000):
        acc += i * i
    a = np.ones((32, 32), dtype=complex)
    for _ in range(15):
        a = (a @ a) / 32.0
    b = np.ones((4, 4), dtype=complex)
    for _ in range(150):
        b = (b @ b) / 4.0
        acc += float(np.sum(np.abs(b) ** 2))
    return time.process_time() - cpu0


def run_op(op, ctx, cli_main, click, tracer) -> dict:
    cpu, wall, out = execute(op, cli_main, click, tracer)
    try:
        failures = op.check(out, ctx) if op.check else []
    except Exception as e:  # output the oracle cannot parse
        failures = [f"unreadable output: {e!r}"]
    if tracer is not None:
        tracer.counts["cli.bytes_written"] += sum(
            Path(p).stat().st_size for p in op.outputs if Path(p).is_file())
    return {"label": op.label, "group": op.group, "pass": op.pass_id, "seconds": cpu,
            "wall": wall, "trials": op.trials, "failures": failures}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--launched", type=float, required=True,
                    help="time.monotonic() just before this interpreter was started")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None, help="gzip JSON file for the traced spans")
    args = ap.parse_args()

    import click
    import stbc_forge
    from stbc_forge.cli import main as cli_main

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        s = workloads.Setup(args.workload, args.seed, workdir, workloads.load_reference())
        setup_records = [run_op(op, {}, cli_main, click, None) for op in workloads.input_ops(s)]
        workloads.write_float_inputs(s)
        for op in workloads.warmup_ops(s):
            run_op(op, {}, cli_main, click, None)
        # CPU time since the process started, and wall time since the parent launched it
        setup = {"setup_s": time.process_time(), "setup_wall_s": time.monotonic() - args.launched,
                 "setup_cal": statistics.median(calibrate() for _ in range(3))}
        if args.setup_only:
            print(json.dumps(dict(setup, records=setup_records)), flush=True)
            return 0

        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer().install()
        records, round_walls = [], []
        loop_start = time.perf_counter()
        r = 0
        while (r < args.rounds if args.rounds is not None
               else time.perf_counter() - loop_start < args.seconds):
            ctx: dict = {}
            t0 = time.perf_counter()
            cal_before = calibrate()
            for i, op in enumerate(workloads.round_ops(s, r)):
                if tracer is not None:
                    tracer.job = f"r{r}.{i}"
                rec = run_op(op, ctx, cli_main, click, tracer)
                cal_after = calibrate()
                rec.update(round=r, slot=i, cal=(cal_before + cal_after) / 2)
                cal_before = cal_after
                records.append(rec)
            round_walls.append(time.perf_counter() - t0)
            r += 1
        summary = dict(setup, **{
            "records": setup_records + records,
            "round_walls": round_walls,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "numpy_version": np.__version__,
            "package_version": getattr(stbc_forge, "__version__", "unknown"),
            "package_file": stbc_forge.__file__,
        })
        if tracer is not None:
            tracer.uninstall()
            summary["per_layer"] = tracer.per_layer()
            summary["spans"] = len(tracer.spans)
            if args.spans:
                tracer.dump(args.spans)
        print(json.dumps(summary), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
