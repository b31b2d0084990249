"""Arithmetic shared by the benchmark: timing summaries and span self time.

Kept free of any import from the package under test so that
``test_perfbench.py`` can check it on its own.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

# percentiles a timing summary may report, lowest first
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def tail_percentile(values, min_beyond: int = MIN_BEYOND):
    """Highest ladder percentile with at least ``min_beyond`` samples above it.

    Uses the nearest-rank definition: the p-th percentile of n sorted
    samples is the one at rank ceil(p/100 * n), and the samples beyond it
    are the n - rank that follow.  Returns ``(p, value, beyond)``, or
    ``None`` when no ladder percentile has enough samples beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    best = None
    for p in PERCENTILE_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= min_beyond:
            best = (p, xs[rank - 1], n - rank)
    return best


def timing_summary(values) -> dict:
    """Median, the tail percentile chosen by :func:`tail_percentile`, and n."""
    xs = list(values)
    out = {"n": len(xs), "median": statistics.median(xs) if xs else None,
           "percentile": None, "percentile_value": None, "beyond": 0}
    tail = tail_percentile(xs)
    if tail is not None:
        out["percentile"], out["percentile_value"], out["beyond"] = tail
    return out


def format_summary(s: dict, unit: str) -> str:
    if s["median"] is None:
        return "no samples"
    text = f"median {s['median']:.6g} {unit}"
    if s["percentile"] is not None:
        text += f", p{s['percentile']:g} {s['percentile_value']:.6g} {unit} ({s['beyond']} beyond)"
    return text + f", n={s['n']}"


@dataclass
class Span:
    """One timed call: ``parent`` and ``job`` tie it into a call tree.

    ``excluded`` is time the tracer spent on its own bookkeeping while
    this span was the innermost open one; it is not the program's time.
    """

    name: str
    start: float
    end: float
    parent: int | None
    job: str
    excluded: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the time its children cover and its
    excluded bookkeeping time, never below zero."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        busy = covered(children.get(i, ()), s.start, s.end)
        out.append(max(0.0, s.duration - busy - s.excluded))
    return out


def distinct_ratio(fingerprints) -> float:
    """Distinct items over items seen; 0.0 when nothing was seen."""
    items = list(fingerprints)
    return len(set(items)) / len(items) if items else 0.0


def command_counts(records) -> tuple[int, int]:
    """Distinct commands attempted, and those that failed at least once.

    A command is one operation of the workload: a set-up command is named
    by its label, a round's operation by its label and its place in the
    round (``slot``).  Running it again in a later round or interpreter
    adds to neither count, so both depend on the seed alone and not on
    how many rounds fit in the run; a failure in any repetition still
    marks the command failed.
    """
    failed: dict[tuple, bool] = {}
    for r in records:
        key = (r["label"], r.get("slot"))
        failed[key] = failed.get(key, False) or bool(r["failures"])
    return len(failed), sum(failed.values())
