"""Tests for the benchmark's own arithmetic (no package import needed)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import (Span, command_counts, covered, distinct_ratio, self_times,  # noqa: E402
                   tail_percentile, timing_summary)
from workloads import cer_within  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(range(19)) is None          # p50 leaves 9 beyond
    assert tail_percentile(range(20)) == (50.0, 9, 10)
    assert tail_percentile(range(1, 101)) == (90.0, 90, 10)
    assert tail_percentile(range(1, 1001)) == (99.0, 990, 10)
    # 999 samples: p99 sits at rank ceil(989.01) = 990, leaving only 9
    assert tail_percentile(range(1, 1000))[0] == 95.0


def test_timing_summary_reports_count_and_median():
    s = timing_summary([3.0, 1.0, 2.0])
    assert (s["n"], s["median"], s["percentile"]) == (3, 2.0, None)
    s = timing_summary(list(range(1, 101)))
    assert (s["n"], s["median"], s["percentile"], s["beyond"]) == (100, 50.5, 90.0, 10)
    assert timing_summary([])["median"] is None


def test_self_time_subtracts_nested_children_once():
    spans = [
        Span("cli.verify", 0.0, 10.0, None, "j"),
        Span("verifier.classify", 1.0, 7.0, 0, "j"),
        Span("verifier.check_cod", 2.0, 6.0, 1, "j"),
        Span("gmatrix.matmul", 3.0, 4.0, 2, "j"),
        Span("codes.code_to_json_dict", 8.0, 9.0, 0, "j"),
    ]
    assert self_times(spans) == pytest.approx([10 - 6 - 1, 6 - 4, 4 - 1, 1, 1])


def test_self_time_merges_overlapping_children_and_drops_excluded():
    spans = [
        Span("parent", 0.0, 10.0, None, "j", excluded=0.5),
        Span("a", 1.0, 5.0, 0, "j"),
        Span("b", 4.0, 6.0, 0, "j"),
        Span("c", 9.0, 12.0, 0, "j"),      # runs past its parent: clipped
    ]
    assert self_times(spans)[0] == pytest.approx(10 - 5 - 1 - 0.5)
    assert covered([(1, 5), (4, 6), (9, 12)], 0, 10) == pytest.approx(6)


def test_distinct_ratio():
    assert distinct_ratio(["a", "b", "a", "a"]) == 0.5
    assert distinct_ratio(["a", "b"]) == 1.0
    assert distinct_ratio([]) == 0.0


def test_cer_tolerance_scales_with_both_sample_sizes():
    assert cer_within(200, 1000, 0.2, 10 ** 6)
    assert not cer_within(300, 1000, 0.2, 10 ** 6)
    # a reference on few trials widens the tolerance
    assert cer_within(260, 1000, 0.2, 200)


def test_command_counts_do_not_grow_with_rounds():
    def rec(label, slot, failures=()):
        return {"label": label, "slot": slot, "failures": list(failures)}
    setup = [rec("input ussd4", None)] * 4          # one set-up command, four interpreters
    one_round = [rec("probe", 0), rec("probe", 1), rec("verify scaled", 2, ["class"])]
    assert command_counts(setup + one_round) == (4, 1)
    assert command_counts(setup + one_round * 3) == (4, 1)
    # a failure in any repetition marks the command failed
    assert command_counts(one_round + [rec("probe", 1, ["cer"])]) == (3, 2)
