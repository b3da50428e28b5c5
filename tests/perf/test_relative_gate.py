"""The ``--relative`` gate of ``benchmarks/regression.py`` on made-up reports.

The gate compares the median of paired per-repetition speedup ratios
(reference run *i* / optimized run *i*) against the baseline's; these
tests pin that a slowed optimized side is flagged, unchanged runs pass,
and runs that are missing or not pairs fail the gate instead of dropping
the entry from it.
"""

from __future__ import annotations

import pytest

from benchmarks.regression import _measure_pair, compare, paired_speedup

TOLERANCE = 0.30


def _entry(runs: list[float]) -> dict:
    return {"median_s": sorted(runs)[len(runs) // 2], "min_s": min(runs), "runs": runs}


def _report(optimized: list[float], reference: list[float], stage: bool = True) -> dict:
    """A report with one kernel entry and one cold-search stage entry."""

    def side(runs: list[float]) -> dict:
        entry = {**_entry(runs), "queries": 10}
        if stage:
            entry["stage_seconds"] = {"backward": _entry(runs)}
        return entry

    return {
        "kernels": {
            "optimized": {"entries": {"top-k": _entry(optimized)}},
            "reference": {"entries": {"top-k": _entry(reference)}},
        },
        "cold_search": {
            "memory": {"optimized": side(optimized), "reference": side(reference)}
        },
    }


BASELINE = _report([0.010, 0.011, 0.010, 0.012, 0.010], [0.100] * 5)


def test_paired_speedup_is_the_median_of_per_repetition_ratios():
    entries = {
        "optimized": {"runs": [0.01, 0.02, 0.05]},
        "reference": {"runs": [0.10, 0.10, 0.10]},
    }
    assert paired_speedup(entries) == pytest.approx(5.0)


def test_alternating_repetitions_interleave_sides_and_record_mean_calls():
    calls: list[str] = []
    variants = {
        "optimized": lambda: calls.append("optimized"),
        "reference": lambda: calls.append("reference"),
    }
    stats = _measure_pair(variants, repeats=2, alternations=3)
    # One warmup per side, then 2 repetitions of 3 back-to-back rounds.
    assert calls == ["optimized", "reference"] * (1 + 2 * 3)
    for side in variants:
        assert len(stats[side]["runs"]) == 2


def test_unchanged_runs_pass():
    assert compare(BASELINE, BASELINE, TOLERANCE, relative=True) == []


def test_one_fast_repetition_does_not_move_the_gate():
    # A ratio of minimums would read 0.100 / 0.002 = 50x here.
    lucky = _report([0.002, 0.011, 0.010, 0.012, 0.010], [0.100] * 5)
    assert compare(lucky, BASELINE, TOLERANCE, relative=True) == []
    assert compare(BASELINE, lucky, TOLERANCE, relative=True) == []


def test_a_slowed_optimized_side_is_flagged():
    slowed = _report([0.020, 0.022, 0.020, 0.024, 0.020], [0.100] * 5)
    problems = compare(slowed, BASELINE, TOLERANCE, relative=True)
    assert [p.split(":")[0] for p in problems] == [
        "kernel/top-k",
        "memory/cold-search per-query",
        "memory/stage-backward per-query",
    ]
    assert all("speedup ratio 5.00x fell below baseline 10.00x" in p for p in problems)


def test_unpaired_runs_fail_the_gate():
    # A stage that did not run in one optimized repetition records fewer
    # runs; the entry must be reported, not skipped.
    current = _report([0.010] * 5, [0.100] * 5)
    stage = current["cold_search"]["memory"]["optimized"]["stage_seconds"]
    stage["backward"] = _entry([0.010] * 4)
    problems = compare(current, BASELINE, TOLERANCE, relative=True)
    assert problems == [
        "memory/stage-backward per-query: cannot gate the speedup ratio: "
        "4 optimized vs 5 reference runs are not pairs"
    ]


def test_a_missing_side_fails_the_gate():
    current = _report([0.010] * 5, [0.100] * 5, stage=False)
    current["cold_search"]["memory"]["optimized"]["stage_seconds"] = {
        "backward": _entry([0.010] * 5)
    }
    problems = compare(current, BASELINE, TOLERANCE, relative=True)
    assert problems == [
        "memory/stage-backward per-query: cannot gate the speedup ratio: "
        "no per-repetition runs on both kernel sets"
    ]


def test_entries_under_the_noise_floor_are_exempt():
    fast = _report([0.0001] * 5, [0.001] * 5)
    slowed = _report([0.0009] * 5, [0.001] * 5)
    assert compare(slowed, fast, TOLERANCE, relative=True) == []


def test_explain_stage_is_reported_but_not_gated_relatively():
    # The explain stage runs the same code on both kernel sets, so a
    # collapsed ratio (0.5x against 1.0x) is noise in relative mode; the
    # absolute mode still gates its optimized median.
    def with_explain(optimized: list[float], reference: list[float]) -> dict:
        report = _report([0.010] * 5, [0.100] * 5)
        sides = report["cold_search"]["memory"]
        sides["optimized"]["stage_seconds"]["explain"] = _entry(optimized)
        sides["reference"]["stage_seconds"]["explain"] = _entry(reference)
        return report

    base = with_explain([0.010] * 5, [0.010] * 5)
    current = with_explain([0.020] * 5, [0.010] * 5)
    assert compare(current, base, TOLERANCE, relative=True) == []
    problems = compare(current, base, TOLERANCE, relative=False)
    assert [p.split(":")[0] for p in problems] == ["memory/stage-explain per-query"]
