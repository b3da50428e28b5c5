"""Tests of the benchmark itself: determinism, schema, failure accounting.

Run from the checkout root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from sequences import explain_sequence, serve_sequence, split_budget, stream_rng
import speed
from spans import SpanRecorder

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture
def workdir():
    path = ROOT / ".perfbench" / "test-work"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


# -- seeded sequences ------------------------------------------------------------


def test_same_seed_same_sequences_and_different_seed_differs():
    for make in (serve_sequence, explain_sequence):
        first = make(81, stream_rng(7, "s", 0))
        assert first == make(81, stream_rng(7, "s", 0))
        assert first != make(81, stream_rng(8, "s", 0))
        assert first != make(81, stream_rng(7, "s", 1))


def test_oltp_rounds_follow_the_seed_over_fixed_content():
    from repro.datasets import mondial

    db = mondial.generate(countries=25)
    first = workloads.oltp_rounds(db, 3, 5.0)
    assert first == workloads.oltp_rounds(db, 3, 5.0)
    other = workloads.oltp_rounds(db, 4, 5.0)
    assert other != first
    assert sorted(map(repr, sum((ops for _, ops in first), []))) == sorted(
        map(repr, sum((ops for _, ops in other), []))
    )


def test_serve_sequence_sends_every_query_once_plus_a_third_as_many_repeats():
    sequence = serve_sequence(81, stream_rng(1, "serve_http"))
    firsts = [index for index, repeat in sequence if not repeat]
    assert sorted(firsts) == list(range(81))
    assert sum(repeat for _, repeat in sequence) == 27
    sent: list[int] = []
    for index, repeat in sequence:
        if repeat:
            assert index in sent[-8:]
        else:
            sent.append(index)


def test_split_budget():
    assert split_budget(720, 108) == [108] * 7
    assert split_budget(50, 121) == [50]


# -- spans -----------------------------------------------------------------------


def test_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    recorder = SpanRecorder(clock=lambda: next(ticks))
    with recorder.span("outer", request=5):
        with recorder.span("inner"):
            pass
        with recorder.span("inner"):
            pass
    assert recorder.self_times() == {"outer": [6.0], "inner": [2.0, 2.0]}
    assert [span[4] for span in recorder.spans] == [5, 5, 5]


class SteppingClock:
    """A clock that advances by ``step`` on every reading."""

    def __init__(self, step: float) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def test_speed_factor_weights_each_probe_by_the_time_it_stands_for(monkeypatch):
    monkeypatch.setattr(speed, "_probe_loop", lambda: None)
    clock = SteppingClock(0.001)
    speeds = speed.SpeedClock(clock=clock)
    speeds.probe()
    clock.now += 0.5
    clock.step = 0.003
    speeds.probe()
    clock.now += 0.5
    speeds.probe()
    assert speeds.probes == pytest.approx([0.001, 0.003, 0.003])
    assert speeds.mean_probe_s() == pytest.approx(0.002)
    factor = speeds.factor()
    assert factor == pytest.approx(speed.REFERENCE_S / 0.002)
    assert speed.scaled(
        {"search_p50_ms": 10.0, "throughput_ops_s": 4.0, "mrr": 0.5}, factor
    ) == pytest.approx({"search_p50_ms": 10.0 * factor, "throughput_ops_s": 4.0 / factor, "mrr": 0.5})


# -- schema ------------------------------------------------------------------------


def test_benchmark_json_schema():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


# -- failure accounting and smoke runs ---------------------------------------------------


def test_forced_ranking_mismatch_is_a_failed_op(workdir):
    expected = workloads.expect("serve_http", workdir)
    count = workloads._budget("serve_http", 0.3)[0]
    first = serve_sequence(len(expected["texts"]), stream_rng(1, "serve_http", 0), count)[0][0]
    expected["results"][first] = json.dumps([{"rank": 0, "tampered": True}])
    result = workloads.run_serve_http(1, 0.3, False, expected, workdir)
    assert result["failed"] >= 1
    assert result["extra"]["failed_ratio"] == result["failed"] / result["attempted"] > 0
    assert any("differs" in reason for reason in result["reasons"])


def test_forced_missing_probe_is_a_failed_op(workdir, monkeypatch):
    from repro.datasets import mixed

    apply_op = mixed.apply_op
    dropped: list[str] = []

    def drop_first_add(backend, op):
        if op.kind == "add" and not dropped:
            dropped.append(op.probe)
            return
        apply_op(backend, op)

    monkeypatch.setattr(mixed, "apply_op", drop_first_add)
    result = workloads.run_write_oltp(1, 1.0, False, workdir)
    assert dropped
    assert result["failed"] == 1
    assert result["reasons"] == [f"probe {dropped[0]!r} not readable after its ack"]
    assert result["extra"]["failed_ratio"] == 1 / result["attempted"]


def test_count_mismatches_ignore_timing_dependent_counts():
    first = {"a": 1, "fulltext.merges": 2, "only_first": 3}
    second = {"a": 2, "fulltext.merges": 5}
    assert run.count_mismatches(first, second) == {"a": (1, 2)}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], float)
        if not trace:
            assert value["value"] > 0


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench" / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "serve_http",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
