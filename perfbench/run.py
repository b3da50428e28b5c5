"""QUEST benchmark: run one workload, check its answers, print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_http --seed 1 --seconds 20 --trace 0

Each measured run executes ``perfbench/workloads.py`` in a fresh
interpreter (its own process group, ``QUEST_LOCKWATCH`` unset), so peak
memory and cache state never depend on what ran before. Workloads with
gold answers first compute them in a separate process, outside every
timed phase, and reuse them while the sources are unchanged.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the same seeded sequence twice, untraced and then
traced, and prints the per-layer metrics: layer figures from the traced
run, the workload-specific figures (cache hits, writes, fresh reads,
recovery, answer quality) from the untraced one, and the tracing
overhead (traced minus untraced) of every end-to-end metric.

Every exact work count (cache hits and misses, configurations,
interpretations, explanations, ``result_count`` calls, journal appends,
replayed ops, response bytes) must repeat at a fixed seed: between the
untraced and traced runs of one invocation, and against the counts an
earlier invocation of the same code, workload, seed and size recorded
under ``.perfbench/counts/``. A count that differs is reported on
standard error and makes the result incorrect. ``fulltext.merges`` and
``fulltext.delta_terms_max`` depend on when a background merge thread
runs, so they are exempt.

Per-layer figures a workload does not exercise read 0: ``http.*``,
``service.*`` and ``cached_p50_ms`` come from ``serve_http`` only;
``write_*``, ``fresh_read_p50_ms``, ``recover_s``, ``storage.apply_ms``,
``journal.*``, ``fulltext.*`` and ``recovery.*`` from ``write_oltp``
only; ``mrr`` and ``success_at_10`` from the two gold-query workloads;
``setup.fleet_s`` from ``serve_http``. The engine layers (``pipeline``,
``wrapper``, ``hmm``, ``steiner``, ``dst``, ``storage``) report on all
three. In ``serve_http`` the engine-layer spans are recorded inside the
prefork worker, by wrappers the benchmark installs in the engine factory
it hands to ``PreforkServer``.

Times are reported at a reference CPU speed (see ``speed.py``): the
vCPUs of the shared host this benchmark was built on switch between two
speeds about 1.6x apart, so each run scales its wall-clock times by a
speed probe timed between its ops.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Run details (the
workload record, sample sizes, counts, failures, wall-clock figures and
the speed factor) go to standard error.
Spans of a traced run are written to ``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout (journals, SQLite files, artifacts).
WORKROOT = ROOT / ".perfbench"
#: Wall-clock budget for one invocation, children included.
DEADLINE_S = 170.0
#: Workloads whose answers are checked against precomputed gold answers.
NEEDS_EXPECTED = {"serve_http", "sqlite_explain"}
#: Counts that depend on a background thread's timing, not on the ops.
TIMING_DEPENDENT = {"fulltext.merges", "fulltext.delta_terms_max"}


class ChildFailed(RuntimeError):
    pass


def _stop_group(pgid: int) -> None:
    """SIGKILL what is left of a child's process group and wait it out."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_child(args: list[str], deadline: float) -> str:
    """Run ``workloads.py`` with *args*; return its standard output."""
    env = dict(os.environ)
    env.pop("QUEST_LOCKWATCH", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, str(HERE / "workloads.py"), *args]
    child = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop_group(child.pid)
        child.communicate()
        raise ChildFailed(f"{' '.join(args)}: timed out") from None
    finally:
        _stop_group(child.pid)
    if child.returncode != 0:
        raise ChildFailed(f"{' '.join(args)}: exit {child.returncode}\n{err[-4000:]}")
    return out


def code_digest() -> str:
    """A digest of the program and benchmark sources (the expected-answer key)."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def expected_answers(common: list[str], workload: str, deadline: float) -> Path:
    """Gold answers for *workload*, computed once per source tree.

    They come from a separate process (``workloads.py --expect``), never
    from a timed one, and are kept under ``.perfbench/expected/`` keyed
    by :func:`code_digest`, so later runs of the same code reuse them.
    """
    path = WORKROOT / "expected" / f"{workload}-{code_digest()}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = path.with_suffix(f".{os.getpid()}.tmp")
        run_child([*common, "--expect", "--out", str(partial)], deadline)
        os.replace(partial, path)
    return path


def _last_json(out: str) -> dict[str, Any]:
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise ChildFailed("workload printed no result")
    return json.loads(lines[-1])


def count_mismatches(first: dict[str, int], second: dict[str, int]) -> dict[str, tuple]:
    """Exact counts that differ between two runs of one seed."""
    return {
        name: (first[name], second[name])
        for name in sorted(first.keys() & second.keys())
        if name not in TIMING_DEPENDENT and first[name] != second[name]
    }


def recall_counts(key: str, counts: dict[str, int]) -> dict[str, tuple]:
    """Check *counts* against an earlier run of the same code, workload,
    seed and size in this checkout; the first such run records them."""
    path = WORKROOT / "counts" / f"{key}.json"
    if path.exists():
        return count_mismatches(json.loads(path.read_text()), counts)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts))
    return {}


def per_layer_values(untraced: dict[str, Any], traced: dict[str, Any]) -> dict[str, float]:
    """Every per-layer figure the two runs produced, by metric name."""
    values: dict[str, float] = {}
    values.update(untraced["extra"])
    values.update(untraced["setup"])
    values.update(traced["layers"] or {})
    for name, value in untraced["e2e"].items():
        values[f"overhead.{name}"] = traced["e2e"][name] - value
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one QUEST benchmark workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no QUEST sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workdir = WORKROOT / f"run-{os.getpid()}"
    spans_out = WORKROOT / "spans" / f"{args.workload}-seed{args.seed}.json"
    common = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--workdir", str(workdir),
    ]
    try:
        if args.workload in NEEDS_EXPECTED:
            expected = expected_answers(common, args.workload, deadline)
            common += ["--expected", str(expected)]
        untraced = _last_json(run_child([*common, "--trace", "0"], deadline))
        runs = [untraced]
        if args.trace:
            spans_out.parent.mkdir(parents=True, exist_ok=True)
            traced = _last_json(
                run_child([*common, "--trace", "1", "--spans-out", str(spans_out)], deadline)
            )
            runs.append(traced)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mismatches = recall_counts(
        f"{args.workload}-seed{args.seed}-{args.seconds:g}s-{code_digest()}", untraced["counts"]
    )
    if args.trace:
        mismatches.update(count_mismatches(untraced["counts"], traced["counts"]))
        values = per_layer_values(untraced, traced)
        wanted = spec["per_layer"]
    else:
        values = untraced["e2e"]
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "record": untraced["record"],
        "samples": untraced["samples"],
        "wall_clock": untraced["raw_e2e"],
        "speed": untraced["speed"],
        "counts": untraced["counts"],
        "failure_reasons": [r for run in runs for r in run["reasons"]],
        "count_mismatches": mismatches,
    }
    print(json.dumps(detail, indent=1), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0 and not mismatches,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
