"""questlint CLI: suppressions, baseline round-trip, JSON schema, exits."""

from __future__ import annotations

import io
import json
from pathlib import Path

from repro.analysis import analyze_paths, main
from repro.analysis.baseline import Baseline

BAD_SOURCE = (
    "import threading\n"
    "\n"
    "class Holder:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
)

SUPPRESSED_SOURCE = (
    "import threading\n"
    "\n"
    "class Holder:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()"
    "  # questlint: disable=fork-safety  # test-only holder, never forked\n"
)

FILE_SUPPRESSED_SOURCE = (
    "# questlint: disable-file=fork-safety\n" + BAD_SOURCE
)


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_violation_exits_nonzero(tmp_path):
    (tmp_path / "bad.py").write_text(BAD_SOURCE)
    code, text = run_cli(str(tmp_path), "--baseline", str(tmp_path / "b.json"))
    assert code == 1
    assert "[fork-safety]" in text
    assert "bad.py:5" in text


def test_inline_suppression_waives_finding(tmp_path):
    (tmp_path / "ok.py").write_text(SUPPRESSED_SOURCE)
    code, text = run_cli(str(tmp_path), "--baseline", str(tmp_path / "b.json"))
    assert code == 0
    assert "1 suppressed" in text


def test_file_wide_suppression_waives_finding(tmp_path):
    (tmp_path / "ok.py").write_text(FILE_SUPPRESSED_SOURCE)
    code, _ = run_cli(str(tmp_path), "--baseline", str(tmp_path / "b.json"))
    assert code == 0


def test_suppressing_a_different_rule_does_not_waive(tmp_path):
    source = BAD_SOURCE.replace(
        "threading.Lock()",
        "threading.Lock()  # questlint: disable=cache-revision",
    )
    (tmp_path / "bad.py").write_text(source)
    code, _ = run_cli(str(tmp_path), "--baseline", str(tmp_path / "b.json"))
    assert code == 1


def test_baseline_round_trip(tmp_path):
    """--write-baseline parks the findings; the next run exits 0 and
    reports them as baselined; fixing the code leaves a shrinkable file."""
    (tmp_path / "bad.py").write_text(BAD_SOURCE)
    baseline = tmp_path / "questlint-baseline.json"

    code, text = run_cli(
        str(tmp_path), "--baseline", str(baseline), "--write-baseline"
    )
    assert code == 0
    assert "wrote 1 new entry" in text
    parked = Baseline.load(baseline)
    assert len(parked.entries) == 1
    (entry,) = parked.entries.values()
    assert entry["rule"] == "fork-safety"
    assert "justification" in entry

    code, text = run_cli(str(tmp_path), "--baseline", str(baseline))
    assert code == 0
    assert "1 baselined" in text


def test_baseline_survives_line_drift(tmp_path):
    """Fingerprints exclude line numbers, so shifting code above a parked
    finding must not resurrect it."""
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SOURCE)
    baseline = tmp_path / "b.json"
    run_cli(str(tmp_path), "--baseline", str(baseline), "--write-baseline")

    bad.write_text("# a new leading comment shifts every line\n" + BAD_SOURCE)
    code, _ = run_cli(str(tmp_path), "--baseline", str(baseline))
    assert code == 0


def test_json_output_schema(tmp_path):
    (tmp_path / "bad.py").write_text(BAD_SOURCE)
    code, text = run_cli(
        str(tmp_path), "--json", "--baseline", str(tmp_path / "b.json")
    )
    assert code == 1
    payload = json.loads(text)
    assert payload["schema_version"] == 1
    assert payload["exit_code"] == 1
    assert payload["files_checked"] == 1
    assert payload["counts"]["fork-safety"] == 1
    assert "fork-safety" in payload["rules"]
    (finding,) = payload["findings"]
    assert set(finding) >= {
        "rule", "path", "line", "col", "message", "fingerprint",
    }
    assert finding["rule"] == "fork-safety"
    assert len(finding["fingerprint"]) == 16


def test_unknown_rule_exits_two(tmp_path):
    code, text = run_cli(str(tmp_path), "--rules", "no-such-rule")
    assert code == 2
    assert "unknown rules: no-such-rule" in text


def test_rules_filter_restricts_checkers(tmp_path):
    (tmp_path / "bad.py").write_text(BAD_SOURCE)
    code, _ = run_cli(
        str(tmp_path), "--rules", "cache-revision",
        "--baseline", str(tmp_path / "b.json"),
    )
    assert code == 0  # the fork-safety checker never ran


def test_list_rules_names_all_six():
    code, text = run_cli("--list-rules")
    assert code == 0
    for rule in (
        "fork-safety", "lock-order", "cache-revision",
        "journal-discipline", "fault-points", "clock-discipline",
        "cached-hash",
    ):
        assert rule in text


def test_syntax_error_is_a_finding(tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n")
    result = analyze_paths([tmp_path], root=tmp_path)
    assert result.exit_code == 1
    assert result.findings[0].rule == "syntax"


def test_clean_tree_reports_counts(tmp_path):
    (tmp_path / "fine.py").write_text("x = 1\n")
    code, text = run_cli(str(tmp_path), "--baseline", str(tmp_path / "b.json"))
    assert code == 0
    assert "clean" in text and "1 file" in text


def test_committed_baseline_is_empty():
    """The repo ships an empty baseline: every finding is fixed or carries
    an inline justification, and the ratchet starts at zero."""
    path = Path(__file__).resolve().parents[2] / "questlint-baseline.json"
    baseline = Baseline.load(path)
    assert baseline.entries == {}
