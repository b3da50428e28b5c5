"""The example scripts run to completion against the current public API.

Each script under ``examples/`` runs in its own interpreter, from a
temporary working directory, with ``src/`` on the path; it must exit 0
within the timeout. ``serve.py`` runs with ``--demo`` (boot a preforked
fleet, fire demo queries, drain).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))
#: Extra arguments per script; the rest run without any.
ARGUMENTS = {"serve.py": ["--demo"]}
TIMEOUT_S = 120


def test_examples_found():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_cleanly(script: Path, tmp_path: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(REPO / "src"), env.get("PYTHONPATH")))
    )
    completed = subprocess.run(
        [sys.executable, str(script), *ARGUMENTS.get(script.name, [])],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip()  # every example prints its answers
