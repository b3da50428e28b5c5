"""Hashes stored at construction are recomputed on unpickle.

``ColumnRef``, ``State``, ``StatesKey``, ``Configuration`` and
``Interpretation`` compute their hash once, when they are built. String
hashes are salted per process, so an object pickled under one
``PYTHONHASHSEED`` and loaded under another must rebuild its hash there — or it compares equal to a fresh object yet
misses every dict lookup. The writer and the reader are separate
interpreters with different seeds.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.db import ColumnRef

SRC = str(Path(__file__).resolve().parents[2] / "src")

BUILD = """
from repro.core import Configuration, Interpretation, KeywordMapping
from repro.db import ColumnRef
from repro.hmm import State, StateKind
from repro.hmm.states import StatesKey
from repro.steiner import EdgeKind, SchemaEdge, SteinerTree

def build():
    pk, title = ColumnRef("movie", "id"), ColumnRef("movie", "title")
    configuration = Configuration(
        (
            KeywordMapping("alien", State(StateKind.DOMAIN, "movie", "title")),
            KeywordMapping("movies", State(StateKind.TABLE, "movie")),
        ),
        0.75,
    )
    tree = SteinerTree(
        frozenset({pk, title}),
        frozenset({SchemaEdge(pk, title, 0.5, EdgeKind.INTRA)}),
        0.5,
    )
    state = State(StateKind.ATTRIBUTE, "movie", "title")
    states = StatesKey((state, State(StateKind.TABLE, "movie")))
    return [
        title, state, states, configuration, Interpretation(configuration, tree, 0.25)
    ]
"""

WRITER = BUILD + """
import pickle, sys
sys.stdout.buffer.write(pickle.dumps(build()))
"""

READER = BUILD + """
import pickle, sys
loaded = pickle.loads(sys.stdin.buffer.read())
for old, fresh in zip(loaded, build(), strict=True):
    assert old == fresh, (old, fresh)
    assert hash(old) == hash(fresh), type(old).__name__
    assert {fresh: 1}.get(old) == 1, type(old).__name__
    assert getattr(old, "score", None) == getattr(fresh, "score", None)
    assert getattr(old, "column_ref", None) == getattr(fresh, "column_ref", None)
print("ok", len(loaded))
"""


def _run(code: str, seed: int, data: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code],
        input=data,
        capture_output=True,
        env=env,
        timeout=60,
        check=False,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_unpickled_under_another_hash_seed_finds_fresh_keys():
    payload = _run(WRITER, seed=1)
    assert _run(READER, seed=2, data=payload).split() == [b"ok", b"5"]


def test_columnref_round_trip_in_process():
    ref = ColumnRef("movie", "title")
    clone = pickle.loads(pickle.dumps(ref))
    assert (clone.table, clone.column) == ("movie", "title")
    assert clone == ref and hash(clone) == hash(ref)
