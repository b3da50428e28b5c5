"""The explain stage's postings check skips only configurations with no rows.

Before building or counting anything, the explain stage asks the wrapper
whether each distinct CONTAINS token of a configuration has a posting in
the column it is mapped to, and skips the configuration when one has
none (:class:`repro.pipeline.stages.PostingsCheck`). The oracles:

- ``tests/oracle.py::execute_reference`` counts every tree of a skipped
  configuration (scans, ``contains_match`` on every row): all must be 0;
- ``tests/oracle.py::has_postings_reference`` switches the check off, and
  the explanations and ``search_many`` rankings must not change.
- ``tests/oracle.py::PostingsReference`` reads the postings straight from
  the live rows: each backend's ``has_postings`` must give its answer.

Hypothesis draws small tables over memory and SQLite and interleaves
batched ``add_rows``/``delete_rows`` with the checks, on one engine per
backend, so an answer remembered across searches goes stale. Keywords
include phrases, repeated tokens and punctuation-only keywords, mapped
onto TEXT, BOOLEAN and INTEGER columns, and onto a column the "partial"
backends keep out of their index (their ``has_postings`` declines it).
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.pipeline.stages as stages
from repro.core import Configuration, KeywordMapping, Quest
from repro.core.interpretation import Interpretation
from repro.core.query_builder import build_query
from repro.datasets import mondial
from repro.db import Column, Database, Schema, TableSchema
from repro.db.schema import ColumnRef, ForeignKey
from repro.db.types import DataType
from repro.hmm import State, StateKind
from repro.storage import MemoryBackend
from repro.storage.sqlite import SQLiteBackend
from repro.wrapper import FullAccessWrapper, HiddenSourceWrapper
from tests.oracle import PostingsReference, execute_reference, reference_kernels

#: The patch target of the check's reference twin (never skip).
TWIN = "repro.wrapper.full.FullAccessWrapper.has_postings"

#: The column the partial backends keep out of their index.
_DECLINED = "nick"

_WORDS = ["alpha", "beta", "O'Brien", "o", "brien", "true", "7", "gamma"]

_KEYWORDS = st.one_of(
    st.sampled_from(["alpha", "beta", "gamma", "brien", "true", "7"]),
    st.sampled_from(
        [
            "ALPHA",
            "O'Brien",
            "alpha beta",
            "beta alpha",
            "alpha alpha",
            "o brien o",
            "--",
            "?!",
            "False",
            "absent",
        ]
    ),
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join),
)

_NAME = State(StateKind.DOMAIN, "person", "name")

#: DOMAIN columns a keyword may be mapped onto.
_DOMAINS = [
    ("person", "name"),
    ("person", _DECLINED),
    ("person", "active"),
    ("person", "born"),
    ("note", "body"),
    ("tag", "label"),
]


def _schema() -> Schema:
    return Schema(
        tables=[
            TableSchema(
                "person",
                (
                    Column("id", DataType.INTEGER, nullable=False),
                    Column("name", DataType.TEXT),
                    Column(_DECLINED, DataType.TEXT),
                    Column("active", DataType.BOOLEAN),
                    Column("born", DataType.INTEGER),
                ),
                ("id",),
            ),
            TableSchema(
                "note",
                (
                    Column("id", DataType.INTEGER, nullable=False),
                    Column("person_id", DataType.INTEGER),
                    Column("body", DataType.TEXT),
                ),
                ("id",),
            ),
            TableSchema(
                "tag",
                (
                    Column("id", DataType.INTEGER, nullable=False),
                    Column("note_id", DataType.INTEGER),
                    Column("label", DataType.TEXT),
                ),
                ("id",),
            ),
        ],
        foreign_keys=[
            ForeignKey("note", "person_id", "person", "id"),
            ForeignKey("tag", "note_id", "note", "id"),
        ],
        name="skips",
    )


class _PartialMemory(MemoryBackend):
    """An index without one column: its tokens are never decided."""

    def _postings(self, token, ref):
        return None if ref.column == _DECLINED else super()._postings(token, ref)

    def has_postings(self, token, ref):
        return None if ref.column == _DECLINED else super().has_postings(token, ref)


class _PartialSQLite(SQLiteBackend):
    """The SQLite twin of :class:`_PartialMemory`."""

    def _narrow_contains(self, alias, table, column, keyword):
        if column == _DECLINED:
            return None
        return super()._narrow_contains(alias, table, column, keyword)

    def has_postings(self, token, ref):
        return None if ref.column == _DECLINED else super().has_postings(token, ref)


_TEXT = st.one_of(
    st.none(),
    st.lists(st.sampled_from(_WORDS + ["alpha-beta", "o'brien."]), max_size=4).map(
        " ".join
    ),
)
_PERSON = st.fixed_dictionaries(
    {
        "name": _TEXT,
        _DECLINED: _TEXT,
        "active": st.one_of(st.none(), st.booleans()),
        "born": st.one_of(st.none(), st.sampled_from([7, 1994, 0])),
    }
)
_NOTE = st.fixed_dictionaries(
    {"person_id": st.one_of(st.none(), st.integers(0, 7)), "body": _TEXT}
)
_TAG = st.fixed_dictionaries(
    {"note_id": st.one_of(st.none(), st.integers(0, 7)), "label": _TEXT}
)
_ROWS = {"person": _PERSON, "note": _NOTE, "tag": _TAG}


@st.composite
def _configurations(draw):
    """Configurations of 1-3 domain mappings, sometimes a TABLE term too."""
    size = draw(st.sampled_from([1, 1, 2, 3]))
    mappings = [
        KeywordMapping(draw(_KEYWORDS), State(StateKind.DOMAIN, *draw(st.sampled_from(_DOMAINS))))
        for _ in range(size)
    ]
    if draw(st.booleans()):
        table = draw(st.sampled_from(["person", "note", "tag"]))
        mappings.append(KeywordMapping(table, State(StateKind.TABLE, table)))
    return Configuration(tuple(mappings), 1.0)


@st.composite
def _scenarios(draw):
    rows = {
        table: draw(st.lists(strategy, max_size=4)) for table, strategy in _ROWS.items()
    }
    ops = draw(
        st.lists(
            st.one_of(
                *(
                    st.tuples(st.just(table), st.lists(strategy, min_size=1, max_size=3))
                    for table, strategy in _ROWS.items()
                ),
                st.tuples(
                    st.just("delete"),
                    st.tuples(
                        st.sampled_from(list(_ROWS)),
                        st.lists(st.integers(0, 9), min_size=1, max_size=2),
                    ),
                ),
            ),
            max_size=4,
        )
    )
    configurations = draw(st.lists(_configurations(), min_size=1, max_size=4))
    return rows, ops, configurations


def _interpretations(engine: Quest, configurations) -> list[Interpretation]:
    """Every tree (top 4) of every configuration, as a ranked list."""
    ranked = []
    for rank, configuration in enumerate(configurations):
        terminals = sorted(configuration.terminals(engine.schema), key=str)
        trees = stages.top_k_steiner_trees(engine.schema_graph, terminals, 4)
        ranked += [
            Interpretation(configuration, tree, 1.0 / (rank + 1 + i))
            for i, tree in enumerate(trees)
        ]
    return ranked


def _payload(explanations) -> list[tuple]:
    return [(e.sql, e.probability, e.result_count) for e in explanations]


def _check(db: Database, engines, configurations) -> None:
    for engine in engines:
        ranked = _interpretations(engine, configurations)
        decided: dict[Configuration, bool] = {}
        decide = stages.PostingsCheck.provably_empty

        def spy(check, configuration):
            decided[configuration] = decide(check, configuration)
            return decided[configuration]

        with mock.patch.object(stages.PostingsCheck, "provably_empty", spy):
            got = engine.explain(ranked)
        with reference_kernels(TWIN):
            want = engine.explain(ranked)
        assert _payload(got) == _payload(want), engine.wrapper.backend
        for interpretation in ranked:
            if decided.get(interpretation.configuration):
                query = build_query(engine.schema, interpretation)
                assert len(execute_reference(db, query)) == 0, (
                    engine.wrapper.backend,
                    query,
                )


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario=_scenarios())
@example(  # a token absent at the first search, added before the second
    scenario=(
        {"person": [], "note": [], "tag": []},
        [("person", [{"name": "alpha", _DECLINED: None, "active": None, "born": None}])],
        [Configuration((KeywordMapping("alpha", _NAME),), 1.0)],
    )
)
def test_skipped_configurations_count_zero_for_every_tree(scenario):
    rows, ops, configurations = scenario
    ids = dict.fromkeys(_ROWS, 0)

    def keyed(table: str, values: dict) -> dict:
        row = {"id": ids[table], **values}
        ids[table] += 1
        return row

    db = Database(_schema())
    for table, values in rows.items():
        for value in values:
            db.insert(table, keyed(table, value))
    memory = MemoryBackend(db)
    sqlite = SQLiteBackend.from_database(db)
    partial_sqlite = _PartialSQLite.from_database(db)
    # ``memory`` writes into ``db``; the partial memory backend reads it.
    writers = (memory, sqlite, partial_sqlite)
    backends = (memory, _PartialMemory(db), sqlite, partial_sqlite)
    engines = [Quest(FullAccessWrapper(backend)) for backend in backends]
    _check(db, engines, configurations)
    for op, payload in ops:
        if op == "delete":
            table, keys = payload
            for backend in writers:
                backend.delete_rows(table, [(key,) for key in keys])
        else:
            batch = [keyed(op, values) for values in payload]
            for backend in writers:
                backend.add_rows(op, batch)
        _check(db, engines, configurations)
    texts = [" ".join(c.keywords) for c in configurations]
    for engine in engines:
        got = [_payload(answers) for answers in engine.search_many(texts, strict=False)]
        with reference_kernels(TWIN):
            want = [_payload(answers) for answers in engine.search_many(texts, strict=False)]
        assert got == want
    sqlite.close()
    partial_sqlite.close()


def test_provably_empty_needs_a_decided_absent_token():
    """Phrases are decided token by token; ``None`` decides nothing."""
    present = {"alpha": True, "beta": True}

    def lookup(token, ref):
        return present.get(token, False)

    def check(keyword: str, has_postings=lookup) -> bool:
        mapping = KeywordMapping(keyword, _NAME)
        postings = stages.PostingsCheck(has_postings)
        return postings.provably_empty(Configuration((mapping,)))

    assert not check("alpha beta")  # the phrase itself is no posting term
    assert not check("Alpha ALPHA")
    assert check("alpha gamma")
    assert check("?!")  # no tokens: asked as the empty token
    assert not check("gamma", lambda token, ref: None)
    assert not check("?!", lambda token, ref: None)
    table = KeywordMapping("person", State(StateKind.TABLE, "person"))
    assert not stages.PostingsCheck(lookup).provably_empty(Configuration((table,)))
    both = Configuration((KeywordMapping("alpha", _NAME), KeywordMapping("gamma", _NAME)))
    assert stages.PostingsCheck(lookup).provably_empty(both)


def test_lookups_are_memoised_per_token_and_column():
    calls = []

    def lookup(token, ref):
        calls.append((token, ref))
        return True

    check = stages.PostingsCheck(lookup)
    for keyword in ("alpha beta alpha", "beta", "ALPHA", "beta"):
        configuration = Configuration((KeywordMapping(keyword, _NAME),))
        assert not check.provably_empty(configuration)
    ref = ColumnRef("person", "name")
    assert calls == [("alpha", ref), ("beta", ref)]


# -- the backends' existence lookups -------------------------------------------


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario=_scenarios())
def test_has_postings_is_a_nonempty_posting_list(scenario):
    """Memory (sealed and after writes) and SQLite agree with the lists and
    with brute-force postings read from the live rows."""
    rows, ops, _configurations = scenario
    db = Database(_schema())
    ids = dict.fromkeys(_ROWS, 0)
    for table, values in rows.items():
        for value in values:
            db.insert(table, {"id": ids[table], **value})
            ids[table] += 1
    memory = MemoryBackend(db)
    sqlite = SQLiteBackend.from_database(db)
    tokens = ["", "alpha", "brien", "true", "false", "7", "absent", "alpha beta"]
    refs = [ColumnRef(table.name, c.name) for table in db.schema.tables for c in table.columns]

    def agree() -> None:
        reference = PostingsReference(db)
        for token in tokens:
            for ref in refs:
                want = bool(memory.matching_row_positions(token, ref))
                assert memory.has_postings(token, ref) is want, (token, ref)
                assert reference.has_postings(token, ref) is want, (token, ref)
                assert sqlite.has_postings(token, ref) is want, (token, ref)
        outside = ColumnRef("person", "no_such_column")
        assert memory.has_postings("alpha", outside) is None
        assert sqlite.has_postings("alpha", outside) is None

    agree()
    for op, payload in ops:
        if op == "delete":
            table, keys = payload
            for backend in (memory, sqlite):
                backend.delete_rows(table, [(key,) for key in keys])
        else:
            batch = []
            for values in payload:
                batch.append({"id": ids[op], **values})
                ids[op] += 1
            for backend in (memory, sqlite):
                backend.add_rows(op, batch)
        agree()
    sqlite.close()


# -- undecided sources keep counting -------------------------------------------


class _CountingWrapper:
    """Records a wrapper's counts and ``has_postings`` calls.

    ``counted`` is the SQL the explain stage asks ``result_count`` for;
    ``reached`` is the SQL that reaches the store's uncached
    ``_count_rows`` (empty for a source without an endpoint).
    """

    def __init__(self, wrapper) -> None:
        self.counted: list[str] = []
        self.reached: list[str] = []
        self.lookups = 0
        count = wrapper.result_count
        self.store = getattr(wrapper, "backend", None) or wrapper._remote

        def result_count(query):
            self.counted.append(str(query))
            return count(query)

        def has_postings(token, ref):
            self.lookups += 1
            # Looked up on the class, so a patched twin is honoured.
            return type(wrapper).has_postings(wrapper, token, ref)

        wrapper.result_count = result_count
        wrapper.has_postings = has_postings
        if self.store is not None:
            count_rows = self.store._count_rows

            def _count_rows(query):
                self.reached.append(str(query))
                return count_rows(query)

            self.store._count_rows = _count_rows

    def cold(self) -> None:
        """Forget the recorded SQL and empty the store's count cache."""
        self.counted.clear()
        self.reached.clear()
        if self.store is not None:
            self.store.count_cache.clear()


@pytest.fixture(scope="module")
def mondial_texts():
    db = mondial.generate(countries=10, seed=29)
    return db, [q.text for q in mondial.workload(db, queries_per_kind=2, seed=31)]


def _run(engine: Quest, texts):
    """Rankings and counted SQL of one pass, with the check on and off.

    Each pass starts from an empty count cache; the counted SQL is what
    the explain stage asked for, then what reached the store.
    """
    spy = _CountingWrapper(engine.wrapper)
    spy.cold()
    got = [_payload(a) for a in engine.search_many(texts, strict=False)]
    on = (list(spy.counted), list(spy.reached))
    spy.cold()
    with reference_kernels(TWIN):
        want = [_payload(a) for a in engine.search_many(texts, strict=False)]
    return got, want, on, (spy.counted, spy.reached), spy


@pytest.mark.parametrize("endpoint", (True, False))
def test_hidden_sources_count_as_before(mondial_texts, endpoint):
    db, texts = mondial_texts
    engine = Quest(HiddenSourceWrapper(db.schema, remote_db=db if endpoint else None))
    got, want, on, off, _spy = _run(engine, texts)
    assert got == want and any(got)
    assert on == off and on[0]
    # With an endpoint every distinct count reaches it; without, none.
    assert bool(on[1]) is endpoint
    if not endpoint:
        assert all(count is None for answers in got for *_, count in answers)


class _Unindexed(MemoryBackend):
    """An index that covers no column: every lookup is declined."""

    def has_postings(self, token, ref):
        return None


def test_columns_outside_the_index_count_as_before(mondial_texts):
    db, texts = mondial_texts
    engine = Quest(FullAccessWrapper(_Unindexed(db)))
    got, want, on, off, spy = _run(engine, texts)
    assert got == want and any(got)
    assert on == off and on[1]
    assert spy.lookups > 0


@pytest.mark.parametrize(
    "changes",
    ({"min_explanation_results": 0}, {"execute_explanations": False}),
)
def test_no_lookup_unless_counts_drop_empty_answers(mondial_texts, changes):
    db, texts = mondial_texts
    engine = Quest(FullAccessWrapper(MemoryBackend(db)))
    engine.settings = engine.settings.updated(**changes)
    got, want, _on, _off, spy = _run(engine, texts)
    assert got == want and any(got)
    assert spy.lookups == 0


def test_trace_reports_the_skip(mondial_texts):
    db, texts = mondial_texts
    engine = Quest(FullAccessWrapper(MemoryBackend(db)))
    contexts = [engine.search_context(query=text) for text in texts]
    skipped = [context.trace.provably_empty for context in contexts]
    assert sum(skipped) > 0
    for context, count in zip(contexts, skipped):
        assert f"explain[skipped {count} provably empty]" in context.trace.summary()
    with reference_kernels(TWIN):
        again = [engine.search_context(query=text) for text in texts]
    assert all(context.trace.provably_empty == 0 for context in again)
