"""Tests for the query builder."""

from repro.core import Configuration, Interpretation, KeywordMapping, build_query
from repro.db import Catalog, ColumnRef, Comparison
from repro.hmm import State, StateKind
from repro.steiner import build_schema_graph, top_k_steiner_trees


def interpretation_for(db, pairs):
    """Build an interpretation from (keyword, state) pairs over *db*."""
    configuration = Configuration(
        tuple(KeywordMapping(k, s) for k, s in pairs), 1.0
    )
    graph = build_schema_graph(db.schema, Catalog.from_database(db))
    terminals = sorted(configuration.terminals(db.schema), key=str)
    tree = top_k_steiner_trees(graph, terminals, 1)[0]
    return Interpretation(configuration, tree, 1.0)


class TestBuildQuery:
    def test_domain_mapping_becomes_predicate(self, mini_db):
        interp = interpretation_for(
            mini_db,
            [
                ("kubrick", State(StateKind.DOMAIN, "person", "name")),
                ("movies", State(StateKind.TABLE, "movie")),
            ],
        )
        query = build_query(mini_db.schema, interp)
        assert len(query.predicates) == 1
        predicate = query.predicates[0]
        assert predicate.op is Comparison.CONTAINS
        assert predicate.value == "kubrick"
        assert (predicate.alias, predicate.column) == ("person", "name")

    def test_joins_follow_tree_foreign_keys(self, mini_db):
        interp = interpretation_for(
            mini_db,
            [
                ("kubrick", State(StateKind.DOMAIN, "person", "name")),
                ("scifi", State(StateKind.DOMAIN, "genre", "label")),
            ],
        )
        query = build_query(mini_db.schema, interp)
        assert query.table_names() == frozenset({"person", "movie", "genre"})
        assert len(query.joins) == 2

    def test_attribute_mapping_becomes_projection(self, mini_db):
        interp = interpretation_for(
            mini_db,
            [
                ("title", State(StateKind.ATTRIBUTE, "movie", "title")),
                ("1968", State(StateKind.DOMAIN, "movie", "year")),
            ],
        )
        query = build_query(mini_db.schema, interp)
        assert ("movie", "title") in query.projection
        assert len(query.predicates) == 1

    def test_table_mapping_projects_display_column(self, mini_db):
        interp = interpretation_for(
            mini_db, [("movies", State(StateKind.TABLE, "movie"))]
        )
        query = build_query(mini_db.schema, interp)
        # First non-key text column of movie is `title`.
        assert ("movie", "title") in query.projection

    def test_executes_against_database(self, mini_db):
        from repro.db import execute

        interp = interpretation_for(
            mini_db,
            [
                ("kubrick", State(StateKind.DOMAIN, "person", "name")),
                ("movies", State(StateKind.TABLE, "movie")),
            ],
        )
        query = build_query(mini_db.schema, interp)
        result = execute(mini_db, query)
        assert len(result) == 2  # two Kubrick movies in the fixture

    def test_limit_is_applied(self, mini_db):
        interp = interpretation_for(
            mini_db, [("movies", State(StateKind.TABLE, "movie"))]
        )
        assert build_query(mini_db.schema, interp, limit=1).limit == 1

    def test_distinct_by_default(self, mini_db):
        interp = interpretation_for(
            mini_db, [("movies", State(StateKind.TABLE, "movie"))]
        )
        assert build_query(mini_db.schema, interp).distinct
