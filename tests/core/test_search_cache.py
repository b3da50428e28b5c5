"""Cache-correctness tests: caching changes latency, never answers.

Covers the ISSUE acceptance criteria: cold vs. warm ``Quest.search`` must
be identical element-wise on the mondial workload, ``search_many`` must
equal per-query ``search``, and concurrent multi-source callers must get
the serial ranking.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import MultiSourceQuest, Quest
from repro.datasets import mondial
from repro.errors import QuestError
from repro.wrapper import FullAccessWrapper, HiddenSourceWrapper

from tests.conftest import backend_for


@pytest.fixture(scope="module")
def mondial_cache_db():
    return mondial.generate(countries=10, seed=23)


@pytest.fixture(scope="module")
def mondial_engine(mondial_cache_db):
    return Quest(FullAccessWrapper(backend_for(mondial_cache_db)))


@pytest.fixture(scope="module")
def mondial_texts(mondial_cache_db):
    workload = mondial.workload(mondial_cache_db, queries_per_kind=2, seed=23)
    return [query.text for query in workload]


class TestColdVsWarm:
    def test_repeated_search_is_identical_elementwise(
        self, mondial_engine, mondial_texts
    ):
        cold = [mondial_engine.search(text) for text in mondial_texts]
        warm = [mondial_engine.search(text) for text in mondial_texts]
        for cold_ranked, warm_ranked in zip(cold, warm):
            assert len(cold_ranked) == len(warm_ranked)
            for cold_explanation, warm_explanation in zip(cold_ranked, warm_ranked):
                assert cold_explanation == warm_explanation

    def test_warm_pass_hits_both_caches(self, mondial_engine, mondial_texts):
        mondial_engine.search_many(mondial_texts)  # ensure caches are primed
        emissions_before = mondial_engine.wrapper.emission_cache_stats
        steiner_before = mondial_engine.schema_graph.steiner_cache.stats
        mondial_engine.search_many(mondial_texts)
        emissions = mondial_engine.wrapper.emission_cache_stats.since(
            emissions_before
        )
        steiner = mondial_engine.schema_graph.steiner_cache.stats.since(
            steiner_before
        )
        assert emissions.hits > 0
        assert emissions.misses == 0
        assert steiner.hits > 0
        assert steiner.misses == 0

    def test_hidden_wrapper_shares_the_cache_layer(self, mondial_cache_db):
        db = mondial_cache_db
        hidden = HiddenSourceWrapper(db.schema, remote_db=db)
        engine = Quest(hidden)
        cold = engine.search("capital ruritania")
        before = hidden.emission_cache_stats
        warm = engine.search("capital ruritania")
        assert cold == warm
        assert hidden.emission_cache_stats.since(before).misses == 0

    def test_disconnected_terminals_raise_and_are_never_cached(self, mini_schema):
        """Component labels reject a disconnected set on every call, after
        a cache miss; nothing is stored for it."""
        from repro.db.schema import ColumnRef
        from repro.errors import SteinerError
        from repro.steiner import SchemaGraph, top_k_steiner_trees

        graph = SchemaGraph(mini_schema)  # no edges: everything disconnected
        terminals = [ColumnRef("person", "name"), ColumnRef("movie", "title")]
        before = graph.steiner_cache.stats
        for _call in range(2):
            with pytest.raises(SteinerError, match="disconnected"):
                top_k_steiner_trees(graph, terminals, 3)
        delta = graph.steiner_cache.stats.since(before)
        assert (delta.hits, delta.misses) == (0, 2)
        assert len(graph.steiner_cache) == 0

    def test_steiner_cache_invalidated_on_graph_mutation(self, mini_engine):
        mini_engine.search("kubrick movies")
        graph = mini_engine.schema_graph
        assert len(graph.steiner_cache) > 0
        edge = graph.edges[0]
        graph.add_edge(edge.left, edge.right, edge.weight / 2, edge.kind)
        assert len(graph.steiner_cache) == 0

    def test_stale_emission_put_after_mutation_is_unreachable(self, mini_db):
        # The clear-then-stale-put race: a vector computed from
        # pre-mutation data but stored *after* a concurrent mutation
        # (and after another reader's sync cleared the cache) must not
        # be servable. Simulated deterministically: the first compute
        # mutates the backend and triggers a sync mid-flight, then
        # returns its stale pre-mutation scores.
        import numpy as np

        from repro.storage import create_backend
        from repro.wrapper import FullAccessWrapper

        backend = create_backend("memory", mini_db)
        wrapper = FullAccessWrapper(backend)
        from repro.hmm.states import StateSpace

        states = StateSpace(mini_db.schema)
        original = wrapper.compute_emission_scores
        tripped = []

        def compute_and_mutate(keyword, space):
            scores = original(keyword, space)
            if keyword == "godzilla" and not tripped:
                tripped.append(True)
                backend.add_rows(
                    "movie",
                    [{"id": 99, "title": "Godzilla", "year": 1954,
                      "director_id": 1, "genre_id": 1}],
                )
                # A concurrent reader syncs: clears the cache, adopts
                # the new version — while our stale result is in flight.
                wrapper.emission_scores("kubrick", states)
            return scores

        wrapper.compute_emission_scores = compute_and_mutate
        stale = wrapper.emission_scores("godzilla", states)
        assert float(np.max(stale)) == 0.0  # computed pre-insert
        fresh = wrapper.emission_scores("godzilla", states)
        assert float(np.max(fresh)) > 0.0  # stale put was unreachable

    def test_add_edge_mutates_topology_before_version_bump(self, mini_engine):
        # Ordering regression: if the version bumped before the
        # adjacency mutation, a reader in the window would pair the NEW
        # version with the OLD topology and poison the caches under the
        # new version permanently.
        graph = mini_engine.schema_graph
        edge = graph.edges[0]
        seen = {}
        original_invalidate = graph._invalidate_derived

        def spying_invalidate():
            seen["weight_at_bump"] = graph.edge_between(
                edge.left, edge.right
            ).weight
            original_invalidate()

        graph._invalidate_derived = spying_invalidate
        try:
            graph.add_edge(edge.left, edge.right, edge.weight / 2, edge.kind)
        finally:
            graph._invalidate_derived = original_invalidate
        assert seen["weight_at_bump"] == edge.weight / 2

    def test_stale_steiner_put_after_mutation_is_unreachable(self, mini_engine):
        from repro.steiner import top_k_steiner_trees

        graph = mini_engine.schema_graph
        configurations = mini_engine.forward(["kubrick", "movies"], 3)
        terminals = sorted(
            configurations[0].terminals(mini_engine.schema), key=str
        )
        before = top_k_steiner_trees(graph, terminals, 3)
        stale_key = next(iter(graph.steiner_cache._data))
        edge = graph.edges[0]
        graph.add_edge(edge.left, edge.right, edge.weight / 2, edge.kind)
        # An in-flight enumeration finishing now would put under the old
        # version's key; post-mutation lookups must not see it.
        graph.steiner_cache.put(stale_key, ("poisoned",))
        after = top_k_steiner_trees(graph, terminals, 3)
        assert after != ("poisoned",)
        assert {t.terminals for t in after} == {t.terminals for t in before}


class TestSearchMany:
    def test_search_many_equals_sequential_search(
        self, mondial_engine, mondial_texts
    ):
        sequential = [mondial_engine.search(text) for text in mondial_texts]
        batched = mondial_engine.search_many(mondial_texts)
        assert batched == sequential
        contexts = mondial_engine.search_many_contexts(mondial_texts)
        assert len(contexts) == len(mondial_texts)
        assert [c.explanations for c in contexts] == sequential
        assert [c.trace.query for c in contexts] == mondial_texts

    def test_search_many_strict_raises(self, mini_engine):
        with pytest.raises(QuestError):
            mini_engine.search_many(["kubrick", "???"])

    def test_search_many_lax_scores_failures_empty(self, mini_engine):
        results = mini_engine.search_many(["kubrick", "???"], strict=False)
        assert results[0]
        assert results[1] == []

    def test_search_keywords_equals_search(self, mini_engine):
        query = "kubrick movies"
        assert mini_engine.search_keywords(
            mini_engine.keywords_of(query)
        ) == mini_engine.search(query)


class TestThreadedMultiSource:
    @pytest.fixture()
    def sources(self, mondial_engine, mondial_cache_db):
        db = mondial_cache_db
        return {
            "full": mondial_engine,
            "hidden": Quest(HiddenSourceWrapper(db.schema, remote_db=db)),
        }

    def test_threaded_path_is_deterministic(self, sources):
        # Concurrent callers share one combiner (and its source engines)
        # and all get the serial ranking.
        multi = MultiSourceQuest(sources)
        first = multi.search("capital ruritania")
        with ThreadPoolExecutor(max_workers=4) as pool:
            rankings = list(
                pool.map(lambda _: multi.search("capital ruritania"), range(4))
            )
        assert rankings == [first] * 4

    def test_search_many_matches_search(self, sources, mondial_texts):
        multi = MultiSourceQuest(sources)
        texts = mondial_texts[:3]
        assert multi.search_many(texts) == [multi.search(text) for text in texts]

    def test_unparseable_query_yields_no_answers(self, sources):
        multi = MultiSourceQuest(sources)
        assert multi.search("???") == []
