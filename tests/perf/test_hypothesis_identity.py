"""Properties of hypothesis identity computed once, at construction.

``Configuration`` and ``Interpretation`` store their hash when they are
built and ``with_score`` copies it; ``rank_hypotheses`` renders the
``str`` tie-break only inside runs of equal probability. These properties
pin each shortcut to the definition it replaces, on generated values
with many collisions (few keywords, few states, few edges) and many tied
probabilities.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Configuration, Interpretation, KeywordMapping
from repro.core.interpretation import InterpretationFrame
from repro.db import ColumnRef
from repro.dst import MassFunction
from repro.dst.belief import pignistic, rank_hypotheses
from repro.hmm import State, StateKind
from repro.steiner import EdgeKind, SchemaEdge, SteinerTree

STATES = [
    State(StateKind.TABLE, "movie"),
    State(StateKind.ATTRIBUTE, "movie", "title"),
    State(StateKind.DOMAIN, "person", "name"),
    State(StateKind.DOMAIN, "movie", "title"),
]
NODES = [
    ColumnRef("movie", "id"),
    ColumnRef("movie", "title"),
    ColumnRef("person", "id"),
    ColumnRef("person", "name"),
]
EDGES = [
    SchemaEdge(NODES[0], NODES[1], 0.5, EdgeKind.INTRA),
    SchemaEdge(NODES[2], NODES[3], 0.5, EdgeKind.INTRA),
    SchemaEdge(NODES[0], NODES[2], 1.0, EdgeKind.JOIN),
    # the same key as EDGES[0] with another weight: signatures unify
    SchemaEdge(NODES[1], NODES[0], 0.7, EdgeKind.INTRA),
]

scores = st.sampled_from([0.0, 0.25, 0.5, 1.0])

configurations = st.builds(
    lambda pairs, score: Configuration(
        tuple(KeywordMapping(k, s) for k, s in pairs), score
    ),
    st.lists(
        st.tuples(st.sampled_from(["a", "b"]), st.sampled_from(STATES)),
        min_size=1,
        max_size=2,
    ),
    scores,
)

trees = st.builds(
    lambda edges, weight: SteinerTree(
        frozenset({NODES[0]}), frozenset(edges), weight
    ),
    st.sets(st.sampled_from(EDGES), max_size=3),
    st.sampled_from([0.0, 1.0, 2.0]),
)

interpretations = st.builds(Interpretation, configurations, trees, scores)


@settings(max_examples=300, deadline=None)
@given(left=configurations, right=configurations)
def test_equal_configurations_hash_equal(left, right):
    if left == right:
        assert hash(left) == hash(right)
    assert hash(left) == hash(left.mappings)


@settings(max_examples=300, deadline=None)
@given(left=interpretations, right=interpretations)
def test_equal_interpretations_hash_equal(left, right):
    if left == right:
        assert hash(left) == hash(right)
    assert (left == right) == (
        left.configuration == right.configuration
        and left.tree.signature() == right.tree.signature()
    )


@settings(max_examples=200, deadline=None)
@given(interpretation=interpretations, score=scores)
def test_cached_hash_equals_recomputed(interpretation, score):
    recomputed = hash(
        (
            interpretation.configuration,
            frozenset(edge.key for edge in interpretation.tree.edges),
        )
    )
    assert hash(interpretation) == recomputed
    assert hash(interpretation.with_score(score)) == recomputed


@settings(max_examples=200, deadline=None)
@given(configuration=configurations, interpretation=interpretations, score=scores)
def test_with_score_keeps_identity(configuration, interpretation, score):
    for value in (configuration, interpretation):
        clone = value.with_score(score)
        assert clone == value and value == clone
        assert hash(clone) == hash(value)
        assert clone.score == score


@settings(max_examples=200, deadline=None)
@given(
    configs=st.lists(configurations, min_size=1, max_size=4),
    picks=st.lists(st.tuples(st.integers(0, 3), trees, scores), max_size=12),
)
def test_frame_ids_follow_interpretation_equality(configs, picks):
    """Ids unify exactly the interpretations that compare equal."""
    built = [
        Interpretation(configs[i % len(configs)], tree, score)
        for i, tree, score in picks
    ]
    frame = InterpretationFrame(configs, built)
    hypotheses = [frame.interning.hypothesis(i) for i in range(len(frame.interning))]
    distinct: list[Interpretation] = []
    for interpretation in built:
        if interpretation not in distinct:
            distinct.append(interpretation)
    assert hypotheses == distinct
    assert all(a is b for a, b in zip(hypotheses, distinct))
    assert frame.scores == [
        {i: i.score for i in built}[h] for h in distinct
    ]
    for group, mask in frame.group_masks.items():
        members = {
            ident
            for ident, h in enumerate(distinct)
            if frame.group(h.configuration) == group
        }
        assert mask == sum(1 << ident for ident in members)


class _Tied:
    """A hypothesis whose rendering collides often (few distinct strings)."""

    def __init__(self, ident: int, label: str) -> None:
        self.ident = ident
        self.label = label

    def __str__(self) -> str:
        return self.label


@settings(max_examples=300, deadline=None)
@given(
    labels=st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=20),
    weights=st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=1, max_size=20),
    k=st.one_of(st.none(), st.integers(-3, 25)),
)
def test_lazy_tie_break_equals_eager_sort(labels, weights, k):
    hypotheses = [_Tied(i, label) for i, label in enumerate(labels)]
    weights = (weights * len(hypotheses))[: len(hypotheses)]
    total = sum(weights)
    mass_function = MassFunction.from_scores(
        {h: w / total for h, w in zip(hypotheses, weights)}, 0.2
    )
    eager = sorted(
        pignistic(mass_function).items(), key=lambda item: (-item[1], str(item[0]))
    )
    if k is not None:
        eager = eager[:k]
    assert rank_hypotheses(mass_function, k) == eager
