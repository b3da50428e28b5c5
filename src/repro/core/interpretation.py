"""Interpretations: configurations materialised as join paths.

The backward step turns each configuration into interpretations — concrete
Steiner trees over the schema graph joining the configuration's terminals.
The tree weight (mutual-information distances) is converted into a score so
interpretations can enter the Dempster-Shafer combination alongside
configuration scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.configuration import Configuration
from repro.dst.mass import FrameInterning
from repro.steiner.tree import SteinerTree

__all__ = ["Interpretation", "InterpretationFrame", "tree_score"]


def tree_score(weight: float) -> float:
    """Map a tree weight (a distance; lower is better) to a score in (0, 1].

    ``1 / (1 + w)`` keeps the ordering while decaying gently: an
    ``exp(-w)`` style score lets a trivial single-table tree (weight 0)
    outvote any legitimate multi-join path by an order of magnitude, which
    would make the backward evidence drown the forward evidence in the
    final Dempster-Shafer combination for every join query.
    """
    return 1.0 / (1.0 + max(0.0, weight))


@dataclass(frozen=True, slots=True)
class Interpretation:
    """One join path materialising one configuration.

    Identity is (configuration, tree signature): the same structural
    hypothesis may be produced with different scores by differently weighted
    searches, and must still unify under Dempster's rule. Both halves are
    computed when their objects are built, so the hash of the pair is
    stored at construction, copied by :meth:`with_score` and recomputed on
    unpickle; ``__eq__`` returns early on ``is`` and on unequal hashes.
    Within one query the combine stage also numbers each distinct
    interpretation with a dense integer id (see :class:`InterpretationFrame`)
    and keys its evidence on those ids.
    """

    configuration: Configuration
    tree: SteinerTree
    score: float = 0.0
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash((self.configuration, self.tree.signature()))
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Interpretation):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.configuration == other.configuration
            and self.tree.signature() == other.tree.signature()
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return (Interpretation, (self.configuration, self.tree, self.score))

    @property
    def tables(self) -> frozenset[str]:
        """All tables on the join path (configuration tables + Steiner points)."""
        return self.tree.tables | self.configuration.tables

    def with_score(self, score: float) -> "Interpretation":
        """The same hypothesis re-scored (its stored hash is copied)."""
        clone = object.__new__(Interpretation)
        object.__setattr__(clone, "configuration", self.configuration)
        object.__setattr__(clone, "tree", self.tree)
        object.__setattr__(clone, "score", score)
        object.__setattr__(clone, "_hash", self._hash)
        return clone

    def __str__(self) -> str:
        return (
            f"Interpretation(tables={sorted(self.tables)}, "
            f"tree_weight={self.tree.weight:.3f}, score={self.score:.4f})"
        )


class InterpretationFrame:
    """One query's hash-consing table: interpretations to dense integer ids.

    The combine stage's Dempster-Shafer frame is the set of *distinct*
    interpretations of one query. The table interns them, in list order,
    into :attr:`interning`, which numbers them ``0, 1, 2, ...``: equal
    interpretations (same configuration, same tree signature) share an id,
    so duplicates still unify, and each lookup reuses the interpretation's
    stored hash. Id ``i`` is then bit ``i`` of every focal bitmask of the
    combination, and the combine stage encodes its evidence from
    :attr:`scores` and :attr:`group_masks` without building a ``frozenset``.

    A configuration's *group* is the position of the first equal
    configuration in the ``configurations`` the table was built over
    (configurations outside that list get the next free group).

    Attributes:
        interning: the interpretations by id (bit ``i`` = id ``i``).
        config_groups: the group of each of ``configurations``, by position.
        scores: id -> the score of the *last* interpretation with that
            identity (``{i: i.score for i in interpretations}`` semantics).
        group_masks: group -> OR of ``1 << id`` over the group's
            interpretations, in first-seen group order.
    """

    __slots__ = ("interning", "config_groups", "scores", "group_masks", "_groups")

    def __init__(
        self,
        configurations: Sequence[Configuration],
        interpretations: Iterable[Interpretation],
    ) -> None:
        self._groups: dict[Configuration, int] = {}
        self.config_groups = [self.group(c) for c in configurations]
        self.interning = FrameInterning()
        self.scores: list[float] = []
        self.group_masks: dict[int, int] = {}
        intern = self.interning.intern
        for interpretation in interpretations:
            ident = intern(interpretation)
            if ident < len(self.scores):
                self.scores[ident] = interpretation.score
                continue
            self.scores.append(interpretation.score)
            group = self.group(interpretation.configuration)
            self.group_masks[group] = self.group_masks.get(group, 0) | (1 << ident)

    def group(self, configuration: Configuration) -> int:
        """The group of *configuration*, opening a new one if unseen."""
        return self._groups.setdefault(configuration, len(self._groups))
