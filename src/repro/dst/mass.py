"""Mass functions over a frame of discernment (Dempster-Shafer theory).

A body of evidence assigns probability mass to *subsets* of the frame Θ
(the set of base hypotheses — for QUEST, candidate configurations,
interpretations or explanations). Mass on the whole frame Θ expresses
*ignorance*: belief the source declines to commit to any specific
hypothesis. QUEST uses that ignorance mass as the per-source uncertainty
parameters ``O_Cap``, ``O_Cf``, ``O_C``, ``O_I``.

Hypotheses may be any hashable objects; focal elements are ``frozenset``s
of them *in the public API*. Internally every hypothesis is interned to a
bit position of a :class:`FrameInterning` and focal elements are stored as
integer bitmasks, so subset tests, intersections and unions on the hot
combination path are single bitwise operations over machine integers
instead of frozenset allocations. All ``frozenset``-typed accessors
(:attr:`MassFunction.frame`, :attr:`MassFunction.focal_elements`,
:meth:`MassFunction.items`) are views reconstructed from the bitmasks, so
callers observe exactly the pre-bitmask behaviour.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from repro.bits import iter_bits
from repro.errors import CombinationError

__all__ = ["FrameInterning", "MassFunction"]

Hypothesis = Hashable
FocalElement = frozenset


def _check_scores(scores: Iterable[float], ignorance: float) -> None:
    if not 0.0 <= ignorance <= 1.0:
        raise CombinationError(f"ignorance must be in [0, 1], got {ignorance}")
    if any(s < 0.0 for s in scores):
        raise CombinationError("scores must be non-negative")


class FrameInterning:
    """An append-only mapping between hypotheses and bit positions.

    One interning can be shared by several mass functions (all the bodies
    of evidence of one Dempster combination, say), which makes their focal
    bitmasks directly comparable — ``dempster_combine`` then intersects
    focal elements with a single ``&``. Bits are assigned in first-seen
    order and never reassigned, so existing masks stay valid as the
    interning grows. Sharing one interning across threads is safe only for
    read access; QUEST's pipelines build their internings per query.

    The pipeline builds its internings from *ordered* lists, never from a
    ``frozenset`` (whose iteration order follows the per-process string
    hash salt): the combine stage interns its interpretations in list
    order through :class:`~repro.core.interpretation.InterpretationFrame`,
    so bit ``i`` is interpretation id ``i`` and focal masks are built by
    OR-ing bits, without looking a hypothesis up again.
    """

    __slots__ = ("_index", "_hypotheses", "_members")

    def __init__(self, hypotheses: Iterable[Hypothesis] = ()) -> None:
        self._index: dict[Hypothesis, int] = {}
        self._hypotheses: list[Hypothesis] = []
        #: mask -> frozenset view cache (masks recur heavily in combines).
        self._members: dict[int, frozenset] = {}
        for hypothesis in hypotheses:
            self.intern(hypothesis)

    def __len__(self) -> int:
        return len(self._hypotheses)

    def intern(self, hypothesis: Hypothesis) -> int:
        """The bit position of *hypothesis*, assigning the next free bit."""
        bit = self._index.get(hypothesis)
        if bit is None:
            bit = len(self._hypotheses)
            self._index[hypothesis] = bit
            self._hypotheses.append(hypothesis)
        return bit

    def mask_of(self, hypotheses: Iterable[Hypothesis]) -> int:
        """The bitmask of a hypothesis set, interning new hypotheses."""
        mask = 0
        for hypothesis in hypotheses:
            mask |= 1 << self.intern(hypothesis)
        return mask

    def lookup_mask(self, hypotheses: Iterable[Hypothesis]) -> int | None:
        """The bitmask of a hypothesis set, or ``None`` if any is unknown."""
        mask = 0
        index = self._index
        for hypothesis in hypotheses:
            bit = index.get(hypothesis)
            if bit is None:
                return None
            mask |= 1 << bit
        return mask

    def partial_mask(self, hypotheses: Iterable[Hypothesis]) -> int:
        """The bitmask of the *known* members of a hypothesis set.

        Unknown hypotheses contribute no bit — they cannot occur in any
        focal element encoded against this interning, so dropping them
        preserves every subset/intersection test against focals.
        """
        mask = 0
        index = self._index
        for hypothesis in hypotheses:
            bit = index.get(hypothesis)
            if bit is not None:
                mask |= 1 << bit
        return mask

    def members(self, mask: int) -> frozenset:
        """The hypothesis set a bitmask denotes (cached frozenset view)."""
        cached = self._members.get(mask)
        if cached is None:
            hypotheses = self._hypotheses
            cached = frozenset(hypotheses[bit] for bit in iter_bits(mask))
            self._members[mask] = cached
        return cached

    def hypothesis(self, bit: int) -> Hypothesis:
        """The hypothesis interned at bit position *bit*."""
        return self._hypotheses[bit]


class MassFunction:
    """An immutable-by-convention basic probability assignment.

    Invariants (enforced by :meth:`validate`): masses are non-negative and
    sum to 1 (within floating tolerance); the empty set carries no mass.

    Args:
        masses: optional initial ``{focal element: mass}`` assignment.
        frame: optional frame of discernment (grows as focals are added).
        interning: the hypothesis interning to encode against; pass one
            shared instance when several mass functions will be combined
            (see :class:`FrameInterning`), else a private one is created.
        frame_mask: the frame as a bitmask already encoded against
            *interning* (joined with *frame* when both are given).
    """

    __slots__ = ("_interning", "_frame_mask", "_masses")

    def __init__(
        self,
        masses: Mapping[frozenset, float] | None = None,
        frame: Iterable[Hypothesis] | None = None,
        interning: FrameInterning | None = None,
        frame_mask: int = 0,
    ) -> None:
        self._interning = interning if interning is not None else FrameInterning()
        #: masks keyed by focal bitmask, in assignment order (matching the
        #: insertion order the frozenset-keyed dict used to have).
        self._masses: dict[int, float] = {}
        self._frame_mask: int = frame_mask
        if frame is not None:
            self._frame_mask |= self._interning.mask_of(frame)
        if masses:
            for focal, mass in masses.items():
                self.assign(frozenset(focal), mass)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_scores(
        cls,
        scores: Mapping[Hypothesis, float],
        ignorance: float = 0.0,
        frame: Iterable[Hypothesis] | None = None,
        interning: FrameInterning | None = None,
    ) -> "MassFunction":
        """Build the QUEST evidence body from per-hypothesis scores.

        This is the ``addEvidence`` / ``setUncertainty`` / ``normalize``
        sequence of the paper's ``CombinerDST``: scores are normalised to
        sum to ``1 - ignorance`` over singleton focal elements, and the
        remaining *ignorance* mass goes to the whole frame. The frame
        defaults to the scored hypotheses but is typically the *union* of
        both sources' candidates.
        """
        _check_scores(scores.values(), ignorance)
        mass_function = cls(frame=frame, interning=interning)
        intern = mass_function._interning.intern
        return mass_function._commit_scores(
            [(1 << intern(h), s) for h, s in scores.items() if s > 0.0],
            ignorance,
        )

    @classmethod
    def from_bit_scores(
        cls,
        scores: Sequence[float],
        ignorance: float,
        interning: FrameInterning,
    ) -> "MassFunction":
        """:meth:`from_scores` for hypotheses already interned in order.

        ``scores[i]`` is the score of the hypothesis at bit ``i`` of
        *interning*, and the frame is bits ``0 .. len(scores) - 1``. No
        hypothesis is looked up: this is the combine stage's path, whose
        hypotheses were numbered when it interned them.
        """
        _check_scores(scores, ignorance)
        mass_function = cls(interning=interning, frame_mask=(1 << len(scores)) - 1)
        return mass_function._commit_scores(
            [(1 << bit, s) for bit, s in enumerate(scores) if s > 0.0], ignorance
        )

    def _commit_scores(
        self, positive: list[tuple[int, float]], ignorance: float
    ) -> "MassFunction":
        """Singleton masses from ``(bit mask, score > 0)`` pairs, plus Θ."""
        frame_mask = self._frame_mask
        for mask, _score in positive:
            frame_mask |= mask
        self._frame_mask = frame_mask
        total = sum(score for _mask, score in positive)
        if total <= 0.0:
            # No committed evidence at all: total ignorance.
            if not frame_mask:
                raise CombinationError("cannot build evidence over an empty frame")
            self._assign_mask(frame_mask, 1.0)
            return self
        budget = 1.0 - ignorance
        for mask, score in positive:
            self._assign_mask(mask, budget * score / total)
        if ignorance > 0.0:
            self._assign_mask(frame_mask, ignorance)
        return self

    @classmethod
    def vacuous(
        cls,
        frame: Iterable[Hypothesis],
        interning: FrameInterning | None = None,
    ) -> "MassFunction":
        """The fully ignorant mass function: all mass on Θ."""
        mass_function = cls(frame=frame, interning=interning)
        if not mass_function._frame_mask:
            raise CombinationError("vacuous mass function needs a non-empty frame")
        mass_function._assign_mask(mass_function._frame_mask, 1.0)
        return mass_function

    # -- mutation (construction-time only) ----------------------------------

    def assign(self, focal: Iterable[Hypothesis], mass: float) -> None:
        """Add *mass* to a focal element (accumulating)."""
        if mass < 0.0:
            raise CombinationError(f"negative mass {mass} on {set(focal)}")
        self.assign_mask(self._interning.mask_of(focal), mass)

    def assign_mask(self, mask: int, mass: float) -> None:
        """:meth:`assign` for a focal element already encoded as a bitmask."""
        if mass < 0.0:
            raise CombinationError(f"negative mass {mass} on focal mask {mask:#x}")
        if not mask:
            if mass > 0.0:
                raise CombinationError("the empty set cannot carry mass")
            return
        self._assign_mask(mask, mass)

    def _assign_mask(self, mask: int, mass: float) -> None:
        """Accumulate *mass* on an already-encoded non-empty focal bitmask."""
        if mass == 0.0:
            return  # keep the invariant: focal elements carry positive mass
        self._frame_mask |= mask
        self._masses[mask] = self._masses.get(mask, 0.0) + mass

    def normalize(self) -> "MassFunction":
        """Rescale masses to sum to 1 (in place); returns self."""
        total = sum(self._masses.values())
        if total <= 0.0:
            raise CombinationError("cannot normalise an empty mass function")
        for focal in self._masses:
            self._masses[focal] /= total
        return self

    # -- access -------------------------------------------------------------

    @property
    def interning(self) -> FrameInterning:
        """The hypothesis interning focal bitmasks are encoded against."""
        return self._interning

    @property
    def frame_mask(self) -> int:
        """The frame Θ as a bitmask over :attr:`interning`."""
        return self._frame_mask

    @property
    def frame(self) -> frozenset:
        """The frame of discernment Θ."""
        return self._interning.members(self._frame_mask)

    @property
    def focal_elements(self) -> tuple[frozenset, ...]:
        """Subsets with positive mass."""
        members = self._interning.members
        return tuple(members(mask) for mask in self._masses)

    def mass(self, focal: Iterable[Hypothesis]) -> float:
        """Mass committed exactly to *focal* (0.0 if not a focal element)."""
        mask = self._interning.lookup_mask(focal)
        if mask is None:
            return 0.0
        return self._masses.get(mask, 0.0)

    def ignorance(self) -> float:
        """Mass on the whole frame Θ."""
        return self._masses.get(self._frame_mask, 0.0)

    def items(self) -> Iterator[tuple[frozenset, float]]:
        """Iterate ``(focal element, mass)`` pairs."""
        members = self._interning.members
        return ((members(mask), mass) for mask, mass in self._masses.items())

    def mask_items(self) -> Iterator[tuple[int, float]]:
        """Iterate ``(focal bitmask, mass)`` pairs (the fast-path view).

        Masks are only meaningful against :attr:`interning`; combine two
        mass functions through :func:`repro.dst.combine.dempster_combine`,
        which aligns internings first.
        """
        return iter(self._masses.items())

    def total(self) -> float:
        """Sum of all masses (1.0 for a valid body of evidence)."""
        return sum(self._masses.values())

    def validate(self, tolerance: float = 1e-9) -> None:
        """Raise :class:`CombinationError` unless this is a valid BPA."""
        total = self.total()
        if abs(total - 1.0) > tolerance:
            raise CombinationError(f"masses sum to {total}, expected 1.0")
        frame_mask = self._frame_mask
        for mask, mass in self._masses.items():
            if mass < -tolerance:
                raise CombinationError(
                    f"negative mass on {set(self._interning.members(mask))}"
                )
            if mask & ~frame_mask:
                raise CombinationError("focal element outside the frame")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MassFunction):
            return NotImplemented
        if self.frame != other.frame:
            return False
        if self._interning is other._interning:
            keys = set(self._masses) | set(other._masses)
            return all(
                abs(self._masses.get(k, 0.0) - other._masses.get(k, 0.0)) < 1e-9
                for k in keys
            )
        mine = {focal: mass for focal, mass in self.items()}
        theirs = {focal: mass for focal, mass in other.items()}
        keys = set(mine) | set(theirs)
        return all(
            abs(mine.get(k, 0.0) - theirs.get(k, 0.0)) < 1e-9 for k in keys
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{sorted(map(str, focal))}: {mass:.3f}"
            for focal, mass in sorted(
                ((self._interning.members(m), mass) for m, mass in self._masses.items()),
                key=lambda item: -item[1],
            )
        )
        return f"MassFunction({{{parts}}})"
