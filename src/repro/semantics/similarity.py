"""String similarity measures used for keyword-to-schema-term matching.

The forward step (and the hidden-source wrapper especially) needs graded
similarity between a user keyword and schema vocabulary: exact matches are
best, then stem matches, then fuzzy matches. All measures here return a
similarity in ``[0, 1]`` with 1 meaning identical.

Jaro runs bit-parallel over the right string's character positions (as
in Myers' bit-vector matcher, J. ACM 1999): it computes the same match
count and transpositions as the per-position window scan and feeds them
into the same float expression, so each score equals the scan's bit for
bit (see :func:`_jaro`). The scan is the test twin,
``tests.oracle.jaro_reference``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Mapping

from repro.semantics.stemmer import stem
from repro.semantics.tokenize import split_identifier

__all__ = [
    "levenshtein",
    "edit_similarity",
    "jaro",
    "jaro_winkler",
    "trigram_similarity",
    "token_set_similarity",
    "TermFeatures",
    "term_features",
    "feature_similarity",
    "term_similarity",
]


def levenshtein(left: str, right: str) -> int:
    """Classic edit distance (insert / delete / substitute, unit costs)."""
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    previous = list(range(len(right) + 1))
    for i, l_char in enumerate(left, start=1):
        current = [i]
        for j, r_char in enumerate(right, start=1):
            cost = 0 if l_char == r_char else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


def edit_similarity(left: str, right: str) -> float:
    """Edit distance normalised to a ``[0, 1]`` similarity."""
    if not left and not right:
        return 1.0
    longest = max(len(left), len(right))
    return 1.0 - levenshtein(left, right) / longest


def _char_masks(text: str) -> dict[str, int]:
    """Each character of *text* -> the bitmask of its positions in *text*."""
    masks: dict[str, int] = {}
    for position, char in enumerate(text):
        masks[char] = masks.get(char, 0) | 1 << position
    return masks


def jaro(left: str, right: str) -> float:
    """Jaro similarity."""
    return _jaro(left, right, _char_masks(right))


def _jaro(left: str, right: str, right_masks: Mapping[str, int]) -> float:
    """Jaro similarity, reading *right* through its :func:`_char_masks`.

    Bit-parallel over *right*'s positions: left character ``i`` matches
    the lowest unmatched position of its character inside ``i``'s window,
    which is the lowest set bit of ``right_masks[char] & free & window``,
    the first hit of the classic left-to-right window scan. Walking the
    matched bits upwards lists *right*'s matched characters in order, so
    the match count and the transpositions, and with them the float, are
    those of the scan.
    """
    if left == right:
        return 1.0
    if not left or not right:
        return 0.0
    window = max(max(len(left), len(right)) // 2 - 1, 0)
    # Positions -window..window around 0; shifted left by i and back down
    # by window, the bits i-window..i+window (clipped at 0).
    span = (1 << (2 * window + 1)) - 1
    full = free = (1 << len(right)) - 1
    matched: list[str] = []
    for i, char in enumerate(left):
        bits = right_masks.get(char)
        if bits is None:
            continue
        bits &= free & ((span << i) >> window)
        if bits:
            free ^= bits & -bits
            matched.append(char)
    if not matched:
        return 0.0
    taken = full ^ free
    transpositions = 0
    for char in matched:
        low = taken & -taken
        if right[low.bit_length() - 1] != char:
            transpositions += 1
        taken ^= low
    transpositions //= 2
    m = float(len(matched))
    return (m / len(left) + m / len(right) + (m - transpositions) / m) / 3.0


def jaro_winkler(left: str, right: str, prefix_scale: float = 0.1) -> float:
    """Jaro-Winkler similarity: Jaro boosted for common prefixes."""
    return _jaro_winkler(left, right, _char_masks(right), prefix_scale)


def _jaro_winkler(
    left: str,
    right: str,
    right_masks: Mapping[str, int],
    prefix_scale: float = 0.1,
) -> float:
    """:func:`jaro_winkler`, reading *right* through its :func:`_char_masks`."""
    base = _jaro(left, right, right_masks)
    prefix = 0
    for l_char, r_char in zip(left[:4], right[:4]):
        if l_char != r_char:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def _trigrams(text: str) -> set[str]:
    padded = f"  {text} "
    return {padded[i : i + 3] for i in range(len(padded) - 2)}


def _jaccard(left: AbstractSet[str], right: AbstractSet[str]) -> float:
    """``|left & right| / |left | right|`` for a non-empty union.

    The union's size is read off the two sizes and the intersection's, so
    no union set is built: the same integers give the same float.
    """
    shared = len(left & right)
    return shared / (len(left) + len(right) - shared)


def trigram_similarity(left: str, right: str) -> float:
    """Jaccard similarity over padded character trigrams."""
    if left == right:
        return 1.0
    if not left or not right:
        return 0.0
    return _jaccard(_trigrams(left.casefold()), _trigrams(right.casefold()))


def token_set_similarity(left: str, right: str) -> float:
    """Jaccard similarity over identifier word parts with stem folding.

    ``release_year`` vs ``year released`` → both reduce to stem sets with a
    large overlap. Used for multi-word keywords against compound schema
    names.
    """
    return _token_set(_part_stems(left), _part_stems(right))


def _part_stems(text: str) -> frozenset[str]:
    return frozenset(stem(part) for part in split_identifier(text))


def _token_set(left: frozenset[str], right: frozenset[str]) -> float:
    if not left and not right:
        return 1.0
    return _jaccard(left, right)


@dataclass(frozen=True, slots=True)
class TermFeatures:
    """Everything the keyword-to-term measures read of one string.

    Derived once per string by :func:`term_features`, so scoring one
    keyword against many schema identifiers stems, splits, trigrams and
    position-masks each string once instead of once per pair. Only the
    Jaro-Winkler match walk, which reads both strings together, runs per
    pair, and it reads the term's side through :attr:`char_masks`.
    """

    #: The string as given.
    text: str
    #: ``text.casefold().strip()``: what the string measures compare.
    folded: str
    #: ``stem(text)``: the lexicon's key for the word.
    stem: str
    #: ``stem(stem(text))``: what synonym lookups compare (the lexicon
    #: re-stems the stems it is handed, and stemming is not idempotent).
    restem: str
    #: ``stem(folded)``: the stem-match test of :func:`term_similarity`.
    folded_stem: str
    #: Stems of the folded string's identifier parts (the token-set measure).
    part_stems: frozenset[str]
    #: Padded character trigrams of the folded string.
    trigrams: frozenset[str]
    #: :func:`_char_masks` of the folded string: each character's positions
    #: as a bitmask (the bit-parallel Jaro kernel's view of the string).
    #: Derived from ``folded``, so it takes no part in comparisons.
    char_masks: Mapping[str, int] = field(compare=False)


def term_features(text: str) -> TermFeatures:
    """Derive the :class:`TermFeatures` of *text*."""
    folded = text.casefold().strip()
    text_stem = stem(text)
    return TermFeatures(
        text=text,
        folded=folded,
        stem=text_stem,
        restem=stem(text_stem),
        folded_stem=stem(folded),
        part_stems=_part_stems(folded),
        trigrams=frozenset(_trigrams(folded.casefold())),
        char_masks=_char_masks(folded),
    )


def feature_similarity(keyword: TermFeatures, term: TermFeatures) -> float:
    """:func:`term_similarity` of two strings, read from their features."""
    if not keyword.folded or not term.folded:
        return 0.0
    if keyword.folded == term.folded:
        return 1.0
    if keyword.folded_stem == term.folded_stem:
        return 0.95
    return max(
        _token_set(keyword.part_stems, term.part_stems),
        _jaro_winkler(keyword.folded, term.folded, term.char_masks) * 0.9,
        _jaccard(keyword.trigrams, term.trigrams) * 0.9,
    )


def term_similarity(keyword: str, term: str) -> float:
    """Composite keyword-to-schema-term similarity in ``[0, 1]``.

    The measure the QUEST forward step uses when full-text evidence is not
    decisive: exact match 1.0, stem match 0.95, otherwise the maximum of the
    token-set, Jaro-Winkler and trigram scores (each capturing a different
    error mode: compound names, typos-at-the-start, general fuzziness).
    Casing and surrounding whitespace are ignored.
    """
    return feature_similarity(term_features(keyword), term_features(term))
