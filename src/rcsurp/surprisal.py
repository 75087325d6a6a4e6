"""Per-token surprisal in bits over documents and arbitrary lemma chains.

Surprisal of a token is -log2 of its conditional bigram probability. The
context of a token is the preceding non-punctuation lemma within the same
sentence, or the start symbol for sentence-initial tokens; punctuation is
transparent (skipped, never conditioned on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import count
from typing import Iterable, NamedTuple, Sequence

from .corpus import Document, sentences
from .ngram import KneserNeyBigramModel, START

_LOG10_2 = math.log10(2.0)


class SurprisalEntry(NamedTuple):
    lemma: str
    context: str
    probability: float
    surprisal_bits: float
    doc_position: int


@dataclass(frozen=True)
class SurprisalAnnotation:
    doc_id: str | None
    entries: tuple[SurprisalEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)


def log10_to_bits(log10_prob: float) -> float:
    """Convert a base-10 log probability to surprisal in bits."""
    if log10_prob > 0.0:
        raise ValueError(f"log probability must be <= 0, got {log10_prob}")
    return -log10_prob / _LOG10_2


def surprisal_from_prob(probability: float) -> float:
    if not 0.0 < probability <= 1.0:
        raise ValueError(f"probability must be in (0, 1], got {probability}")
    return -math.log2(probability)


# ``SurprisalEntry(*fields)`` runs the NamedTuple's Python-level ``__new__``;
# the scoring loop builds the same entry without that frame, as ``corpus``
# does for ``Token``.
_new_entry = partial(tuple.__new__, SurprisalEntry)


def _score(
    model: KneserNeyBigramModel, lemmas: Iterable[str], context: str, positions: Iterable[int],
    entries: list[SurprisalEntry], doc_id: str | None = None,
) -> list[SurprisalEntry]:
    """Score a lemma chain left to right, each lemma conditioned on the
    one before it and the first on ``context``, into ``entries``, which is
    returned. An iterator of ``positions`` can run across chains: ``zip``
    takes a position only once it has taken a lemma.

    A probability outside (0, 1], which an imported model with a positive
    backoff weight can give, is a ``ValueError`` naming the document (when
    ``doc_id`` is given), the word position, the context and the lemma."""
    prob, log2, append = model.prob, math.log2, entries.append
    for lemma, position in zip(lemmas, positions):
        p = prob(context, lemma)
        if not 0.0 < p <= 1.0:  # the check surprisal_from_prob makes
            where = "" if doc_id is None else f"document {doc_id!r}, "
            raise ValueError(
                f"{where}word position {position}: probability of {lemma!r} after"
                f" {context!r} must be in (0, 1], got {p}"
            )
        append(_new_entry((lemma, context, p, -log2(p), position)))
        context = lemma
    return entries


def annotate_document(
    model: KneserNeyBigramModel, doc: Document
) -> SurprisalAnnotation:
    """Score every word token of a sentence-segmented document, the
    context reset at each sentence that ``count_bigrams`` trains on."""
    entries: list[SurprisalEntry] = []
    positions = count()
    for lemmas in sentences(doc):
        _score(model, lemmas, START, positions, entries, doc.id)
    return SurprisalAnnotation(doc.id, tuple(entries))


def annotate_sequence(
    model: KneserNeyBigramModel,
    lemmas: Sequence[str],
    initial_context: str = START,
    positions: Sequence[int] | None = None,
) -> SurprisalAnnotation:
    """Score a lemma chain left to right from an explicit initial context.

    Optional ``positions`` attach source word positions to the entries so
    callers can align scores with document locations.
    """
    if not lemmas:
        raise ValueError("cannot annotate an empty lemma sequence")
    if positions is None:
        positions = range(len(lemmas))
    elif len(positions) != len(lemmas):
        raise ValueError("positions must align one-to-one with lemmas")
    return SurprisalAnnotation(None, tuple(_score(model, lemmas, initial_context, positions, [])))
