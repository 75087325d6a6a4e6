"""Per-token surprisal in bits over documents and arbitrary lemma chains.

Surprisal of a token is -log2 of its conditional bigram probability. The
context of a token is the preceding non-punctuation lemma within the same
sentence, or the start symbol for sentence-initial tokens; punctuation is
transparent (skipped, never conditioned on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .corpus import Document
from .ngram import KneserNeyBigramModel, START

_LOG10_2 = math.log10(2.0)


@dataclass(frozen=True)
class SurprisalEntry:
    lemma: str
    context: str
    probability: float
    surprisal_bits: float
    doc_position: int | None = None


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


def annotate_document(
    model: KneserNeyBigramModel, doc: Document
) -> SurprisalAnnotation:
    """Score every word token of a sentence-segmented document."""
    entries: list[SurprisalEntry] = []
    context = START
    current_sentence: int | None = None
    for token in doc.word_tokens():
        if token.sentence_index != current_sentence:
            current_sentence = token.sentence_index
            context = START
        p = model.prob(context, token.lemma)
        entries.append(
            SurprisalEntry(
                token.lemma,
                context,
                p,
                surprisal_from_prob(p),
                token.doc_position,
            )
        )
        context = token.lemma
    return SurprisalAnnotation(doc.id, tuple(entries))


def annotate_sequence(
    model: KneserNeyBigramModel,
    lemmas: Sequence[str],
    initial_context: str = START,
    positions: Sequence[int | None] | None = None,
) -> SurprisalAnnotation:
    """Score a lemma chain left to right from an explicit initial context.

    Optional ``positions`` attach source word positions to the entries so
    callers can align scores with document locations.
    """
    if not lemmas:
        raise ValueError("cannot annotate an empty lemma sequence")
    if positions is not None and len(positions) != len(lemmas):
        raise ValueError("positions must align one-to-one with lemmas")
    entries: list[SurprisalEntry] = []
    context = initial_context
    for i, lemma in enumerate(lemmas):
        p = model.prob(context, lemma)
        entries.append(
            SurprisalEntry(
                lemma,
                context,
                p,
                surprisal_from_prob(p),
                positions[i] if positions is not None else i,
            )
        )
        context = lemma
    return SurprisalAnnotation(None, tuple(entries))

