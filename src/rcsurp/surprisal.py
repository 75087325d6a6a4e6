"""Per-token surprisal in bits over documents and arbitrary lemma chains.

Surprisal of a token is -log2 of its conditional bigram probability. The
context of a token is the preceding non-punctuation lemma within the same
sentence, or the start symbol for sentence-initial tokens; punctuation is
transparent (skipped, never conditioned on).

Documents and lemma chains are scored by one column kernel. The caller
builds the lemma column and the context column (the previous lemma, or
the start symbol where a sentence or chain begins); the kernel maps
``prob`` over the two columns, exactly one query per word, checks the
whole probability column at once, and builds the entries with ``map``
and ``zip``, so no Python frame runs per word apart from ``prob`` itself.
"""

from __future__ import annotations

import math
from functools import partial
from operator import neg
from typing import Iterable, NamedTuple, Sequence

from ._value import Frozen
from .corpus import Document
from .ngram import KneserNeyBigramModel, START

_LOG10_2 = math.log10(2.0)


class SurprisalEntry(NamedTuple):
    lemma: str
    context: str
    probability: float
    surprisal_bits: float
    doc_position: int


class SurprisalAnnotation(Frozen):
    """A document's (or a chain's, with ``doc_id`` None) scored entries."""

    _fields = ("doc_id", "entries")

    def __init__(self, doc_id: str | None, entries: tuple[SurprisalEntry, ...]):
        self.__dict__.update(doc_id=doc_id, entries=entries)

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
# the kernel builds the same entry without that frame, as ``corpus`` does
# for ``Token``.
_new_entry = partial(tuple.__new__, SurprisalEntry)


def _score(
    model: KneserNeyBigramModel, lemmas: Sequence[str], contexts: Sequence[str],
    positions: Iterable[int], doc_id: str | None = None,
) -> tuple[SurprisalEntry, ...]:
    """The entries of one lemma column scored against its context column,
    with one ``prob`` query per lemma.

    A probability outside (0, 1], which an imported model with a positive
    backoff weight can give, is a ``ValueError`` naming the document (when
    ``doc_id`` is given), the first such word's position, its context and
    its lemma."""
    probabilities = list(map(model.prob, contexts, lemmas))
    # ``min`` and ``max`` skip a NaN that is not first, but it makes the sum NaN.
    if probabilities and not (
        0.0 < min(probabilities) and max(probabilities) <= 1.0
        and not math.isnan(sum(probabilities))
    ):
        for lemma, context, p, position in zip(lemmas, contexts, probabilities, positions):
            if not 0.0 < p <= 1.0:  # the check surprisal_from_prob makes
                where = "" if doc_id is None else f"document {doc_id!r}, "
                raise ValueError(
                    f"{where}word position {position}: probability of {lemma!r} after"
                    f" {context!r} must be in (0, 1], got {p}"
                )
    bits = map(neg, map(math.log2, probabilities))
    return tuple(map(_new_entry, zip(lemmas, contexts, probabilities, bits, positions)))


def annotate_document(
    model: KneserNeyBigramModel, doc: Document
) -> SurprisalAnnotation:
    """Score every word token of a sentence-segmented document, the
    context reset at each sentence that ``count_bigrams`` trains on."""
    columns = doc._word_columns
    lemmas = columns.lemmas
    contexts = [START, *lemmas[:-1]] if lemmas else []
    # Each sentence's first word is scored after the start symbol, as
    # ``sentences`` splits them.
    for i in columns.starts:
        contexts[i] = START
    return SurprisalAnnotation(
        doc.id, _score(model, lemmas, contexts, range(len(lemmas)), doc.id)
    )


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
    return SurprisalAnnotation(
        None, _score(model, lemmas, [initial_context, *lemmas[:-1]], positions)
    )
