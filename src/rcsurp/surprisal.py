"""Per-token surprisal in bits over documents and arbitrary lemma chains.

Surprisal of a token is -log2 of its conditional bigram probability
after its context. A document word's context is the one that
``count_bigrams`` counts it after, from the document's context column
(see ``corpus``); a chain's is the previous lemma, or its initial context.

Documents and lemma chains are scored by one column kernel. The caller
gives the lemma column and the context column; the kernel maps
``prob`` over the two columns, exactly one query per word, checks the
whole probability column at once and maps ``log2`` over it, so no Python
frame runs per word apart from ``prob`` itself. An annotation holds the
five columns (lemmas, contexts, probabilities, bits and positions), which
the TSV writer and the clause chains read; its ``entries`` are built from
them the first time they are read.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from operator import neg
from typing import NamedTuple, Sequence

from ._value import Frozen
from .corpus import Document
from .errors import ParseError
from .ngram import KneserNeyBigramModel, START

_LOG10_2 = math.log10(2.0)


class SurprisalEntry(NamedTuple):
    lemma: str
    context: str
    probability: float
    surprisal_bits: float
    doc_position: int


class _ScoreColumns(NamedTuple):
    lemmas: Sequence[str]
    contexts: Sequence[str]
    probabilities: Sequence[float]
    bits: Sequence[float]
    positions: Sequence[int]


class SurprisalAnnotation(Frozen):
    """A document's (or a chain's, with ``doc_id`` None) scored entries.

    The scores are held as columns, one per entry field, and ``entries``
    is built from them on first read, for a hand-built annotation as for a
    scored one. Equality and hashing compare the id and the entries."""

    _fields = ("doc_id", "entries")
    _columns: _ScoreColumns

    def __init__(self, doc_id: str | None, entries: tuple[SurprisalEntry, ...]):
        self.__dict__.update(
            doc_id=doc_id,
            _columns=_ScoreColumns(*zip(*entries)) if entries else _ScoreColumns(*[()] * 5),
        )

    @classmethod
    def _scored(cls, doc_id: str | None, columns: _ScoreColumns) -> SurprisalAnnotation:
        annotation = cls.__new__(cls)
        annotation.__dict__.update(doc_id=doc_id, _columns=columns)
        return annotation

    @cached_property
    def entries(self) -> tuple[SurprisalEntry, ...]:
        return tuple(map(_new_entry, zip(*self._columns)))

    def __len__(self) -> int:
        return len(self._columns.lemmas)


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
# ``entries`` builds the same entry without that frame, as ``corpus`` does
# for ``Token``.
_new_entry = partial(tuple.__new__, SurprisalEntry)


def _score(
    model: KneserNeyBigramModel, lemmas: Sequence[str], contexts: Sequence[str],
    positions: Sequence[int], doc_id: str | None = None,
) -> _ScoreColumns:
    """The score columns of ``lemmas`` after their ``contexts``, with one
    ``prob`` query per lemma.

    A probability outside (0, 1], which ``import_arpa`` rules out but a
    model whose tables are changed afterwards can give, is a
    :class:`ParseError` naming the document (when ``doc_id`` is given),
    the first such word's position, its context and its lemma."""
    probabilities = list(map(model.prob, contexts, lemmas))
    # ``min`` and ``max`` skip a NaN that is not first, but it makes the sum NaN.
    if probabilities and not (
        0.0 < min(probabilities) and max(probabilities) <= 1.0
        and not math.isnan(sum(probabilities))
    ):
        for lemma, context, p, position in zip(lemmas, contexts, probabilities, positions):
            if not 0.0 < p <= 1.0:  # the check surprisal_from_prob makes
                where = "" if doc_id is None else f"document {doc_id!r}, "
                raise ParseError(
                    f"{where}word position {position}: probability of {lemma!r} after"
                    f" {context!r} must be in (0, 1], got {p}"
                )
    bits = list(map(neg, map(math.log2, probabilities)))
    return _ScoreColumns(lemmas, contexts, probabilities, bits, positions)


def annotate_document(
    model: KneserNeyBigramModel, doc: Document
) -> SurprisalAnnotation:
    """Score every word token of a sentence-segmented document after the
    context that ``count_bigrams`` trains on: the document's context
    column, which the annotation shares."""
    columns = doc._word_columns
    lemmas = columns.lemmas
    return SurprisalAnnotation._scored(
        doc.id, _score(model, lemmas, columns.contexts, range(len(lemmas)), doc.id)
    )


def annotate_sequence(
    model: KneserNeyBigramModel,
    lemmas: Sequence[str],
    initial_context: str = START,
    positions: Sequence[int] | None = None,
) -> SurprisalAnnotation:
    """Score a lemma chain left to right from an explicit initial context.

    Optional ``positions`` attach source word positions to the entries so
    callers can align scores with document locations. Both sequences are
    copied, so changing them later leaves the annotation as it was.
    """
    if not lemmas:
        raise ValueError("cannot annotate an empty lemma sequence")
    lemmas = tuple(lemmas)
    if positions is None:
        positions = range(len(lemmas))
    else:
        positions = tuple(positions)
        if len(positions) != len(lemmas):
            raise ValueError("positions must align one-to-one with lemmas")
    return SurprisalAnnotation._scored(
        None, _score(model, lemmas, [initial_context, *lemmas[:-1]], positions)
    )
