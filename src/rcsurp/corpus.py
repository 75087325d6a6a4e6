"""Corpus ingestion: vertical-format parsing, sentence re-segmentation,
and lemma streams with stable word positions.

The vertical format is UTF-8 text with one token per line
(``surface<TAB>lemma[<TAB>pos]``), ``# doc: <id>`` headers starting a new
document, blank lines marking sentence boundaries, and other ``#`` lines
treated as comments. A file may start with a UTF-8 byte-order mark.

A ``Token`` is a ``NamedTuple``: it compares equal to, and hashes like, the
plain tuple of its six fields in order.

Every ``Document`` holds one shared ``(surface, lemma, pos,
is_punctuation)`` row per distinct token and the row index where each
sentence starts, and builds its ``tokens`` from them when first asked.
Where a document is built, no word lemma may be empty or ``RESERVED``;
later stages trust that. Counting and scoring read the document's cached
word columns (word rows, lemmas, sentence starts and bigram contexts), so
they build no ``Token``.

A word's bigram context is the lemma of the word before it in its
sentence, or ``START`` when it opens the sentence, so punctuation is
transparent. ``_contexts`` is the one place that writes this rule;
counting, scoring and re-linearization read what it gives.

Word positions (``doc_position``) count non-punctuation tokens only, so
that distances measured in "words" are not inflated by delimiters such as
the early-modern virgule ``/``. Punctuation tokens carry no position.
"""

from __future__ import annotations

import io
from functools import cached_property, partial
from itertools import accumulate, compress, count, repeat
from operator import eq, itemgetter, not_
from pathlib import Path
from typing import Iterable, NamedTuple, Protocol, Sequence

from ._value import Frozen
from .errors import ParseError

# Characters that make a token count as punctuation when they are all it
# consists of. ``/`` is included because the historical texts this toolkit
# targets use the virgule as a comma-like delimiter.
DEFAULT_PUNCTUATION = frozenset('.,;:?!/()„“”"—')
# ``str.strip`` removes every character of this string from both ends, so
# nothing is left exactly when a surface is all punctuation.
_PUNCTUATION_CHARS = "".join(DEFAULT_PUNCTUATION)

DOC_HEADER = "# doc:"

# The bigram model's own sentence start, sentence end and unknown word.
START, END, UNK = RESERVED = ("<s>", "</s>", "<unk>")


class Token(NamedTuple):
    surface: str
    lemma: str
    pos: str | None
    doc_position: int | None  # None for punctuation tokens
    sentence_index: int
    is_punctuation: bool


class _Row(NamedTuple):
    """One checked token line, shared by every repeat of that line."""

    surface: str
    lemma: str
    pos: str | None
    is_punctuation: bool


# ``Token(*fields)`` runs the NamedTuple's Python-level ``__new__``, which
# only calls ``tuple.__new__(Token, fields)``; the loops below call that
# directly and get the same ``Token`` without the extra frame.
_new_token = partial(tuple.__new__, Token)
_new_row = partial(tuple.__new__, _Row)
# What the loader's parsed-line cache holds for a blank line.
_BLANK = object()


class Word(Protocol):
    """What counting, scoring and a content predicate read of a word: a
    document's row, which has no position or sentence index and is not
    indexed like a ``Token``. A ``Token`` reads the same."""

    @property
    def lemma(self) -> str: ...
    @property
    def pos(self) -> str | None: ...
    @property
    def is_punctuation(self) -> bool: ...


def _word_lemma_fault(surface: str, lemma: str) -> str | None:
    """Why the word token ``surface`` may not have ``lemma``, or None."""
    if not lemma:
        return f"empty lemma for word token {surface!r}"
    if lemma in RESERVED:
        return f"reserved lemma {lemma!r} for word token {surface!r}"
    return None


def _contexts(values: Sequence, starts: Iterable[int], start) -> list:
    """Each value's bigram context: the value before it, or ``start`` at
    each index in ``starts``, where a sentence starts. ``values`` is a
    column of words with a sentence start at 0 unless it is empty."""
    contexts = [start, *values]
    contexts.pop()
    for i in starts:
        contexts[i] = start
    return contexts


class _WordColumns(NamedTuple):
    words: Sequence[Word]
    lemmas: list[str]
    starts: Sequence[int]  # the word index where each sentence with a word starts
    contexts: list[str]  # each word's bigram context; shared, never changed


class Document(Frozen):
    """An id and its tokens; a sentence is a run of one ``sentence_index``.

    A document holds its rows and sentence starts, and builds its tokens
    from them on first use. Equality and hashing compare ids and tokens.
    ``Document(id, tokens)`` derives its rows and starts from ``tokens``,
    and raises ``ValueError`` on a word's empty or reserved lemma or a
    token that differs from the document's own, whose word positions are
    0, 1, ... over the non-punctuation tokens, ``None`` for punctuation,
    and whose sentence indices start at 0 and step by 0 or 1."""

    _fields = ("id", "tokens")
    _rows: tuple[_Row, ...]
    _starts: tuple[int, ...]  # the row index where each sentence starts

    def __init__(self, id: str, tokens: tuple[Token, ...]):
        shared: dict[_Row, _Row] = {}
        rows: list[_Row] = []
        starts: list[int] = []
        for i, (surface, lemma, pos, _, sentence_index, punct) in enumerate(tokens):
            if not punct and (fault := _word_lemma_fault(surface, lemma)):
                raise ValueError(f"document {id!r}, token {i}: {fault}")
            if not starts or sentence_index != sentence:
                sentence = sentence_index
                starts.append(i)
            row = _new_row((surface, lemma, pos, punct))
            rows.append(shared.setdefault(row, row))
        self.__dict__.update(id=id, _rows=tuple(rows), _starts=tuple(starts))
        for i, (given, own) in enumerate(zip(tokens, self.tokens)):
            if given != own:
                raise ValueError(f"document {id!r}, token {i}: (sentence_index, doc_position)"
                                 f" is {(given[4], given[3])!r}, expected {(own[4], own[3])!r}")

    @classmethod
    def _loaded(cls, id: str, rows: tuple[_Row, ...], starts: tuple[int, ...]) -> Document:
        """A document of parsed rows, ``starts`` the increasing row indices
        where its sentences start."""
        doc = cls.__new__(cls)
        doc.__dict__.update(id=id, _rows=rows, _starts=starts)
        return doc

    # A cached property writes the instance ``__dict__`` directly, past
    # ``__setattr__``; no cached view is a field.
    @cached_property
    def tokens(self) -> tuple[Token, ...]:
        rows, starts = self._rows, self._starts
        new_token = _new_token
        tokens: list[Token] = []
        position = 0
        for sentence_index, (start, end) in enumerate(zip(starts, [*starts[1:], len(rows)])):
            for surface, lemma, pos, punct in rows[start:end]:
                if punct:
                    tokens.append(new_token((surface, lemma, pos, None, sentence_index, True)))
                else:
                    tokens.append(new_token((surface, lemma, pos, position, sentence_index, False)))
                    position += 1
        return tuple(tokens)

    @cached_property
    def _words(self) -> tuple[Token, ...]:
        return tuple(t for t in self.tokens if not t.is_punctuation)

    @cached_property
    def _word_columns(self) -> _WordColumns:
        """The view that counting and scoring read; word ``i`` is at word
        position ``i``."""
        rows = self._rows
        is_word = list(map(not_, map(itemgetter(3), rows)))
        words = list(compress(rows, is_word))
        # A sentence's word start is the count of words before its first
        # row; a sentence without words shares it with the next, and the
        # last word is followed by none.
        words_before = list(accumulate(is_word, initial=0))
        starts = list(dict.fromkeys(map(words_before.__getitem__, self._starts)))
        if starts and starts[-1] == len(words):
            starts.pop()
        lemmas = list(map(itemgetter(1), words))
        return _WordColumns(words, lemmas, starts, _contexts(lemmas, starts, START))

    def word_tokens(self) -> tuple[Token, ...]:
        """The non-punctuation tokens in order, built once on first use."""
        return self._words

    def word_count(self) -> int:
        return len(self._word_columns.words)


def _closed(doc_id: str, rows: list[_Row], starts: list[int]) -> Document:
    if starts[-1] == len(rows):  # no row followed the last boundary
        starts.pop()
    return Document._loaded(doc_id, tuple(rows), tuple(starts))


def load_vertical(source: str | Iterable[str]) -> list[Document]:
    """Parse vertical-format text into documents.

    ``source`` may be a string, an open text file, or any iterable of
    lines. A line of only whitespace is a blank line, which ends the open
    sentence. Raises :class:`ParseError` with a line number on malformed
    token lines (a word's empty or reserved lemma too), token lines
    outside any document, and duplicate document ids. An empty source
    yields an empty list.

    Each distinct token line, and each distinct blank line once a document
    is open, is parsed once per call; a repeat costs one dict lookup.
    """
    docs: list[Document] = []
    seen_ids: set[str] = set()
    # The open document: its id (None before the first header), its rows,
    # and the row index where each of its sentences starts; the last
    # sentence has a row when ``len(rows) > starts[-1]``.
    doc_id: str | None = None
    rows: list[_Row] = []
    starts = [0]
    # Each token or blank line seen so far, as read, mapped to its checked
    # row or to ``blank``: a repeated line skips the split and the checks,
    # and its documents share one row. It lives for one call, so no call
    # keeps the lines of an earlier input alive. Only token and blank lines
    # are stored, and only once a document is open, so a hit needs no check
    # of the parser state either.
    parsed: dict[str, _Row | object] = {}
    blank = _BLANK
    new_row = _new_row

    if isinstance(source, str):
        source = io.StringIO(source)
    for lineno, raw in enumerate(source, start=1):
        row = parsed.get(raw)
        if row is None:
            line = raw.rstrip("\n").rstrip("\r")
            if line.startswith(DOC_HEADER):
                new_id = line[len(DOC_HEADER):].strip()
                if not new_id:
                    raise ParseError("document header without an id", lineno)
                if new_id in seen_ids:
                    raise ParseError(f"duplicate document id {new_id!r}", lineno)
                seen_ids.add(new_id)
                if doc_id is not None:
                    docs.append(_closed(doc_id, rows, starts))
                doc_id, rows, starts = new_id, [], [0]
                continue
            if line.startswith("#"):
                continue  # comment
            if not line.strip():
                if doc_id is None:
                    continue  # no sentence to end
                row = parsed[raw] = blank
            else:
                if doc_id is None:
                    raise ParseError("token line before any '# doc:' header", lineno)
                columns = line.split("\t")
                if len(columns) < 2 or len(columns) > 3:
                    raise ParseError(
                        f"expected 2 or 3 tab-separated columns, got {len(columns)}", lineno
                    )
                surface, lemma = columns[0], columns[1]
                pos = columns[2] if len(columns) == 3 and columns[2] else None
                if not surface:
                    raise ParseError("empty surface form", lineno)
                punct = not surface.strip(_PUNCTUATION_CHARS)
                if not punct and (fault := _word_lemma_fault(surface, lemma)):
                    raise ParseError(fault, lineno)
                row = parsed[raw] = new_row((surface, lemma or surface, pos, punct))
        if row is blank:
            if len(rows) > starts[-1]:
                starts.append(len(rows))
        else:
            rows.append(row)

    if doc_id is not None:
        docs.append(_closed(doc_id, rows, starts))
    return docs


def load_vertical_file(path: str | Path) -> list[Document]:
    """Load a vertical file from disk. UTF-8 only, with or without a leading
    byte-order mark; invalid bytes are a hard error."""
    with open(path, encoding="utf-8-sig", errors="strict") as fh:
        return load_vertical(fh)


def resegment_sentences(doc: Document) -> Document:
    """Introduce a sentence boundary after every token whose surface is
    exactly ``"."``, keeping all original boundaries.

    Token order and word positions are unchanged; sentence indices are
    renumbered densely from 0. The input document itself is returned
    exactly when no index changes. Idempotent. The result shares the
    input's rows, with the new sentence starts, and builds its tokens
    afresh when they are read.
    """
    rows = doc._rows
    # The row after each "." starts a sentence, if there is one.
    after_stop = set(compress(count(1), map(eq, map(itemgetter(0), rows), repeat("."))))
    after_stop.discard(len(rows))
    added = after_stop.difference(doc._starts)
    if not added:
        return doc
    return Document._loaded(doc.id, rows, tuple(sorted(added.union(doc._starts))))

