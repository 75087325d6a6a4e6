"""Corpus ingestion: vertical-format parsing, sentence re-segmentation,
and lemma streams with stable word positions.

The vertical format is UTF-8 text with one token per line
(``surface<TAB>lemma[<TAB>pos]``), ``# doc: <id>`` headers starting a new
document, blank lines marking sentence boundaries, and other ``#`` lines
treated as comments. A file may start with a UTF-8 byte-order mark.

A ``Token`` is a ``NamedTuple``: it compares equal to, and hashes like, the
plain tuple of its six fields in order.

Word positions (``doc_position``) count non-punctuation tokens only, so
that distances measured in "words" are not inflated by delimiters such as
the early-modern virgule ``/``. Punctuation tokens carry no position.
"""

from __future__ import annotations

import io
from functools import cached_property, partial
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, TextIO

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


class Token(NamedTuple):
    surface: str
    lemma: str
    pos: str | None
    doc_position: int | None  # None for punctuation tokens
    sentence_index: int
    is_punctuation: bool


# ``Token(*fields)`` runs the NamedTuple's Python-level ``__new__``, which
# only calls ``tuple.__new__(Token, fields)``; the loops below call that
# directly and get the same ``Token`` without the extra frame.
_new_token = partial(tuple.__new__, Token)


class Document(Frozen):
    """An id and its tokens; a sentence is a run of one ``sentence_index``."""

    _fields = ("id", "tokens")

    def __init__(self, id: str, tokens: tuple[Token, ...]):
        self.__dict__.update(id=id, tokens=tokens)

    # A cached property writes the instance ``__dict__`` directly, past
    # ``__setattr__``; it is not a field.
    @cached_property
    def _words(self) -> tuple[Token, ...]:
        return tuple(t for t in self.tokens if not t.is_punctuation)

    def word_tokens(self) -> tuple[Token, ...]:
        """The non-punctuation tokens in order, built once on first use."""
        return self._words

    def word_count(self) -> int:
        return len(self._words)


def _iter_lines(source: str | TextIO | Iterable[str]) -> Iterator[str]:
    if isinstance(source, str):
        return iter(io.StringIO(source))
    return iter(source)


def load_vertical(source: str | TextIO | Iterable[str]) -> list[Document]:
    """Parse vertical-format text into documents.

    ``source`` may be a string, an open text file, or any iterable of
    lines. Raises :class:`ParseError` with a line number on malformed
    token lines, token lines outside any document, and duplicate
    document ids. An empty source yields an empty list.
    """
    docs: list[Document] = []
    seen_ids: set[str] = set()
    # The open document: its id (None before the first header), its tokens,
    # the current sentence index, whether that sentence has a token yet, and
    # the next word position.
    doc_id: str | None = None
    tokens: list[Token] = []
    sentence_index = 0
    sentence_open = False
    next_position = 0
    # Each token line seen so far, as read, mapped to its checked
    # ``(surface, lemma, pos, is_punctuation)``: a repeated line skips the
    # split and the checks, and its tokens share one set of strings. It
    # lives for one call, so no call keeps the lines of an earlier input
    # alive. Only token lines are stored, and only once a document is open,
    # so a hit needs no check of the parser state either.
    parsed: dict[str, tuple[str, str, str | None, bool]] = {}
    new_token = _new_token

    for lineno, raw in enumerate(_iter_lines(source), start=1):
        fields = parsed.get(raw)
        if fields is None:
            line = raw.rstrip("\n").rstrip("\r")
            if line.startswith(DOC_HEADER):
                new_id = line[len(DOC_HEADER):].strip()
                if not new_id:
                    raise ParseError("document header without an id", lineno)
                if new_id in seen_ids:
                    raise ParseError(f"duplicate document id {new_id!r}", lineno)
                seen_ids.add(new_id)
                if doc_id is not None:
                    docs.append(Document(doc_id, tuple(tokens)))
                doc_id, tokens = new_id, []
                sentence_index, sentence_open, next_position = 0, False, 0
                continue
            if line.startswith("#"):
                continue  # comment
            if not line.strip():
                if sentence_open:
                    sentence_index += 1
                    sentence_open = False
                continue
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
            if not lemma and not punct:
                raise ParseError(f"empty lemma for word token {surface!r}", lineno)
            fields = parsed[raw] = (surface, lemma or surface, pos, punct)
        surface, lemma, pos, punct = fields
        if punct:
            tokens.append(new_token((surface, lemma, pos, None, sentence_index, True)))
        else:
            tokens.append(new_token((surface, lemma, pos, next_position, sentence_index, False)))
            next_position += 1
        sentence_open = True

    if doc_id is not None:
        docs.append(Document(doc_id, tuple(tokens)))
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
    renumbered densely from 0. Tokens whose sentence index stays the same
    are shared with the input, and the input document itself is returned
    exactly when no index changes. Idempotent.
    """
    if not doc.tokens:
        return doc
    new_tokens: list[Token] = []
    moved = False
    sentence_index = 0
    boundary_pending = False
    previous_original = doc.tokens[0].sentence_index
    for token in doc.tokens:
        original = token.sentence_index
        if original != previous_original:
            boundary_pending = True
        previous_original = original
        if boundary_pending:
            sentence_index += 1
            boundary_pending = False
        if original != sentence_index:
            moved = True
            token = _new_token((
                token.surface, token.lemma, token.pos, token.doc_position,
                sentence_index, token.is_punctuation,
            ))
        new_tokens.append(token)
        if token.surface == ".":
            boundary_pending = True
    return Document(doc.id, tuple(new_tokens)) if moved else doc


def sentences(doc: Document) -> Iterator[list[str]]:
    """Yield per-sentence lists of word lemmas; punctuation is skipped, so
    it is transparent to bigram context, and punctuation-only sentences
    yield nothing."""
    for _, tokens in groupby(doc.word_tokens(), key=attrgetter("sentence_index")):
        yield [t.lemma for t in tokens]
