"""Corpus ingestion: vertical-format parsing, sentence re-segmentation,
and lemma streams with stable word positions.

The vertical format is UTF-8 text with one token per line
(``surface<TAB>lemma[<TAB>pos]``), ``# doc: <id>`` headers starting a new
document, blank lines marking sentence boundaries, and other ``#`` lines
treated as comments.

Word positions (``doc_position``) count non-punctuation tokens only, so
that distances measured in "words" are not inflated by delimiters such as
the early-modern virgule ``/``. Punctuation tokens carry no position.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .errors import ParseError

# Characters that make a token count as punctuation when they are all it
# consists of. ``/`` is included because the historical texts this toolkit
# targets use the virgule as a comma-like delimiter.
DEFAULT_PUNCTUATION = frozenset('.,;:?!/()„“”"—')

DOC_HEADER = "# doc:"


@dataclass(frozen=True)
class Token:
    surface: str
    lemma: str
    pos: str | None
    doc_position: int | None  # None for punctuation tokens
    sentence_index: int
    is_punctuation: bool


@dataclass(frozen=True)
class Document:
    id: str
    tokens: tuple[Token, ...]
    sentence_count: int

    # A cached property writes the instance ``__dict__`` directly, so the
    # frozen constructor, equality, hashing and ``replace`` are unaffected.
    @cached_property
    def _words(self) -> tuple[Token, ...]:
        return tuple(t for t in self.tokens if not t.is_punctuation)

    def word_tokens(self) -> tuple[Token, ...]:
        """The non-punctuation tokens in order, built once on first use."""
        return self._words

    def word_count(self) -> int:
        return len(self._words)


def is_punctuation(surface: str, punctuation: frozenset[str] = DEFAULT_PUNCTUATION) -> bool:
    """True iff the surface consists solely of punctuation characters."""
    return _is_punctuation(surface, "".join(punctuation))


def _is_punctuation(surface: str, chars: str) -> bool:
    # ``str.strip`` removes every character of ``chars`` from both ends, so
    # nothing is left exactly when the surface consists of them alone.
    return bool(surface) and not surface.strip(chars)


class _DocumentBuilder:
    """Accumulates tokens for one document, assigning positions and
    sentence indices on the fly."""

    def __init__(self, doc_id: str, punctuation: frozenset[str]):
        self.doc_id = doc_id
        self._punctuation_chars = "".join(punctuation)
        self.tokens: list[Token] = []
        self._sentence_index = 0
        self._sentence_open = False
        self._next_position = 0

    def add_token(self, surface: str, lemma: str, pos: str | None):
        punct = _is_punctuation(surface, self._punctuation_chars)
        position = None
        if not punct:
            position = self._next_position
            self._next_position += 1
        self.tokens.append(
            Token(surface, lemma, pos, position, self._sentence_index, punct)
        )
        self._sentence_open = True

    def end_sentence(self):
        if self._sentence_open:
            self._sentence_index += 1
            self._sentence_open = False

    def build(self) -> Document:
        self.end_sentence()
        return Document(self.doc_id, tuple(self.tokens), self._sentence_index)


def _iter_lines(source: str | TextIO | Iterable[str]) -> Iterator[str]:
    if isinstance(source, str):
        return iter(io.StringIO(source))
    return iter(source)


def load_vertical(
    source: str | TextIO | Iterable[str],
    punctuation: frozenset[str] = DEFAULT_PUNCTUATION,
) -> list[Document]:
    """Parse vertical-format text into documents.

    ``source`` may be a string, an open text file, or any iterable of
    lines. Raises :class:`ParseError` with a line number on malformed
    token lines, token lines outside any document, and duplicate
    document ids. An empty source yields an empty list.
    """
    docs: list[Document] = []
    seen_ids: set[str] = set()
    builder: _DocumentBuilder | None = None

    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if line.startswith(DOC_HEADER):
            doc_id = line[len(DOC_HEADER):].strip()
            if not doc_id:
                raise ParseError("document header without an id", lineno)
            if doc_id in seen_ids:
                raise ParseError(f"duplicate document id {doc_id!r}", lineno)
            seen_ids.add(doc_id)
            if builder is not None:
                docs.append(builder.build())
            builder = _DocumentBuilder(doc_id, punctuation)
            continue
        if line.startswith("#"):
            continue  # comment
        if not line.strip():
            if builder is not None:
                builder.end_sentence()
            continue
        if builder is None:
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
        if not lemma and not is_punctuation(surface, punctuation):
            raise ParseError(f"empty lemma for word token {surface!r}", lineno)
        builder.add_token(surface, lemma or surface, pos)

    if builder is not None:
        docs.append(builder.build())
    return docs


def load_vertical_file(
    path: str | Path, punctuation: frozenset[str] = DEFAULT_PUNCTUATION
) -> list[Document]:
    """Load a vertical file from disk. UTF-8 only; invalid bytes are a hard error."""
    with open(path, encoding="utf-8", errors="strict") as fh:
        return load_vertical(fh, punctuation)


def resegment_sentences(doc: Document) -> Document:
    """Introduce a sentence boundary after every token whose surface is
    exactly ``"."``, keeping all original boundaries.

    Token order and word positions are unchanged; sentence indices and the
    sentence count are recomputed. Tokens whose sentence index stays the
    same are shared with the input, and the input document itself is
    returned when neither an index nor the sentence count changes.
    Idempotent.
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
            token = Token(
                token.surface, token.lemma, token.pos, token.doc_position,
                sentence_index, token.is_punctuation,
            )
        new_tokens.append(token)
        if token.surface == ".":
            boundary_pending = True
    if not moved and doc.sentence_count == sentence_index + 1:
        return doc
    return Document(doc.id, tuple(new_tokens), sentence_index + 1)


def sentences(doc: Document) -> Iterator[list[str]]:
    """Yield per-sentence lists of word lemmas; punctuation is skipped, so
    it is transparent to bigram context, and punctuation-only sentences
    yield nothing."""
    for _, tokens in groupby(doc.word_tokens(), key=attrgetter("sentence_index")):
        yield [t.lemma for t in tokens]
