"""Mention-history weighting of surprisal: a novelty bonus that wears out
over repeated mentions and partially resets after long gaps.

Each lemma carries an effective mention count ``x``. A fresh lemma starts
at ``x = 1`` and earns the factor ``bonus / x`` until ``x`` reaches the
wearout point, after which the factor is 1. Re-mentions within the decay
window increment ``x``; a re-mention after ``gap`` words decrements it by
``gap // window`` instead, but never below the floor, so re-introduced
items keep a reduced bonus rather than the full one.

Distances are measured in non-punctuation word positions within one
document; state never crosses documents.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import compress, count, repeat
from operator import eq, not_
from pathlib import Path
from typing import Callable, Iterable, TextIO

from ._value import FACTOR_BONUS, FACTOR_FLOOR, FACTOR_WEAROUT, FACTOR_WINDOW, Frozen
from .corpus import Document, Word
from .errors import ParseError
from .surprisal import SurprisalAnnotation

# POS tags treated as content words (UD tags plus the common STTS ones).
DEFAULT_CONTENT_POS = frozenset({
    "NOUN", "PROPN", "VERB", "ADJ", "ADV",
    "NN", "NE", "ADJA", "ADJD",
    "VVFIN", "VVINF", "VVIZU", "VVIMP", "VVPP",
})


class FactorConfig(Frozen):
    """The factor's parameters, checked when built (a value out of range is
    a :class:`ParseError`); the class attributes are the defaults."""

    _fields = ("bonus", "wearout", "window", "floor")

    bonus: float = FACTOR_BONUS
    wearout: int = FACTOR_WEAROUT
    window: int = FACTOR_WINDOW
    floor: int = FACTOR_FLOOR

    def __init__(self, bonus: float = bonus, wearout: int = wearout,
                 window: int = window, floor: int = floor):
        if not (math.isfinite(bonus) and bonus > 0):
            raise ParseError("bonus must be positive and finite")
        if wearout < 1:
            raise ParseError("wearout must be >= 1")
        if window < 1:
            raise ParseError("window must be >= 1")
        if not 1 <= floor <= wearout:
            raise ParseError("floor must lie in [1, wearout]")
        self.__dict__.update(bonus=bonus, wearout=wearout, window=window, floor=floor)


def factor(x: int, cfg: FactorConfig = FactorConfig()) -> float:
    """Weight for the x-th effective mention: ``bonus / x`` below the
    wearout point, 1 from there on."""
    if x < 1:
        raise ValueError(f"mention count must be >= 1, got {x}")
    if x < cfg.wearout:
        return cfg.bonus / x
    return 1.0


def next_x(prev_x: int, gap: int, cfg: FactorConfig = FactorConfig()) -> int:
    """Effective count of a re-mention ``gap`` words after the previous one.

    Inside the window the count advances by one; from the window boundary
    on it decays by one point per full window, floored.
    """
    if prev_x < 1:
        raise ValueError(f"previous count must be >= 1, got {prev_x}")
    if gap < 1:
        raise ValueError(f"gap must be >= 1, got {gap}")
    if gap < cfg.window:
        return prev_x + 1
    return max(cfg.floor, prev_x - gap // cfg.window)


class AccommodationState:
    """Per-lemma effective counts over a strictly forward scan of one
    document."""

    def __init__(self):
        self._entries: dict[str, tuple[int, int]] = {}  # lemma -> (x, last_position)

    def observe(
        self, lemma: str, position: int, cfg: FactorConfig = FactorConfig()
    ) -> tuple[int, float]:
        """Advance the counter for one occurrence; returns ``(x, factor)``,
        computed inline as ``next_x`` and ``factor`` compute them."""
        previous = self._entries.get(lemma)
        if previous is None:
            x = 1
        else:
            prev_x, last_position = previous
            gap = position - last_position
            if gap < 1:
                raise ValueError(
                    f"stream must be scanned in order: {lemma!r} at {position} "
                    f"after {last_position}"
                )
            if gap < cfg.window:
                x = prev_x + 1
            else:
                x = prev_x - gap // cfg.window
                if x < cfg.floor:
                    x = cfg.floor
        self._entries[lemma] = (x, position)
        return x, (cfg.bonus / x if x < cfg.wearout else 1.0)


def load_stoplist(path: str | Path | None = None) -> frozenset[str]:
    """Function-word lemmas used when tokens carry no POS tag. Defaults to
    the bundled German list; one lemma per line, ``#`` comments, UTF-8
    with or without a byte-order mark."""
    if path is None:
        text = (Path(__file__).with_name("data") / "function_words_de.txt").read_text(
            encoding="utf-8")
    else:
        text = Path(path).read_text(encoding="utf-8-sig")
    lemmas = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            lemmas.add(line)
    return frozenset(lemmas)


def make_content_predicate(
    content_pos: frozenset[str] = DEFAULT_CONTENT_POS,
    stoplist: frozenset[str] | None = None,
) -> Callable[[Word], bool]:
    """Word predicate for "content word": POS in the content set when a
    tag is present, otherwise lemma not in the function-word stoplist
    (the bundled German list when ``stoplist`` is None)."""
    if stoplist is None:
        stoplist = load_stoplist()

    def is_content(word: Word) -> bool:
        if word.is_punctuation:
            return False
        if word.pos is not None:
            return word.pos in content_pos
        return word.lemma not in stoplist

    return is_content


@cache
def _default_content_predicate() -> Callable[[Word], bool]:
    """The default predicate, built once, so the bundled stoplist is read
    once per process."""
    return make_content_predicate()


# ``(x, factor)`` per word position; x is None for non-content words.
Factors = tuple[tuple[int | None, float], ...]


def accommodation_factors(
    doc: Document,
    content_predicate: Callable[[Word], bool] | None = None,
    cfg: FactorConfig = FactorConfig(),
) -> Factors:
    """Scan a document once and give every word position its ``(x,
    factor)`` pair, indexed like ``doc.word_tokens()``; non-content words
    get ``(None, 1.0)``.

    Factors depend only on the lemma stream, so they can be applied to
    scores from any re-linearization anchored at the same positions.

    ``content_predicate`` is called with each word as a ``Word``, the
    document's row, so the predicate may read only ``lemma``, ``pos`` and
    ``is_punctuation``, by name.
    """
    if content_predicate is None:
        content_predicate = _default_content_predicate()
    state = AccommodationState()
    return tuple(
        state.observe(word.lemma, position, cfg) if content_predicate(word) else (None, 1.0)
        for position, word in enumerate(doc._word_columns.words)
    )


def accommodate_document(
    annotation: SurprisalAnnotation,
    doc: Document,
    content_predicate: Callable[[Word], bool] | None = None,
    cfg: FactorConfig = FactorConfig(),
) -> Factors:
    """The mention-history factors for a document's surprisal annotation,
    which must align one-to-one with the document's word tokens.
    ``content_predicate`` is called as by ``accommodation_factors``."""
    positions, expected = annotation._columns.positions, range(doc.word_count())
    # ``annotate_document`` gives this range itself; other columns are
    # compared element-wise.
    if positions != expected and not (
        len(positions) == len(expected) and all(map(eq, positions, expected))
    ):
        raise ValueError("annotation does not align with the document's word tokens")
    return accommodation_factors(doc, content_predicate, cfg)


_TSV_HEADER = (
    "doc\tposition\tlemma\tcontext\tprob\tsurprisal_bits\tx\tfactor\tweighted_surprisal\n"
)


def write_weighted_tsv(
    scored: Iterable[tuple[SurprisalAnnotation, Factors]], fh: TextIO
) -> None:
    """Surprisal dump plus ``x factor weighted_surprisal`` columns for each
    ``(annotation, factors)`` pair, the weighted value being
    ``surprisal_bits * factor``. The header goes out with the first
    document's rows, so an empty ``scored`` writes nothing. Each document's
    rows are formatted first and written in one call; factors that do not
    align with the entries are a ``ValueError``.

    Probabilities, bits, factors and counts repeat across the whole corpus,
    so the row tail from ``prob`` on is formatted once per distinct
    ``(probability, bits, (x, factor))`` for the call, and the rows are
    joined column by column. A new tail is its ``prob bits`` text, an ``x
    factor`` piece formatted once per distinct factor pair, and its
    weighted value. ``0.0`` and ``-0.0`` are equal keys that format
    differently, so a row with a zero among probability, bits and factor
    is always formatted whole. Positions that are a ``range`` of step 1
    from 0 or above take their text from one list of numerals for the
    call.
    """
    tails: dict[tuple[float, float, tuple[int | None, float]], str] = {}
    weights: dict[tuple[int | None, float], str] = {}
    numerals: list[str] = []  # numerals[i] == str(i)
    header = _TSV_HEADER
    for annotation, factors in scored:
        lemmas, contexts, probabilities, bits, positions = annotation._columns
        if len(lemmas) != len(factors):
            raise ValueError(
                f"{len(factors)} factors do not align with {len(lemmas)} entries"
            )
        row_tails = list(map(tails.get, zip(probabilities, bits, factors)))
        # Only the rows whose tail is not cached yet run Python code.
        for i in compress(count(), map(not_, row_tails)):
            probability, b, pair = key = probabilities[i], bits[i], factors[i]
            text = tails.get(key)  # an earlier row of this document may have added it
            if text is None:
                x, f = pair
                if probability and b and f:
                    weight = weights.get(pair)
                    if weight is None:
                        weight = weights[pair] = "%s\t%.6f\t" % ("NA" if x is None else x, f)
                    text = tails[key] = "%.6e\t%.6f\t%s%.6f\n" % (probability, b, weight, b * f)
                else:
                    text = "%.6e\t%.6f\t%s\t%.6f\t%.6f\n" % (
                        probability, b, "NA" if x is None else x, f, b * f
                    )
            row_tails[i] = text
        if type(positions) is range and positions.step == 1 and 0 <= positions.start:
            start, stop = positions.start, max(positions.start, positions.stop)
            numerals.extend(map(str, range(len(numerals), stop)))
            position_texts = numerals[start:stop]
        else:
            position_texts = map(str, positions)
        fh.write(header + "".join(map("\t".join, zip(
            repeat(str(annotation.doc_id)), position_texts, lemmas, contexts, row_tails,
        ))))
        header = ""
