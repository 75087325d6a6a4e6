"""Bigram counting, interpolated Kneser-Ney estimation, and ARPA
serialization.

The model interpolates a discounted bigram estimate with a continuation
unigram distribution:

    p(w|v) = max(c2(v,w) - D, 0) / c1(v) + lambda(v) * p_cont(w)
    lambda(v) = D * fertility(v) / c1(v)
    p_cont(w) = continuation(w) / bigram_types

where ``continuation(w)`` is the number of distinct left contexts of ``w``
and ``fertility(v)`` the number of distinct continuations of ``v``. The
discount defaults to the count-of-counts estimate ``n1 / (n1 + 2*n2)``.

Probabilities are normalized over the trained event space (corpus lemmas
plus the sentence-end symbol). The unknown symbol sits outside that
simplex as an epsilon floor on the continuation distribution, so known
probabilities are untouched by out-of-vocabulary policy while unknown
queries still return a positive value.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from operator import itemgetter
from typing import Iterable

from ._value import Frozen, Value
from .corpus import Document, sentences
from .errors import DegenerateCountsError, ParseError

START = "<s>"
END = "</s>"
UNK = "<unk>"
RESERVED = (START, END, UNK)

DISCOUNT_EPS = 1e-6


class Vocabulary(Frozen):
    """Dense 0-based lemma ids with the reserved symbols first."""

    _fields = ("index",)

    def __init__(self, index: dict[str, int]):
        self.__dict__.update(index=index)

    @classmethod
    def from_lemmas(cls, lemmas: Iterable[str]) -> "Vocabulary":
        """The reserved symbols at ids 0-2, then the other distinct
        symbols of ``lemmas`` in sorted order."""
        index = {symbol: i for i, symbol in enumerate(RESERVED)}
        for lemma in sorted(set(lemmas).difference(RESERVED)):
            index[lemma] = len(index)
        return cls(index)

    def __len__(self) -> int:
        return len(self.index)

    def words(self) -> list[str]:
        return sorted(self.index, key=self.index.__getitem__)

    def corpus_size(self) -> int:
        return len(self.index) - len(RESERVED)

    def event_words(self) -> list[str]:
        """Vocabulary entries the model assigns normalized mass to:
        everything except the start and unknown symbols."""
        return [w for w in self.words() if w not in (START, UNK)]


class BigramCounts(Value):
    """Raw counts for one or more documents; ``train_kn`` derives the rest.

    ``c1`` counts tokens of each symbol in start/end-padded sentences, so
    ``sum_w c2(v, w) == c1(v)`` for every context except the end symbol.
    Each counter starts empty unless given.
    """

    _fields = ("c1", "c2")

    def __init__(self, c1: Counter | None = None, c2: Counter | None = None):
        self.c1 = Counter() if c1 is None else c1
        self.c2 = Counter() if c2 is None else c2

    def token_count(self) -> int:
        """Corpus word tokens (padding symbols excluded)."""
        return sum(n for w, n in self.c1.items() if w not in RESERVED)

    def sentence_count(self) -> int:
        return self.c1[START]


def count_bigrams(docs: Iterable[Document]) -> BigramCounts:
    """Raw counts of padded within-sentence lemma bigrams in all documents.

    Punctuation is transparent, as in the scorer. Each sentence is wrapped
    in one start and one end symbol; no bigram crosses a sentence boundary.
    Sentences without any countable token contribute nothing. Counting
    makes one update of each counter per document. A corpus lemma that is
    a reserved symbol is a ``ValueError`` naming every such symbol.
    """
    counts = BigramCounts()
    sentence_total = 0
    for doc in docs:
        # The document's padded sentences back to back, and the pairs within
        # each sentence, in the order per-sentence updates would see them.
        symbols: list[str] = []
        pairs: list[tuple[str, str]] = []
        for sentence in sentences(doc):
            padded = [START, *sentence, END]
            symbols += padded
            pairs += zip(padded, padded[1:])
            sentence_total += 1
        counts.c1.update(symbols)
        counts.c2.update(pairs)
    # Padding adds one start and one end symbol per sentence and never the
    # unknown symbol, so any other count of them comes from corpus lemmas.
    expected = {START: sentence_total, END: sentence_total, UNK: 0}
    reserved = [symbol for symbol, n in expected.items() if counts.c1[symbol] != n]
    if reserved:
        raise ValueError(
            "reserved symbols cannot be corpus lemmas: " + ", ".join(map(repr, reserved))
        )
    return counts


def estimate_discount(counts: BigramCounts) -> float:
    """Count-of-counts discount ``n1 / (n1 + 2*n2)`` over bigram types,
    clamped into ``[DISCOUNT_EPS, 1 - DISCOUNT_EPS]`` with a warning."""
    count_of_counts = Counter(counts.c2.values())
    n1, n2 = count_of_counts[1], count_of_counts[2]
    if n1 == 0 and n2 == 0:
        raise DegenerateCountsError("degenerate counts; supply an explicit discount")
    discount = n1 / (n1 + 2 * n2)
    if discount >= 1.0:
        warnings.warn(f"discount {discount} clamped to {1 - DISCOUNT_EPS}")
        return 1 - DISCOUNT_EPS
    if discount <= 0.0:
        warnings.warn(f"discount {discount} clamped to {DISCOUNT_EPS}")
        return DISCOUNT_EPS
    return discount


class KneserNeyBigramModel(Value):
    """Queryable bigram model over linear-space probability tables.

    ``bigram_p`` stores the full interpolated probability for every
    counted bigram; all other pairs back off to ``bow[v] * unigram_p[w]``.
    The tables double as the ARPA serialization content, so a model
    imported from ARPA behaves identically to the trained original.
    """

    _fields = ("vocabulary", "unigram_p", "bow", "bigram_p", "discount")

    def __init__(
        self,
        vocabulary: Vocabulary,
        unigram_p: dict[str, float],  # continuation distribution; START maps to 0.0
        bow: dict[str, float],        # per-context backoff weight; 1.0 when unseen as context
        bigram_p: dict[tuple[str, str], float],
        discount: float | None = None,  # estimation metadata; absent on imported models
    ):
        self.vocabulary = vocabulary
        self.unigram_p = unigram_p
        self.bow = bow
        self.bigram_p = bigram_p
        self.discount = discount

    def prob(self, context: str, word: str) -> float:
        """p(word | context), total and strictly positive. A symbol missing
        from ``unigram_p`` and ``bow``, which hold exactly the vocabulary, is
        unknown, and so is the start symbol as a word (it is never an outcome).

        A listed bigram is looked up first, as given: it holds only
        vocabulary symbols, which the mapping leaves as they are. The start
        symbol as a word is the exception, since it maps to the unknown
        symbol even where an imported model lists a bigram ending in it.
        """
        if word != START:
            hit = self.bigram_p.get((context, word))
            if hit is not None:
                return hit
        v = context if context in self.bow else UNK
        w = UNK if word == START or word not in self.unigram_p else word
        hit = self.bigram_p.get((v, w))
        if hit is not None:
            return hit
        return self.bow[v] * self.unigram_p[w]

    def event_words(self) -> list[str]:
        return self.vocabulary.event_words()


def train_kn(counts: BigramCounts, discount: float | None = None) -> KneserNeyBigramModel:
    """Estimate the interpolated Kneser-Ney model from raw counts.

    Continuation counts, fertilities and the number of bigram types are
    derived here from ``counts.c2``. ``discount`` defaults to the
    count-of-counts estimate and must lie in (0, 1) when given. The
    continuation mass of the unknown symbol is ``1 / (len(c2) + 1)``.
    """
    total_types = len(counts.c2)
    if total_types == 0:
        raise DegenerateCountsError("no bigrams to train on")
    if discount is None:
        discount = estimate_discount(counts)
    elif not 0.0 < discount < 1.0:
        raise ValueError(f"discount must be in (0, 1), got {discount}")

    continuation = Counter(map(itemgetter(1), counts.c2))
    fertility = Counter(map(itemgetter(0), counts.c2))

    vocabulary = Vocabulary.from_lemmas(counts.c1)

    unigram_p: dict[str, float] = {START: 0.0, UNK: 1.0 / (total_types + 1)}
    for word in vocabulary.event_words():
        unigram_p[word] = continuation[word] / total_types

    bow: dict[str, float] = {}
    for context in vocabulary.words():
        c1 = counts.c1[context]
        if c1 > 0 and fertility[context] > 0:
            bow[context] = discount * fertility[context] / c1
        else:
            bow[context] = 1.0

    bigram_p: dict[tuple[str, str], float] = {}
    for (v, w), c in counts.c2.items():
        bigram_p[(v, w)] = max(c - discount, 0.0) / counts.c1[v] + bow[v] * unigram_p[w]

    return KneserNeyBigramModel(vocabulary, unigram_p, bow, bigram_p, discount)


def perplexity(model: KneserNeyBigramModel, docs: Iterable[Document]) -> float:
    """2 to the mean per-event surprisal in bits.

    Events are every in-sentence token plus the sentence-end symbol; the
    start symbol conditions but is never itself an event.
    """
    bits = 0.0
    events = 0
    for doc in docs:
        for sentence in sentences(doc):
            chain = [START] + sentence + [END]
            for left, right in zip(chain, chain[1:]):
                bits += -math.log2(model.prob(left, right))
                events += 1
    if events == 0:
        raise ValueError("empty corpus: no events to evaluate")
    return 2.0 ** (bits / events)


# --- ARPA serialization ---------------------------------------------------
#
# Standard back-off layout at orders 1 and 2, base-10 log probabilities,
# six decimal places. The start symbol gets the conventional -99 sentinel
# as a unigram (it is never predicted) and its real backoff weight as a
# context. Query semantics: a listed bigram is taken verbatim, anything
# else is bow(v) + unigram(w), which reproduces the interpolated model.

_LOG10_ZERO = -99.0


def _fmt(value: float) -> str:
    if abs(value) <= 5e-7:  # avoid the "-0.000000" rendering
        value = 0.0
    return f"{value:.6f}"


def export_arpa(model: KneserNeyBigramModel) -> str:
    """Serialize the model to ARPA text in canonical (vocabulary) order.

    Each distinct probability or backoff weight has its ``log10`` computed
    and formatted once per call; the start symbol's zero unigram mass is
    written as the ``-99`` sentinel.

    ARPA separates the words of an n-gram by whitespace, so a lemma that
    contains any whitespace character is a ``ValueError`` naming every such
    lemma.
    """
    words = model.vocabulary.words()
    spaced = [word for word in words if any(map(str.isspace, word))]
    if spaced:
        raise ValueError(
            "lemmas containing whitespace cannot be written to ARPA: "
            + ", ".join(map(repr, spaced))
        )
    word_id = model.vocabulary.index
    unigram_p, bow, bigram_p = model.unigram_p, model.bow, model.bigram_p
    # Values repeat: 49,530 bigram probabilities of the benchmark corpus take
    # 4,788 distinct values. A unigram probability at or below zero is
    # written as the sentinel, so it needs no entry.
    log10_text = {
        value: _fmt(math.log10(value))
        for value in {*bow.values(), *bigram_p.values(),
                      *(p for p in unigram_p.values() if not p <= 0.0)}
    }
    sentinel = _fmt(_LOG10_ZERO)
    lines = ["\\data\\", f"ngram 1={len(words)}", f"ngram 2={len(bigram_p)}", ""]

    lines.append("\\1-grams:")
    lines += [
        f"{sentinel if p <= 0.0 else log10_text[p]}\t{word}\t{log10_text[bow[word]]}"
        for word, p in zip(words, map(unigram_p.__getitem__, words))
    ]
    lines.append("")

    # Ids are dense in [0, size), so this integer orders pairs as the tuple
    # (id[v], id[w]) does.
    size = len(word_id)
    bigrams = sorted(bigram_p, key=lambda vw: word_id[vw[0]] * size + word_id[vw[1]])
    lines.append("\\2-grams:")
    lines += [f"{log10_text[bigram_p[vw]]}\t{vw[0]} {vw[1]}" for vw in bigrams]
    lines.append("")

    lines += ["\\end\\", ""]  # the empty last entry ends the text with a newline
    return "\n".join(lines)


def import_arpa(text: str) -> KneserNeyBigramModel:
    """Reconstruct a model from ARPA text (orders 1 and 2 only).

    Raises :class:`ParseError` with a line number on malformed headers,
    inconsistent n-gram counts, non-numeric or out-of-range fields (a log
    probability above 0, a power of ten that overflows, or zero mass on
    anything but the start symbol's unigram), a repeated ``ngram``
    declaration, or truncation. The reserved symbols must be present among
    the unigrams.

    Log10 texts repeat, so each distinct text of a log probability or a
    backoff weight is converted and checked once per call, the mirror of
    ``export_arpa``'s ``log10_text``. A zero power is never reused: it is
    valid only on the start symbol's unigram line, and every other line
    that carries it fails with its own line number.
    """
    declared: dict[int, int] = {}
    unigram_p: dict[str, float] = {}
    bow: dict[str, float] = {}
    bigram_p: dict[tuple[str, str], float] = {}

    lines = text.splitlines()
    n = len(lines)

    def expect(i: int, marker: str, message: str) -> int:
        # The index after ``marker``, which must be the next non-blank line.
        while i < n and not lines[i].strip():
            i += 1
        if i >= n or lines[i].strip() != marker:
            raise ParseError(message, i + 1 if i < n else None)
        return i + 1

    i = expect(0, "\\data\\", "missing \\data\\ header")
    while i < n and (entry := lines[i].strip()).startswith("ngram "):
        entry = entry[len("ngram "):]
        try:
            order_str, count_str = entry.split("=")
            order, size = int(order_str), int(count_str)
        except ValueError:
            raise ParseError(f"malformed ngram declaration {entry!r}", i + 1)
        if order in declared:
            raise ParseError(f"repeated ngram {order} declaration", i + 1)
        declared[order] = size
        i += 1
    if set(declared) != {1, 2}:
        raise ParseError(f"expected orders 1 and 2, declared {sorted(declared)}")

    def parse_power(field: str, lineno: int, entry: str, probability: bool = True) -> float:
        # 10 ** field. A backoff weight may be positive, a log probability may
        # not and reads 0.0 at or below the sentinel. Zero mass would make
        # ``prob`` return 0.0, so only the start symbol, never an outcome, has it.
        try:
            lp = float(field)
            power = 0.0 if probability and lp <= _LOG10_ZERO else 10.0 ** lp
            valid = math.isfinite(power) and not (probability and lp > 0.0)
        except (ValueError, OverflowError):
            valid = False
        if not valid:
            raise ParseError(f"non-numeric or out-of-range log10 value {field!r}", lineno)
        if power == 0.0 and not (probability and entry == START):
            raise ParseError(f"log10 value {field!r} of {entry!r} gives zero mass", lineno)
        return power

    # Converted powers by log10 text: probabilities (never a zero one) and
    # backoff weights, which are never zero.
    probability_of: dict[str, float] = {}
    weight_of: dict[str, float] = {}

    i = expect(i, "\\1-grams:", "missing \\1-grams: section")
    while i < n and (line := lines[i]).strip() and not line.startswith("\\"):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"expected 3 fields in 1-gram entry, got {len(fields)}", i + 1)
        log_p, word, log_bow = fields
        p = probability_of.get(log_p)
        if p is None:
            p = parse_power(log_p, i + 1, word)
            if p:
                probability_of[log_p] = p
        unigram_p[word] = p
        weight = weight_of.get(log_bow)
        if weight is None:
            weight = weight_of[log_bow] = parse_power(log_bow, i + 1, word, probability=False)
        bow[word] = weight
        i += 1

    i = expect(i, "\\2-grams:", "missing \\2-grams: section")
    while i < n and (line := lines[i]).strip() and not line.startswith("\\"):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(f"expected 2 fields in 2-gram entry, got {len(fields)}", i + 1)
        log_p, words = fields
        pair = words.split(" ")
        if len(pair) != 2:
            raise ParseError(f"expected two words in bigram entry {words!r}", i + 1)
        p = probability_of.get(log_p)
        if p is None:  # a bigram's zero power is an error, so ``p`` is not zero
            p = probability_of[log_p] = parse_power(log_p, i + 1, words)
        bigram_p[(pair[0], pair[1])] = p
        i += 1

    expect(i, "\\end\\", "missing \\end\\ marker (truncated file?)")

    if len(unigram_p) != declared[1]:
        raise ParseError(
            f"declared {declared[1]} unigrams but found {len(unigram_p)}"
        )
    if len(bigram_p) != declared[2]:
        raise ParseError(
            f"declared {declared[2]} bigrams but found {len(bigram_p)}"
        )
    for symbol in RESERVED:
        if symbol not in unigram_p:
            raise ParseError(f"reserved symbol {symbol!r} missing from unigrams")
    for (v, w) in bigram_p:
        if v not in unigram_p or w not in unigram_p:
            raise ParseError(f"bigram ({v!r}, {w!r}) uses an undeclared word")

    vocabulary = Vocabulary.from_lemmas(unigram_p)
    return KneserNeyBigramModel(vocabulary, unigram_p, bow, bigram_p)
