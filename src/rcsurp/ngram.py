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

Every table is keyed by ``Vocabulary`` id, never by symbol: the counts and
the model carry their vocabulary, per-symbol tables are lists indexed by
id, and the pair ``(v, w)`` is the integer ``id[v] * len(vocabulary) +
id[w]``, which orders pairs as the tuple of their ids does. ``prob`` takes
symbols and maps them through the vocabulary. ``string_tables()`` gives
the tables of counts or of a model keyed by symbol, for tests and oracles.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, count, repeat
from operator import add, mul, sub, truediv
from typing import Iterable

from ._value import Frozen, Value
from .corpus import END, RESERVED, START, UNK, Document, _contexts
from .errors import DegenerateCountsError, ParseError

START_ID, END_ID, UNK_ID = range(len(RESERVED))  # their ids in every vocabulary

DISCOUNT_EPS = 1e-6


class Vocabulary(Frozen):
    """Dense 0-based lemma ids with the reserved symbols first; ``size`` is
    their number, read by every ``prob`` query without a call."""

    _fields = ("index",)

    def __init__(self, index: dict[str, int]):
        self.__dict__.update(index=index, size=len(index))

    @classmethod
    def from_lemmas(cls, lemmas: Iterable[str]) -> "Vocabulary":
        """The reserved symbols at ids 0-2, then the other distinct
        symbols of ``lemmas`` in sorted order."""
        return cls(dict(zip(chain(RESERVED, sorted(set(lemmas).difference(RESERVED))), count())))

    def __len__(self) -> int:
        return self.size

    def words(self) -> list[str]:
        """The symbols in id order."""
        return sorted(self.index, key=self.index.__getitem__)

    def corpus_size(self) -> int:
        return len(self.index) - len(RESERVED)

    def event_words(self) -> list[str]:
        """Vocabulary entries the model assigns normalized mass to:
        everything except the start and unknown symbols."""
        return [w for w in self.words() if w not in (START, UNK)]


def _by_symbol_pair(words: list[str], table: dict[int, object]) -> dict[tuple[str, str], object]:
    size = len(words)
    return {(words[key // size], words[key % size]): value for key, value in table.items()}


class BigramCounts(Value):
    """Raw counts for one or more documents; ``train_kn`` derives the rest.

    ``c1`` counts tokens of each symbol id in start/end-padded sentences,
    and ``c2`` each pair's integer key, so ``sum_w c2(v, w) == c1(v)`` for
    every context except the end symbol. Each counter starts empty unless
    given.
    """

    _fields = ("vocabulary", "c1", "c2")

    def __init__(self, vocabulary: Vocabulary, c1: Counter | None = None,
                 c2: Counter | None = None):
        self.vocabulary = vocabulary
        self.c1 = Counter() if c1 is None else c1
        self.c2 = Counter() if c2 is None else c2

    def token_count(self) -> int:
        """Corpus word tokens: every count but the reserved symbols'."""
        c1 = self.c1
        return sum(c1.values()) - c1[START_ID] - c1[END_ID] - c1[UNK_ID]

    def sentence_count(self) -> int:
        return self.c1[START_ID]

    def string_tables(self) -> tuple[dict[str, int], dict[tuple[str, str], int]]:
        """``c1`` keyed by symbol and ``c2`` by symbol pair, for tests and
        oracles."""
        words = self.vocabulary.words()
        return {words[i]: n for i, n in self.c1.items()}, _by_symbol_pair(words, self.c2)


def count_bigrams(docs: Iterable[Document]) -> BigramCounts:
    """Raw counts of padded within-sentence lemma bigrams in all documents,
    over the vocabulary of their lemmas.

    Each word is counted after its context, as ``corpus._contexts`` gives
    it and the scorer reads it, and each sentence with a word adds one pair
    from its last word to the end symbol. Counting builds no pair tuple: it
    counts each pair as its integer key. No lemma is a reserved symbol:
    ``corpus`` rejects one where a document is built.
    """
    columns = [doc._word_columns for doc in docs]
    vocabulary = Vocabulary.from_lemmas(set().union(*[column.lemmas for column in columns]))
    counts = BigramCounts(vocabulary)
    c1, c2 = counts.c1, counts.c2
    index, size = vocabulary.index, len(vocabulary)
    scaled = list(range(0, size * size, size))  # id * size, by id
    sentence_total = 0
    for column in columns:
        ids = list(map(index.__getitem__, column.lemmas))
        if not ids:
            continue  # no sentence with a word
        starts = column.starts
        lasts = map(ids.__getitem__, map(sub, [*starts[1:], len(ids)], repeat(1)))
        c1.update(ids)
        c2.update(map(add, map(scaled.__getitem__, _contexts(ids, starts, START_ID)), ids))
        c2.update(map(add, map(scaled.__getitem__, lasts), repeat(END_ID)))
        sentence_total += len(starts)
    if sentence_total:
        c1[START_ID] = c1[END_ID] = sentence_total
    return counts


def estimate_discount(counts: BigramCounts) -> float:
    """Count-of-counts discount ``n1 / (n1 + 2*n2)`` over bigram types. It is
    clamped to ``1 - DISCOUNT_EPS`` when no type is seen twice and to
    ``DISCOUNT_EPS`` when none is seen once, which ``train`` reports as
    ``D=0.999999`` and ``D=1e-06``."""
    count_of_counts = Counter(counts.c2.values())
    n1, n2 = count_of_counts[1], count_of_counts[2]
    if n1 == 0 and n2 == 0:
        raise DegenerateCountsError("degenerate counts; supply an explicit discount")
    if n2 == 0:
        return 1 - DISCOUNT_EPS
    if n1 == 0:
        return DISCOUNT_EPS
    return n1 / (n1 + 2 * n2)


class KneserNeyBigramModel(Value):
    """Queryable bigram model over linear-space probability tables.

    ``bigram_p`` stores the full interpolated probability for every
    counted bigram, keyed by pair; all other pairs back off to
    ``bow[v] * unigram_p[w]``. The tables double as the ARPA serialization
    content, so a model imported from ARPA behaves identically to the
    trained original.
    """

    _fields = ("vocabulary", "unigram_p", "bow", "bigram_p", "discount")

    def __init__(
        self,
        vocabulary: Vocabulary,
        unigram_p: list[float],  # continuation distribution by id; START's is 0.0
        bow: list[float],        # backoff weight by id; 1.0 when unseen as context
        bigram_p: dict[int, float],
        discount: float | None = None,  # estimation metadata; absent on imported models
    ):
        self.vocabulary = vocabulary
        self.unigram_p = unigram_p
        self.bow = bow
        self.bigram_p = bigram_p
        self.discount = discount

    def prob(self, context: str, word: str) -> float:
        """p(word | context), total and strictly positive. A symbol outside
        the vocabulary is unknown, and so is the start symbol as a word (it
        is never an outcome), even where an imported model lists a bigram
        ending in it. The mapped pair's listed probability is returned, or
        else its backoff estimate.
        """
        vocabulary = self.vocabulary
        index = vocabulary.index
        v = index.get(context, UNK_ID)
        w = UNK_ID if word == START else index.get(word, UNK_ID)
        hit = self.bigram_p.get(v * vocabulary.size + w)
        if hit is not None:
            return hit
        return self.bow[v] * self.unigram_p[w]

    def event_words(self) -> list[str]:
        return self.vocabulary.event_words()

    def string_tables(self) -> tuple[dict[str, float], dict[str, float],
                                     dict[tuple[str, str], float]]:
        """``unigram_p`` and ``bow`` keyed by symbol and ``bigram_p`` by
        symbol pair, for tests and oracles."""
        words = self.vocabulary.words()
        return (dict(zip(words, self.unigram_p)), dict(zip(words, self.bow)),
                _by_symbol_pair(words, self.bigram_p))


def train_kn(counts: BigramCounts, discount: float | None = None) -> KneserNeyBigramModel:
    """Estimate the interpolated Kneser-Ney model from raw counts.

    Continuation counts, fertilities and the number of bigram types are
    derived here from ``counts.c2``. ``discount`` defaults to the
    count-of-counts estimate and must lie in (0, 1) when given; one so small
    that a backoff weight underflows to 0.0 is a :class:`ParseError` too.
    The continuation mass of the unknown symbol is ``1 / (len(c2) + 1)``.
    """
    c1, c2 = counts.c1, counts.c2
    total_types = len(c2)
    if total_types == 0:
        raise DegenerateCountsError("no bigrams to train on")
    if discount is None:
        discount = estimate_discount(counts)
    elif not 0.0 < discount < 1.0:
        raise ParseError(f"discount must be in (0, 1), got {discount}")

    vocabulary = counts.vocabulary
    size = len(vocabulary)
    keys = list(c2)
    contexts = list(map(size.__rfloordiv__, keys))
    words = list(map(size.__rmod__, keys))
    continuation = Counter(words)
    fertility = Counter(contexts)
    tokens = list(map(c1.get, range(size), repeat(0)))

    # continuation(w) / bigram_types; the start symbol is never an outcome.
    unigram_p = list(map(truediv, map(continuation.get, range(size), repeat(0)),
                         repeat(total_types)))
    unigram_p[START_ID] = 0.0
    unigram_p[UNK_ID] = 1.0 / (total_types + 1)

    # D * fertility(v) / c1(v) for every context, 1.0 for other symbols.
    weight = dict(zip(fertility, map(truediv, map(mul, repeat(discount), fertility.values()),
                                     map(tokens.__getitem__, fertility))))
    if 0.0 in weight.values():  # ARPA has no log10 for it
        raise ParseError(f"discount {discount} too small: a backoff weight underflows to 0")
    bow = list(map(weight.get, range(size), repeat(1.0)))

    # max(c2(v,w) - D, 0) / c1(v) + bow(v) * p_cont(w); bigram counts take
    # few distinct values, so each one's discounted count is computed once.
    discounted_of = {c: max(c - discount, 0.0) for c in set(c2.values())}
    discounted = map(truediv, map(discounted_of.__getitem__, c2.values()),
                     map(tokens.__getitem__, contexts))
    backoff = map(mul, map(bow.__getitem__, contexts), map(unigram_p.__getitem__, words))
    bigram_p = dict(zip(keys, map(add, discounted, backoff)))

    return KneserNeyBigramModel(vocabulary, unigram_p, bow, bigram_p, discount)


def perplexity(model: KneserNeyBigramModel, docs: Iterable[Document]) -> float:
    """2 to the mean surprisal in bits over the events that
    ``count_bigrams`` counts in ``docs``: every word after its context,
    and the end symbol after each sentence's last word. Raises
    ``ValueError`` when ``docs`` hold no word.
    """
    counts = count_bigrams(docs)
    pairs = _by_symbol_pair(counts.vocabulary.words(), counts.c2)
    if not pairs:
        raise ValueError("empty corpus: no events to evaluate")
    bits = math.fsum(n * -math.log2(model.prob(v, w)) for (v, w), n in pairs.items())
    return 2.0 ** (bits / sum(pairs.values()))


def _unbounded_contexts(unigram_p: list[float], bow: list[float]) -> list[int]:
    """The ids of the contexts whose unlisted pairs a bound does not clear.

    ``prob`` backs off to ``bow[v] * unigram_p[w]`` for an unlisted pair,
    over the outcome ids: all but the start symbol's, id 0. With ``lo`` and
    ``hi`` the least and greatest outcome unigrams, ``bow[v] * lo > 0`` and
    ``bow[v] * hi <= 1`` put every such pair of ``v`` in (0, 1]. A NaN
    backoff weight fails both; a NaN unigram clears no context, since
    ``min`` and ``max`` skip a NaN that is not first."""
    outcomes = unigram_p[1:]
    if math.isnan(sum(outcomes)):
        return list(range(len(bow)))
    lo, hi = min(outcomes), max(outcomes)
    return [v for v, weight in enumerate(bow) if not (weight * lo > 0.0 and weight * hi <= 1.0)]


def _check_backoff(model: KneserNeyBigramModel) -> None:
    """Scan each context that ``_unbounded_contexts`` does not clear, over
    the outcomes not listed after it, and raise :class:`ParseError` at the
    first whose probability lies outside (0, 1], naming the context and
    the word."""
    unigram_p, bow, bigram_p = model.unigram_p, model.bow, model.bigram_p
    size = len(bow)
    for v in _unbounded_contexts(unigram_p, bow):
        for w in range(1, size):
            p = bow[v] * unigram_p[w]
            if v * size + w not in bigram_p and not 0.0 < p <= 1.0:
                words = model.vocabulary.words()
                raise ParseError(f"probability of {words[w]!r} after {words[v]!r} must be in"
                                 f" (0, 1], got {p} (backoff weight {bow[v]} of {words[v]!r})")


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
    contains any whitespace character is a :class:`ParseError` naming every
    such lemma.
    """
    words = model.vocabulary.words()
    joined = "".join(words)  # not empty: it holds the reserved symbols
    if joined.split() != [joined]:  # some lemma holds a whitespace character
        spaced = [word for word in words if any(map(str.isspace, word))]
        raise ParseError(
            "lemmas containing whitespace cannot be written to ARPA: "
            + ", ".join(map(repr, spaced))
        )
    unigram_p, bow, bigram_p = model.unigram_p, model.bow, model.bigram_p
    # Values repeat: 49,530 bigram probabilities of the benchmark corpus take
    # 4,788 distinct values. A unigram probability at or below zero is
    # written as the sentinel, so it needs no entry.
    log10_text = {
        value: _fmt(math.log10(value))
        for value in {*bow, *bigram_p.values(), *(p for p in unigram_p if not p <= 0.0)}
    }
    sentinel = _fmt(_LOG10_ZERO)
    lines = ["\\data\\", f"ngram 1={len(words)}", f"ngram 2={len(bigram_p)}", ""]

    lines.append("\\1-grams:")
    lines += [
        f"{sentinel if p <= 0.0 else log10_text[p]}\t{word}\t{log10_text[weight]}"
        for word, p, weight in zip(words, unigram_p, bow)
    ]
    lines.append("")

    size = len(words)  # keys sort as their (id[v], id[w]) pairs do
    contexts = [f"\t{word} " for word in words]
    lines.append("\\2-grams:")
    lines += [
        f"{log10_text[bigram_p[key]]}{contexts[key // size]}{words[key % size]}"
        for key in sorted(bigram_p)
    ]
    lines.append("")

    lines += ["\\end\\", ""]  # the empty last entry ends the text with a newline
    return "\n".join(lines)


def import_arpa(text: str) -> KneserNeyBigramModel:
    """Reconstruct a model from ARPA text (orders 1 and 2 only).

    A section ends at its first blank (or whitespace-only) line or line
    starting with ``\\``. Raises :class:`ParseError` with a line number on
    malformed headers, inconsistent n-gram counts, an entry with the wrong
    number of fields or words, non-numeric or out-of-range fields (a log
    probability above 0, a power of ten that overflows, or zero mass on
    anything but the start symbol's unigram), a repeated ``ngram``
    declaration, or truncation; the first bad line is the one named. The
    reserved symbols must be present among the unigrams.

    Every ``p(w | v)`` the model can give is checked before it is
    returned, whatever is queried later: a listed bigram's as its line is
    parsed, and the backed-off pairs by ``_check_backoff``, which names the
    context and word of the first one outside (0, 1], such as a positive
    backoff weight can give.

    Log10 texts repeat, so each distinct text of a log probability or a
    backoff weight is converted and checked once per call, the mirror of
    ``export_arpa``'s ``log10_text``. A zero power is never reused: it is
    valid only on the start symbol's unigram line, and every other line
    that carries it fails with its own line number. An entry whose texts
    are all converted already, and whose shape the cache lookups vouch
    for, costs two ``str.partition`` calls and the lookups; every other
    line is split and checked in full.
    """
    declared: dict[int, int] = {}
    # The unigram lines' values by word, until the vocabulary is known.
    unigram_p: dict[str, float] = {}
    bow: dict[str, float] = {}

    lines = text.splitlines()
    n = len(lines)
    lines.append("")  # ends a section that runs to the end of the text

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

    # Each section is one loop that the appended blank line ends at the
    # latest. A cached text is never empty and holds no tab, so a line whose
    # two texts are both cached has exactly two tabs and skips the checks,
    # which a line with a new text, one of the wrong shape and a section's
    # end run in full.
    i = expect(i, "\\1-grams:", "missing \\1-grams: section")
    for i in range(i, len(lines)):
        line = lines[i]
        log_p, _, rest = line.partition("\t")
        word, _, log_bow = rest.partition("\t")
        p = probability_of.get(log_p)
        weight = weight_of.get(log_bow)
        if p is None or weight is None:
            if not line.strip() or line.startswith("\\"):
                break
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(f"expected 3 fields in 1-gram entry, got {len(fields)}", i + 1)
            if p is None:
                p = parse_power(log_p, i + 1, word)
                if p:
                    probability_of[log_p] = p
            if weight is None:
                weight = weight_of[log_bow] = parse_power(log_bow, i + 1, word, probability=False)
        unigram_p[word] = p
        bow[word] = weight

    vocabulary = Vocabulary.from_lemmas(unigram_p)
    index, size = vocabulary.index, len(vocabulary)
    bigram_p: dict[int, float] = {}
    # Pairs with a word that is not a unigram, in order of first occurrence;
    # they are reported only after the count and reserved-symbol checks.
    undeclared: dict[tuple[str, str], None] = {}
    # Bigrams come grouped by context, so its id is looked up once per run.
    context, base = None, None

    # A vocabulary word holds no tab, so a line with a cached text whose
    # two words are both in the vocabulary has exactly one tab. Testing for
    # the space catches a missing tab or space, and testing ``w`` for one
    # an extra word, as a unigram line may give a word a space.
    i = expect(i, "\\2-grams:", "missing \\2-grams: section")
    for i in range(i, len(lines)):
        line = lines[i]
        log_p, _, words = line.partition("\t")
        v, space, w = words.partition(" ")
        if v != context:
            context = v
            base = index.get(v)
            if base is not None:
                base *= size
        p = probability_of.get(log_p)
        w_id = index.get(w)
        if p is None or base is None or w_id is None or not space or " " in w:
            if not line.strip() or line.startswith("\\"):
                break
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError(f"expected 2 fields in 2-gram entry, got {len(fields)}", i + 1)
            if len(words.split(" ")) != 2:
                raise ParseError(f"expected two words in bigram entry {words!r}", i + 1)
            if p is None:  # a bigram's zero power is an error, so ``p`` is not zero
                p = probability_of[log_p] = parse_power(log_p, i + 1, words)
            if base is None or w_id is None:
                undeclared[v, w] = None
                continue
        bigram_p[base + w_id] = p

    expect(i, "\\end\\", "missing \\end\\ marker (truncated file?)")

    if len(unigram_p) != declared[1]:
        raise ParseError(
            f"declared {declared[1]} unigrams but found {len(unigram_p)}"
        )
    if len(bigram_p) + len(undeclared) != declared[2]:
        raise ParseError(
            f"declared {declared[2]} bigrams but found {len(bigram_p) + len(undeclared)}"
        )
    # The vocabulary holds every reserved symbol, so a bigram may name one
    # that is missing from the unigrams; this check reports it first.
    for symbol in RESERVED:
        if symbol not in unigram_p:
            raise ParseError(f"reserved symbol {symbol!r} missing from unigrams")
    for (v, w) in undeclared:
        raise ParseError(f"bigram ({v!r}, {w!r}) uses an undeclared word")

    symbols = vocabulary.words()
    model = KneserNeyBigramModel(vocabulary, list(map(unigram_p.__getitem__, symbols)),
                                 list(map(bow.__getitem__, symbols)), bigram_p)
    _check_backoff(model)
    return model
