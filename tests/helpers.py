"""Shared fixtures and independent reference implementations.

The reference functions here recompute everything from raw inputs with
plain loops so the tests never reuse the code paths they check: the
smoothed bigram probability from scratch counts, a model query as a symbol
mapping and one table lookup, perplexity as an explicit log sum, each
word's bigram context by sentence, per-token document surprisal as one
loop over every token, chain surprisal as one
loop over the chain, the vertical-format loader as a per-document builder
that parses every line afresh, sentence re-segmentation by copying every
token, mention classification by rescanning the document's history for
every mention, the accommodated surprisal TSV as one f-string and one
write per row, the ARPA text as one f-string per entry with bigrams sorted
by id tuples, the ARPA reader as one ``split`` per line, the givenness
table by scanning every mention for every record, and the chi-square tail
by Simpson integration of the normal density.
``write_vertical`` serializes documents back to the vertical format, so the
loader can be checked by a round trip.
"""

from __future__ import annotations

import io
import math
from typing import Iterable, Sequence, TextIO

from rcsurp import (
    Document,
    ParseError,
    ReferentMention,
    SalienceCategory,
    SurprisalAnnotation,
    SurprisalEntry,
    Token,
    Variant,
    load_vertical,
    resegment_sentences,
)
from rcsurp.corpus import DEFAULT_PUNCTUATION, DOC_HEADER
from rcsurp.givenness import SALIENCE_WINDOW, ClassifiedMention, check_salience_window
from rcsurp.ngram import _LOG10_ZERO, RESERVED, KneserNeyBigramModel, Vocabulary

START = "<s>"
END = "</s>"
UNK = "<unk>"

TOY_SENTENCES = [["the", "cat", "sat"], ["the", "cat", "ran"]]

TOY_VERTICAL = """# doc: toy
the\tthe
cat\tcat
sat\tsat

the\tthe
cat\tcat
ran\tran
"""


def toy_documents():
    return load_vertical(TOY_VERTICAL)


def reference_counts(sentences: list[list[str]]):
    """Scratch bigram statistics: token counts, pair counts, distinct
    left-context and continuation sets, and the number of pair types."""
    c1: dict[str, int] = {}
    c2: dict[tuple[str, str], int] = {}
    left: dict[str, set[str]] = {}
    right: dict[str, set[str]] = {}
    for sentence in sentences:
        padded = [START] + list(sentence) + [END]
        for token in padded:
            c1[token] = c1.get(token, 0) + 1
        for v, w in zip(padded, padded[1:]):
            c2[(v, w)] = c2.get((v, w), 0) + 1
            left.setdefault(w, set()).add(v)
            right.setdefault(v, set()).add(w)
    return c1, c2, left, right, len(c2)


def reference_kn(sentences: list[list[str]], discount: float):
    """Brute-force interpolated Kneser-Ney probability from raw counts.

    Returns ``prob(context, word)`` with the same out-of-vocabulary
    mapping as the trained model: unknown lemmas (and the start symbol as
    an outcome) become the unknown symbol, which carries the epsilon
    continuation floor; unknown contexts back off to the continuation
    distribution.
    """
    c1, c2, left, right, total_types = reference_counts(sentences)
    unk_floor = 1.0 / (total_types + 1)

    def p_cont(w: str) -> float:
        if w == UNK:
            return unk_floor
        return len(left.get(w, ())) / total_types

    def prob(context: str, word: str) -> float:
        v = context if context in c1 else UNK
        w = word if word in c1 and word != START else UNK
        fertility = len(right.get(v, ()))
        if c1.get(v, 0) == 0 or fertility == 0:
            return p_cont(w)
        lam = discount * fertility / c1[v]
        return max(c2.get((v, w), 0) - discount, 0.0) / c1[v] + lam * p_cont(w)

    return prob


def reference_mapped_prob(model, context: str, word: str) -> float:
    """``model.prob`` as a symbol mapping and then one lookup: an unknown
    context, an unknown word and the start symbol as a word become the
    unknown symbol, and the mapped pair is read from the bigram table or
    backed off to ``bow[v] * unigram_p[w]``, all keyed by symbol."""
    unigram_p, bow, bigram_p = model.string_tables()
    v = context if context in bow else UNK
    w = UNK if word == START or word not in unigram_p else word
    if (v, w) in bigram_p:
        return bigram_p[(v, w)]
    return bow[v] * unigram_p[w]


def reference_perplexity(sentences: list[list[str]], prob) -> float:
    """Explicit log-sum perplexity over in-sentence events plus the end
    symbol, given any conditional probability function."""
    log_sum = 0.0
    events = 0
    for sentence in sentences:
        padded = [START] + list(sentence) + [END]
        for v, w in zip(padded, padded[1:]):
            log_sum += math.log2(prob(v, w))
            events += 1
    return 2.0 ** (-log_sum / events)


def simpson(f, a: float, b: float, intervals: int) -> float:
    if intervals % 2:
        intervals += 1
    h = (b - a) / intervals
    total = f(a) + f(b)
    for i in range(1, intervals):
        total += f(a + i * h) * (4 if i % 2 else 2)
    return total * h / 3.0


def reference_chi2_upper_tail(statistic: float) -> float:
    """Upper tail of the chi-square distribution with one degree of
    freedom, via the half-normal identity and Simpson integration of the
    normal density."""
    if statistic == 0.0:
        return 1.0
    z = math.sqrt(statistic)
    density = lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    return 2.0 * simpson(density, z, z + 45.0, 20000)


def reference_contexts(doc: Document) -> list[str]:
    """Each word's bigram context as a loop over sentences: a sentence's
    word tokens take ``<s>`` and then their own lemmas but the last."""
    sentences: dict[int, list[str]] = {}
    for token in doc.tokens:
        if not token.is_punctuation:
            sentences.setdefault(token.sentence_index, []).append(token.lemma)
    contexts = []
    for lemmas in sentences.values():
        contexts += [START] + lemmas[:-1]
    return contexts


def reference_annotate_document(model, doc: Document) -> SurprisalAnnotation:
    """Document surprisal as one loop over every token: punctuation is
    skipped, the context resets to ``<s>`` whenever the sentence index
    changes, and each word is scored as ``-log2 p(lemma | context)``."""
    entries = []
    context = START
    current_sentence = None
    for token in doc.tokens:
        if token.sentence_index != current_sentence:
            current_sentence = token.sentence_index
            context = START
        if token.is_punctuation:
            continue
        p = model.prob(context, token.lemma)
        entries.append(SurprisalEntry(token.lemma, context, p, -math.log2(p), token.doc_position))
        context = token.lemma
    return SurprisalAnnotation(doc.id, tuple(entries))


def reference_annotate_sequence(
    model, lemmas: Sequence[str], initial_context: str = START,
    positions: Sequence[int] | None = None,
) -> SurprisalAnnotation:
    """Chain surprisal as one loop: each lemma is scored after the one
    before it, the first after ``initial_context``, and takes the next of
    ``positions`` (by default 0, 1, ...)."""
    if positions is None:
        positions = range(len(lemmas))
    entries = []
    context = initial_context
    for lemma, position in zip(lemmas, positions):
        p = model.prob(context, lemma)
        entries.append(SurprisalEntry(lemma, context, p, -math.log2(p), position))
        context = lemma
    return SurprisalAnnotation(None, tuple(entries))


def reference_write_weighted_tsv(
    annotation: SurprisalAnnotation, factors, fh: TextIO, header: bool = True
) -> None:
    """The accommodated surprisal TSV with one f-string and one ``write``
    per row; a factors tuple that does not align with the entries raises
    ``ValueError`` after the aligned rows are written."""
    if header:
        fh.write(
            "doc\tposition\tlemma\tcontext\tprob\tsurprisal_bits"
            "\tx\tfactor\tweighted_surprisal\n"
        )
    for e, (x, f) in zip(annotation.entries, factors, strict=True):
        fh.write(
            f"{annotation.doc_id}\t{e.doc_position}\t{e.lemma}\t{e.context}"
            f"\t{e.probability:.6e}\t{e.surprisal_bits:.6f}"
            f"\t{'NA' if x is None else x}\t{f:.6f}\t{e.surprisal_bits * f:.6f}\n"
        )


def _reference_fmt(value: float) -> str:
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


def reference_export_arpa(model) -> str:
    """ARPA text as one loop per section: unigrams in vocabulary order,
    bigrams sorted by the ``(id[v], id[w])`` tuple, six decimals with
    ``-0.000000`` written as ``0.000000``, and the same ``ValueError`` as
    the exporter for lemmas containing whitespace."""
    words = model.vocabulary.words()
    spaced = [word for word in words if any(ch.isspace() for ch in word)]
    if spaced:
        raise ValueError(
            "lemmas containing whitespace cannot be written to ARPA: "
            + ", ".join(repr(word) for word in spaced)
        )
    word_id = model.vocabulary.index
    unigram_p, bow, bigram_p = model.string_tables()
    lines = ["\\data\\", f"ngram 1={len(words)}", f"ngram 2={len(bigram_p)}", ""]
    lines.append("\\1-grams:")
    for word in words:
        p = unigram_p[word]
        lp = -99.0 if p <= 0.0 else math.log10(p)
        lines.append(f"{_reference_fmt(lp)}\t{word}\t{_reference_fmt(math.log10(bow[word]))}")
    lines.append("")
    lines.append("\\2-grams:")
    for (v, w) in sorted(bigram_p, key=lambda vw: (word_id[vw[0]], word_id[vw[1]])):
        lines.append(f"{_reference_fmt(math.log10(bigram_p[(v, w)]))}\t{v} {w}")
    lines.append("")
    lines.append("\\end\\")
    return "\n".join(lines) + "\n"


def reference_import_arpa(text: str):
    """The ARPA reader as one ``split`` per line: each section is a
    ``while`` loop that checks every entry's shape, with the same messages,
    line numbers and check order as ``import_arpa``, and converts each
    distinct log10 text once."""
    declared: dict[int, int] = {}
    # The unigram lines' values by word, until the vocabulary is known.
    unigram_p: dict[str, float] = {}
    bow: dict[str, float] = {}

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

    vocabulary = Vocabulary.from_lemmas(unigram_p)
    index, size = vocabulary.index, len(vocabulary)
    bigram_p: dict[int, float] = {}
    # Pairs with a word that is not a unigram, in order of first occurrence;
    # they are reported only after the count and reserved-symbol checks.
    undeclared: dict[tuple[str, str], None] = {}
    # Bigrams come grouped by context, so its id is looked up once per run.
    context, base = None, None

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
        v, w = pair
        if v != context:
            context = v
            base = index.get(v)
            if base is not None:
                base *= size
        w_id = index.get(w)
        if base is None or w_id is None:
            undeclared[v, w] = None
        else:
            bigram_p[base + w_id] = p
        i += 1

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
    return KneserNeyBigramModel(vocabulary, list(map(unigram_p.__getitem__, symbols)),
                                list(map(bow.__getitem__, symbols)), bigram_p)


def _all_punctuation(surface: str) -> bool:
    return bool(surface) and all(ch in DEFAULT_PUNCTUATION for ch in surface)


class _DocumentBuilder:
    """Accumulates tokens for one document, assigning positions and
    sentence indices on the fly."""

    def __init__(self, doc_id: str):
        self.doc_id = doc_id
        self.tokens: list[Token] = []
        self.sentence_index = 0
        self.sentence_open = False
        self.next_position = 0

    def add_token(self, surface: str, lemma: str, pos: str | None):
        punct = _all_punctuation(surface)
        position = None
        if not punct:
            position = self.next_position
            self.next_position += 1
        self.tokens.append(Token(surface, lemma, pos, position, self.sentence_index, punct))
        self.sentence_open = True

    def end_sentence(self):
        if self.sentence_open:
            self.sentence_index += 1
            self.sentence_open = False

    def build(self) -> Document:
        return Document(self.doc_id, tuple(self.tokens))


def reference_load_vertical(source: str) -> list[Document]:
    """The vertical-format loader as a per-document builder that splits and
    checks every line afresh, with no parsed-line cache, and tests
    punctuation character by character."""
    docs: list[Document] = []
    seen_ids: set[str] = set()
    builder: _DocumentBuilder | None = None
    for lineno, raw in enumerate(io.StringIO(source), start=1):
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
            builder = _DocumentBuilder(doc_id)
            continue
        if line.startswith("#"):
            continue
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
        if not _all_punctuation(surface):
            if not lemma:
                raise ParseError(f"empty lemma for word token {surface!r}", lineno)
            if lemma in ("<s>", "</s>", "<unk>"):
                raise ParseError(f"reserved lemma {lemma!r} for word token {surface!r}", lineno)
        builder.add_token(surface, lemma or surface, pos)
    if builder is not None:
        docs.append(builder.build())
    return docs


def reference_resegment(doc: Document) -> Document:
    """Sentence re-segmentation as a plain loop that copies every token:
    a boundary after each ``"."`` token and at every original boundary,
    indices renumbered from 0."""
    if not doc.tokens:
        return doc
    new_tokens = []
    sentence_index = 0
    boundary_pending = False
    previous_original = doc.tokens[0].sentence_index
    for token in doc.tokens:
        if token.sentence_index != previous_original:
            boundary_pending = True
        previous_original = token.sentence_index
        if boundary_pending:
            sentence_index += 1
            boundary_pending = False
        new_tokens.append(token._replace(sentence_index=sentence_index))
        if token.surface == ".":
            boundary_pending = True
    return Document(doc.id, tuple(new_tokens))


def write_vertical(docs) -> str:
    """Serialize documents back to vertical format; ``load_vertical`` is
    the exact inverse for output produced here."""
    out: list[str] = []
    for doc in docs:
        out.append(f"# doc: {doc.id}")
        previous_sentence = None
        for token in doc.tokens:
            if previous_sentence is not None and token.sentence_index != previous_sentence:
                out.append("")
            previous_sentence = token.sentence_index
            if token.pos is None:
                out.append(f"{token.surface}\t{token.lemma}")
            else:
                out.append(f"{token.surface}\t{token.lemma}\t{token.pos}")
        out.append("")
    return "\n".join(out) + ("\n" if out else "")


def resegmented(docs):
    return [resegment_sentences(d) for d in docs]


def reference_givenness_table(records, classified):
    """The givenness table as a flat scan: for every row and every record of
    the row's variant, test every classified mention for the record's
    document and for containment in one of the part's spans. ``classified``
    is one flat list of (mention, category) pairs over all documents.
    Returns ``(part, variant, total, {category: count})`` per row in the
    standard order."""
    rows = []
    for part, variant in (("rc", Variant.IN_SITU), ("matrix", Variant.IN_SITU),
                          ("rc", Variant.EXTRAPOSED), ("matrix", Variant.EXTRAPOSED)):
        by_category = {category: 0 for category in SalienceCategory}
        total = 0
        for record in records:
            if record.variant is not variant:
                continue
            spans = [record.rc_span] if part == "rc" else list(record.matrix_spans)
            for mention, category in classified:
                if mention.doc_id != record.doc_id:
                    continue
                for span in spans:
                    if span.start <= mention.start and mention.end <= span.end:
                        by_category[category] += 1
                        total += 1
                        break
        rows.append((part, variant, total, by_category))
    return rows


def _reference_classify_mention(
    history: Sequence[ReferentMention],
    mention: ReferentMention,
    window: int = SALIENCE_WINDOW,
    count_distinct: bool = False,
) -> SalienceCategory:
    """Classify one mention given all earlier mentions of its document.

    ``count_distinct`` switches the interveners from mention events (the
    default) to distinct referents. A negative ``window`` is a
    ``ValueError`` (see :func:`check_salience_window`).
    """
    check_salience_window(window)
    last = None
    for previous in reversed(history):
        if previous.referent_id == mention.referent_id:
            last = previous
            break
    if last is None:
        return (
            SalienceCategory.INFERABLE_NEW if mention.inferable else SalienceCategory.NEW
        )
    between = [
        m for m in history
        if last.mention_ordinal < m.mention_ordinal < mention.mention_ordinal
    ]
    intervening = (
        len({m.referent_id for m in between}) if count_distinct else len(between)
    )
    if intervening > window:
        return SalienceCategory.GIVEN_NON_SALIENT
    return SalienceCategory.SALIENT_TOPIC if mention.topic else SalienceCategory.GIVEN_SALIENT


def reference_classify_document(
    mentions: Iterable[ReferentMention],
    window: int = SALIENCE_WINDOW,
    count_distinct: bool = False,
) -> list[ClassifiedMention]:
    """Sequential classification of one document's mentions in order, each
    against a fresh copy of every earlier mention."""
    ordered = sorted(mentions, key=lambda m: m.mention_ordinal)
    classified = []
    for i, mention in enumerate(ordered):
        classified.append(
            (mention, _reference_classify_mention(ordered[:i], mention, window, count_distinct))
        )
    return classified
