import io
import math
from itertools import cycle, islice
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import helpers
from rcsurp import (
    AccommodationState,
    FactorConfig,
    accommodate_document,
    accommodation,
    annotate_document,
    count_bigrams,
    factor,
    load_vertical,
    load_vertical_file,
    next_x,
    resegment_sentences,
    train_kn,
)
from rcsurp.accommodation import (
    accommodation_factors,
    load_stoplist,
    make_content_predicate,
    write_weighted_tsv,
)
from rcsurp.surprisal import SurprisalAnnotation, SurprisalEntry, annotate_sequence

GOLDEN_POSITIONS = [624, 656, 681, 702, 715, 1267, 2785]
GOLDEN_FACTORS = [4.0, 2.0, 4 / 3, 1.0, 1.0, 4 / 3, 2.0]


# --- factor function --------------------------------------------------------

def test_factor_values():
    assert factor(1) == 4.0
    assert factor(3) == 4 / 3
    assert factor(4) == 1.0  # continuous at the wearout point: 4/4 = 1
    assert factor(7) == 1.0


def test_factor_rejects_nonpositive():
    with pytest.raises(ValueError):
        factor(0)


def test_factor_custom_config():
    cfg = FactorConfig(bonus=6.0, wearout=3)
    assert factor(1, cfg) == 6.0
    assert factor(2, cfg) == 3.0
    assert factor(3, cfg) == 1.0


def test_config_validation():
    for bonus in (0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            FactorConfig(bonus=bonus)
    with pytest.raises(ValueError):
        FactorConfig(window=0)
    with pytest.raises(ValueError):
        FactorConfig(floor=5, wearout=4)
    with pytest.raises(ValueError):
        FactorConfig(floor=0)


# --- reset rule -------------------------------------------------------------

def test_next_x_within_window_increments():
    assert next_x(1, 32) == 2
    assert next_x(4, 13) == 5


def test_next_x_decay():
    assert next_x(5, 552) == 3  # two full windows elapsed
    assert next_x(3, 1518) == 2  # floored


def test_next_x_boundary_gap_decrements():
    assert next_x(3, 200) == 2
    assert next_x(5, 200) == 4
    assert next_x(1, 199) == 2


def test_next_x_rejects_bad_input():
    with pytest.raises(ValueError):
        next_x(0, 5)
    with pytest.raises(ValueError):
        next_x(2, 0)


# --- occurrence scanning ----------------------------------------------------

def test_golden_trace():
    state = AccommodationState()
    observed = [state.observe("word", p) for p in GOLDEN_POSITIONS]
    assert [x for x, _ in observed] == [1, 2, 3, 4, 5, 3, 2]
    assert [f for _, f in observed] == GOLDEN_FACTORS


def test_adjacent_mentions():
    state = AccommodationState()
    assert state.observe("w", 10) == (1, 4.0)
    assert state.observe("w", 11) == (2, 2.0)


def test_first_occurrence_gets_bonus_anywhere():
    state = AccommodationState()
    assert state.observe("fresh", 123456)[1] == 4.0


def test_lemmas_tracked_independently():
    state = AccommodationState()
    state.observe("a", 1)
    state.observe("b", 2)
    assert state.observe("a", 3)[0] == 2
    assert state.observe("b", 4)[0] == 2


def test_non_monotone_position_is_error():
    state = AccommodationState()
    state.observe("w", 10)
    with pytest.raises(ValueError, match="scanned in order"):
        state.observe("w", 10)


def test_no_decay_sequence():
    # with an effectively infinite window the factors are exactly
    # bonus/1, bonus/2, ..., then 1 forever
    cfg = FactorConfig(window=10**9)
    state = AccommodationState()
    factors = [state.observe("w", p, cfg)[1] for p in range(1, 9)]
    assert factors == [4.0, 2.0, 4 / 3, 1.0, 1.0, 1.0, 1.0, 1.0]


@st.composite
def _configs_and_streams(draw):
    """A valid ``FactorConfig`` and a stream of ``(lemma, position)`` pairs
    with increasing positions, whose steps fall on, just beside and across
    multiples of the window."""
    wearout = draw(st.integers(1, 8))
    cfg = FactorConfig(
        bonus=draw(st.floats(min_value=1e-3, max_value=1e3)),
        wearout=wearout,
        window=draw(st.integers(1, 40)),
        floor=draw(st.integers(1, wearout)),
    )
    multiple = st.integers(1, 4).map(lambda k: k * cfg.window)
    step = st.integers(1, 3) | multiple | multiple.map(lambda g: g + 1) | multiple.map(
        lambda g: max(1, g - 1)
    )
    position = draw(st.integers(0, 1000))
    stream = []
    for lemma in draw(st.lists(st.sampled_from("abc"), max_size=30)):
        position += draw(step)
        stream.append((lemma, position))
    return cfg, stream


@given(_configs_and_streams())
def test_observe_replays_next_x_and_factor(config_and_stream):
    # The public next_x and factor are the oracle of the inlined observe.
    cfg, stream = config_and_stream
    state = AccommodationState()
    replay: dict[str, tuple[int, int]] = {}
    for lemma, position in stream:
        if lemma in replay:
            previous_x, last_position = replay[lemma]
            x = next_x(previous_x, position - last_position, cfg)
        else:
            x = 1
        replay[lemma] = (x, position)
        assert state.observe(lemma, position, cfg) == (x, factor(x, cfg))


# --- content predicate ------------------------------------------------------

def _token(doc, i):
    return doc.word_tokens()[i]


def test_pos_based_predicate():
    doc = load_vertical("# doc: d\nder\tder\tART\nMann\tMann\tNN\n")[0]
    is_content = make_content_predicate()
    assert not is_content(_token(doc, 0))
    assert is_content(_token(doc, 1))


def test_stoplist_fallback_without_pos():
    doc = load_vertical("# doc: d\nund\tund\nTrost\ttrost\n")[0]
    is_content = make_content_predicate()
    assert not is_content(_token(doc, 0))  # stoplisted function word
    assert is_content(_token(doc, 1))


def test_custom_stoplist(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("# comment\nfoo\n", encoding="utf-8")
    stoplist = load_stoplist(path)
    assert "foo" in stoplist
    doc = load_vertical("# doc: d\nfoo\tfoo\nbar\tbar\n")[0]
    is_content = make_content_predicate(stoplist=stoplist)
    assert not is_content(_token(doc, 0))
    assert is_content(_token(doc, 1))


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_stoplist_read_with_or_without_byte_order_mark(bom, tmp_path):
    path = tmp_path / "stop.txt"
    path.write_bytes(bom + b"der\ndie\n")
    assert load_stoplist(path) == {"der", "die"}


# --- document weighting -----------------------------------------------------

def _trace_document():
    """One content lemma at the golden positions, distinct filler at the rest."""
    lines = ["# doc: trace"]
    targets = set(GOLDEN_POSITIONS)
    for position in range(max(GOLDEN_POSITIONS) + 1):
        if position in targets:
            lines.append("Wort\twort\tNN")
        else:
            lines.append(f"f{position}\tf{position}\tART")
    lines.append("")
    return load_vertical("\n".join(lines))[0]


def _flat_annotation(doc, bits=1.0):
    entries = tuple(
        SurprisalEntry(t.lemma, "x", 0.5, bits, t.doc_position)
        for t in doc.word_tokens()
    )
    return SurprisalAnnotation(doc.id, entries)


def _weighted_rows(doc, bits=1.0):
    """The accommodated TSV rows of a flat annotation, as column dicts."""
    annotation = _flat_annotation(doc, bits)
    buffer = io.StringIO()
    write_weighted_tsv([(annotation, accommodate_document(annotation, doc))], buffer)
    header, *rows = buffer.getvalue().splitlines()
    return [dict(zip(header.split("\t"), row.split("\t"))) for row in rows]


def test_document_trace_weighting():
    doc = _trace_document()
    annotation = _flat_annotation(doc)
    factors = accommodate_document(annotation, doc)
    target = [f for e, (_, f) in zip(annotation.entries, factors) if e.lemma == "wort"]
    assert target == GOLDEN_FACTORS
    weighted = [r["weighted_surprisal"] for r in _weighted_rows(doc) if r["lemma"] == "wort"]
    assert weighted == [f"{f:.6f}" for f in GOLDEN_FACTORS]  # all bases 1.0


def test_content_word_first_mention():
    doc = load_vertical("# doc: d\nTrost\ttrost\tNN\n")[0]
    assert accommodate_document(_flat_annotation(doc, bits=2.5), doc) == ((1, 4.0),)
    (row,) = _weighted_rows(doc, bits=2.5)
    assert (row["x"], row["weighted_surprisal"]) == ("1", "10.000000")


def test_function_word_unweighted():
    doc = load_vertical("# doc: d\nder\tder\tART\nder\tder\tART\n")[0]
    assert accommodate_document(_flat_annotation(doc, bits=3.0), doc) == ((None, 1.0),) * 2
    for row in _weighted_rows(doc, bits=3.0):
        assert (row["x"], row["factor"], row["weighted_surprisal"]) == (
            "NA", "1.000000", "3.000000"
        )


def test_weights_lie_in_factor_set():
    doc = _trace_document()
    factors = accommodate_document(_flat_annotation(doc, bits=2.0), doc)
    allowed = {4.0, 2.0, 4 / 3, 1.0}
    for (_, f), row in zip(factors, _weighted_rows(doc, bits=2.0), strict=True):
        assert f in allowed
        assert row["weighted_surprisal"] == f"{2.0 * f:.6f}"


def test_weighted_tsv_format():
    doc = load_vertical("# doc: d\nder\tder\tART\n/\t/\nTrost\ttrost\tNN\n")[0]
    buffer = io.StringIO()
    annotation = _flat_annotation(doc, bits=2.5)
    write_weighted_tsv([(annotation, accommodate_document(annotation, doc))], buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0].split("\t") == [
        "doc", "position", "lemma", "context", "prob", "surprisal_bits",
        "x", "factor", "weighted_surprisal",
    ]
    assert lines[1:] == [
        "d\t0\tder\tx\t5.000000e-01\t2.500000\tNA\t1.000000\t2.500000",
        "d\t1\ttrost\tx\t5.000000e-01\t2.500000\t1\t4.000000\t10.000000",
    ]


_factor_values = st.sampled_from([4.0, 2.0, 4 / 3, 1.0, 0.0, -0.0]) | st.floats(
    min_value=0.0, exclude_min=True, allow_infinity=False
)


# Lemma, context and document-id text: non-ASCII letters, the TSV's tab, a
# space, the brackets of the reserved symbols, the virgule and the letters of
# ``NA``, the writer's missing-value text. A fixed alphabet needs no Unicode
# character table, which Hypothesis otherwise builds on the first ``st.text()``
# of a clean checkout and counts as this test's input generation.
_TEXT_ALPHABET = "aäßſNA\t <>/"
_text = st.text(_TEXT_ALPHABET) | st.just("NA")


_TOY_MODEL = train_kn(count_bigrams(helpers.toy_documents()), discount=0.5)
_toy_lemma = st.sampled_from(["the", "cat", "sat", "ran", "zzz", "ä"])


@st.composite
def _scored_annotation(draw):
    """An annotation in the scorer's column form: a document of toy lemmas
    and virgules, or a lemma chain with or without explicit positions, or
    with positions ``range(k, k + len)``, which no public scorer gives for
    ``k != 0``."""
    if draw(st.booleans()):
        sentences = draw(st.lists(st.lists(_toy_lemma | st.just("/"), min_size=1, max_size=5),
                                  max_size=3))
        doc = load_vertical("# doc: d\n" + "\n".join(
            "".join(f"{t}\t{t}\n" for t in sentence) for sentence in sentences))[0]
        return annotate_document(_TOY_MODEL, doc)
    lemmas = draw(st.lists(_toy_lemma, min_size=1, max_size=8))
    positions = draw(st.none() | st.lists(st.integers(-5, 10**6), min_size=len(lemmas),
                                          max_size=len(lemmas)))
    annotation = annotate_sequence(
        _TOY_MODEL, lemmas, draw(_toy_lemma | st.just("<s>")), positions)
    start = draw(st.none() | st.integers(-3, 40))
    if start is None:
        return annotation
    return SurprisalAnnotation._scored(None, annotation._columns._replace(
        positions=range(start, start + len(lemmas))))


def _scored_document(doc_id, length):
    """A scored toy document of ``length`` words and its factors."""
    doc = load_vertical(f"# doc: {doc_id}\n" + "".join(
        f"{lemma}\t{lemma}\tNN\n" for lemma in islice(cycle(["the", "cat", "sat"]), length)))[0]
    annotation = annotate_document(_TOY_MODEL, doc)
    return annotation, accommodate_document(annotation, doc)


@st.composite
def _weighted_documents(draw):
    """Up to four ``(annotation, factors)`` pairs with one ``(x, factor)``
    pair per entry. An annotation is scored by the toy model, or built from
    entries with unicode lemmas. The entries' probabilities from 1e-300 to
    1, and the zeros, come from one small pool that every document draws
    from, so they repeat across documents; bits are ``-log2`` of the
    probability or a zero of either sign."""
    pool = draw(st.lists(st.floats(min_value=1e-300, max_value=1.0)
                         | st.sampled_from([0.0, -0.0]), min_size=1, max_size=4))
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            annotation = draw(_scored_annotation())
        else:
            entries = []
            for position in range(draw(st.integers(0, 8))):
                p = draw(st.sampled_from(pool))
                bits = draw(st.sampled_from([-math.log2(p) if p else math.inf, 0.0, -0.0]))
                entries.append(SurprisalEntry(draw(_text), draw(_text), p, bits, position))
            annotation = SurprisalAnnotation(draw(st.none() | _text), tuple(entries))
        factors = [(draw(st.none() | st.integers()), draw(_factor_values))
                   for _ in range(len(annotation))]
        pairs.append((annotation, tuple(factors)))
    return pairs


def _reference_written(pairs):
    buffer = io.StringIO()
    for i, (annotation, factors) in enumerate(pairs):
        helpers.reference_write_weighted_tsv(annotation, factors, buffer, header=(i == 0))
    return buffer.getvalue()


def _signed_zero_bits(doc_id):
    # One probability whose bits are 0.0 in the first row and -0.0 in the second.
    entries = (SurprisalEntry("a", "<s>", 1.0, 0.0, 0), SurprisalEntry("b", "a", 1.0, -0.0, 1))
    return SurprisalAnnotation(doc_id, entries), ((None, 1.0), (1, 4.0))


@given(_weighted_documents())
@example([])
@example([_signed_zero_bits("d1"), _signed_zero_bits("d2")])
# Positions of a longer document after a shorter one, of a chain whose
# positions are a tuple, and of chains whose positions are ranges from 3
# and from -2.
@example([_scored_document("d1", 2), _scored_document("d2", 12),
          (annotate_sequence(_TOY_MODEL, ["cat", "sat"], positions=(7, 3)), ((1, 4.0), (1, 4.0))),
          *[(SurprisalAnnotation._scored(None, annotate_sequence(
              _TOY_MODEL, ["the", "cat"])._columns._replace(positions=range(k, k + 2))),
             ((None, 1.0), (1, 4.0))) for k in (3, -2)]])
def test_weighted_tsv_matches_reference_writer(pairs):
    # Scored annotations are written from their columns before any entry is
    # built; the same rows rebuilt from the entries must write the same text.
    buffer = io.StringIO()
    write_weighted_tsv(iter(pairs), buffer)
    assert buffer.getvalue() == _reference_written(pairs)
    from_entries = io.StringIO()
    write_weighted_tsv([(SurprisalAnnotation(annotation.doc_id, annotation.entries), factors)
                        for annotation, factors in pairs], from_entries)
    assert from_entries.getvalue() == buffer.getvalue()
    for i, (annotation, factors) in enumerate(pairs):
        for misaligned in (factors[:-1], factors + ((None, 1.0),)):
            if len(misaligned) != len(factors):
                scored = pairs[:i] + [(annotation, misaligned)] + pairs[i + 1:]
                with pytest.raises(ValueError):
                    write_weighted_tsv(scored, io.StringIO())


def test_misaligned_annotation_is_error():
    doc = _trace_document()
    annotation = _flat_annotation(doc)
    shifted = SurprisalAnnotation(doc.id, tuple(
        entry._replace(doc_position=entry.doc_position + 1) for entry in annotation.entries
    ))
    # A scored document's positions are a range, here of another length.
    other = load_vertical("# doc: d\nWort\twort\tNN\n")[0]
    for broken in (SurprisalAnnotation(doc.id, annotation.entries[:-1]), shifted,
                   annotate_document(_TOY_MODEL, other)):
        with pytest.raises(ValueError, match="align"):
            accommodate_document(broken, doc)


def test_determinism():
    doc = _trace_document()
    annotation = _flat_annotation(doc)
    assert accommodate_document(annotation, doc) == accommodate_document(annotation, doc)


def test_factor_map_covers_all_words():
    doc = _trace_document()
    factors = accommodation_factors(doc)
    assert len(factors) == doc.word_count()
    assert factors[GOLDEN_POSITIONS[0]] == (1, 4.0)
    assert factors[0] == (None, 1.0)


def test_counter_ignores_function_word_occurrences():
    # the same lemma as a non-content token must not advance the counter
    doc = load_vertical(
        "# doc: d\nWort\twort\tNN\nWort\twort\tART\nWort\twort\tNN\n"
    )[0]
    factors = accommodation_factors(doc)
    assert factors[0] == (1, 4.0)
    assert factors[1] == (None, 1.0)
    assert factors[2] == (2, 2.0)


def test_default_predicate_reads_the_stoplist_once_per_process(monkeypatch):
    # Weighting each fixture document with the default predicate reads the
    # bundled stoplist once. The cache is emptied first, so that a read by
    # an earlier test does not hide one.
    corpus = Path(__file__).parent / "fixtures" / "minicorpus" / "corpus.vert"
    docs = [resegment_sentences(doc) for doc in load_vertical_file(corpus)]
    model = train_kn(count_bigrams(docs))
    calls = []
    load = accommodation.load_stoplist

    def counting_load_stoplist(*args, **kwargs):
        calls.append(args)
        return load(*args, **kwargs)

    monkeypatch.setattr(accommodation, "load_stoplist", counting_load_stoplist)
    accommodation._default_content_predicate.cache_clear()
    for doc in docs:
        accommodate_document(annotate_document(model, doc), doc)
        accommodation_factors(doc)
    assert len(docs) == 4
    assert len(calls) == 1
