import random

import pytest
from hypothesis import given, strategies as st

import helpers
from rcsurp import Document, Token, count_bigrams, export_arpa, import_arpa, load_vertical, train_kn
from rcsurp.errors import ParseError
from rcsurp.ngram import END, START, UNK, _fmt


@pytest.fixture
def toy_model():
    return train_kn(count_bigrams(helpers.toy_documents()), discount=0.5)


def _all_pairs(model):
    words = model.vocabulary.words() + ["zzz-unknown"]
    for v in words:
        for w in words:
            yield v, w


def test_round_trip_preserves_probabilities(toy_model):
    restored = import_arpa(export_arpa(toy_model))
    for v, w in _all_pairs(toy_model):
        assert restored.prob(v, w) == pytest.approx(toy_model.prob(v, w), abs=1e-6)


def test_round_trip_anchor(toy_model):
    restored = import_arpa(export_arpa(toy_model))
    assert restored.prob("cat", "sat") == pytest.approx(1 / 3, abs=1e-6)


def test_second_export_byte_identical(toy_model):
    first = export_arpa(toy_model)
    second = export_arpa(import_arpa(first))
    assert second == first
    third = export_arpa(import_arpa(second))
    assert third == second


def test_round_trip_larger_corpus():
    rng = random.Random(5)
    vocab = [f"w{i}" for i in range(40)]
    lines = ["# doc: d"]
    for _ in range(120):
        for _ in range(rng.randint(2, 9)):
            w = rng.choice(vocab)
            lines.append(f"{w}\t{w}")
        lines.append("")
    model = train_kn(count_bigrams(load_vertical("\n".join(lines))))
    text = export_arpa(model)
    restored = import_arpa(text)
    for v, w in _all_pairs(model):
        assert restored.prob(v, w) == pytest.approx(model.prob(v, w), abs=1e-6)
    assert export_arpa(restored) == text


def test_import_accepts_entries_in_any_order(toy_model):
    # The reader builds the vocabulary from the unigram table, so the
    # reserved symbols need not come first and entries need not be sorted.
    text = export_arpa(toy_model)
    lines = text.splitlines()
    rng = random.Random(3)
    for section in ("\\1-grams:", "\\2-grams:"):
        start = lines.index(section) + 1
        end = lines.index("", start)
        entries = lines[start:end]
        # Shuffle until no line of a reserved symbol (or of a bigram whose
        # context is one) comes first.
        while entries[0].split("\t")[1].split(" ")[0] in (START, END, UNK):
            rng.shuffle(entries)
        lines[start:end] = entries
    restored = import_arpa("\n".join(lines) + "\n")
    for v, w in _all_pairs(toy_model):
        assert restored.prob(v, w) == pytest.approx(toy_model.prob(v, w), abs=1e-6)
    assert export_arpa(restored) == text


def test_unigram_log10_semantics():
    text = "\n".join([
        "\\data\\", "ngram 1=4", "ngram 2=1", "",
        "\\1-grams:",
        f"-99.000000\t{START}\t0.000000",
        f"-0.301030\t{END}\t0.000000",
        f"-2.000000\t{UNK}\t0.000000",
        "-1.000000\tcat\t0.000000",
        "",
        "\\2-grams:",
        f"-0.500000\tcat {END}",
        "",
        "\\end\\",
    ])
    model = import_arpa(text)
    assert model.string_tables()[0]["cat"] == pytest.approx(0.1, abs=1e-12)
    assert model.prob("never-seen", "cat") == pytest.approx(0.1, abs=1e-12)
    assert model.prob("cat", END) == pytest.approx(10 ** -0.5, abs=1e-12)


def test_export_layout(toy_model):
    text = export_arpa(toy_model)
    lines = text.splitlines()
    assert lines[0] == "\\data\\"
    assert lines[1] == "ngram 1=7"  # 4 lemmas + 3 reserved
    assert lines[2] == "ngram 2=6"
    assert "\\1-grams:" in lines
    assert "\\2-grams:" in lines
    assert lines[-1] == "\\end\\"
    # 6 decimal places, tab-separated, bigram words joined by a space
    gram2 = lines[lines.index("\\2-grams:") + 1]
    log_field, pair = gram2.split("\t")
    assert len(log_field.split(".")[1]) == 6
    assert len(pair.split(" ")) == 2


def test_export_rejects_lemmas_with_whitespace():
    docs = load_vertical("# doc: d\nich\tich\nzu\tzu Hause\nda\tda\u00a0drin\nbin\tsein\n")
    model = train_kn(count_bigrams(docs), discount=0.5)
    with pytest.raises(ValueError, match="whitespace") as info:
        export_arpa(model)
    message = str(info.value)
    assert repr("zu Hause") in message
    assert repr("da\u00a0drin") in message
    assert repr("ich") not in message


def test_fmt_writes_no_negative_zero():
    assert _fmt(-5e-7) == _fmt(-0.0) == "0.000000"
    assert _fmt(-5.000000000000001e-07) == "-0.000001"


# --- exporter against the per-entry loop ------------------------------------

_WHITESPACE = [chr(c) for c in range(0x110000) if chr(c).isspace()]
_non_ascii = st.text(
    st.characters(min_codepoint=0x80, blacklist_categories=("Cs",)), min_size=1, max_size=3
).filter(lambda text: not any(ch.isspace() for ch in text))
# Plain string order puts most of these before or among "</s>", "<s>" and "<unk>".
_near_reserved = st.sampled_from(["!", "0", ";", "<", "<a", "<t", "<s", "</", "=", "a"])
_plain_lemmas = st.one_of(_near_reserved, _non_ascii)
_spaced_lemmas = st.builds(
    lambda head, space, tail: head + space + tail,
    st.sampled_from(["", "zu", "<a"]), st.sampled_from(_WHITESPACE), st.sampled_from(["", "b"]),
)


def _model_of(sentences, discount):
    """The model trained on ``sentences``, built as tokens directly so that
    lemmas may hold characters the vertical format cannot carry."""
    tokens, position = [], 0
    for index, sentence in enumerate(sentences):
        for lemma in sentence:
            tokens.append(Token("w", lemma, None, position, index, False))
            position += 1
    document = Document("d", tuple(tokens))
    return train_kn(count_bigrams([document]), discount=discount)


_corpus = st.lists(st.lists(_plain_lemmas, min_size=1, max_size=6), min_size=1, max_size=6)
_discount = st.floats(0.01, 0.99)


@given(_corpus, _discount, st.randoms(use_true_random=False))
def test_export_matches_reference_for_trained_and_imported_models(sentences, discount, rng):
    model = _model_of(sentences, discount)
    text = export_arpa(model)
    assert text == helpers.reference_export_arpa(model)
    # The same model read back from text whose entries are shuffled.
    lines = text.splitlines()
    for section in ("\\1-grams:", "\\2-grams:"):
        start = lines.index(section) + 1
        end = lines.index("", start)
        entries = lines[start:end]
        rng.shuffle(entries)
        lines[start:end] = entries
    imported = import_arpa("\n".join(lines) + "\n")
    assert export_arpa(imported) == helpers.reference_export_arpa(imported)


@given(
    st.lists(st.lists(st.one_of(_plain_lemmas, _spaced_lemmas), min_size=1, max_size=6),
             min_size=1, max_size=6),
    _discount,
)
def test_export_rejects_whitespace_as_reference_does(sentences, discount):
    model = _model_of(sentences, discount)
    try:
        expected = helpers.reference_export_arpa(model)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            export_arpa(model)
        assert str(got.value) == str(exc)
    else:
        assert export_arpa(model) == expected


def test_import_missing_data_header():
    with pytest.raises(ParseError):
        import_arpa("\\1-grams:\n-1.0\ta\t0.0\n\\end\\\n")


def test_import_truncated(toy_model):
    text = export_arpa(toy_model)
    truncated = text[: text.index("\\2-grams:") + 12]
    with pytest.raises(ParseError):
        import_arpa(truncated)


def test_import_non_numeric_field(toy_model):
    text = export_arpa(toy_model).replace("-0.477121", "oops", 1)
    with pytest.raises(ParseError) as exc:
        import_arpa(text)
    assert "line" in str(exc.value)


def _set_first_entry_field(text, section, column, value):
    """Replace one field of the first entry under ``section``; returns the
    new text and that entry's line number."""
    lines = text.splitlines()
    i = lines.index(section) + 1
    fields = lines[i].split("\t")
    fields[column] = value
    lines[i] = "\t".join(fields)
    return "\n".join(lines) + "\n", i + 1


@pytest.mark.parametrize("section, column, value", [
    ("\\1-grams:", 0, "400.0"),
    ("\\2-grams:", 0, "0.5"),
    ("\\1-grams:", 2, "400.0"),
], ids=["unigram-overflow", "bigram-above-zero", "backoff-overflow"])
def test_import_out_of_range_log10(toy_model, section, column, value):
    text, lineno = _set_first_entry_field(export_arpa(toy_model), section, column, value)
    with pytest.raises(ParseError, match=f"line {lineno}:"):
        import_arpa(text)


def test_import_positive_backoff_weight(toy_model):
    # A positive log10 backoff weight is accepted while every pair that backs
    # off through it stays in (0, 1]; 10 ** 0.5 lifts p(</s> | <s>) above 1.
    text, _ = _set_first_entry_field(export_arpa(toy_model), "\\1-grams:", 2, "0.1")
    assert import_arpa(text).string_tables()[1][START] == pytest.approx(10 ** 0.1)
    text, _ = _set_first_entry_field(export_arpa(toy_model), "\\1-grams:", 2, "0.5")
    with pytest.raises(ParseError, match="^probability of '</s>' after '<s>' must be in "):
        import_arpa(text)


def test_import_inconsistent_counts(toy_model):
    text = export_arpa(toy_model).replace("ngram 2=6", "ngram 2=7")
    with pytest.raises(ParseError):
        import_arpa(text)


def test_import_rejects_higher_orders():
    text = "\\data\\\nngram 1=1\nngram 2=0\nngram 3=0\n\\end\\\n"
    with pytest.raises(ParseError):
        import_arpa(text)


def test_import_requires_reserved_symbols():
    text = "\n".join([
        "\\data\\", "ngram 1=1", "ngram 2=0", "",
        "\\1-grams:", "-1.000000\tcat\t0.000000", "",
        "\\2-grams:", "", "\\end\\",
    ])
    with pytest.raises(ParseError):
        import_arpa(text)


def _arpa(unigrams, bigrams, declared=None):
    """ARPA text with the given unigram words and bigram pairs, every value
    log10 -0.5; ``declared`` overrides the header's unigram and bigram counts."""
    n1, n2 = declared or (len(unigrams), len(bigrams))
    return "\n".join([
        "\\data\\", f"ngram 1={n1}", f"ngram 2={n2}", "",
        "\\1-grams:", *[f"{'-99.000000' if w == START else '-0.500000'}\t{w}\t0.000000"
                         for w in unigrams], "",
        "\\2-grams:", *[f"-0.500000\t{v} {w}" for v, w in bigrams], "",
        "\\end\\", "",
    ])


@pytest.mark.parametrize("text, message", [
    (_arpa([START, END, UNK, "a"], [("a", END)], declared=(5, 1)),
     "declared 5 unigrams but found 4"),
    (_arpa([START, END, UNK, "a"], [("a", END), ("a", "a")], declared=(4, 3)),
     "declared 3 bigrams but found 2"),
    (_arpa([START, END, "a"], [("a", END)]),
     "reserved symbol '<unk>' missing from unigrams"),
    (_arpa([START, END, UNK, "a"], [("a", END), ("a", "zzz"), ("yyy", "a")]),
     "bigram ('a', 'zzz') uses an undeclared word"),
    # The checks run in that order: each file below also fails a later one.
    (_arpa([START, END, UNK, "a"], [("a", "zzz")], declared=(4, 2)),
     "declared 2 bigrams but found 1"),
    (_arpa([START, END, "a"], [("a", UNK), ("a", "zzz")]),
     "reserved symbol '<unk>' missing from unigrams"),
], ids=["unigram-count", "bigram-count", "reserved", "undeclared-word",
        "count-before-undeclared", "reserved-before-undeclared"])
def test_import_validation_messages_and_order(text, message):
    with pytest.raises(ParseError) as exc:
        import_arpa(text)
    assert str(exc.value) == message


def test_import_rejects_a_repeated_declaration(toy_model):
    # The later declaration would otherwise silently win.
    text = export_arpa(toy_model).replace("ngram 2=6", "ngram 2=99\nngram 2=6")
    with pytest.raises(ParseError, match="line 4: repeated ngram 2 declaration"):
        import_arpa(text)


def test_zero_power_is_converted_per_line(toy_model):
    # "-99.000000" is the start symbol's valid zero mass on line 6, and the
    # same text on a later word's unigram line is that line's error.
    text = export_arpa(toy_model)
    assert import_arpa(text).string_tables()[0][START] == 0.0
    lines = text.splitlines()
    assert lines[5] == "-99.000000\t<s>\t-0.602060"
    assert lines[8] == "-0.778151\tcat\t-0.301030"
    lines[8] = "-99.000000\tcat\t-0.301030"
    with pytest.raises(ParseError, match=r"line 9: log10 value '-99\.000000' of 'cat' gives zero mass"):
        import_arpa("\n".join(lines) + "\n")


def test_repeated_bad_bigram_field_is_reported_at_its_first_line(toy_model):
    # Lines 16 and 17 share the text "-0.477121"; so does the unigram on line 7.
    lines = export_arpa(toy_model).splitlines()
    assert lines[15:17] == ["-0.477121\tcat ran", "-0.477121\tcat sat"]
    lines[15:17] = ["0.5\tcat ran", "0.5\tcat sat"]
    with pytest.raises(ParseError, match=r"line 16: non-numeric or out-of-range log10 value '0\.5'"):
        import_arpa("\n".join(lines) + "\n")


def test_repeated_zero_bigram_field_fails_on_its_line(toy_model):
    # A zero power is never reused, not even one first met on the start
    # symbol's unigram line.
    lines = export_arpa(toy_model).splitlines()
    lines[16] = "-99.000000\tcat sat"
    with pytest.raises(ParseError, match=r"line 17: log10 value '-99\.000000' of 'cat sat' gives zero mass"):
        import_arpa("\n".join(lines) + "\n")


# --- reader against the per-line oracle -------------------------------------

# Log10 texts that fail, or that give zero mass, wherever they stand.
_BAD_LOG10 = ["oops", "", "0.5", "400", "-400", "nan", "-99.000000"]
# Mutations of one bigram entry. A shape error is reported at its line
# even where the vocabulary holds the words that the broken line splits
# into, so each may also add a unigram with an empty word or a space.
_BIGRAM_MUTATIONS = ["missing-tab", "missing-space", "extra-word", "undeclared-word"]


def _mutated(lines, kind, rng):
    """``lines`` with one mutation of ``kind`` at an entry that ``rng``
    picks; an insertion lands inside a section."""
    lines = list(lines)
    sections = ["\\2-grams:"] if kind in _BIGRAM_MUTATIONS else ["\\1-grams:", "\\2-grams:"]
    section = rng.choice(sections)
    start = lines.index(section) + 1
    end = start
    while lines[end].strip() and not lines[end].startswith("\\"):
        end += 1
    if kind in ("whitespace-line", "backslash-line"):
        filler = rng.choice([" ", "\t", " \t "]) if kind == "whitespace-line" else "\\x"
        lines.insert(rng.randint(start, end), filler)
        return lines
    if start == end:  # an empty section has no entry to change
        return lines
    i = rng.randrange(start, end)
    line = lines[i]
    if kind == "extra-tab":
        at = rng.randint(0, len(line))
        lines[i] = line[:at] + "\t" + line[at:]
    elif kind == "repeated-log10":  # one bad text on up to three entries
        text = rng.choice(_BAD_LOG10)
        column = rng.choice([0, 2] if section == "\\1-grams:" else [0])
        for j in sorted(rng.sample(range(start, end), min(3, end - start))):
            fields = lines[j].split("\t")
            fields[column] = text
            lines[j] = "\t".join(fields)
    else:
        log_p, _, words = line.partition("\t")
        v, _, w = words.partition(" ")
        extra = ""
        if kind == "missing-tab":
            lines[i] = rng.choice([log_p, line.replace("\t", " ", 1)])
        elif kind == "missing-space":
            lines[i] = rng.choice([f"{log_p}\t{v}", f"{log_p}\t{v}{w}"])
        elif kind == "extra-word":
            lines[i], extra = f"{line} zzz", f"{w} zzz"
        else:  # "undeclared-word"
            lines[i] = rng.choice([f"{log_p}\t{v} zzz", f"{log_p}\tzzz {w}"])
        if rng.random() < 0.5:
            unigrams = lines.index("\\1-grams:") + 1
            lines.insert(unigrams, f"-0.500000\t{extra}\t0.000000")
    return lines


_MUTATIONS = ["extra-tab", "whitespace-line", "backslash-line", "repeated-log10",
              *_BIGRAM_MUTATIONS]


@given(_corpus, _discount, st.lists(st.sampled_from(_MUTATIONS), max_size=3),
       st.randoms(use_true_random=False))
def test_import_matches_reference_on_mutated_models(sentences, discount, mutations, rng):
    # A mutated export reads as the per-line reader reads it: the same
    # model, or the same message at the same line.
    lines = export_arpa(_model_of(sentences, discount)).splitlines()
    for kind in mutations:
        lines = _mutated(lines, kind, rng)
    text = "\n".join(lines) + "\n"
    try:
        expected = helpers.reference_import_arpa(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            import_arpa(text)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
    else:
        assert import_arpa(text) == expected
