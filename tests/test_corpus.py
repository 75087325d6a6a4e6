import inspect

import pytest
from hypothesis import given, strategies as st

import helpers
from rcsurp import (
    Document,
    ParseError,
    load_vertical,
    load_vertical_file,
    resegment_sentences,
)
from rcsurp.accommodation import accommodation_factors
from rcsurp.clauses import ClauseRecord, Span, Variant, relinearize
from rcsurp.corpus import DEFAULT_PUNCTUATION, Token
from rcsurp.ngram import count_bigrams, train_kn
from rcsurp.surprisal import annotate_document


def test_minimal_vertical():
    docs = load_vertical("# doc: d1\nder\tder\tART\nMann\tMann\tNN\n")
    assert len(docs) == 1
    doc = docs[0]
    assert len(doc.tokens) == 2
    assert [t.sentence_index for t in doc.tokens] == [0, 0]
    assert doc.tokens[0].surface == "der"
    assert doc.tokens[1].lemma == "Mann"
    assert doc.tokens[1].pos == "NN"


def test_blank_line_is_sentence_boundary():
    docs = load_vertical("# doc: d1\na\ta\n\nb\tb\n")
    doc = docs[0]
    assert [t.sentence_index for t in doc.tokens] == [0, 1]


def test_single_column_is_parse_error():
    with pytest.raises(ParseError) as exc:
        load_vertical("# doc: d1\nMann\n")
    assert "line 2" in str(exc.value)


def test_too_many_columns_is_parse_error():
    with pytest.raises(ParseError):
        load_vertical("# doc: d1\na\tb\tc\td\n")


def test_duplicate_doc_id_is_error():
    with pytest.raises(ParseError) as exc:
        load_vertical("# doc: d1\na\ta\n# doc: d1\nb\tb\n")
    assert "duplicate" in str(exc.value)


def test_empty_source_is_empty_sequence():
    assert load_vertical("") == []


def test_token_before_header_is_error():
    with pytest.raises(ParseError):
        load_vertical("a\ta\n")


def test_empty_lemma_for_word_is_error():
    with pytest.raises(ParseError):
        load_vertical("# doc: d1\nMann\t\n")


def test_comments_ignored():
    docs = load_vertical("# doc: d1\n# a comment\na\ta\n")
    assert len(docs[0].tokens) == 1


def test_punctuation_has_no_position():
    docs = load_vertical("# doc: d1\na\ta\n/\t/\nb\tb\n")
    tokens = docs[0].tokens
    assert [t.is_punctuation for t in tokens] == [False, True, False]
    assert [t.doc_position for t in tokens] == [0, None, 1]


def test_positions_dense_over_words():
    docs = load_vertical(
        "# doc: d1\na\ta\n.\t.\n\nb\tb\nc\tc\n,\t,\nd\td\n"
    )
    words = docs[0].word_tokens()
    assert [t.doc_position for t in words] == list(range(len(words)))


def test_loader_marks_punctuation_surfaces():
    tokens = load_vertical("# doc: d\n/\t/\n...\t...\na.\ta.\n")[0].tokens
    assert [t.is_punctuation for t in tokens] == [True, True, False]


# Surfaces mix characters of the set with arbitrary ones, so both outcomes
# are drawn often. A surface with a tab would split its line, and one that
# starts with ``#`` would make it a comment.
@given(
    st.text(st.sampled_from(sorted(DEFAULT_PUNCTUATION)) | st.characters(), min_size=1)
    .filter(lambda s: "\t" not in s and not s.startswith("#"))
)
def test_loader_punctuation_is_all_characters_in_set(surface):
    (token,) = load_vertical(["# doc: d\n", f"{surface}\tl\n"])[0].tokens
    assert token.is_punctuation == all(ch in DEFAULT_PUNCTUATION for ch in surface)


# --- Token and Document semantics ------------------------------------------

TOKEN_FIELDS = ("surface", "lemma", "pos", "doc_position", "sentence_index", "is_punctuation")

PINNED_TEXT = "# doc: d1\nder\tder\tART\nMann\tMann\tNN\n/\t\n\nder\tder\n# doc: d2\nb\tb\n"


def test_token_fields_in_order():
    assert tuple(inspect.signature(Token).parameters) == TOKEN_FIELDS
    token = Token("Mann", "mann", "NN", 3, 1, False)
    assert tuple(getattr(token, f) for f in TOKEN_FIELDS) == ("Mann", "mann", "NN", 3, 1, False)


def test_token_attribute_assignment_raises():
    token = load_vertical(PINNED_TEXT)[0].tokens[0]
    for field in TOKEN_FIELDS:
        with pytest.raises(AttributeError):
            setattr(token, field, "x")
    assert token == Token("der", "der", "ART", 0, 0, False)


def test_two_loads_give_equal_documents_with_equal_hashes():
    first, second = load_vertical(PINNED_TEXT), load_vertical(PINNED_TEXT)
    assert first == second
    assert [hash(d) for d in first] == [hash(d) for d in second]
    assert [hash(t) for t in first[0].tokens] == [hash(t) for t in second[0].tokens]
    # Build the cached word view on one side only: it stays out of
    # equality and hashing.
    first[0].word_tokens()
    assert "_words" in vars(first[0]) and "_words" not in vars(second[0])
    assert first == second and hash(first[0]) == hash(second[0])


def test_token_equals_the_plain_tuple_of_its_fields():
    token = Token("Mann", "mann", "NN", 3, 1, False)
    assert token == ("Mann", "mann", "NN", 3, 1, False)
    assert hash(token) == hash(("Mann", "mann", "NN", 3, 1, False))


def test_loaded_and_renumbered_tokens_are_tokens():
    # A plain tuple of the same fields would pass every equality check, so
    # look at the type itself, and read the fields by name. Token lines
    # repeat, some are punctuation, and re-segmentation moves six tokens
    # to new sentences over the same rows.
    text = (
        "# doc: d1\nder\tder\tART\nMann\tMann\n.\t.\t$.\nder\tder\tART\n/\t\n"
        "\nMann\tMann\nder\tder\tART\n.\t.\t$.\nsagt\tsagen\n# doc: d2\nder\tder\tART\n"
    )
    docs = load_vertical(text)
    renumbered = [resegment_sentences(doc) for doc in docs]
    loaded = [t for doc in docs for t in doc.tokens]
    assert all(again._rows is doc._rows for doc, again in zip(docs, renumbered))
    moved = [
        after for doc, again in zip(docs, renumbered)
        for before, after in zip(doc.tokens, again.tokens)
        if after.sentence_index != before.sentence_index
    ]
    assert len(loaded) == 10 and sum(t.is_punctuation for t in loaded) == 3
    assert len(moved) == 6
    for token in loaded + moved:
        assert type(token) is Token
        assert tuple(getattr(token, field) for field in TOKEN_FIELDS) == tuple(token)
    assert [t.sentence_index for t in moved] == [1, 1, 2, 2, 2, 3]


# --- loader against the builder oracle --------------------------------------

# Few distinct token lines, so most lines repeat one seen before. They
# include punctuation with an empty lemma and an empty third column.
_valid_lines = [
    "der\tder\tART", "Mann\tMann\tNN", "sagt\tsagen", "gut\tgut\t",
    "/\t/", "/\t", ".\t.\t$.", ".\t\t$.", "-\t-",
]
# ``None`` opens a new document with a fresh id. Every line of blanks,
# tabs and carriage returns is a blank line.
_structure_lines = ["", "", "  ", "\t", " \t ", "\r", "# a comment", None, None]
# Each breaks one check; "Mann" and "Mann\t" repeat a valid line's surface.
_malformed_lines = [
    "Mann", "a\tb\tc\td", "\tder", "Mann\t", "sagt\t\tVVFIN", "# doc:", "# doc: d0",
    "x\t</s>",
]


@given(
    st.booleans(),
    st.lists(st.sampled_from(_valid_lines + _structure_lines), max_size=60),
    st.one_of(st.none(), st.tuples(st.sampled_from(_malformed_lines), st.integers(0, 60))),
    st.sampled_from(["\n", "\r\n"]),
)
def test_loader_matches_builder_oracle(header, lines, malformed, newline):
    ids = iter(range(1, len(lines) + 1))
    lines = (["# doc: d0"] if header else []) + [
        f"# doc: d{next(ids)}" if line is None else line for line in lines
    ]
    if malformed is not None:
        bad, at = malformed
        lines.insert(min(at, len(lines)), bad)
    text = newline.join(lines)
    try:
        expected = helpers.reference_load_vertical(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            load_vertical(text)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
    else:
        docs = load_vertical(text)
        assert docs == expected
        assert all(_numbered_densely(doc) for doc in docs)


def test_parsed_lines_do_not_leak_across_calls():
    # Each call parses its lines afresh, so its tokens share no strings with
    # an earlier call's, and a line that parsed before is checked again.
    text = "# doc: d\nMann\tMann\n-\t-\nb\tb\n-\t-\n"
    first, second = (load_vertical(text) for _ in range(2))
    assert first == second == helpers.reference_load_vertical(text)
    assert [t.doc_position for t in second[0].tokens] == [0, 1, 2, 3]
    assert first[0].tokens[0].surface is not second[0].tokens[0].surface
    no_lemma = "# doc: d\n-\t\na\ta\n-\t\n"
    with pytest.raises(ParseError, match="line 2: empty lemma for word token '-'"):
        load_vertical(no_lemma)


def test_repeated_lines_share_their_strings():
    doc = load_vertical("# doc: d\nder\tder\tART\nMann\tMann\n\nder\tder\tART\n")[0]
    first, _, again = doc.tokens
    assert first == again._replace(doc_position=0, sentence_index=0)
    assert first.surface is again.surface and first.pos is again.pos


def test_leading_byte_order_mark_is_accepted(tmp_path):
    text = "# doc: d1\nder\tder\tART\nMann\tMann\n"
    plain, marked = tmp_path / "plain.vert", tmp_path / "bom.vert"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load_vertical_file(marked) == load_vertical_file(plain) == load_vertical(text)


def test_invalid_utf8_is_hard_error(tmp_path):
    path = tmp_path / "bad.vert"
    path.write_bytes(b"# doc: d1\n\xff\xfe\ta\n")
    with pytest.raises(UnicodeDecodeError):
        load_vertical_file(path)


# --- re-segmentation --------------------------------------------------------

def _doc(*sentences: list[str]) -> Document:
    lines = ["# doc: d"]
    for sentence in sentences:
        lines.extend(f"{w}\t{w}" for w in sentence)
        lines.append("")
    return load_vertical("\n".join(lines))[0]


def _numbered_densely(doc: Document) -> bool:
    """Sentence indices in token order start at 0 and step by 0 or 1."""
    indices = [t.sentence_index for t in doc.tokens]
    return indices[:1] in ([], [0]) and all(
        b - a in (0, 1) for a, b in zip(indices, indices[1:])
    )


def test_resegment_splits_at_period():
    doc = resegment_sentences(_doc(["a", ".", "b"]))
    assert [t.sentence_index for t in doc.tokens] == [0, 0, 1]


def test_resegment_without_period_is_identity():
    doc = _doc(["a", "b"], ["c"])
    assert resegment_sentences(doc) == doc


def test_resegment_consecutive_periods():
    doc = resegment_sentences(_doc(["a", ".", ".", "b"]))
    assert [t.sentence_index for t in doc.tokens] == [0, 0, 1, 2]


def test_resegment_preserves_original_boundaries():
    doc = resegment_sentences(_doc(["a", "b"], ["c"]))
    assert [t.sentence_index for t in doc.tokens] == [0, 0, 1]


_words = st.lists(
    st.sampled_from(["a", "b", "c", ".", "/", "d"]), min_size=1, max_size=30
)


@given(_words, st.data())
def test_resegment_idempotent_and_conserving(words, data):
    # random sentence breaks over a random token stream
    lines = ["# doc: d"]
    for w in words:
        lines.append(f"{w}\t{w}")
        if data.draw(st.booleans()):
            lines.append("")
    doc = load_vertical("\n".join(lines))[0]
    once = resegment_sentences(doc)
    assert resegment_sentences(once) == once
    assert len(once.tokens) == len(doc.tokens)
    assert [t.lemma for t in once.tokens] == [t.lemma for t in doc.tokens]


# "" stands for a blank line; a "." not followed by one ends a sentence
# only after re-segmentation.
_stream = st.lists(st.sampled_from(["a", "b", ".", "/", "c", ""]), max_size=40)


@given(_stream)
def test_resegment_matches_copying_oracle(stream):
    lines = ["# doc: d"] + [f"{w}\t{w}" if w else "" for w in stream]
    doc = load_vertical("\n".join(lines))[0]
    fast = resegment_sentences(doc)
    oracle = helpers.reference_resegment(doc)
    assert fast == oracle
    assert fast.word_tokens() == oracle.word_tokens()
    assert _numbered_densely(fast)
    if [t.sentence_index for t in oracle.tokens] == [t.sentence_index for t in doc.tokens]:
        assert fast is doc
    else:
        # Only the sentence starts are new; the rows are the input's.
        assert fast._rows is doc._rows


def test_hand_built_document_rejects_a_skipped_sentence_index():
    # The loader numbers sentences densely from 0, and a hand-built
    # document must too.
    a, b = (Token(w, w, None, i, 0, False) for i, w in enumerate("ab"))
    with pytest.raises(ValueError, match=r"token 1: .* is \(2, 1\), expected \(1, 1\)"):
        Document("d", (a, b._replace(sentence_index=2)))


_DENSE = load_vertical("# doc: d\na\ta\nb\tb\n/\t/\n\nc\tc\na\ta\n")[0].tokens


@pytest.mark.parametrize("tokens", [
    _DENSE[1:],  # word positions from 1
    _DENSE[:3] + _DENSE[4:],  # a gap in the word positions
    _DENSE[:2] + (_DENSE[2]._replace(doc_position=2),) + _DENSE[3:],  # punctuation with one
    (_DENSE[0]._replace(doc_position=None),) + _DENSE[1:],  # a word without one
    tuple(t._replace(sentence_index=t.sentence_index + 1) for t in _DENSE),  # sentences from 1
    # Were it accepted, ``relinearize`` of ``Span(1, 2)`` would read "c" at position 1.
    load_vertical("# doc: d\na\ta\nb\tb\nc\tc\na\ta\n")[0].tokens[1:],
], ids=["from-one", "gap", "punctuation-position", "word-without-position",
        "sentence-from-one", "relinearize"])
def test_hand_built_document_must_be_numbered_as_loaded(tokens):
    with pytest.raises(ValueError, match="document 'd', token "):
        Document("d", tokens)


@pytest.mark.parametrize("lemma", ["", "<s>", "</s>", "<unk>"])
def test_hand_built_document_checks_word_lemmas_as_the_loader_does(lemma):
    # The rule holds for word tokens; a punctuation token may carry any lemma.
    tokens = (Token("a", "a", None, 0, 0, False), Token("b", lemma, None, 1, 0, False))
    with pytest.raises(ValueError, match="^document 'd', token 1: .* word token 'b'$"):
        Document("d", tokens)
    punctuation = Token("/", lemma, None, None, 0, True)
    assert Document("d", (tokens[0], punctuation)).tokens == (tokens[0], punctuation)


def test_hand_built_document_holds_its_own_tokens():
    # The document builds its tokens from its rows, as a loaded one does,
    # and keeps nothing of the tuple it was given.
    given = [tuple(t) for t in _DENSE]
    doc = Document("d", tuple(given))
    assert doc.tokens == _DENSE and all(type(t) is Token for t in doc.tokens)
    assert doc == load_vertical("# doc: d\na\ta\nb\tb\n/\t/\n\nc\tc\na\ta\n")[0]


def test_empty_hand_built_document():
    doc = Document("a", ())
    assert doc.tokens == () and doc._rows == () and doc._starts == ()
    assert doc.word_count() == 0 and doc._word_columns.contexts == []


# --- round trip -------------------------------------------------------------

_token_lines = st.lists(
    st.tuples(
        st.sampled_from(["der", "Mann", "sagt", "/", ".", "gut"]),
        st.one_of(st.none(), st.sampled_from(["ART", "NN", "VVFIN"])),
    ),
    min_size=1,
    max_size=25,
)


@given(_token_lines, st.data())
def test_write_load_round_trip(token_lines, data):
    lines = ["# doc: d0"]
    for surface, pos in token_lines:
        lines.append(f"{surface}\t{surface.lower()}" + (f"\t{pos}" if pos else ""))
        if data.draw(st.booleans()):
            lines.append("")
    docs = load_vertical("\n".join(lines))
    assert load_vertical(helpers.write_vertical(docs)) == docs


def test_round_trip_multiple_documents():
    docs = load_vertical(
        "# doc: d1\na\ta\tX\n\nb\tb\n# doc: d2\nc\tc\n"
    )
    assert load_vertical(helpers.write_vertical(docs)) == docs


# --- word view --------------------------------------------------------------

# A document's lemma stream is its word view: ``word_tokens()``.

def test_lemma_stream_filters_punctuation():
    doc = _doc(["a", "/", "b"])
    assert [t.lemma for t in doc.word_tokens()] == ["a", "b"]
    assert doc.word_count() == 2


def test_lemma_stream_positions():
    doc = _doc(["x", "/", "y"])
    assert [(t.lemma, t.doc_position, t.sentence_index) for t in doc.word_tokens()] == [
        ("x", 0, 0),
        ("y", 1, 0),
    ]


def test_word_tokens_empty_document():
    doc = load_vertical("# doc: d1\n")[0]
    assert doc.word_tokens() == ()
    assert doc.word_count() == 0


@given(_words, st.data())
def test_word_view_is_the_punctuation_filter(words, data):
    lines = ["# doc: d"]
    for w in words:
        lines.append(f"{w}\t{w}")
        if data.draw(st.booleans()):
            lines.append("")
    doc = load_vertical("\n".join(lines))[0]
    once = resegment_sentences(doc)
    for d in (doc, once):
        expected = tuple(t for t in d.tokens if not t.is_punctuation)
        assert d.word_tokens() == expected
        assert d.word_count() == len(expected)
        assert [t.doc_position for t in expected] == list(range(len(expected)))
    # ``once`` now holds its built view and a fresh copy does not: the
    # view stays out of equality and hashing.
    fresh = Document(once.id, once.tokens)
    assert fresh == once and hash(fresh) == hash(once)


# --- word columns of loaded rows against hand-built tokens ------------------

# Token lines with punctuation among the words, a "." inside sentences,
# POS tags on some, and an empty lemma on punctuation; comments, runs of
# blank lines (one only spaces) and further document headers between them.
_column_lines = st.sampled_from([
    "der\tder\tART", "Mann\tMann\tNN", "sagt\tsagen", "gut\tgut\tADJD", "Herr\tHerr",
    ".\t.\t$.", ".\t", "/\t/", ",\t,", "# a comment", "", "", "   ", None,
])
_COLUMN_MODEL = train_kn(count_bigrams(load_vertical(
    "# doc: m\nder\tder\nMann\tMann\nsagt\tsagen\n\nHerr\tHerr\nsagt\tsagen\ngut\tgut\n"
)), discount=0.5)


def _records(n, data):
    """A valid record of each variant over ``n`` words, drawn from ``data``:
    matrix ``[a, b)``, relative clause ``[b, c)`` and, in situ, the rest of
    the matrix from ``c``; none when there are fewer than three words."""
    if n < 3:
        return []
    a = data.draw(st.integers(0, n - 3))
    b = data.draw(st.integers(a + 1, n - 2))
    c = data.draw(st.integers(b + 1, n))
    attachment = data.draw(st.integers(a + 1, b))
    records = [ClauseRecord("x", "d", Variant.EXTRAPOSED, (Span(a, b),), Span(b, c), attachment)]
    if c < n:
        records.append(
            ClauseRecord("i", "d", Variant.IN_SITU, (Span(a, b), Span(c, n)), Span(b, c), b))
    return records


def _column_results(doc, records):
    """Everything the pipeline reads from a document's word columns."""
    return (
        doc.word_count(),
        doc._word_columns.contexts,
        annotate_document(_COLUMN_MODEL, doc),
        accommodation_factors(doc),
        [relinearize(r, doc, target) for r in records for target in Variant],
    )


@given(st.lists(_column_lines, max_size=50), st.sampled_from(["\n", "\r\n"]), st.data())
def test_loaded_rows_read_like_hand_built_tokens(lines, newline, data):
    ids = iter(range(1, len(lines) + 1))
    text = newline.join(["# doc: d0"] + [
        f"# doc: d{next(ids)}" if line is None else line for line in lines
    ]) + newline
    for loaded in load_vertical(text):
        once = resegment_sentences(loaded)
        for doc in (loaded,) if once is loaded else (loaded, once):
            records = _records(doc.word_count(), data)
            got = _column_results(doc, records)
            # The columns are read from the rows: no token was built.
            assert "tokens" not in vars(doc)
            hand = Document(doc.id, doc.tokens)
            assert doc == hand and hash(doc) == hash(hand)
            assert hand._rows == doc._rows and hand._starts == doc._starts
            assert got == _column_results(hand, records)
            assert got[1] == helpers.reference_contexts(hand)
            assert got[2] == helpers.reference_annotate_document(_COLUMN_MODEL, hand)


# --- the bigram context rule --------------------------------------------------

@pytest.mark.parametrize("sentences, expected", [
    ((), []),
    ((["."],), []),
    ((["a", "/", "b"],), ["<s>", "a"]),
    ((["a", "."], [","], ["b", ".", "c"]), ["<s>", "<s>", "b"]),
], ids=["no-sentence", "punctuation-only", "transparent", "mixed"])
def test_context_column_of_hand_built_sentences(sentences, expected):
    tokens, position = [], 0
    for index, sentence in enumerate(sentences):
        for surface in sentence:
            punct = surface in DEFAULT_PUNCTUATION
            tokens.append(Token(surface, surface, None, None if punct else position, index, punct))
            position += not punct
    doc = Document("d", tuple(tokens))
    assert doc._word_columns.contexts == helpers.reference_contexts(doc) == expected
