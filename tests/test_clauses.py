import json
import math
import random
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rcsurp import (
    ClauseMetrics,
    ClauseRecord,
    ClauseScorer,
    Span,
    ValidationError,
    Variant,
    annotate_sequence,
    count_bigrams,
    load_vertical,
    load_vertical_file,
    parse_clause_annotations,
    relinearize,
    resegment_sentences,
    train_kn,
)
from rcsurp import accommodation
from rcsurp.accommodation import accommodation_factors
from rcsurp.clauses import (
    LINEARIZATIONS,
    MODES,
    PARTS,
    build_surprisal_table,
    render_table,
)
from rcsurp.ngram import START


def _doc_from_words(words, doc_id="d1", sentence_breaks=()):
    lines = [f"# doc: {doc_id}"]
    for i, w in enumerate(words):
        lines.append(f"{w}\t{w}\tNN")
        if i in sentence_breaks:
            lines.append("")
    return load_vertical("\n".join(lines))[0]


@pytest.fixture
def doc():
    # m1 m2 H m3 m4 r1 r2 plus a preceding word
    return _doc_from_words(["p0", "m1", "m2", "H", "m3", "m4", "r1", "r2"])


@pytest.fixture
def extraposed_record():
    return ClauseRecord("c1", "d1", Variant.EXTRAPOSED, (Span(1, 6),), Span(6, 8), 4)


@pytest.fixture
def in_situ_record():
    # attested order: m1 m2 H r1 r2 m3 m4
    return ClauseRecord(
        "c2", "d1", Variant.IN_SITU, (Span(1, 4), Span(6, 8)), Span(4, 6), 4
    )


@pytest.fixture
def model(doc):
    return train_kn(count_bigrams([doc]), discount=0.5)


# --- parsing and validation -------------------------------------------------

def _payload(**overrides):
    record = {
        "id": "r1", "doc": "d1", "variant": "extraposed",
        "matrix": [[1, 6]], "rc": [6, 8], "attachment": 4,
    }
    record.update(overrides)
    return json.dumps([record])


def test_parse_minimal_record():
    records = parse_clause_annotations(_payload())
    assert len(records) == 1
    assert records[0].variant is Variant.EXTRAPOSED
    assert records[0].rc_span == Span(6, 8)


def test_unknown_variant_rejected():
    with pytest.raises(ValidationError) as exc:
        parse_clause_annotations(_payload(variant="sideways"))
    assert "r1" in str(exc.value)


def test_in_situ_with_trailing_rc_rejected():
    payload = _payload(variant="in_situ", matrix=[[1, 4], [4, 6]], rc=[6, 8])
    with pytest.raises(ValidationError):
        parse_clause_annotations(payload)


def test_overlapping_spans_rejected():
    with pytest.raises(ValidationError):
        parse_clause_annotations(_payload(matrix=[[1, 7]]))


def test_span_outside_document_rejected(doc):
    payload = _payload(matrix=[[1, 6]], rc=[6, 99])
    with pytest.raises(ValidationError) as exc:
        parse_clause_annotations(payload, {"d1": doc})
    assert "exceeds" in str(exc.value)


def test_all_problems_collected():
    bad = json.dumps([
        {"id": "a", "doc": "d", "variant": "nope", "matrix": [[0, 2]],
         "rc": [2, 4], "attachment": 1},
        {"id": "b", "doc": "d", "variant": "extraposed", "matrix": [[0, 4]],
         "rc": [2, 6], "attachment": 1},
    ])
    with pytest.raises(ValidationError) as exc:
        parse_clause_annotations(bad)
    text = str(exc.value)
    assert "a" in text and "b" in text
    assert len(exc.value.problems) == 2


@pytest.mark.parametrize(
    "field, value, bad",
    [
        ("attachment", 4.7, 4.7),
        ("attachment", True, True),
        ("rc", [6, "8"], "8"),
        ("matrix", [[1.0, 6]], 1.0),
    ],
    ids=["float", "bool", "string", "integral-float"],
)
def test_non_integer_position_rejected(field, value, bad):
    with pytest.raises(ValidationError) as exc:
        parse_clause_annotations(_payload(**{field: value}))
    assert exc.value.problems == [f"r1: {field} position {bad!r} is not an integer"]


def test_every_non_integer_position_listed():
    bad = json.dumps([
        {"id": "a", "doc": "d", "variant": "extraposed", "matrix": [[0, 10.7]],
         "rc": [True, 12], "attachment": "1"},
        {"id": "b", "doc": "d", "variant": "extraposed", "matrix": [[0, 4]],
         "rc": [4, 6], "attachment": 1.5},
    ])
    with pytest.raises(ValidationError) as exc:
        parse_clause_annotations(bad)
    assert exc.value.problems == [
        "a: matrix position 10.7 is not an integer",
        "a: rc position True is not an integer",
        "a: attachment position '1' is not an integer",
        "b: attachment position 1.5 is not an integer",
    ]


# The head noun is matrix material, so the position right after it lies in
# (matrix start, matrix end]. An attachment at the matrix start would put the
# hypothetical in-situ clause first and condition it on the matrix's last
# word, which the chain then repeats.
@pytest.mark.parametrize("attachment, admitted", [
    (0, False), (1, False), (2, True), (6, True), (7, False),
])
def test_extraposed_attachment_lies_after_the_matrix_start(attachment, admitted):
    payload = _payload(attachment=attachment)
    if admitted:
        assert parse_clause_annotations(payload)[0].attachment == attachment
        return
    with pytest.raises(ValidationError) as exc:
        parse_clause_annotations(payload)
    assert exc.value.problems == [
        "r1: attachment must lie after the matrix start and at most at its end"
    ]


def test_duplicate_record_ids_rejected():
    doubled = json.loads(_payload()) * 2
    with pytest.raises(ValidationError):
        parse_clause_annotations(json.dumps(doubled))


# --- re-linearization -------------------------------------------------------

def test_relinearize_definition(extraposed_record, doc):
    in_situ = relinearize(extraposed_record, doc, Variant.IN_SITU)
    assert in_situ.lemmas() == ["m1", "m2", "H", "r1", "r2", "m3", "m4"]
    extraposed = relinearize(extraposed_record, doc, Variant.EXTRAPOSED)
    assert extraposed.lemmas() == ["m1", "m2", "H", "m3", "m4", "r1", "r2"]


def test_attested_identity(extraposed_record, in_situ_record, doc):
    words = [t.lemma for t in doc.word_tokens()]
    for record in (extraposed_record, in_situ_record):
        attested = relinearize(record, doc, record.variant)
        assert attested.lemmas() == [words[p] for p in sorted(record.all_positions())]


def test_round_trip_identity(extraposed_record, doc):
    in_situ = relinearize(extraposed_record, doc, Variant.IN_SITU)
    extraposed = relinearize(extraposed_record, doc, Variant.EXTRAPOSED)
    # removing the rc from the bundled order and appending it restores the
    # extraposed order; re-inserting restores the bundled order
    matrix_only = [t for t in in_situ.tokens if t.part == "matrix"]
    rc_only = [t for t in in_situ.tokens if t.part == "rc"]
    assert matrix_only + rc_only == list(extraposed.tokens)
    split = sum(1 for t in matrix_only if t.doc_position < extraposed_record.attachment)
    assert matrix_only[:split] + rc_only + matrix_only[split:] == list(in_situ.tokens)


def test_initial_context_preceding_lemma(extraposed_record, doc):
    assert relinearize(extraposed_record, doc, Variant.EXTRAPOSED).initial_context == "p0"


def test_initial_context_sentence_start():
    doc = _doc_from_words(["p0", "m1", "m2", "r1", "r2"], sentence_breaks={0})
    record = ClauseRecord("c", "d1", Variant.EXTRAPOSED, (Span(1, 3),), Span(3, 5), 2)
    assert relinearize(record, doc, Variant.EXTRAPOSED).initial_context == START


def test_initial_context_document_start():
    doc = _doc_from_words(["m1", "m2", "r1", "r2"])
    record = ClauseRecord("c", "d1", Variant.EXTRAPOSED, (Span(0, 2),), Span(2, 4), 1)
    assert relinearize(record, doc, Variant.EXTRAPOSED).initial_context == START


def test_seam_recontextualization(extraposed_record, doc, model):
    # only tokens whose left neighbor changes get different scores
    attested = relinearize(extraposed_record, doc, Variant.EXTRAPOSED)
    hypothetical = relinearize(extraposed_record, doc, Variant.IN_SITU)
    a = annotate_sequence(model, attested.lemmas(), attested.initial_context,
                          attested.positions())
    b = annotate_sequence(model, hypothetical.lemmas(), hypothetical.initial_context,
                          hypothetical.positions())
    a_by_pos = {e.doc_position: e for e in a.entries}
    b_by_pos = {e.doc_position: e for e in b.entries}
    for position, ea in a_by_pos.items():
        eb = b_by_pos[position]
        if ea.context == eb.context:
            assert ea.surprisal_bits == eb.surprisal_bits
        else:
            assert position in {4, 6}  # m3 and r1 follow the seam


# --- metrics ----------------------------------------------------------------

def test_metrics_arithmetic():
    # clause surprisals [3, 2, 4, 1, 5], first word excluded
    metrics = ClauseMetrics.from_values([2, 4, 1, 5], "bare", "attested", "rc")
    assert metrics.adS == 12.0
    assert metrics.avS == 3.0
    assert metrics.n_scored == 4


def test_exact_mean_product_identity():
    rng = random.Random(21)
    for _ in range(500):
        values = [rng.uniform(0.01, 20.0) for _ in range(rng.randint(1, 40))]
        m = ClauseMetrics.from_values(values, "bare", "attested", "rc")
        assert m.avS * m.n_scored == m.adS
        assert m.adS / m.n_scored == m.avS


def _reference_metrics(record, doc, model, mode, part, linearization,
                       combined_excludes_matrix_first=True):
    """Scratch recomputation: chain probabilities by hand, apply the
    exclusions, and anchor factors at attested positions."""
    target = record.variant if linearization == "attested" else record.variant.other()
    linear = relinearize(record, doc, target)
    factors = accommodation_factors(doc)
    rc_first = record.rc_span.start
    matrix_first = min(record.matrix_positions())
    context = linear.initial_context
    values = []
    for token in linear.tokens:
        bits = -math.log2(model.prob(context, token.lemma))
        context = token.lemma
        if part != "combined" and token.part != part:
            continue
        if token.doc_position == rc_first and part != "matrix":
            continue
        if token.doc_position == matrix_first and part != "rc" and (
            part != "combined" or combined_excludes_matrix_first
        ):
            continue
        if mode == "accommodated":
            bits *= factors[token.doc_position][1]
        values.append(bits)
    return math.fsum(values), len(values)


@pytest.mark.parametrize("part", ["rc", "matrix", "combined"])
@pytest.mark.parametrize("mode", ["bare", "accommodated"])
@pytest.mark.parametrize("linearization", ["attested", "hypothetical"])
def test_metrics_match_reference(extraposed_record, in_situ_record, doc, model,
                                 part, mode, linearization):
    scorer = ClauseScorer(model)
    for record in (extraposed_record, in_situ_record):
        metrics = scorer.metrics(record, doc, mode, part, linearization)
        total, n = _reference_metrics(record, doc, model, mode, part, linearization)
        assert metrics.n_scored == n
        assert metrics.adS == pytest.approx(total, abs=1e-9)
        assert metrics.avS * metrics.n_scored == metrics.adS


def test_exclusions_reduce_counts(extraposed_record, doc, model):
    scorer = ClauseScorer(model)
    rc = scorer.metrics(extraposed_record, doc, part="rc")
    matrix = scorer.metrics(extraposed_record, doc, part="matrix")
    combined = scorer.metrics(extraposed_record, doc, part="combined")
    assert rc.n_scored == 1       # 2 rc words minus the pronoun
    assert matrix.n_scored == 4   # 5 matrix words minus the first
    assert combined.n_scored == 5


def test_combined_is_not_the_sum(in_situ_record, doc, model):
    # the seam tokens are re-contextualized, so combined != rc + matrix
    scorer = ClauseScorer(model)
    combined = scorer.metrics(in_situ_record, doc, "bare", "combined", "attested")
    rc = scorer.metrics(in_situ_record, doc, "bare", "rc", "hypothetical")
    matrix = scorer.metrics(in_situ_record, doc, "bare", "matrix", "hypothetical")
    assert abs(combined.adS - (rc.adS + matrix.adS)) > 1e-9


def test_combined_single_exclusion_option(in_situ_record, doc, model):
    symmetric = ClauseScorer(model).metrics(in_situ_record, doc, part="combined")
    single = ClauseScorer(model, combined_excludes_matrix_first=False).metrics(
        in_situ_record, doc, part="combined"
    )
    assert single.n_scored == symmetric.n_scored + 1


def test_accommodated_ratio_in_factor_set(in_situ_record, doc, model):
    scorer = ClauseScorer(model)
    bare = scorer.metrics(in_situ_record, doc, "bare", "combined", "attested")
    accommodated = scorer.metrics(in_situ_record, doc, "accommodated", "combined", "attested")
    assert accommodated.adS >= bare.adS  # factors are >= 1 here


def test_factors_are_not_shared_between_documents_with_one_id():
    # Two corpora may each hold a document "d"; a scorer that has scored the
    # first must not apply its accommodation factors to the second.
    first = _doc_from_words("Herr sehen der Mann kommen Herr".split(), doc_id="d")
    second = _doc_from_words("Herr Herr der Herr Herr Herr".split(), doc_id="d")
    record = ClauseRecord("r", "d", Variant.EXTRAPOSED, (Span(0, 2),), Span(2, 6), 1)
    model = train_kn(count_bigrams([first, second]))
    scorer = ClauseScorer(model)
    scorer.metrics(record, first, "accommodated", "rc")
    shared = scorer.metrics(record, second, "accommodated", "rc")
    assert shared == ClauseScorer(model).metrics(record, second, "accommodated", "rc")


def test_default_predicate_reads_the_stoplist_once(monkeypatch):
    fixtures = Path(__file__).parent / "fixtures" / "minicorpus"
    docs = {d.id: resegment_sentences(d)
            for d in load_vertical_file(fixtures / "corpus.vert")}
    records = parse_clause_annotations(
        (fixtures / "clauses.json").read_text(encoding="utf-8"), docs)
    model = train_kn(count_bigrams(docs.values()))
    calls = []
    load_stoplist = accommodation.load_stoplist

    def counting_load_stoplist(*args, **kwargs):
        calls.append(args)
        return load_stoplist(*args, **kwargs)

    monkeypatch.setattr(accommodation, "load_stoplist", counting_load_stoplist)
    accommodation._default_content_predicate.cache_clear()
    build_surprisal_table(records, docs, ClauseScorer(model), "accommodated")
    assert len({r.doc_id for r in records}) == 4
    assert len(calls) == 1


_CELLS = [(mode, part, linearization)
          for mode in MODES for part in PARTS for linearization in LINEARIZATIONS]


def test_chains_are_not_shared_between_documents_with_one_id():
    # A bare cell reads the scored chain, not the factors: a scorer that has
    # scored a record against one document "d" must re-score it against another.
    first = _doc_from_words("Herr sehen der Mann kommen Herr".split(), doc_id="d")
    second = _doc_from_words("Mann Herr kommen der sehen Mann".split(), doc_id="d")
    record = ClauseRecord("r", "d", Variant.EXTRAPOSED, (Span(0, 2),), Span(2, 6), 1)
    model = train_kn(count_bigrams([first, second]), discount=0.5)
    scorer = ClauseScorer(model)
    for cell in [cell for cell in _CELLS if cell[0] == "bare"]:
        own = [ClauseScorer(model).metrics(record, d, *cell) for d in (first, second)]
        assert own[0] != own[1]
        assert [scorer.metrics(record, d, *cell) for d in (first, second)] == own


def test_equal_records_give_equal_cells(extraposed_record, doc, model):
    twin = ClauseRecord(*extraposed_record)
    assert twin == extraposed_record and twin is not extraposed_record
    scorer = ClauseScorer(model)
    for cell in _CELLS:
        assert scorer.metrics(twin, doc, *cell) == scorer.metrics(extraposed_record, doc, *cell)


def test_records_that_share_an_id_get_their_own_chains(doc, model):
    # Record ids are unique within one annotation file, not across callers.
    short = ClauseRecord("c", "d1", Variant.EXTRAPOSED, (Span(1, 4),), Span(6, 8), 3)
    long = ClauseRecord("c", "d1", Variant.EXTRAPOSED, (Span(1, 6),), Span(6, 8), 4)
    scorer = ClauseScorer(model)
    for cell in _CELLS:
        for record in (short, long):
            assert scorer.metrics(record, doc, *cell) == ClauseScorer(model).metrics(
                record, doc, *cell
            )


_PROPERTY_WORDS = "p0 m1 m2 H m3 m4 r1 r2 m1 H r1 m2 r2 m3".split()


@cache
def _property_doc_and_model():
    doc = _doc_from_words(_PROPERTY_WORDS, sentence_breaks=(4, 9))
    return doc, train_kn(count_bigrams([doc]), discount=0.5)


@st.composite
def _scorable_record_payloads(draw, record_id):
    """A well-formed record, with at least two words in each part, on a
    document of ``len(_PROPERTY_WORDS)`` words."""
    n = len(_PROPERTY_WORDS)
    if draw(st.booleans()):
        start = draw(st.integers(0, n - 4))
        end = draw(st.integers(start + 2, n - 2))
        rc_start = draw(st.integers(end, n - 2))
        rc = [rc_start, draw(st.integers(rc_start + 2, n))]
        attachment = draw(st.integers(start + 1, end))
        variant, matrix = "extraposed", [[start, end]]
    else:
        a = draw(st.integers(0, n - 4))
        b = draw(st.integers(a + 1, n - 3))
        c = draw(st.integers(b + 2, n - 1))
        d = draw(st.integers(c + 1, n))
        variant, matrix, rc, attachment = "in_situ", [[a, b], [c, d]], [b, c], b
        if draw(st.booleans()):
            matrix.reverse()
    return {"id": record_id, "doc": "d1", "variant": variant,
            "matrix": matrix, "rc": rc, "attachment": attachment}


@st.composite
def _records_and_requests(draw):
    """Records and a shuffled order of all their cells, some asked for twice."""
    count = draw(st.integers(1, 3))
    payloads = [draw(_scorable_record_payloads(f"c{i}")) for i in range(count)]
    requests = [(i, cell) for i in range(count) for cell in _CELLS]
    repeats = draw(st.lists(st.sampled_from(requests), max_size=8))
    return payloads, draw(st.permutations(requests + repeats))


@settings(max_examples=40, deadline=None)
@given(_records_and_requests(), st.booleans())
def test_one_scorer_matches_fresh_scorers_and_reference(case, excludes_matrix_first):
    doc, model = _property_doc_and_model()
    payloads, requests = case
    records = parse_clause_annotations(json.dumps(payloads), {"d1": doc})
    scorer = ClauseScorer(model, combined_excludes_matrix_first=excludes_matrix_first)
    for i, (mode, part, linearization) in requests:
        record = records[i]
        metrics = scorer.metrics(record, doc, mode, part, linearization)
        fresh = ClauseScorer(model, combined_excludes_matrix_first=excludes_matrix_first)
        assert metrics == fresh.metrics(record, doc, mode, part, linearization)
        total, n = _reference_metrics(record, doc, model, mode, part, linearization,
                                      excludes_matrix_first)
        assert metrics.n_scored == n
        assert metrics.adS == pytest.approx(total, abs=1e-9)


def test_clause_too_short_to_score(doc, model):
    record = ClauseRecord("tiny", "d1", Variant.EXTRAPOSED, (Span(1, 6),), Span(6, 7), 4)
    with pytest.raises(ValueError, match="too short"):
        ClauseScorer(model).metrics(record, doc, part="rc")


def test_invalid_mode_part_linearization(extraposed_record, doc, model):
    scorer = ClauseScorer(model)
    with pytest.raises(ValueError):
        scorer.metrics(extraposed_record, doc, mode="fancy")
    with pytest.raises(ValueError):
        scorer.metrics(extraposed_record, doc, part="verb")
    with pytest.raises(ValueError):
        scorer.metrics(extraposed_record, doc, linearization="diagonal")


# --- tables -----------------------------------------------------------------

def test_table_shape(extraposed_record, in_situ_record, doc, model):
    scorer = ClauseScorer(model)
    rows = build_surprisal_table(
        [extraposed_record, in_situ_record], {"d1": doc}, scorer, "bare"
    )
    by_variant = {}
    for row in rows:
        by_variant.setdefault(row.variant, []).append(row.label)
    assert by_variant[Variant.IN_SITU] == ["rel. cl.", "matrix cl.", "combined"]
    assert by_variant[Variant.EXTRAPOSED] == ["rel. cl.", "matrix cl."]


def test_table_with_missing_variant(extraposed_record, doc, model):
    rows = build_surprisal_table([extraposed_record], {"d1": doc},
                                 ClauseScorer(model), "bare")
    in_situ_rows = [r for r in rows if r.variant is Variant.IN_SITU]
    assert all(r.n == 0 and r.mean_adS is None for r in in_situ_rows)


def test_render_table_aligned(extraposed_record, in_situ_record, doc, model):
    rows = build_surprisal_table(
        [extraposed_record, in_situ_record], {"d1": doc}, ClauseScorer(model), "bare"
    )
    text = render_table(rows)
    assert "rel. cl." in text
    assert "combined" in text
    assert "adS" in text and "avS" in text

