import json
import random
from itertools import combinations, groupby
from operator import attrgetter

import pytest
from hypothesis import given, strategies as st

import helpers
from rcsurp import (
    ClauseRecord,
    ParseError,
    ReferentMention,
    SalienceCategory,
    Span,
    ValidationError,
    Variant,
    chi_square_2x2,
    classify_document,
    classify_mention,
    clause_givenness,
    load_referent_annotations,
    load_vertical,
    parse_clause_annotations,
)
from rcsurp.givenness import build_givenness_table, new_referent_chi_square


def _mention(ordinal, referent, inferable=False, topic=False, doc="d"):
    return ReferentMention(doc, ordinal * 2, ordinal * 2 + 1, referent,
                           inferable, topic, ordinal)


def _chain(*referents):
    return [_mention(i, r) for i, r in enumerate(referents)]


# --- classification ---------------------------------------------------------

def _classify_last(history, mention, count_distinct=False):
    """The category of ``mention`` classified after ``history``."""
    return classify_document([*history, mention], count_distinct=count_distinct)[-1][1]


def test_first_mention_is_new():
    assert _classify_last([], _mention(0, "a")) is SalienceCategory.NEW


def test_first_mention_inferable():
    m = _mention(0, "a", inferable=True)
    assert _classify_last([], m) is SalienceCategory.INFERABLE_NEW


def test_re_mention_within_window_is_salient():
    history = _chain("a", "x1", "x2", "x3", "x4", "x5")
    m = _mention(6, "a")
    assert _classify_last(history, m) is SalienceCategory.GIVEN_SALIENT


def test_re_mention_beyond_window_is_non_salient():
    history = _chain("a", *[f"x{i}" for i in range(11)])
    m = _mention(12, "a")  # 11 interveners
    assert _classify_last(history, m) is SalienceCategory.GIVEN_NON_SALIENT


def test_window_boundary_is_salient():
    history = _chain("a", *[f"x{i}" for i in range(10)])
    m = _mention(11, "a")  # exactly 10 interveners
    assert _classify_last(history, m) is SalienceCategory.GIVEN_SALIENT


def test_salient_topic():
    history = _chain("a", "b")
    m = _mention(2, "a", topic=True)
    assert _classify_last(history, m) is SalienceCategory.SALIENT_TOPIC


def test_topic_flag_ignored_when_not_salient():
    history = _chain("a", *[f"x{i}" for i in range(11)])
    m = _mention(12, "a", topic=True)
    assert _classify_last(history, m) is SalienceCategory.GIVEN_NON_SALIENT


def test_distinct_referent_counting():
    # eleven intervening mention events of only two distinct referents
    history = _chain("a", *(["b", "c"] * 5), "b")
    m = _mention(12, "a")
    assert _classify_last(history, m) is SalienceCategory.GIVEN_NON_SALIENT
    assert _classify_last(history, m, count_distinct=True) is SalienceCategory.GIVEN_SALIENT


@pytest.mark.parametrize("interveners, topic, inferable, expected", [
    (None, False, False, SalienceCategory.NEW),
    (None, True, True, SalienceCategory.INFERABLE_NEW),
    (0, False, True, SalienceCategory.GIVEN_SALIENT),
    (10, True, False, SalienceCategory.SALIENT_TOPIC),
    (11, True, False, SalienceCategory.GIVEN_NON_SALIENT),
])
def test_classify_mention_from_interveners(interveners, topic, inferable, expected):
    m = _mention(0, "a", inferable=inferable, topic=topic)
    assert classify_mention(m, interveners) is expected


def test_negative_window_rejected():
    with pytest.raises(ValueError, match="salience window must be >= 0"):
        classify_mention(_mention(0, "a"), None, -1)
    with pytest.raises(ValueError, match="salience window must be >= 0"):
        classify_document([], -1)


# Documents of up to 40 mentions over at most 6 referents, so re-mentions
# fall on both sides of every window from 0 to 12; the mentions arrive
# shuffled and carry dense ordinals, as the loader assigns them.
@st.composite
def _mention_streams(draw):
    flags = draw(st.lists(
        st.tuples(st.sampled_from("abcdef"), st.booleans(), st.booleans()),
        min_size=0, max_size=40,
    ))
    mentions = [
        ReferentMention("d", 2 * i, 2 * i + 1, referent, inferable, topic, i)
        for i, (referent, inferable, topic) in enumerate(flags)
    ]
    return draw(st.permutations(mentions))


@given(_mention_streams(), st.integers(0, 12), st.booleans())
def test_classify_document_matches_reference(mentions, window, count_distinct):
    assert classify_document(mentions, window, count_distinct) == (
        helpers.reference_classify_document(mentions, window, count_distinct)
    )


def test_classification_depends_only_on_order_and_flags():
    referents = ["a", "b", "a", "c", "b", "a"]
    renamed = {r: f"ref-{i}" for i, r in enumerate(dict.fromkeys(referents))}
    original = classify_document(_chain(*referents))
    bijected = classify_document(_chain(*[renamed[r] for r in referents]))
    assert [c for _, c in original] == [c for _, c in bijected]


def test_classify_document_sequential():
    classified = classify_document(_chain("a", "b", "a"))
    assert [c for _, c in classified] == [
        SalienceCategory.NEW, SalienceCategory.NEW, SalienceCategory.GIVEN_SALIENT,
    ]


# --- referent TSV -----------------------------------------------------------

def test_load_referents():
    mentions = load_referent_annotations(
        "d1\t0\t1\tr1\t0\t0\nd1\t5\t6\tr2\t1\t0\nd2\t0\t1\tr1\t0\t1\n"
    )
    assert len(mentions) == 3
    assert mentions[0].mention_ordinal == 0
    assert mentions[1].mention_ordinal == 1
    assert mentions[1].inferable
    assert mentions[2].doc_id == "d2" and mentions[2].mention_ordinal == 0


def test_load_referents_orders_by_interval():
    mentions = load_referent_annotations("d\t7\t8\tb\t0\t0\nd\t2\t3\ta\t0\t0\n")
    ordered = sorted(mentions, key=lambda m: m.mention_ordinal)
    assert [m.referent_id for m in ordered] == ["a", "b"]


def test_load_referents_field_count_error():
    with pytest.raises(ParseError):
        load_referent_annotations("d1\t0\t1\tr1\t0\n")


def test_load_referents_negative_start_error():
    with pytest.raises(ParseError, match="line 2:"):
        load_referent_annotations("d1\t0\t1\tr1\t0\t0\nd1\t-3\t1\tr2\t0\t0\n")


def test_load_referents_flag_error():
    with pytest.raises(ParseError):
        load_referent_annotations("d1\t0\t1\tr1\t2\t0\n")


def test_load_referents_overlap_error():
    with pytest.raises(ValidationError):
        load_referent_annotations("d\t0\t3\ta\t0\t0\nd\t2\t4\tb\t0\t0\n")


def test_load_referents_grouped_by_document():
    mentions = load_referent_annotations(
        "d2\t4\t5\tc\t0\t0\nd1\t0\t1\ta\t0\t0\nd2\t0\t1\tb\t0\t0\n"
    )
    assert [(m.doc_id, m.referent_id, m.mention_ordinal) for m in mentions] == [
        ("d2", "b", 0), ("d2", "c", 1), ("d1", "a", 0),
    ]


def _three_word_documents():
    return {doc.id: doc for doc in load_vertical(
        "# doc: d\na\ta\n,\t,\nb\tb\nc\tc\n"  # three words, one punctuation token
    )}


def test_load_referents_unknown_document_error():
    with pytest.raises(ValidationError) as info:
        load_referent_annotations("x\t0\t1\ta\t0\t0\nx\t1\t2\tb\t0\t0\n",
                                  _three_word_documents())
    assert info.value.problems == [
        "mention of 'a': unknown document 'x'",
        "mention of 'b': unknown document 'x'",
    ]


def test_load_referents_past_document_end_error():
    documents = _three_word_documents()
    assert len(load_referent_annotations("d\t2\t3\ta\t0\t0\n", documents)) == 1
    with pytest.raises(ValidationError) as info:
        load_referent_annotations("d\t2\t4\ta\t0\t0\n", documents)
    assert info.value.problems == ["mention of 'a' at [2, 4) exceeds document 'd'"]


def test_load_referents_lists_every_problem_together():
    with pytest.raises(ValidationError) as info:
        load_referent_annotations(
            "d\t0\t2\ta\t0\t0\nd\t1\t2\tb\t0\t0\n"  # overlap
            "x\t0\t1\tc\t0\t0\n"                   # unknown document
            "d\t2\t9\te\t0\t0\n",                  # past the end
            _three_word_documents(),
        )
    assert sorted(info.value.problems) == sorted([
        "d: overlapping mention intervals at 1",
        "mention of 'c': unknown document 'x'",
        "mention of 'e' at [2, 9) exceeds document 'd'",
    ])


def test_load_referents_lists_every_mention_inside_a_long_one():
    # [5, 6) overlaps [0, 10), not the mention just before it.
    with pytest.raises(ValidationError) as info:
        load_referent_annotations("d\t0\t10\ta\t0\t0\nd\t2\t3\tb\t0\t0\nd\t5\t6\tc\t0\t0\n")
    assert info.value.problems == [
        "d: overlapping mention intervals at 2",
        "d: overlapping mention intervals at 5",
    ]


# --- clause givenness -------------------------------------------------------

def _record(rc=(10, 20), matrix=((0, 10),), variant=Variant.EXTRAPOSED):
    return ClauseRecord("r", "d", variant,
                        tuple(Span(*m) for m in matrix), Span(*rc), matrix[0][1])


def _classified(categories, start=10):
    pairs = []
    for i, category in enumerate(categories):
        mention = ReferentMention("d", start + i, start + i + 1, f"ref{i}",
                                  False, False, i)
        pairs.append((mention, category))
    return pairs


def test_clause_ratios():
    # 40 referents, 4 new -> 10%; 24 salient -> 60%
    categories = (
        [SalienceCategory.NEW] * 4
        + [SalienceCategory.GIVEN_SALIENT] * 20
        + [SalienceCategory.SALIENT_TOPIC] * 4
        + [SalienceCategory.GIVEN_NON_SALIENT] * 12
    )
    record = _record(rc=(10, 60))
    counts = clause_givenness(record, _classified(categories), "rc")
    assert counts.total == 40
    assert counts.new == 4
    assert counts.ratio(counts.new) == pytest.approx(0.10)
    assert counts.salient == 24
    assert counts.ratio(counts.salient) == pytest.approx(0.60)


def test_counts_per_category_sum_to_total():
    categories = [SalienceCategory.NEW, SalienceCategory.GIVEN_SALIENT,
                  SalienceCategory.INFERABLE_NEW]
    counts = clause_givenness(_record(rc=(10, 20)), _classified(categories), "rc")
    assert sum(counts.by_category.values()) == counts.total == 3


def test_empty_part_has_undefined_ratios():
    counts = clause_givenness(_record(), [], "rc")
    assert counts.total == 0
    assert counts.ratio(counts.new) is None
    assert counts.ratio(counts.salient) is None


def test_mentions_outside_spans_ignored():
    record = _record(rc=(10, 12), matrix=((0, 5),))
    classified = _classified([SalienceCategory.NEW], start=7)  # in neither span
    assert clause_givenness(record, classified, "rc").total == 0
    assert clause_givenness(record, classified, "matrix").total == 0


def test_mention_ending_at_span_end_is_counted():
    classified = _classified([SalienceCategory.NEW], start=19)  # [19, 20)
    assert clause_givenness(_record(rc=(10, 20)), classified, "rc").total == 1


@pytest.mark.parametrize("start, end", [(9, 11), (19, 21)])
def test_mention_crossing_a_span_edge_is_not_counted(start, end):
    mention = ReferentMention("d", start, end, "x", False, False, 0)
    record = _record(rc=(10, 20), matrix=((0, 10),))
    for part in ("rc", "matrix"):
        assert clause_givenness(record, [(mention, SalienceCategory.NEW)], part).total == 0


def test_matrix_part_with_split_spans():
    # One mention in each matrix interval and one in the relative clause
    # between them.
    record = _record(rc=(5, 7), matrix=((0, 5), (7, 12)), variant=Variant.IN_SITU)
    classified = [
        (ReferentMention("d", s, s + 1, f"ref{i}", False, False, i), SalienceCategory.NEW)
        for i, s in enumerate((1, 5, 8))
    ]
    assert clause_givenness(record, classified, "matrix").total == 2
    assert clause_givenness(record, classified, "rc").total == 1


# --- chi-square -------------------------------------------------------------

def test_chi_square_reference_table():
    statistic, p = chi_square_2x2(2, 20, 11, 35)
    assert statistic == pytest.approx(2.1145, abs=5e-4)
    assert p == pytest.approx(0.1459, abs=5e-4)


def test_chi_square_independence():
    statistic, p = chi_square_2x2(10, 10, 10, 10)
    assert statistic == 0.0
    assert p == 1.0


def test_chi_square_transpose_symmetry():
    assert chi_square_2x2(3, 7, 11, 5) == chi_square_2x2(3, 11, 7, 5)


def test_chi_square_degenerate_marginal():
    with pytest.raises(ValueError, match="degenerate"):
        chi_square_2x2(0, 0, 5, 7)
    with pytest.raises(ValueError):
        chi_square_2x2(-1, 2, 3, 4)


def test_chi_square_against_integration_oracle():
    rng = random.Random(17)
    for _ in range(25):
        a, b, c, d = (rng.randint(1, 60) for _ in range(4))
        statistic, p = chi_square_2x2(a, b, c, d)
        assert statistic >= 0
        assert 0 < p <= 1
        assert p == pytest.approx(helpers.reference_chi2_upper_tail(statistic), abs=1e-6)


# --- pooled table -----------------------------------------------------------

def _two_variant_setup():
    records = [
        _record(rc=(10, 20), matrix=((0, 10),), variant=Variant.EXTRAPOSED),
        ClauseRecord("r2", "d", Variant.IN_SITU,
                     (Span(30, 35), Span(40, 45)), Span(35, 40), 35),
    ]
    categories = [SalienceCategory.NEW] * 3 + [SalienceCategory.GIVEN_SALIENT] * 2
    positions = [11, 13, 36, 37, 38]
    classified = [
        (ReferentMention("d", p, p + 1, f"ref{i}", False, False, i), categories[i])
        for i, p in enumerate(positions)
    ]
    return records, {"d": classified}


def test_build_givenness_table_rows():
    records, classified = _two_variant_setup()
    rows = build_givenness_table(records, classified)
    assert [r.label for r in rows] == [
        "Relative clauses: in-situ",
        "Matrix clauses of in-situ rel. cl.",
        "Relative clauses: extraposed",
        "Matrix clauses of extraposed rel. cl.",
    ]
    by_label = {r.label: r.counts for r in rows}
    assert by_label["Relative clauses: extraposed"].new == 2
    assert by_label["Relative clauses: in-situ"].total == 3


def test_new_referent_chi_square_uses_rc_rows():
    records, classified = _two_variant_setup()
    rows = build_givenness_table(records, classified)
    statistic, p = new_referent_chi_square(rows)
    in_situ = next(r.counts for r in rows if r.label == "Relative clauses: in-situ")
    extraposed = next(r.counts for r in rows if r.label == "Relative clauses: extraposed")
    expected = chi_square_2x2(
        in_situ.new, in_situ.total - in_situ.new,
        extraposed.new, extraposed.total - extraposed.new,
    )
    assert (statistic, p) == expected


# Records name d0-d2 and mentions d0, d1 and d3, so d2 has records but no
# mentions and d3 mentions but no records. Each list is drawn either from
# arbitrary spans, which often overlap or break a record's geometry, or from
# shapes the validators admit, so both outcomes are drawn often.
@st.composite
def _spans(draw):
    start = draw(st.integers(0, 29))
    return Span(start, draw(st.integers(start + 1, 30)))


@st.composite
def _well_formed_record(draw):
    doc_id = draw(st.sampled_from(["d0", "d1", "d2"]))
    a, b, c, d = sorted(draw(st.lists(st.integers(0, 30), min_size=4, max_size=4,
                                      unique=True)))
    if draw(st.sampled_from(Variant)) is Variant.IN_SITU:
        return ClauseRecord("r", doc_id, Variant.IN_SITU, (Span(a, b), Span(c, d)),
                            Span(b, c), b)
    return ClauseRecord("r", doc_id, Variant.EXTRAPOSED, (Span(a, b),), Span(c, d),
                        draw(st.integers(a + 1, b)))


_records = st.lists(
    st.builds(
        lambda doc_id, variant, matrix, rc: ClauseRecord(
            "r", doc_id, variant, tuple(matrix), rc, rc.start
        ),
        st.sampled_from(["d0", "d1", "d2"]),
        st.sampled_from(Variant),
        st.lists(_spans(), min_size=1, max_size=3),
        _spans(),
    ),
    max_size=8,
) | st.lists(_well_formed_record(), max_size=8)

_referent = (st.sampled_from("abcd"), st.booleans(), st.booleans())


@st.composite
def _disjoint_mentions(draw):
    """Rows of one to three words whose spans never overlap within a
    document, in shuffled order."""
    rows = []
    for doc_id in ("d0", "d1", "d3"):
        end = 0
        for gap, width in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3)),
                                        max_size=10)):
            start, end = end + gap, end + gap + width
            rows.append((doc_id, Span(start, end), *draw(st.tuples(*_referent))))
    return draw(st.permutations(rows))


_mentions = st.lists(
    st.tuples(st.sampled_from(["d0", "d1", "d3"]), _spans(), *_referent), max_size=30,
) | _disjoint_mentions()


def _admitted(load, text):
    """What ``load`` returns for ``text``, or None if it raises ValidationError."""
    try:
        return load(text)
    except ValidationError:
        return None


@given(_records, _mentions)
def test_grouped_table_matches_flat_scan(records, drawn):
    records = _admitted(parse_clause_annotations, json.dumps([
        {"id": f"r{i}", "doc": r.doc_id, "variant": r.variant.value,
         "matrix": [[s.start, s.end] for s in r.matrix_spans],
         "rc": [r.rc_span.start, r.rc_span.end], "attachment": r.attachment}
        for i, r in enumerate(records)
    ]))
    mentions = _admitted(load_referent_annotations, "".join(
        f"{doc_id}\t{span.start}\t{span.end}\t{referent}\t{inferable:d}\t{topic:d}\n"
        for doc_id, span, referent, inferable, topic in drawn
    ))
    # Neither validator admits a draw outside clause_givenness's precondition:
    # the loader rejects exactly the draws with overlapping mentions.
    spans = {}
    for doc_id, span, *_ in drawn:
        spans.setdefault(doc_id, []).append(span)
    assert (mentions is None) == any(
        a.overlaps(b) for doc_spans in spans.values()
        for a, b in zip(sorted(doc_spans), sorted(doc_spans)[1:])
    )
    if records is None or mentions is None:
        return
    assert not any(a.overlaps(b) for r in records
                   for a, b in combinations((*r.matrix_spans, r.rc_span), 2))
    classified = {
        doc_id: classify_document(doc_mentions)
        for doc_id, doc_mentions in groupby(mentions, key=attrgetter("doc_id"))
    }
    flat = [pair for pairs in classified.values() for pair in pairs]
    rows = build_givenness_table(records, classified)
    assert [
        (row.part, row.variant, row.counts.total, dict(row.counts.by_category))
        for row in rows
    ] == helpers.reference_givenness_table(records, flat)
