"""The value types' contract: equality, hashing, ordering, immutability,
``repr`` and construction errors, as callers and reports rely on them.

Each value is built by the program path that makes it in a run, then
compared with its type built from the fields read back by name, so a fast
constructor that skips the type's own ``__init__`` or ``__new__`` is held
to the same result.
"""

import math
from collections import Counter

import pytest

from rcsurp import (
    BigramCounts,
    ClauseMetrics,
    ClauseRecord,
    ClauseScorer,
    Document,
    KneserNeyBigramModel,
    Linearization,
    ReferentMention,
    Span,
    SurprisalAnnotation,
    Variant,
    Vocabulary,
    annotate_sequence,
    clause_givenness,
    count_bigrams,
    load_referent_annotations,
    load_vertical,
    parse_clause_annotations,
    relinearize,
    train_kn,
)
from rcsurp.accommodation import FactorConfig
from rcsurp.clauses import LinearToken, TableRow, build_surprisal_table
from rcsurp.givenness import (
    GivennessCounts,
    GivennessRow,
    build_givenness_table,
    classify_document,
)

CORPUS = (
    "# doc: d1\n"
    + "".join(f"{w}\t{w.lower()}\tNN\n" for w in "P0 M1 M2 H M3 M4 R1 R2".split())
    + "\nM1\tm1\tNN\nR1\tr1\tNN\n"
)
CLAUSES = (
    '[{"id": "c1", "doc": "d1", "variant": "extraposed",'
    ' "matrix": [[1, 6]], "rc": [6, 8], "attachment": 4}]'
)
REFERENTS = "d1\t1\t2\tm\t0\t0\nd1\t6\t7\tr\t1\t1\n"


def _values():
    """Each type's name mapped to a value of it and its field names."""
    doc = load_vertical(CORPUS)[0]
    docs = {doc.id: doc}
    counts = count_bigrams([doc])
    model = train_kn(counts, discount=0.5)
    record = parse_clause_annotations(CLAUSES, docs)[0]
    linear = relinearize(record, doc, Variant.IN_SITU)
    mentions = load_referent_annotations(REFERENTS, docs)
    classified = {doc.id: classify_document(mentions)}
    table = build_surprisal_table([record], docs, ClauseScorer(model), "bare")
    return {
        "Document": (doc, ("id", "tokens")),
        "BigramCounts": (counts, ("vocabulary", "c1", "c2")),
        "Vocabulary": (model.vocabulary, ("index",)),
        "KneserNeyBigramModel": (
            model, ("vocabulary", "unigram_p", "bow", "bigram_p", "discount")),
        "SurprisalAnnotation": (
            annotate_sequence(model, linear.lemmas(), linear.initial_context),
            ("doc_id", "entries")),
        "FactorConfig": (FactorConfig(6.0, 3, 10, 2), ("bonus", "wearout", "window", "floor")),
        "Span": (record.rc_span, ("start", "end")),
        "ClauseRecord": (
            record, ("id", "doc_id", "variant", "matrix_spans", "rc_span", "attachment")),
        "LinearToken": (linear.tokens[0], ("lemma", "doc_position", "part")),
        "Linearization": (linear, ("tokens", "initial_context")),
        "ClauseMetrics": (
            ClauseMetrics.from_values([1.0, 2.5], "bare", "attested", "rc"),
            ("adS", "avS", "n_scored", "mode", "linearization", "part")),
        "TableRow": (table[0], ("variant", "label", "n", "mean_adS", "mean_avS")),
        "ReferentMention": (
            mentions[1],
            ("doc_id", "start", "end", "referent_id", "inferable", "topic",
             "mention_ordinal")),
        "GivennessCounts": (
            clause_givenness(record, classified[doc.id], "rc"), ("by_category",)),
        "GivennessRow": (
            build_givenness_table([record], classified)[2],
            ("label", "part", "variant", "counts")),
    }


TYPES = {
    cls.__name__: cls
    for cls in (Document, BigramCounts, Vocabulary, KneserNeyBigramModel,
                SurprisalAnnotation, FactorConfig, Span, ClauseRecord, LinearToken,
                Linearization, ClauseMetrics, TableRow, ReferentMention,
                GivennessCounts, GivennessRow)
}
# Types with a dict or Counter field, or that stay mutable, have no hash.
UNHASHABLE = {"BigramCounts", "Vocabulary", "KneserNeyBigramModel", "GivennessCounts",
              "GivennessRow"}
MUTABLE = {"BigramCounts", "KneserNeyBigramModel"}


@pytest.fixture(scope="module")
def values():
    return _values()


def test_every_type_has_a_case(values):
    assert set(values) == set(TYPES)


@pytest.mark.parametrize("name", sorted(TYPES))
def test_value_equals_its_type_built_from_its_fields(values, name):
    value, names = values[name]
    assert type(value) is TYPES[name]
    fields = tuple(getattr(value, n) for n in names)
    rebuilt = TYPES[name](*fields)
    assert value == rebuilt and not value != rebuilt
    assert value == TYPES[name](**dict(zip(names, fields)))
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(fields) == hash(rebuilt)


@pytest.mark.parametrize("name", sorted(TYPES.keys() - MUTABLE))
def test_frozen_value_rejects_assignment(values, name):
    value, names = values[name]
    before = tuple(getattr(value, n) for n in names)
    for n in names:
        with pytest.raises(AttributeError):
            setattr(value, n, None)
    assert tuple(getattr(value, n) for n in names) == before


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_counts_and_model_stay_mutable(values, name):
    value, names = values[name]
    value = TYPES[name](*(getattr(value, n) for n in names))
    setattr(value, names[0], None)
    assert getattr(value, names[0]) is None


def test_values_of_one_type_with_other_fields_differ(values):
    record = values["ClauseRecord"][0]
    assert Span(1, 3) != Span(1, 4) and Span(1, 3) != record.rc_span
    assert FactorConfig() != FactorConfig(bonus=5.0)
    vocabulary = values["Vocabulary"][0]
    assert BigramCounts(vocabulary) != BigramCounts(vocabulary, Counter({3: 1}))
    doc = values["Document"][0]
    assert doc != Document("other", doc.tokens) and doc != Document(doc.id, doc.tokens[:-1])


def test_span_orders_by_start_then_end():
    spans = [Span(5, 7), Span(1, 3), Span(2, 4), Span(1, 2)]
    assert sorted(spans) == [Span(1, 2), Span(1, 3), Span(2, 4), Span(5, 7)]
    assert Span(1, 2) < Span(1, 3) <= Span(1, 3) < Span(2, 3)
    assert Span(5, 7) > Span(2, 4) >= Span(2, 4)
    assert min(spans) == Span(1, 2) and max(spans) == Span(5, 7)


def test_span_repr_length_and_errors():
    assert repr(Span(1, 3)) == "Span(start=1, end=3)"
    assert f"{Span(0, 2)}" == "Span(start=0, end=2)"
    assert len(Span(1, 3)) == 2 and list(Span(1, 3).positions()) == [1, 2]
    for start, end in ((-1, 2), (3, 3), (4, 2)):
        with pytest.raises(ValueError) as exc:
            Span(start, end)
        assert str(exc.value) == f"invalid span [{start}, {end})"


def test_factor_config_defaults_and_errors():
    assert (FactorConfig.bonus, FactorConfig.wearout, FactorConfig.window,
            FactorConfig.floor) == (4.0, 4, 200, 2)
    assert FactorConfig() == FactorConfig(4.0, 4, 200, 2)
    assert FactorConfig(window=10) == FactorConfig(4.0, 4, 10, 2)
    cases = [
        ({"bonus": 0.0}, "bonus must be positive and finite"),
        ({"bonus": math.inf}, "bonus must be positive and finite"),
        ({"bonus": math.nan}, "bonus must be positive and finite"),
        ({"wearout": 0, "floor": 1}, "wearout must be >= 1"),
        ({"window": 0}, "window must be >= 1"),
        ({"floor": 0}, "floor must lie in [1, wearout]"),
        ({"floor": 5}, "floor must lie in [1, wearout]"),
    ]
    for kwargs, message in cases:
        with pytest.raises(ValueError) as exc:
            FactorConfig(**kwargs)
        assert str(exc.value) == message


def test_annotation_length_is_its_entry_count(values):
    annotation = values["SurprisalAnnotation"][0]
    assert len(annotation) == len(annotation.entries) == 7
    assert len(SurprisalAnnotation(None, ())) == 0


PLAIN = ("BigramCounts", "Document", "FactorConfig", "KneserNeyBigramModel", "Span",
         "SurprisalAnnotation", "Vocabulary")


def test_plain_value_equals_no_other_type_and_not_its_field_tuple(values):
    # Unlike the NamedTuple types, these do not equal the tuple of their
    # fields, nor a value of another type whose fields are equal.
    pairs = [(Span(1, 3), (1, 3)), (Document("a", ()), SurprisalAnnotation("a", ()))]
    for name in PLAIN:
        value, names = values[name]
        pairs.append((value, tuple(getattr(value, n) for n in names)))
        pairs += [(value, other) for other_name, (other, _) in values.items()
                  if other_name != name]
    for a, b in pairs:
        for left, right in ((a, b), (b, a)):
            assert not left == right and left != right
