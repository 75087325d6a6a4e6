import inspect
import math
import random

import pytest
from hypothesis import given, strategies as st

import helpers
from rcsurp import (
    annotate_document,
    annotate_sequence,
    count_bigrams,
    load_vertical,
    log10_to_bits,
    resegment_sentences,
    surprisal_from_prob,
    train_kn,
)
from rcsurp.ngram import START, KneserNeyBigramModel
from rcsurp.surprisal import SurprisalAnnotation, SurprisalEntry


@pytest.fixture
def toy_model():
    return train_kn(count_bigrams(helpers.toy_documents()), discount=0.5)


# --- conversions ------------------------------------------------------------

def test_log10_to_bits_base_change():
    assert log10_to_bits(-1.0) == pytest.approx(3.321928, abs=1e-6)


def test_log10_to_bits_certainty():
    assert log10_to_bits(0.0) == 0.0


def test_log10_to_bits_quarter():
    assert log10_to_bits(-0.60206) == pytest.approx(2.0, abs=1e-4)


def test_log10_to_bits_rejects_positive():
    with pytest.raises(ValueError):
        log10_to_bits(0.1)


def test_one_bit():
    assert surprisal_from_prob(0.5) == 1.0


def test_surprisal_from_prob_domain():
    with pytest.raises(ValueError):
        surprisal_from_prob(0.0)
    with pytest.raises(ValueError):
        surprisal_from_prob(1.5)


def test_token_surprisal_toy_value(toy_model):
    # p(sat|cat) = 1/3
    s = surprisal_from_prob(toy_model.prob("cat", "sat"))
    assert s == pytest.approx(math.log2(3), abs=1e-12)
    assert s == pytest.approx(1.58496, abs=1e-5)


def test_unknown_word_surprisal_finite(toy_model):
    s = surprisal_from_prob(toy_model.prob("cat", "zzz-unknown"))
    assert math.isfinite(s) and s > 0


# --- document annotation ----------------------------------------------------

def test_annotate_document_contexts(toy_model):
    doc = load_vertical("# doc: d\nthe\tthe\ncat\tcat\nsat\tsat\n")[0]
    annotation = annotate_document(toy_model, doc)
    assert len(annotation) == 3
    assert annotation.entries[0].context == START
    assert annotation.entries[1].context == "the"
    assert annotation.entries[2].context == "cat"


def test_punctuation_transparent(toy_model):
    doc = load_vertical("# doc: d\nthe\tthe\n/\t/\ncat\tcat\n")[0]
    annotation = annotate_document(toy_model, doc)
    assert len(annotation) == 2
    assert annotation.entries[1].context == "the"


def test_context_resets_at_sentence_boundary(toy_model):
    doc = load_vertical("# doc: d\nthe\tthe\n\ncat\tcat\n")[0]
    annotation = annotate_document(toy_model, doc)
    assert annotation.entries[1].context == START


def test_context_resets_after_punctuation_only_sentence(toy_model):
    doc = load_vertical("# doc: d\nthe\tthe\ncat\tcat\n\n/\t/\n\ncat\tcat\n")[0]
    annotation = annotate_document(toy_model, doc)
    assert [t.sentence_index for t in doc.tokens] == [0, 0, 1, 2]
    assert [e.context for e in annotation.entries] == [START, "the", START]
    assert [e.doc_position for e in annotation.entries] == [0, 1, 2]


def test_annotation_against_loop_oracle(toy_model):
    doc = helpers.toy_documents()[0]
    assert annotate_document(toy_model, doc) == helpers.reference_annotate_document(
        toy_model, doc
    )


# Known and unknown lemmas, transparent punctuation and the "." that
# re-segmentation turns into a sentence end; a sentence may hold only
# punctuation, and a document may hold no sentence at all.
_punctuation = st.sampled_from(["/", ",", "."])
_token = st.sampled_from(["the", "cat", "sat", "ran", "zzz", "qqq"]) | _punctuation
_sentence = st.lists(_token, min_size=1, max_size=6) | st.lists(_punctuation, min_size=1, max_size=3)
_document = st.lists(_sentence, min_size=0, max_size=6)


@given(_document)
def test_annotate_document_matches_token_loop(sentences):
    model = train_kn(count_bigrams(helpers.toy_documents()), discount=0.5)
    text = "# doc: h\n" + "\n".join(
        "".join(f"{t}\t{t}\n" for t in sentence) for sentence in sentences
    )
    loaded = load_vertical(text)[0]
    for doc in (loaded, resegment_sentences(loaded)):
        annotation = annotate_document(model, doc)
        reference = helpers.reference_annotate_document(model, doc)
        # The length comes from the columns, before any entry is built.
        assert len(annotation) == len(reference) == doc.word_count()
        assert hash(annotation) == hash(reference)
        assert annotation == reference
        assert all(type(entry) is SurprisalEntry for entry in annotation.entries)


_lemma = st.sampled_from(["the", "cat", "sat", "ran", "zzz", "qqq", START, "</s>"])


@st.composite
def _chains(draw):
    """A lemma chain of known and unknown lemmas, an initial context drawn
    the same way, and explicit positions or none."""
    lemmas = draw(st.lists(_lemma, min_size=1, max_size=8))
    positions = draw(st.none() | st.lists(st.integers(-5, 10**6), min_size=len(lemmas),
                                          max_size=len(lemmas)))
    return lemmas, draw(_lemma), positions


@given(_chains())
def test_annotate_sequence_matches_chain_loop(chain):
    lemmas, initial_context, positions = chain
    model = train_kn(count_bigrams(helpers.toy_documents()), discount=0.5)
    annotation = annotate_sequence(model, lemmas, initial_context, positions)
    reference = helpers.reference_annotate_sequence(model, lemmas, initial_context, positions)
    assert len(annotation) == len(reference) == len(lemmas)
    assert hash(annotation) == hash(reference)
    assert annotation == reference
    assert all(type(entry) is SurprisalEntry for entry in annotation.entries)


def test_annotate_sequence_keeps_its_inputs_as_they_were(toy_model):
    # The entries are built on first read, after the caller changed the lists.
    lemmas, positions = ["the", "cat", "sat"], [4, 5, 9]
    reference = helpers.reference_annotate_sequence(toy_model, lemmas, START, positions)
    annotation = annotate_sequence(toy_model, lemmas, START, positions)
    lemmas[1], positions[1] = "zzz", 7
    lemmas.append("ran")
    positions.clear()
    assert len(annotation) == 3
    assert annotation.entries == reference.entries


def test_entries_align_with_word_tokens(toy_model):
    doc = load_vertical("# doc: d\nthe\tthe\n.\t.\n\ncat\tcat\n")[0]
    annotation = annotate_document(toy_model, doc)
    assert [e.doc_position for e in annotation.entries] == [0, 1]


def test_hand_built_annotation_keeps_one_form(toy_model):
    # A hand-built annotation holds only its columns, as a scored one does,
    # and builds its entries from them when they are read.
    scored = annotate_document(toy_model, helpers.toy_documents()[0])
    hand = SurprisalAnnotation(scored.doc_id, tuple(map(tuple, scored.entries)))
    assert "entries" not in vars(hand)
    assert hand._columns == tuple(map(tuple, scored._columns))
    assert hand == scored and all(type(entry) is SurprisalEntry for entry in hand.entries)


# --- SurprisalEntry ---------------------------------------------------------

ENTRY_FIELDS = ("lemma", "context", "probability", "surprisal_bits", "doc_position")


def test_surprisal_entry_fields_in_order():
    assert tuple(inspect.signature(SurprisalEntry).parameters) == ENTRY_FIELDS
    entry = SurprisalEntry("cat", "the", 0.5, 1.0, 3)
    assert tuple(getattr(entry, f) for f in ENTRY_FIELDS) == ("cat", "the", 0.5, 1.0, 3)
    assert entry == ("cat", "the", 0.5, 1.0, 3)


def test_surprisal_entry_attribute_assignment_raises(toy_model):
    entry = annotate_document(toy_model, helpers.toy_documents()[0]).entries[0]
    for field in ENTRY_FIELDS:
        with pytest.raises(AttributeError):
            setattr(entry, field, "x")
    assert entry[:2] == ("the", START) and entry.doc_position == 0


# --- sequence annotation ----------------------------------------------------

def test_single_lemma_sequence(toy_model):
    annotation = annotate_sequence(toy_model, ["the"], START)
    assert len(annotation) == 1
    assert annotation.entries[0].surprisal_bits == pytest.approx(
        -math.log2(toy_model.prob(START, "the")), abs=1e-12
    )


def test_initial_context_affects_only_first_entry(toy_model):
    a = annotate_sequence(toy_model, ["cat", "sat"], "the")
    b = annotate_sequence(toy_model, ["cat", "sat"], START)
    assert a.entries[0].probability != b.entries[0].probability
    assert a.entries[1].probability == b.entries[1].probability


def test_relinearization_seam_changes_following_word(toy_model):
    # the word after the seam is re-contextualized, nothing else
    a = annotate_sequence(toy_model, ["cat", "sat"], START)
    b = annotate_sequence(toy_model, ["the", "sat"], START)
    assert a.entries[1].context == "cat"
    assert b.entries[1].context == "the"
    assert a.entries[1].surprisal_bits != b.entries[1].surprisal_bits


def test_empty_sequence_is_error(toy_model):
    with pytest.raises(ValueError):
        annotate_sequence(toy_model, [], START)


def test_positions_attached(toy_model):
    annotation = annotate_sequence(toy_model, ["the", "cat"], START, [7, 9])
    assert [e.doc_position for e in annotation.entries] == [7, 9]
    with pytest.raises(ValueError):
        annotate_sequence(toy_model, ["the"], START, [1, 2])


class _CountingModel(KneserNeyBigramModel):
    """A model that counts its ``prob`` queries."""

    calls = 0

    def prob(self, context, word):
        self.calls += 1
        return super().prob(context, word)


def test_one_prob_query_per_scored_word(toy_model):
    model = _CountingModel(toy_model.vocabulary, toy_model.unigram_p, toy_model.bow,
                           toy_model.bigram_p, toy_model.discount)
    doc = load_vertical("# doc: d\nthe\tthe\n/\t/\ncat\tcat\n\nzzz\tzzz\nsat\tsat\n")[0]
    for annotate in (lambda: annotate_document(model, doc),
                     lambda: annotate_sequence(model, ["the", "cat", "zzz", "sat"], "cat")):
        model.calls = 0
        entries = annotate().entries
        assert model.calls == len(entries) == 4
        for entry in entries:
            assert type(entry) is SurprisalEntry
            assert entry.surprisal_bits == surprisal_from_prob(entry.probability)


@pytest.mark.parametrize("scope", ["document", "sequence"])
def test_probability_above_one_names_the_word(scope, toy_model):
    # A positive log10 backoff weight, which ARPA import accepts, can lift an
    # unlisted bigram's probability above 1. A NaN weight makes it NaN, which
    # the column check must catch although it is not the column's first value.
    where = "document 'd', " if scope == "document" else ""
    for weight in (1e5, float("nan")):
        toy_model.bow[toy_model.vocabulary.index["cat"]] = weight
        with pytest.raises(ValueError) as exc:
            if scope == "document":
                annotate_document(
                    toy_model, load_vertical("# doc: d\ncat\tcat\nzzz\tzzz\nzzz\tzzz\n")[0]
                )
            else:
                annotate_sequence(toy_model, ["cat", "zzz", "zzz"], START)
        assert str(exc.value).startswith(
            f"{where}word position 1: probability of 'zzz' after 'cat' must be in (0, 1], got "
        )
    assert str(exc.value).endswith("got nan")


# --- invariants -------------------------------------------------------------

def test_non_negative_and_finite(toy_model):
    rng = random.Random(3)
    lemmas = ["the", "cat", "sat", "ran", "zzz"]
    for _ in range(50):
        seq = [rng.choice(lemmas) for _ in range(rng.randint(1, 12))]
        for e in annotate_sequence(toy_model, seq).entries:
            assert e.surprisal_bits >= 0
            assert math.isfinite(e.surprisal_bits)


def test_additivity(toy_model):
    seq = ["the", "cat", "sat", "ran", "the"]
    annotation = annotate_sequence(toy_model, seq, START)
    product = math.prod(e.probability for e in annotation.entries)
    assert math.fsum(e.surprisal_bits for e in annotation.entries) == pytest.approx(
        -math.log2(product), abs=1e-9
    )


def test_bigram_locality(toy_model):
    rng = random.Random(11)
    lemmas = ["the", "cat", "sat", "ran"]
    for _ in range(30):
        seq = [rng.choice(lemmas) for _ in range(8)]
        i = rng.randrange(8)
        changed = list(seq)
        changed[i] = "zzz-" + seq[i]
        before = annotate_sequence(toy_model, seq).entries
        after = annotate_sequence(toy_model, changed).entries
        for j, (x, y) in enumerate(zip(before, after)):
            if j not in (i, i + 1):
                assert x.surprisal_bits == y.surprisal_bits, j

