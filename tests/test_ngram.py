import math
import random
from copy import deepcopy

import pytest
from hypothesis import example, given, settings, strategies as st

import helpers
from rcsurp import (
    DegenerateCountsError,
    ParseError,
    Vocabulary,
    count_bigrams,
    estimate_discount,
    load_vertical,
    perplexity,
    train_kn,
)
from rcsurp import ngram
from rcsurp.ngram import END, START, UNK, BigramCounts, export_arpa, import_arpa


@pytest.fixture
def toy_counts():
    return count_bigrams(helpers.toy_documents())


@pytest.fixture
def toy_model(toy_counts):
    return train_kn(toy_counts, discount=0.5)


# --- counting ---------------------------------------------------------------

def test_toy_counts(toy_counts):
    _, c2 = toy_counts.string_tables()
    assert c2[("the", "cat")] == 2
    assert c2[("cat", "sat")] == 1
    assert c2[(START, "the")] == 2
    assert len(toy_counts.c2) == 6


def test_empty_corpus_counts():
    counts = count_bigrams([])
    assert not counts.c2
    assert not counts.c1


def test_single_word_sentence_padding():
    docs = load_vertical("# doc: d\na\ta\n")
    _, c2 = count_bigrams(docs).string_tables()
    assert c2[(START, "a")] == 1
    assert c2[("a", END)] == 1


def test_no_cross_sentence_bigrams():
    docs = load_vertical("# doc: d\na\ta\n\nb\tb\n")
    _, c2 = count_bigrams(docs).string_tables()
    assert ("a", "b") not in c2


def test_punctuation_excluded_by_default():
    docs = load_vertical("# doc: d\na\ta\n/\t/\nb\tb\n")
    _, c2 = count_bigrams(docs).string_tables()
    assert c2[("a", "b")] == 1


def test_count_invariants_random_corpora():
    rng = random.Random(7)
    vocab = [f"w{i}" for i in range(12)]
    for _ in range(25):
        sentence_count = rng.randint(1, 8)
        sents = [
            [rng.choice(vocab) for _ in range(rng.randint(1, 9))]
            for _ in range(sentence_count)
        ]
        lines = ["# doc: d"]
        for s in sents:
            lines.extend(f"{w}\t{w}" for w in s)
            lines.append("")
        counts = count_bigrams(load_vertical("\n".join(lines)))
        c1, c2 = counts.string_tables()
        for v in c1:
            if v == END:
                continue
            assert sum(c for (a, _), c in c2.items() if a == v) == c1[v]
        # Distinct left contexts summed over words, and distinct
        # continuations summed over contexts, both give the bigram types.
        discount = 0.5
        unigram_p, bow, _ = train_kn(counts, discount).string_tables()
        assert math.fsum(map(unigram_p.get, counts.vocabulary.event_words())) == pytest.approx(1.0)
        assert math.fsum(
            bow[v] * c1[v] / discount for v in c1 if v != END
        ) == pytest.approx(len(c2))


_corpora = st.lists(  # documents of sentences; empty and punctuation-only ones included
    st.lists(st.lists(st.sampled_from(["a", "b", "c", "/", ",", "."]), max_size=6),
             max_size=5),
    min_size=1, max_size=4,
)


@given(_corpora)
def test_counts_match_reference_random_corpora(corpus):
    lines = []
    expected_sentences = []
    for i, doc in enumerate(corpus):
        lines.append(f"# doc: d{i}")
        for sentence in doc:
            lines.extend(f"{w}\t{w}" for w in sentence)
            lines.append("")
            words = [w for w in sentence if w not in "/,."]
            if words:
                expected_sentences.append(words)
    docs = load_vertical("\n".join(lines))
    counts = count_bigrams(docs)
    c1, c2, left, right, types = helpers.reference_counts(expected_sentences)
    assert counts.string_tables() == (c1, c2)
    assert counts.token_count() == sum(n for w, n in c1.items() if w not in (START, END, UNK))
    assert len(counts.c2) == types
    discount = 0.5
    if not types:
        with pytest.raises(DegenerateCountsError):
            train_kn(counts, discount)
        return
    # The model's continuation and backoff tables are the distinct left
    # contexts and continuations of the reference.
    model = train_kn(counts, discount)
    unigram_p, bow, _ = model.string_tables()
    for w, vs in left.items():
        assert unigram_p[w] == len(vs) / types
    for v, ws in right.items():
        assert bow[v] == discount * len(ws) / c1[v]
    # Perplexity averages over the same events, sentence by sentence.
    assert perplexity(model, docs) == pytest.approx(
        helpers.reference_perplexity(expected_sentences, model.prob), rel=1e-12)


# --- discount estimation ----------------------------------------------------

def test_toy_discount(toy_counts):
    # n1 = 4 singleton bigram types, n2 = 2 doubletons
    assert estimate_discount(toy_counts) == 4 / (4 + 2 * 2)


def _counts_from_c2(c2: dict) -> BigramCounts:
    vocabulary = Vocabulary.from_lemmas(symbol for pair in c2 for symbol in pair)
    counts = BigramCounts(vocabulary)
    index = vocabulary.index
    for (v, w), c in c2.items():
        counts.c2[index[v] * len(index) + index[w]] = c
        counts.c1[index[v]] += c
        counts.c1[index[w]] += c
    return counts


def test_discount_clamped_high():
    counts = _counts_from_c2({("a", "b"): 1})
    assert estimate_discount(counts) == 1 - 1e-6


def test_discount_clamped_low():
    counts = _counts_from_c2({("a", "b"): 2, ("b", "c"): 2, ("c", "d"): 2})
    assert estimate_discount(counts) == 1e-6


def test_degenerate_counts_error():
    counts = _counts_from_c2({("a", "b"): 3})
    with pytest.raises(DegenerateCountsError):
        estimate_discount(counts)


# --- probabilities ----------------------------------------------------------

def test_toy_probability_anchor(toy_model):
    # hand computation: (1 - 0.5)/2 + 0.5*(2/2)*(1/6) = 1/3
    assert toy_model.prob("cat", "sat") == 1 / 3
    assert toy_model.prob("cat", "sat") == (1 - 0.5) / 2 + 0.5 * (2 / 2) * (1 / 6)


def test_normalization_over_event_space(toy_model):
    for context in [START, "the", "cat", "sat", "never-seen"]:
        total = math.fsum(toy_model.prob(context, w) for w in toy_model.event_words())
        assert total == pytest.approx(1.0, abs=1e-9)


def test_unseen_context_is_pure_continuation(toy_model):
    assert toy_model.prob("never-seen", "the") == 1 / 6
    assert toy_model.prob("never-seen", "cat") == 1 / 6


def test_unknown_word_positive(toy_model):
    assert toy_model.prob("cat", "zzz-unknown") > 0


def test_start_symbol_never_predicted(toy_model):
    # querying the start symbol as an outcome falls back to the unknown floor
    assert toy_model.prob("cat", START) == toy_model.prob("cat", "zzz-unknown")


def test_probabilities_bounded(toy_model):
    words = toy_model.event_words() + ["zzz"]
    for v in [START, "the", "cat", "zzz"]:
        for w in words:
            assert 0 < toy_model.prob(v, w) <= 1


def _with_bigram_ending_in_start(model):
    """The model exported to ARPA with one more listed bigram, ``the <s>``,
    which import accepts, and imported again."""
    text = export_arpa(model)
    text = text.replace("ngram 2=6", "ngram 2=7").replace(
        "\\2-grams:\n", "\\2-grams:\n-0.300000\tthe <s>\n")
    imported = import_arpa(text)
    assert imported.string_tables()[2][("the", START)] == 10 ** -0.3
    return imported


def test_prob_equals_the_mapped_lookup(toy_model):
    # Every pair over the vocabulary, the start symbol included, and an
    # unknown word, on both sides.
    listed = _with_bigram_ending_in_start(toy_model)
    for model in (toy_model, listed):
        symbols = model.vocabulary.words() + ["zzz-unknown"]
        assert START in symbols
        for v in symbols:
            for w in symbols:
                assert model.prob(v, w) == helpers.reference_mapped_prob(model, v, w), (v, w)
    assert listed.prob("the", START) == listed.prob("the", UNK) != listed.string_tables()[2][("the", START)]


def test_explicit_discount_validated(toy_counts):
    with pytest.raises(ValueError):
        train_kn(toy_counts, discount=1.5)


def test_vocabulary_places_reserved_symbols_first():
    # Callers pass whole symbol tables (the counts or the ARPA unigrams),
    # reserved symbols included; they take ids 0-2 whether given or not.
    vocab = Vocabulary.from_lemmas(["b", "<unk>", "a", "<s>", "b"])
    assert vocab.index == {"<s>": 0, "</s>": 1, "<unk>": 2, "a": 3, "b": 4}


def test_vocabulary_ids_dense():
    vocab = Vocabulary.from_lemmas(["b", "a", "b"])
    ids = sorted(vocab.index.values())
    assert ids == list(range(len(ids)))


# --- oracle equivalence -----------------------------------------------------

def _random_corpus(rng, max_tokens=50):
    vocab = [f"w{i}" for i in range(rng.randint(3, 10))]
    sents, used = [], 0
    while used < max_tokens - 4 and (not sents or rng.random() < 0.8):
        n = rng.randint(1, min(8, max_tokens - used))
        sents.append([rng.choice(vocab) for _ in range(n)])
        used += n
    return sents


def _docs_from_sentences(sents):
    lines = ["# doc: d"]
    for s in sents:
        lines.extend(f"{w}\t{w}" for w in s)
        lines.append("")
    return load_vertical("\n".join(lines))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_oracle_equivalence_small_corpora():
    rng = random.Random(13)
    for _ in range(30):
        sents = _random_corpus(rng)
        counts = count_bigrams(_docs_from_sentences(sents))
        try:
            discount = estimate_discount(counts)
        except DegenerateCountsError:
            discount = 0.5
        model = train_kn(counts, discount)
        reference = helpers.reference_kn(sents, discount)
        words = model.event_words() + [UNK, "zzz-unknown"]
        contexts = [START, END, "zzz-unknown"] + model.event_words()
        for v in contexts:
            for w in words:
                assert model.prob(v, w) == pytest.approx(
                    reference(v, w), abs=1e-12
                ), (v, w)


def test_monotonicity_under_fixed_discount():
    # one more observation of a seen bigram never lowers its probability
    rng = random.Random(99)
    for _ in range(40):
        sents = _random_corpus(rng)
        counts = count_bigrams(_docs_from_sentences(sents))
        pair, _ = max(counts.string_tables()[1].items(), key=lambda kv: (kv[1], kv[0]))
        index = counts.vocabulary.index
        for discount in (0.25, 0.5, 0.85):
            before = train_kn(counts, discount).prob(*pair)
            bumped = deepcopy(counts)
            bumped.c2[index[pair[0]] * len(index) + index[pair[1]]] += 1
            bumped.c1[index[pair[0]]] += 1
            after = train_kn(bumped, discount).prob(*pair)
            assert after >= before


# --- id-keyed tables against the string oracles -----------------------------

# Word lemmas from an explicit alphabet. As strings "0", "!a" and ";" sort
# before every reserved symbol and "<a" between them, yet the reserved
# symbols take the first ids.
_KERNEL_LEMMAS = ["0", "!a", ";", "<a", "a", "ä", "zz"]
# A word token is a ``(surface, lemma)`` pair: ";" is punctuation as a surface.
_kernel_tokens = st.one_of(
    st.sampled_from(_KERNEL_LEMMAS).map(lambda lemma: ("w", lemma)),
    st.sampled_from([".", ",", "/"]).map(lambda mark: (mark, mark)),
)
_kernel_corpora = st.lists(  # documents of sentences of tokens
    st.lists(st.lists(_kernel_tokens, min_size=1, max_size=5), max_size=4),
    min_size=1, max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(_kernel_corpora, st.sampled_from([0.25, 0.5, 0.85]))
@example(  # a single-word sentence, a punctuation-only one, and one of both kinds
    [[[("w", "a")], [(".", "."), (",", ",")], [("w", "0"), ("/", "/"), ("w", "<a")]],
     [[("w", "<a"), ("w", ";")], [("w", "!a")]]],
    0.5,
)
def test_id_tables_match_string_oracles(corpus, discount):
    lines, sentences = [], []
    for i, doc in enumerate(corpus):
        lines.append(f"# doc: d{i}")
        for sentence in doc:
            lines += [f"{surface}\t{lemma}" for surface, lemma in sentence]
            lines.append("")
            words = [lemma for surface, lemma in sentence if surface == "w"]
            if words:
                sentences.append(words)
    counts = count_bigrams(load_vertical("\n".join(lines)))
    c1, c2, _, _, types = helpers.reference_counts(sentences)
    assert counts.string_tables() == (c1, c2)
    if not types:
        return
    model = train_kn(counts, discount)
    oracle = helpers.reference_kn(sentences, discount)
    symbols = model.vocabulary.words() + ["zzz-unseen"]
    assert UNK in symbols
    for v in symbols:
        for w in symbols:
            assert model.prob(v, w) == pytest.approx(oracle(v, w), abs=1e-12), (v, w)
    assert export_arpa(model) == helpers.reference_export_arpa(model)


@settings(max_examples=60, deadline=None)
@given(_kernel_corpora, st.one_of(st.none(), st.floats(1e-6, 1 - 1e-6)))
def test_trained_models_clear_the_backoff_bound(corpus, discount):
    # A seen context's backoff weight D * fertility / count is below 1, an
    # unseen one's is 1.0, and every outcome unigram lies in (0, 1], so the
    # import check of every trained model scans no context exactly.
    lines = []
    for i, doc in enumerate(corpus):
        lines.append(f"# doc: d{i}")
        for sentence in doc:
            lines += [f"{surface}\t{lemma}" for surface, lemma in sentence]
            lines.append("")
    counts = count_bigrams(load_vertical("\n".join(lines)))
    try:
        model = train_kn(counts, discount)
    except DegenerateCountsError:
        return
    assert ngram._unbounded_contexts(model.unigram_p, model.bow) == []


def test_backoff_bound_clears_no_context_past_a_nan():
    # ``min`` and ``max`` skip a NaN that is not first, so a NaN unigram
    # sends every context to the exact scan; a NaN or too large backoff
    # weight sends its own context there.
    unigram_p = [0.0, 0.5, 0.25, 0.25]
    assert ngram._unbounded_contexts(unigram_p, [1.0, 0.5, math.nan, 3.0]) == [2, 3]
    assert ngram._unbounded_contexts([0.0, 0.5, math.nan, 0.25], [1.0] * 4) == [0, 1, 2, 3]


def test_pair_tables_are_keyed_by_integers(toy_counts, toy_model):
    imported = import_arpa(export_arpa(toy_model))
    for table in (toy_counts.c1, toy_counts.c2, toy_model.bigram_p, imported.bigram_p):
        assert table and all(type(key) is int for key in table)
    size = len(toy_model.vocabulary)
    index = toy_model.vocabulary.index
    assert toy_counts.c2[index["the"] * size + index["cat"]] == 2
    assert imported.vocabulary == toy_model.vocabulary
    assert set(imported.bigram_p) == set(toy_model.bigram_p)


# --- perplexity -------------------------------------------------------------

def test_perplexity_toy_matches_log_sum_oracle(toy_model):
    expected = helpers.reference_perplexity(
        helpers.TOY_SENTENCES, helpers.reference_kn(helpers.TOY_SENTENCES, 0.5)
    )
    assert perplexity(toy_model, helpers.toy_documents()) == pytest.approx(
        expected, rel=1e-12
    )


def test_perplexity_uniform_model():
    # a unigram-only ARPA with uniform probabilities over V event words;
    # the unknown symbol is one of them, since only the start symbol may
    # carry zero mass
    words = ["a", "b", "c", END, UNK]
    lp = f"{math.log10(1 / len(words)):.6f}"
    lines = ["\\data\\", f"ngram 1={len(words) + 1}", "ngram 2=0", "", "\\1-grams:"]
    lines.append(f"-99.000000\t{START}\t0.000000")
    for w in words:
        lines.append(f"{lp}\t{w}\t0.000000")
    lines += ["", "\\2-grams:", "", "\\end\\"]
    model = import_arpa("\n".join(lines))
    docs = load_vertical("# doc: d\na\ta\nb\tb\n\nc\tc\na\ta\n")
    # tolerance bounded by the six-decimal log10 storage, not the math
    assert perplexity(model, docs) == pytest.approx(len(words), rel=1e-5)


def test_perplexity_deterministic_bound():
    docs = load_vertical("# doc: d\na\ta\nb\tb\n")
    model = train_kn(count_bigrams(docs), discount=1e-6)
    assert perplexity(model, docs) < 1.001


def test_perplexity_empty_corpus_is_error(toy_model):
    with pytest.raises(ValueError):
        perplexity(toy_model, [])


def test_perplexity_of_a_reserved_lemma_is_the_loader_error(toy_model):
    # No document holds a reserved lemma, so counting and perplexity never see one.
    with pytest.raises(ParseError, match="^line 2: reserved lemma '<s>' for word token 'a'$"):
        perplexity(toy_model, load_vertical(f"# doc: d\na\t{START}\n"))
