"""The names ``rcsurp`` exports. The package resolves each one from its
module on first use, so this pins that every name still resolves, to the
object its module defines, by attribute access, ``from rcsurp import *``
and ``dir``. A change to the exported names edits ``PUBLIC_NAMES``.
"""

import importlib

import pytest

import rcsurp

# (module, names it exports through the package)
PUBLIC_NAMES = (
    ("accommodation", ("AccommodationState", "FactorConfig", "accommodate_document",
                       "accommodation_factors", "factor", "make_content_predicate", "next_x")),
    ("clauses", ("ClauseMetrics", "ClauseRecord", "ClauseScorer", "Linearization", "Span",
                 "Variant", "parse_clause_annotations", "relinearize")),
    ("corpus", ("Document", "Token", "Word", "load_vertical", "load_vertical_file",
                "resegment_sentences")),
    ("errors", ("DegenerateCountsError", "ParseError", "PipelineError", "ValidationError")),
    ("givenness", ("ReferentMention", "SalienceCategory", "chi_square_2x2",
                   "classify_document", "classify_mention", "clause_givenness",
                   "load_referent_annotations")),
    ("ngram", ("END", "START", "UNK", "BigramCounts", "KneserNeyBigramModel", "Vocabulary",
               "count_bigrams", "estimate_discount", "export_arpa", "import_arpa",
               "perplexity", "train_kn")),
    ("surprisal", ("SurprisalAnnotation", "SurprisalEntry", "annotate_document",
                   "annotate_sequence", "log10_to_bits", "surprisal_from_prob")),
)
NAMES = tuple(name for _, names in PUBLIC_NAMES for name in names)
HOMES = [(module, name) for module, names in PUBLIC_NAMES for name in names]


def test_all_lists_the_public_names():
    assert len(NAMES) == 50
    assert tuple(rcsurp.__all__) == NAMES


@pytest.mark.parametrize("module, name", HOMES, ids=NAMES)
def test_name_is_the_object_its_module_defines(module, name):
    assert getattr(rcsurp, name) is getattr(importlib.import_module(f"rcsurp.{module}"), name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from rcsurp import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert all(namespace[name] is getattr(rcsurp, name) for name in NAMES)


def test_dir_lists_every_name():
    assert set(NAMES) <= set(dir(rcsurp))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        rcsurp.no_such_name
    assert not hasattr(rcsurp, "no_such_name")
