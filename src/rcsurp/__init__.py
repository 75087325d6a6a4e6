"""Corpus toolkit for measuring how information density patterns with the
placement of German relative clauses: bigram Kneser-Ney language modeling,
per-lemma surprisal, mention-history accommodation weighting, clause-level
adS/avS metrics for attested and re-linearized orders, and givenness
classification with a chi-square comparison.

Each public name is imported from its module on first use (PEP 562), so
``import rcsurp``, which every ``python -m rcsurp.cli`` run pays, loads
none of the package's modules by itself.
"""

from importlib import import_module

# The module that defines each public name.
_MODULES = {
    "accommodation": ("AccommodationState", "FactorConfig", "accommodate_document",
                      "accommodation_factors", "factor", "make_content_predicate", "next_x"),
    "clauses": ("ClauseMetrics", "ClauseRecord", "ClauseScorer", "Linearization", "Span",
                "Variant", "parse_clause_annotations", "relinearize"),
    "corpus": ("Document", "Token", "Word", "load_vertical", "load_vertical_file",
               "resegment_sentences"),
    "errors": ("DegenerateCountsError", "ParseError", "PipelineError", "ValidationError"),
    "givenness": ("ReferentMention", "SalienceCategory", "chi_square_2x2", "classify_document",
                  "classify_mention", "clause_givenness", "load_referent_annotations"),
    "ngram": ("END", "START", "UNK", "BigramCounts", "KneserNeyBigramModel", "Vocabulary",
              "count_bigrams", "estimate_discount", "export_arpa", "import_arpa", "perplexity",
              "train_kn"),
    "surprisal": ("SurprisalAnnotation", "SurprisalEntry", "annotate_document",
                  "annotate_sequence", "log10_to_bits", "surprisal_from_prob"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
