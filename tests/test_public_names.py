"""The names ``rcsurp`` exports. The package resolves each one from its
module on first use, so this pins that every name still resolves, to the
object its module defines, by attribute access, ``from rcsurp import *``
and ``dir``. A change to the exported names edits ``PUBLIC_NAMES``, and a
change to a public function's or class's signature edits ``SIGNATURES``.
"""

import enum
import importlib
import inspect
import types

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

# ``_surface`` of every public name but the three reserved-symbol strings.
SIGNATURES = {
    "AccommodationState": "()",
    "FactorConfig":
        "(bonus: 'float' = 4.0, wearout: 'int' = 4, window: 'int' = 200, floor: 'int' = 2)",
    "accommodate_document":
        "(annotation: 'SurprisalAnnotation', doc: 'Document', "
        "content_predicate: 'Callable[[Word], bool] | None' = None, "
        "cfg: 'FactorConfig' = FactorConfig()) -> 'Factors'",
    "accommodation_factors":
        "(doc: 'Document', content_predicate: 'Callable[[Word], bool] | None' = None, "
        "cfg: 'FactorConfig' = FactorConfig()) -> 'Factors'",
    "factor": "(x: 'int', cfg: 'FactorConfig' = FactorConfig()) -> 'float'",
    "make_content_predicate":
        "(content_pos: 'frozenset[str]' = frozenset({'ADJ', 'ADJA', 'ADJD', 'ADV', 'NE', "
        "'NN', 'NOUN', 'PROPN', 'VERB', 'VVFIN', 'VVIMP', 'VVINF', 'VVIZU', 'VVPP'}), "
        "stoplist: 'frozenset[str] | None' = None) -> 'Callable[[Word], bool]'",
    "next_x": "(prev_x: 'int', gap: 'int', cfg: 'FactorConfig' = FactorConfig()) -> 'int'",
    "ClauseMetrics":
        "(adS: 'float', avS: 'float', n_scored: 'int', mode: 'str', linearization: 'str', "
        "part: 'str')",
    "ClauseRecord":
        "(id: 'str', doc_id: 'str', variant: 'Variant', matrix_spans: 'tuple[Span, ...]', "
        "rc_span: 'Span', attachment: 'int')",
    "ClauseScorer":
        "(model: 'KneserNeyBigramModel', accommodation: 'FactorConfig' = FactorConfig(), "
        "content_predicate: 'Callable[[Word], bool] | None' = None, "
        "combined_excludes_matrix_first: 'bool' = True)",
    "Linearization": "(tokens: 'tuple[LinearToken, ...]', initial_context: 'str')",
    "Span": "(start: 'int', end: 'int')",
    "Variant": "members 'in_situ', 'extraposed'",
    "parse_clause_annotations":
        "(text: 'str', "
        "documents: 'Mapping[str, Document] | None' = None) -> 'list[ClauseRecord]'",
    "relinearize":
        "(record: 'ClauseRecord', doc: 'Document', target: 'Variant') -> 'Linearization'",
    "Document": "(id: 'str', tokens: 'tuple[Token, ...]')",
    "Token":
        "(surface: 'str', lemma: 'str', pos: 'str | None', doc_position: 'int | None', "
        "sentence_index: 'int', is_punctuation: 'bool')",
    "Word": "(*args, **kwargs)",
    "load_vertical": "(source: 'str | Iterable[str]') -> 'list[Document]'",
    "load_vertical_file": "(path: 'str | Path') -> 'list[Document]'",
    "resegment_sentences": "(doc: 'Document') -> 'Document'",
    "DegenerateCountsError": "bases PipelineError",
    "ParseError": "(message: 'str', line: 'int | None' = None)",
    "PipelineError": "bases Exception",
    "ValidationError": "(problems: 'list[str]')",
    "ReferentMention":
        "(doc_id: 'str', start: 'int', end: 'int', referent_id: 'str', inferable: 'bool', "
        "topic: 'bool', mention_ordinal: 'int')",
    "SalienceCategory":
        "members 'new', 'inferable_new', 'given_non_salient', 'given_salient', 'salient_topic'",
    "chi_square_2x2": "(a: 'int', b: 'int', c: 'int', d: 'int') -> 'tuple[float, float]'",
    "classify_document":
        "(mentions: 'Iterable[ReferentMention]', window: 'int' = 10, "
        "count_distinct: 'bool' = False) -> 'list[ClassifiedMention]'",
    "classify_mention":
        "(mention: 'ReferentMention', interveners: 'int | None', "
        "window: 'int' = 10) -> 'SalienceCategory'",
    "clause_givenness":
        "(record: 'ClauseRecord', classified: 'Sequence[ClassifiedMention]', "
        "part: 'str') -> 'GivennessCounts'",
    "load_referent_annotations":
        "(text: 'str', "
        "documents: 'Mapping[str, Document] | None' = None) -> 'list[ReferentMention]'",
    "BigramCounts":
        "(vocabulary: 'Vocabulary', c1: 'Counter | None' = None, c2: 'Counter | None' = None)",
    "KneserNeyBigramModel":
        "(vocabulary: 'Vocabulary', unigram_p: 'list[float]', bow: 'list[float]', "
        "bigram_p: 'dict[int, float]', discount: 'float | None' = None)",
    "Vocabulary": "(index: 'dict[str, int]')",
    "count_bigrams": "(docs: 'Iterable[Document]') -> 'BigramCounts'",
    "estimate_discount": "(counts: 'BigramCounts') -> 'float'",
    "export_arpa": "(model: 'KneserNeyBigramModel') -> 'str'",
    "import_arpa": "(text: 'str') -> 'KneserNeyBigramModel'",
    "perplexity": "(model: 'KneserNeyBigramModel', docs: 'Iterable[Document]') -> 'float'",
    "train_kn":
        "(counts: 'BigramCounts', discount: 'float | None' = None) -> 'KneserNeyBigramModel'",
    "SurprisalAnnotation": "(doc_id: 'str | None', entries: 'tuple[SurprisalEntry, ...]')",
    "SurprisalEntry":
        "(lemma: 'str', context: 'str', probability: 'float', surprisal_bits: 'float', "
        "doc_position: 'int')",
    "annotate_document":
        "(model: 'KneserNeyBigramModel', doc: 'Document') -> 'SurprisalAnnotation'",
    "annotate_sequence":
        "(model: 'KneserNeyBigramModel', lemmas: 'Sequence[str]', "
        "initial_context: 'str' = '<s>', "
        "positions: 'Sequence[int] | None' = None) -> 'SurprisalAnnotation'",
    "log10_to_bits": "(log10_prob: 'float') -> 'float'",
    "surprisal_from_prob": "(probability: 'float') -> 'float'",
}


class _Shown:
    """A default value shown by a fixed text."""

    def __init__(self, text):
        self.text = text

    def __repr__(self):
        return self.text


def _stable(default):
    """``default``, or a stand-in whose repr has no memory address and no
    hash order, which change from run to run."""
    if isinstance(default, frozenset):
        return _Shown("frozenset({%s})" % ", ".join(map(repr, sorted(default))))
    if type(default).__repr__ is object.__repr__:
        return _Shown(f"{type(default).__name__}()")
    return default


def _surface(obj) -> str:
    """``str(inspect.signature(obj))`` as every Python version of the CI
    matrix shows it: a ``NamedTuple`` field's ``ForwardRef`` as its text,
    and defaults through ``_stable``. An enum is called through
    ``EnumMeta``, whose signature changed between versions, so it shows its
    member values; a class with no constructor in Python shows its bases."""
    if isinstance(obj, enum.EnumMeta):
        return "members " + ", ".join(repr(member.value) for member in obj)
    if isinstance(obj, type) and not any(
        isinstance(getattr(obj, method), types.FunctionType) for method in ("__init__", "__new__")
    ):
        return "bases " + ", ".join(base.__name__ for base in obj.__bases__)
    signature = inspect.signature(obj)
    return str(signature.replace(parameters=[
        p.replace(annotation=getattr(p.annotation, "__forward_arg__", p.annotation),
                  default=_stable(p.default))
        for p in signature.parameters.values()
    ]))


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


def test_signatures_cover_the_public_callables():
    assert [name for name in NAMES if callable(getattr(rcsurp, name))] == list(SIGNATURES)
    assert len(SIGNATURES) == 47


@pytest.mark.parametrize("name", SIGNATURES)
def test_signature_is_pinned(name):
    assert _surface(getattr(rcsurp, name)) == SIGNATURES[name]
