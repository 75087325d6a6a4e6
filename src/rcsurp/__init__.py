"""Corpus toolkit for measuring how information density patterns with the
placement of German relative clauses: bigram Kneser-Ney language modeling,
per-lemma surprisal, mention-history accommodation weighting, clause-level
adS/avS metrics for attested and re-linearized orders, and givenness
classification with a chi-square comparison.
"""

from .accommodation import (
    AccommodationState,
    FactorConfig,
    accommodate_document,
    accommodation_factors,
    factor,
    make_content_predicate,
    next_x,
)
from .clauses import (
    ClauseMetrics,
    ClauseRecord,
    ClauseScorer,
    Linearization,
    Span,
    Variant,
    parse_clause_annotations,
    relinearize,
)
from .corpus import (
    Document,
    Token,
    Word,
    load_vertical,
    load_vertical_file,
    resegment_sentences,
)
from .errors import DegenerateCountsError, ParseError, PipelineError, ValidationError
from .givenness import (
    ReferentMention,
    SalienceCategory,
    chi_square_2x2,
    classify_document,
    classify_mention,
    clause_givenness,
    load_referent_annotations,
)
from .ngram import (
    END,
    START,
    UNK,
    BigramCounts,
    KneserNeyBigramModel,
    Vocabulary,
    count_bigrams,
    estimate_discount,
    export_arpa,
    import_arpa,
    perplexity,
    train_kn,
)
from .surprisal import (
    SurprisalAnnotation,
    SurprisalEntry,
    annotate_document,
    annotate_sequence,
    log10_to_bits,
    surprisal_from_prob,
)

__version__ = "0.1.0"
