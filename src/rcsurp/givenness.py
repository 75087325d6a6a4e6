"""Five-way givenness/salience classification of referent mentions,
per-clause givenness tables, and the 2x2 chi-square comparison.

A mention is classified against the document's mention history: unseen
referents are new (or inferable-new when flagged), re-mentions are salient
when at most ``SALIENCE_WINDOW`` mention events intervene since the last
mention of the same referent, and non-salient otherwise; salient mentions
flagged as the clause's aboutness-topic form their own category.
Inferability and topichood are annotation inputs, never computed here.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from functools import partial
from typing import Iterable, Mapping, NamedTuple, Sequence

from ._value import SALIENCE_WINDOW
from .clauses import ClauseRecord, Variant
from .corpus import Document
from .errors import ParseError, ValidationError


class SalienceCategory(enum.Enum):
    NEW = "new"
    INFERABLE_NEW = "inferable_new"
    GIVEN_NON_SALIENT = "given_non_salient"
    GIVEN_SALIENT = "given_salient"
    SALIENT_TOPIC = "salient_topic"


SALIENT_CATEGORIES = (SalienceCategory.GIVEN_SALIENT, SalienceCategory.SALIENT_TOPIC)


class ReferentMention(NamedTuple):
    doc_id: str
    start: int
    end: int  # exclusive, word positions
    referent_id: str
    inferable: bool
    topic: bool
    mention_ordinal: int  # dense 0-based index in the document's mention sequence


ClassifiedMention = tuple[ReferentMention, SalienceCategory]

# The loader builds each mention without the NamedTuple's Python-level
# ``__new__``, as ``corpus`` does for ``Token``.
_new_mention = partial(tuple.__new__, ReferentMention)


def check_salience_window(window: int) -> None:
    """Raise :class:`ParseError` for a negative window: no count of
    interveners could satisfy it."""
    if window < 0:
        raise ParseError(f"salience window must be >= 0, got {window}")


def classify_mention(
    mention: ReferentMention,
    interveners: int | None,
    window: int = SALIENCE_WINDOW,
) -> SalienceCategory:
    """Classify one mention from its interveners since the last mention of
    its referent, ``None`` for a first mention. A negative ``window`` is a
    :class:`ParseError` (see :func:`check_salience_window`)."""
    check_salience_window(window)
    if interveners is None:
        return (
            SalienceCategory.INFERABLE_NEW if mention.inferable else SalienceCategory.NEW
        )
    if interveners > window:
        return SalienceCategory.GIVEN_NON_SALIENT
    return SalienceCategory.SALIENT_TOPIC if mention.topic else SalienceCategory.GIVEN_SALIENT


def classify_document(
    mentions: Iterable[ReferentMention],
    window: int = SALIENCE_WINDOW,
    count_distinct: bool = False,
) -> list[ClassifiedMention]:
    """Classify one document's mentions in one pass in ordinal order. The
    interveners of a re-mention are the mention events (with
    ``count_distinct``, the distinct referents) since its referent's last mention."""
    check_salience_window(window)
    ordered = sorted(mentions, key=lambda m: m.mention_ordinal)
    last: dict[str, int] = {}  # referent id -> index of its latest mention
    classified = []
    for i, mention in enumerate(ordered):
        previous = last.get(mention.referent_id)
        if previous is None:
            interveners = None
        elif count_distinct:
            interveners = sum(j > previous for j in last.values())
        else:
            interveners = i - previous - 1
        last[mention.referent_id] = i
        classified.append((mention, classify_mention(mention, interveners, window)))
    return classified


def load_referent_annotations(
    text: str,
    documents: Mapping[str, Document] | None = None,
) -> list[ReferentMention]:
    """Parse the referent TSV: ``doc start end referent_id inferable topic``.

    Mentions come grouped by document and in interval order within each,
    which sets their ordinals. Overlapping intervals and, when ``documents``
    is given, mentions of an unknown document or past the document's last
    word are listed together in one :class:`ValidationError`.
    """
    raw: dict[str, list[tuple[int, int, str, bool, bool]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 6:
            raise ParseError(f"expected 6 tab-separated fields, got {len(fields)}", lineno)
        doc_id, start_s, end_s, referent_id, inferable_s, topic_s = fields
        try:
            start, end = int(start_s), int(end_s)
        except ValueError:
            raise ParseError(f"non-integer interval {start_s!r}..{end_s!r}", lineno)
        if start < 0:
            raise ParseError(f"negative interval start {start}", lineno)
        if end <= start:
            raise ParseError(f"empty interval [{start}, {end})", lineno)
        if inferable_s not in ("0", "1") or topic_s not in ("0", "1"):
            raise ParseError("inferable and topic flags must be 0 or 1", lineno)
        raw.setdefault(doc_id, []).append(
            (start, end, referent_id, inferable_s == "1", topic_s == "1")
        )

    mentions: list[ReferentMention] = []
    problems: list[str] = []
    for doc_id, rows in raw.items():
        rows.sort()
        doc = None if documents is None else documents.get(doc_id)
        word_count = None if doc is None else doc.word_count()
        # A mention overlaps an earlier one exactly when it starts before
        # the furthest end so far.
        reach = 0
        for i, (start, end, referent_id, inferable, topic) in enumerate(rows):
            if start < reach:
                problems.append(f"{doc_id}: overlapping mention intervals at {start}")
            reach = max(reach, end)
            if documents is not None and doc is None:
                problems.append(f"mention of {referent_id!r}: unknown document {doc_id!r}")
            elif word_count is not None and end > word_count:
                problems.append(
                    f"mention of {referent_id!r} at [{start}, {end}) exceeds document {doc_id!r}"
                )
            mentions.append(
                _new_mention((doc_id, start, end, referent_id, inferable, topic, i))
            )
    if problems:
        raise ValidationError(problems)
    return mentions


class GivennessCounts(NamedTuple):
    by_category: Mapping[SalienceCategory, int]

    @property
    def total(self) -> int:
        return sum(self.by_category.values())

    @property
    def new(self) -> int:
        return self.by_category[SalienceCategory.NEW]

    @property
    def salient(self) -> int:
        return sum(self.by_category[c] for c in SALIENT_CATEGORIES)

    def ratio(self, count: int) -> float | None:
        """Share of ``count`` in the total; None when nothing was counted."""
        return None if self.total == 0 else count / self.total


def clause_givenness(
    record: ClauseRecord,
    classified: Sequence[ClassifiedMention],
    part: str,
) -> GivennessCounts:
    """Category counts over the mentions inside one clause part. ``classified``
    is one document's mentions in interval order, as :func:`classify_document`
    returns loaded ones, and the record's spans must not overlap."""
    if part == "rc":
        spans = (record.rc_span,)
    elif part == "matrix":
        spans = record.matrix_spans
    else:
        raise ValueError(f"unknown part {part!r}")
    by_category = dict.fromkeys(SalienceCategory, 0)
    for span in spans:
        i = bisect_left(classified, span.start, key=lambda pair: pair[0].start)
        while i < len(classified) and classified[i][0].end <= span.end:
            by_category[classified[i][1]] += 1
            i += 1
    return GivennessCounts(by_category)


def chi_square_2x2(a: int, b: int, c: int, d: int) -> tuple[float, float]:
    """Pearson chi-square without continuity correction on [[a, b], [c, d]].

    Returns the statistic and the upper-tail p-value at one degree of
    freedom, ``erfc(sqrt(statistic / 2))``. A negative count, a marginal
    that is not positive, or counts whose statistic exceeds the float range
    is a :class:`ParseError`.
    """
    for count in (a, b, c, d):
        if count < 0:
            raise ParseError("counts must be non-negative")
    if min(a + b, c + d, a + c, b + d) == 0:
        raise ParseError("degenerate table: a marginal is zero")
    n = a + b + c + d
    try:
        statistic = n * (a * d - b * c) ** 2 / ((a + b) * (c + d) * (a + c) * (b + d))
    except OverflowError:
        raise ParseError("counts too large: the chi-square statistic exceeds"
                         " the float range") from None
    return statistic, math.erfc(math.sqrt(statistic / 2.0))


# --- givenness report ------------------------------------------------------

_GIVENNESS_ROWS = (
    ("rc", Variant.IN_SITU, "Relative clauses: in-situ"),
    ("matrix", Variant.IN_SITU, "Matrix clauses of in-situ rel. cl."),
    ("rc", Variant.EXTRAPOSED, "Relative clauses: extraposed"),
    ("matrix", Variant.EXTRAPOSED, "Matrix clauses of extraposed rel. cl."),
)


class GivennessRow(NamedTuple):
    label: str
    part: str
    variant: Variant
    counts: GivennessCounts


def build_givenness_table(
    records: Sequence[ClauseRecord],
    classified: Mapping[str, Sequence[ClassifiedMention]],
) -> list[GivennessRow]:
    """Pooled per-variant, per-part mention counts in the standard row order;
    ``classified`` maps each document id to its classified mentions."""
    rows = []
    for part, variant, label in _GIVENNESS_ROWS:
        pooled = dict.fromkeys(SalienceCategory, 0)
        for record in records:
            if record.variant is not variant:
                continue
            counts = clause_givenness(record, classified.get(record.doc_id, ()), part)
            for category, count in counts.by_category.items():
                pooled[category] += count
        rows.append(GivennessRow(label, part, variant, GivennessCounts(pooled)))
    return rows


def _pct(ratio: float | None) -> str:
    return "NA" if ratio is None else f"{100.0 * ratio:.1f}%"


def givenness_tsv(rows: Iterable[GivennessRow]) -> str:
    lines = [
        "row\treferents_total\tnew\tnew_pct\tsalient\tsalient_pct"
        "\tinferable_new\tgiven_non_salient\tgiven_salient\tsalient_topic\n"
    ]
    for row in rows:
        c = row.counts
        lines.append(
            f"{row.label}\t{c.total}\t{c.new}\t{_pct(c.ratio(c.new))}"
            f"\t{c.salient}\t{_pct(c.ratio(c.salient))}"
            f"\t{c.by_category[SalienceCategory.INFERABLE_NEW]}"
            f"\t{c.by_category[SalienceCategory.GIVEN_NON_SALIENT]}"
            f"\t{c.by_category[SalienceCategory.GIVEN_SALIENT]}"
            f"\t{c.by_category[SalienceCategory.SALIENT_TOPIC]}\n"
        )
    return "".join(lines)


def new_referent_chi_square(rows: Sequence[GivennessRow]) -> tuple[float, float]:
    """Chi-square of new vs. non-new referents across the two relative
    clause rows (in-situ vs. extraposed)."""
    rc_rows = {row.variant: row.counts for row in rows if row.part == "rc"}
    in_situ = rc_rows[Variant.IN_SITU]
    extraposed = rc_rows[Variant.EXTRAPOSED]
    return chi_square_2x2(
        in_situ.new, in_situ.total - in_situ.new,
        extraposed.new, extraposed.total - extraposed.new,
    )


def chi_square_tsv(rows: Sequence[GivennessRow]) -> str:
    """The new-referent chi-square row; ``NA`` when the table is degenerate."""
    try:
        statistic, p = new_referent_chi_square(rows)
    except (ParseError, KeyError):
        cells = "NA\tNA"
    else:
        cells = f"{statistic:.4f}\t{p:.4f}"
    return f"comparison\tstatistic\tp\nnew referents, in-situ vs. extraposed rc\t{cells}\n"
