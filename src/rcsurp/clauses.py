"""Relative-clause records: span validation, re-linearization between the
adjacent (in-situ) and postfield (extraposed) orders, and additive/average
surprisal metrics per clause part.

Records carry manual annotations as word-position intervals (end
exclusive): the relative clause span, the matrix clause span (two
intervals when an in-situ relative clause splits its matrix), and the
attachment point right after the head noun, where the clause sits in the
in-situ order.

Scoring follows two conventions throughout: the first word of each clause
part is excluded from its sums (the relative pronoun carries no usable
variation, and the matrix initial word is dropped for symmetry), and a
clause is always scored inside a full re-linearized chain so that words
whose neighbor changes between orders get re-contextualized scores.
"""

from __future__ import annotations

import enum
import json
import math
from functools import partial, total_ordering
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from ._value import Frozen
from .accommodation import FactorConfig, Factors, accommodation_factors
from .corpus import Document, Word
from .errors import ParseError, ValidationError
from .ngram import KneserNeyBigramModel
from .surprisal import annotate_sequence

RC_LABEL = "rel. cl."
MATRIX_LABEL = "matrix cl."
COMBINED_LABEL = "combined"


class Variant(enum.Enum):
    IN_SITU = "in_situ"
    EXTRAPOSED = "extraposed"

    def other(self) -> "Variant":
        return Variant.EXTRAPOSED if self is Variant.IN_SITU else Variant.IN_SITU


@total_ordering
class Span(Frozen):
    """A word-position interval ``[start, end)``, checked when built; spans
    order by their ``(start, end)`` pair."""

    _fields = ("start", "end")

    def __init__(self, start: int, end: int):
        if start < 0 or end <= start:
            raise ValueError(f"invalid span [{start}, {end})")
        self.__dict__.update(start=start, end=end)

    def __repr__(self) -> str:
        return f"Span(start={self.start!r}, end={self.end!r})"

    def __lt__(self, other):
        if type(other) is not Span:
            return NotImplemented
        return self._key() < other._key()

    def __len__(self) -> int:
        return self.end - self.start

    def positions(self) -> range:
        return range(self.start, self.end)

    def overlaps(self, other: "Span") -> bool:
        return self.start < other.end and other.start < self.end


class ClauseRecord(NamedTuple):
    id: str
    doc_id: str
    variant: Variant
    matrix_spans: tuple[Span, ...]
    rc_span: Span
    attachment: int  # word position right after the head noun

    def matrix_positions(self) -> list[int]:
        return [p for span in sorted(self.matrix_spans) for p in span.positions()]

    def all_positions(self) -> list[int]:
        return sorted(self.matrix_positions() + list(self.rc_span.positions()))


def _record_problems(record: ClauseRecord) -> list[str]:
    """Document-independent geometry checks; returns human-readable
    problems prefixed with the record id."""
    problems = []

    def bad(msg: str):
        problems.append(f"{record.id}: {msg}")

    spans = list(record.matrix_spans) + [record.rc_span]
    for a in range(len(spans)):
        for b in range(a + 1, len(spans)):
            if spans[a].overlaps(spans[b]):
                bad(f"overlapping spans {spans[a]} and {spans[b]}")
                return problems

    if record.variant is Variant.IN_SITU:
        if len(record.matrix_spans) != 2:
            bad("in-situ record needs the matrix split into exactly two intervals")
            return problems
        first, second = sorted(record.matrix_spans)
        if first.end != record.rc_span.start or record.rc_span.end != second.start:
            bad(
                "in-situ relative clause must sit exactly between the two "
                "matrix intervals"
            )
        if record.attachment != record.rc_span.start:
            bad("attachment must equal the relative clause start for in-situ records")
    else:
        if len(record.matrix_spans) != 1:
            bad("extraposed record needs one contiguous matrix interval")
            return problems
        matrix = record.matrix_spans[0]
        if record.rc_span.start < matrix.end:
            bad("extraposed relative clause must follow all matrix material")
        # The head noun is matrix material, so the position right after it
        # lies past the matrix start.
        if not matrix.start < record.attachment <= matrix.end:
            bad("attachment must lie after the matrix start and at most at its end")
    return problems


def _bounds_problems(record: ClauseRecord, doc: Document) -> list[str]:
    limit = doc.word_count()
    problems = []
    for span in list(record.matrix_spans) + [record.rc_span]:
        if span.end > limit:
            problems.append(
                f"{record.id}: span [{span.start}, {span.end}) exceeds "
                f"document {doc.id!r} with {limit} words"
            )
    return problems


def parse_clause_annotations(
    text: str,
    documents: Mapping[str, Document] | None = None,
) -> list[ClauseRecord]:
    """Parse and validate the clause annotation JSON.

    The payload is an array of objects ``{id, doc, variant, matrix, rc,
    attachment}`` with word positions as JSON integers, end exclusive. All
    validation problems are collected and raised together as a
    :class:`ValidationError`; when ``documents`` is given, spans are also
    checked against document bounds. Text that is not JSON, or that nests or
    holds integers past the interpreter's limits, is a :class:`ParseError`.
    """
    try:
        raw = json.loads(text)
    except RecursionError:
        raise ParseError("clause annotations are nested too deeply")
    except json.JSONDecodeError as exc:
        message = f"clause annotations are not valid JSON: {exc.msg} (column {exc.colno})"
        raise ParseError(message, exc.lineno)
    except ValueError as exc:  # an integer past ``sys.get_int_max_str_digits()``
        raise ParseError(f"clause annotations: {exc}")
    if not isinstance(raw, list):
        raise ValidationError(["clause annotations must be a JSON array"])

    records: list[ClauseRecord] = []
    problems: list[str] = []
    seen_ids: set[str] = set()
    for i, item in enumerate(raw):
        label = item.get("id", f"record #{i}") if isinstance(item, dict) else f"record #{i}"
        try:
            variant = Variant(item["variant"])
            matrix = [(s, e) for s, e in item["matrix"]]
            rc = (item["rc"][0], item["rc"][1])
            positions = [("matrix", p) for pair in matrix for p in pair]
            positions += [("rc", p) for p in rc] + [("attachment", item["attachment"])]
            # A bool is an int to Python but never a word position.
            bad = [f"{label}: {name} position {v!r} is not an integer"
                   for name, v in positions if type(v) is not int]
            if bad:
                problems.extend(bad)
                continue
            record = ClauseRecord(
                id=str(item["id"]),
                doc_id=str(item["doc"]),
                variant=variant,
                matrix_spans=tuple(Span(s, e) for s, e in matrix),
                rc_span=Span(*rc),
                attachment=item["attachment"],
            )
        except (KeyError, TypeError, IndexError) as exc:
            problems.append(f"{label}: missing or malformed field ({exc})")
            continue
        except ValueError as exc:
            problems.append(f"{label}: {exc}")
            continue
        if record.id in seen_ids:
            problems.append(f"{record.id}: duplicate record id")
            continue
        seen_ids.add(record.id)
        record_problems = _record_problems(record)
        if documents is not None and not record_problems:
            if record.doc_id not in documents:
                record_problems = [f"{record.id}: unknown document {record.doc_id!r}"]
            else:
                record_problems = _bounds_problems(record, documents[record.doc_id])
        if record_problems:
            problems.extend(record_problems)
        else:
            records.append(record)
    if problems:
        raise ValidationError(problems)
    return records


class LinearToken(NamedTuple):
    lemma: str
    doc_position: int
    part: str  # "matrix" or "rc"


# ``relinearize`` builds each token without the NamedTuple's Python-level
# ``__new__``, as ``corpus`` does for ``Token``.
_new_linear_token = partial(tuple.__new__, LinearToken)


class Linearization(NamedTuple):
    tokens: tuple[LinearToken, ...]
    initial_context: str

    def lemmas(self) -> list[str]:
        return [t.lemma for t in self.tokens]

    def positions(self) -> list[int]:
        return [t.doc_position for t in self.tokens]


def relinearize(record: ClauseRecord, doc: Document, target: Variant) -> Linearization:
    """Order the record's material as the target variant would utter it.

    In-situ: matrix up to the attachment point, the relative clause, the
    rest of the matrix. Extraposed: the full matrix, then the relative
    clause. Re-linearizing to the attested variant reproduces the attested
    word order. The initial context is the first clause word's context in
    the document, as ``count_bigrams`` counts it.
    """
    columns = doc._word_columns
    lemmas = columns.lemmas
    new_token = _new_linear_token
    matrix = [new_token((lemmas[p], p, "matrix")) for p in record.matrix_positions()]
    rc = [new_token((lemmas[p], p, "rc")) for p in record.rc_span.positions()]

    if target is Variant.IN_SITU:
        split = sum(1 for t in matrix if t.doc_position < record.attachment)
        ordered = matrix[:split] + rc + matrix[split:]
    else:
        ordered = matrix + rc

    return Linearization(tuple(ordered), columns.contexts[ordered[0].doc_position])


class ClauseMetrics(NamedTuple):
    adS: float
    avS: float
    n_scored: int
    mode: str           # "bare" or "accommodated"
    linearization: str  # "attested" or "hypothetical"
    part: str           # "rc", "matrix", or "combined"

    @classmethod
    def from_values(
        cls, values: Sequence[float], mode: str, linearization: str, part: str
    ) -> "ClauseMetrics":
        n = len(values)
        if n < 1:
            raise ValueError("no values to score")
        # adS is the once-rounded product of the mean so that
        # avS * n_scored == adS holds bit-for-bit.
        avS = math.fsum(values) / n
        return cls(avS * n, avS, n, mode, linearization, part)


# A scored chain by column: each token's part, document position and
# surprisal in bits, in the order of its linearization.
_Chain = tuple[tuple[str, ...], tuple[int, ...], Sequence[float]]

MODES = ("bare", "accommodated")
PARTS = ("rc", "matrix", "combined")
LINEARIZATIONS = ("attested", "hypothetical")


class ClauseScorer:
    """Scores clause records against a trained model, caching the
    per-document accommodation factors and each record's scored chains.

    A record has two chains, attested and hypothetical, and every
    (mode, part) cell of a linearization filters and weights the same
    chain, so each chain is re-linearized and annotated once per scorer.

    ``combined_excludes_matrix_first`` keeps the symmetric two-word
    exclusion for the combined metric; set it to False to drop only the
    relative pronoun there. ``content_predicate`` is passed to
    ``accommodation_factors``, which calls it with ``Word``s and resolves
    None to the default predicate.
    """

    def __init__(
        self,
        model: KneserNeyBigramModel,
        accommodation: FactorConfig = FactorConfig(),
        content_predicate: Callable[[Word], bool] | None = None,
        combined_excludes_matrix_first: bool = True,
    ):
        self.model = model
        self.accommodation = accommodation
        self.content_predicate = content_predicate
        self.combined_excludes_matrix_first = combined_excludes_matrix_first
        # Factors by document id, each with the document they were built for:
        # ids may repeat across corpora, so an entry serves only that object.
        self._factor_cache: dict[str, tuple[Document, Factors]] = {}
        # Scored chains by record object and linearization, each with the
        # record and document it was scored for, under the same rule.
        self._chain_cache: dict[tuple[int, str], tuple[ClauseRecord, Document, _Chain]] = {}

    def _factors(self, doc: Document) -> Factors:
        cached = self._factor_cache.get(doc.id)
        if cached is None or cached[0] is not doc:
            cached = self._factor_cache[doc.id] = (
                doc, accommodation_factors(doc, self.content_predicate, self.accommodation)
            )
        return cached[1]

    def _chain(self, record: ClauseRecord, doc: Document, linearization: str) -> _Chain:
        key = (id(record), linearization)
        cached = self._chain_cache.get(key)
        if cached is None or cached[0] is not record or cached[1] is not doc:
            target = record.variant if linearization == "attested" else record.variant.other()
            linear = relinearize(record, doc, target)
            lemmas, positions, parts = zip(*linear.tokens)
            annotation = annotate_sequence(
                self.model, lemmas, linear.initial_context, positions
            )
            cached = self._chain_cache[key] = (
                record, doc, (parts, positions, annotation._columns.bits)
            )
        return cached[2]

    def metrics(
        self,
        record: ClauseRecord,
        doc: Document,
        mode: str = "bare",
        part: str = "combined",
        linearization: str = "attested",
    ) -> ClauseMetrics:
        """adS/avS of one clause part in the chosen order and mode.

        The whole re-linearized chain is annotated so excluded words still
        serve as context; their own scores are just left out of the sums.
        In accommodated mode each score is multiplied by the factor at the
        word's attested document position.
        """
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if part not in PARTS:
            raise ValueError(f"unknown part {part!r}")
        if linearization not in LINEARIZATIONS:
            raise ValueError(f"unknown linearization {linearization!r}")

        chain = self._chain(record, doc, linearization)

        rc_first = record.rc_span.start
        # Spans are never empty, so this is the first matrix position.
        matrix_first = min(span.start for span in record.matrix_spans)
        excluded = {rc_first}
        if part != "rc" and (part != "combined" or self.combined_excludes_matrix_first):
            excluded.add(matrix_first)

        values: list[float] = []
        factors = self._factors(doc) if mode == "accommodated" else None
        for token_part, position, value in zip(*chain):
            if part != "combined" and token_part != part:
                continue
            if position in excluded:
                continue
            if factors is not None:
                value *= factors[position][1]
            values.append(value)
        if not values:
            raise ValueError(f"clause too short to score: {record.id} ({part})")
        return ClauseMetrics.from_values(values, mode, linearization, part)


def check_scorable(records: Iterable[ClauseRecord]) -> None:
    """Raise one :class:`ValidationError` naming every record whose
    relative clause or matrix is a single word: with the first word of
    each part excluded, nothing of it would be left to score."""
    problems = [
        f"{r.id}: clause too short to score ({part} has a single word)"
        for r in records
        for part, size in (("rc", len(r.rc_span)), ("matrix", len(r.matrix_positions())))
        if size < 2
    ]
    if problems:
        raise ValidationError(problems)


# --- report tables ---------------------------------------------------------

# Rows of the per-variant surprisal tables. For in-situ records the
# rc/matrix rows are scored in the extraposed (hypothetical) order, so the
# clause-by-itself values are comparable across variants; the combined row
# is their attested bundled order.
_TABLE_PLAN = {
    Variant.EXTRAPOSED: (
        (RC_LABEL, "rc", "attested"),
        (MATRIX_LABEL, "matrix", "attested"),
    ),
    Variant.IN_SITU: (
        (RC_LABEL, "rc", "hypothetical"),
        (MATRIX_LABEL, "matrix", "hypothetical"),
        (COMBINED_LABEL, "combined", "attested"),
    ),
}


class TableRow(NamedTuple):
    variant: Variant
    label: str
    n: int
    mean_adS: float | None
    mean_avS: float | None


def _summary_row(
    variant: Variant, label: str, records: Sequence[ClauseRecord],
    documents: Mapping[str, Document], scorer: ClauseScorer,
    mode: str, part: str, linearization: str,
) -> TableRow:
    """The mean adS/avS of one cell over ``records``, summed in record
    order; the means are None without records."""
    ms = [scorer.metrics(r, documents[r.doc_id], mode, part, linearization) for r in records]
    means = (
        (math.fsum(m.adS for m in ms) / len(ms), math.fsum(m.avS for m in ms) / len(ms))
        if ms else (None, None)
    )
    return TableRow(variant, label, len(ms), *means)


def build_surprisal_table(
    records: Sequence[ClauseRecord],
    documents: Mapping[str, Document],
    scorer: ClauseScorer,
    mode: str,
) -> list[TableRow]:
    """Per-variant adS/avS summary rows in the standard layout."""
    by_variant = {variant: [r for r in records if r.variant is variant] for variant in _TABLE_PLAN}
    return [
        _summary_row(variant, label, by_variant[variant], documents, scorer,
                     mode, part, linearization)
        for variant, plan in _TABLE_PLAN.items()
        for label, part, linearization in plan
    ]


def build_hypothetical_table(
    records: Sequence[ClauseRecord],
    documents: Mapping[str, Document],
    scorer: ClauseScorer,
) -> list[TableRow]:
    """Combined metrics of extraposed records re-linearized in-situ, the
    counterfactual bundled reading, in both modes."""
    extraposed = [r for r in records if r.variant is Variant.EXTRAPOSED]
    return [
        _summary_row(Variant.EXTRAPOSED, f"{COMBINED_LABEL} (as if in-situ, {mode})",
                     extraposed, documents, scorer, mode, "combined", "hypothetical")
        for mode in MODES
    ]


def _cell(value: float | None) -> str:
    return "NA" if value is None else f"{value:.4f}"


def table_tsv(rows: Iterable[TableRow]) -> str:
    return "variant\trow\tn\tadS\tavS\n" + "".join(
        f"{row.variant.value}\t{row.label}\t{row.n}"
        f"\t{_cell(row.mean_adS)}\t{_cell(row.mean_avS)}\n"
        for row in rows
    )


def render_table(rows: Sequence[TableRow]) -> str:
    """Aligned human-readable rendering of a summary table."""
    lines = []
    for variant in (Variant.EXTRAPOSED, Variant.IN_SITU):
        block = [r for r in rows if r.variant is variant]
        if not block:
            continue
        name = variant.value.replace("_", "-")
        lines.append(f"{name} relative clauses (n = {block[0].n})")
        for row in block:
            lines.append(
                f"  {row.label:<32} adS {_cell(row.mean_adS):>10}"
                f"   avS {_cell(row.mean_avS):>8}"
            )
    return "\n".join(lines) + "\n"
