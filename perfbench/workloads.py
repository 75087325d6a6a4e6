"""Seeded workload inputs for the benchmark.

Documents are built with the sentence templates of
``scripts/generate_fixture.py`` (imported, not copied), so the generated
corpora have the committed fixture's shape at a chosen scale. Nouns come
from a Zipfian vocabulary whose first ranks are the fixture's nouns: a
vocabulary of ``len(NOUNS)`` types is the fixture's closed vocabulary,
a larger one adds German-like compounds of those nouns as new lemmas.

Besides the three input files, generation returns the sentences as lemma
lists (punctuation dropped), taken straight from the templates' output
lines and not from any ``rcsurp`` parser, so the output checks have an
independent view of the corpus.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_repo_module(name: str, relative: str):
    """Import a repository file that is not part of an installed package."""
    path = ROOT / relative
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


fixture = load_repo_module("generate_fixture", "scripts/generate_fixture.py")


@dataclass(frozen=True)
class Shape:
    """Generator parameters of one workload."""

    docs: int
    sentences: int  # per document, clause complexes included
    clauses: int    # clause complexes per document
    vocab: int      # noun lemma types the Zipf draw ranges over
    zipf: float     # exponent s of the 1 / rank**s noun weights


@dataclass
class Generated:
    vertical: str
    clauses_json: str
    referents_tsv: str
    sentences: dict[str, list[list[str]]]  # doc id -> lemma lists
    records: list[dict]
    mentions: int

    def sizes(self) -> dict[str, int]:
        lemmas = {lemma for doc in self.sentences.values() for s in doc for lemma in s}
        return {
            "documents": len(self.sentences),
            "words": sum(len(s) for doc in self.sentences.values() for s in doc),
            "lemma_types": len(lemmas),
            "clauses": len(self.records),
            "mentions": self.mentions,
        }


def noun_lemma(rank: int) -> str:
    """Rank 0..35 are the fixture's nouns; higher ranks are compounds
    spelled with the nouns as base-36 digits, most significant first."""
    nouns = fixture.NOUNS
    digits = []
    while True:
        rank, digit = divmod(rank, len(nouns))
        digits.append(digit)
        if rank == 0:
            break
        rank -= 1  # bijective numbering: every digit string names one rank
    head, *tail = reversed(digits)
    return nouns[head] + "".join(nouns[d].lower() for d in tail)


def zipf_picker(rng: random.Random, size: int, exponent: float):
    """Draw noun lemmas with probability proportional to 1 / rank**exponent."""
    cum_weights = list(itertools.accumulate(
        (rank + 1) ** -exponent for rank in range(size)))
    ranks = range(size)
    names: dict[int, str] = {}

    def pick() -> str:
        rank = rng.choices(ranks, cum_weights=cum_weights)[0]
        name = names.get(rank)
        if name is None:
            name = names[rank] = noun_lemma(rank)
        return name

    return pick


def _sentences(lines: list[str]) -> list[list[str]]:
    """Lemma lists of one document's vertical lines; the templates mark
    punctuation with the ``$`` tag and end every sentence with a blank line."""
    out: list[list[str]] = []
    current: list[str] = []
    for line in lines[1:]:  # skip the "# doc:" header
        if not line:
            out.append(current)
            current = []
            continue
        _, lemma, pos = line.split("\t")
        if pos != "$":
            current.append(lemma)
    if current:
        out.append(current)
    return out


def generate(seed: int, shape: Shape) -> Generated:
    rng = random.Random(seed)
    pick_noun = zipf_picker(rng, shape.vocab, shape.zipf)
    records: list[dict] = []
    vertical_parts: list[str] = []
    referent_rows: list[str] = []
    sentences: dict[str, list[list[str]]] = {}
    for doc_index in range(shape.docs):
        doc_id = f"doc-{doc_index + 1:04d}"
        b = fixture.DocBuilder(doc_id, rng)
        slots = set(rng.sample(range(8, shape.sentences - 2), shape.clauses))
        for s in range(shape.sentences):
            if s in slots:
                variant = "in_situ" if len(records) % 2 == 0 else "extraposed"
                records.append(fixture.clause_sentence(
                    b, pick_noun, rng, variant, f"rc-{len(records) + 1:05d}"))
            else:
                fixture.plain_sentence(b, pick_noun, rng)
        vertical_parts.append("\n".join(b.lines) + "\n")
        sentences[doc_id] = _sentences(b.lines)
        referent_rows.extend(
            f"{doc_id}\t{start}\t{end}\t{referent}\t{inferable}\t{topic}"
            for start, end, referent, inferable, topic in b.mentions
        )
    return Generated(
        vertical="\n".join(vertical_parts),
        clauses_json=json.dumps(records, indent=2) + "\n",
        referents_tsv="\n".join(referent_rows) + "\n",
        sentences=sentences,
        records=records,
        mentions=len(referent_rows),
    )


def validate(gen: Generated) -> None:
    """Parse the generated inputs with the repository's own parsers and
    check that they agree with what the generator meant to write."""
    from rcsurp.clauses import parse_clause_annotations
    from rcsurp.corpus import load_vertical, resegment_sentences
    from rcsurp.givenness import load_referent_annotations

    docs = {d.id: resegment_sentences(d) for d in load_vertical(gen.vertical)}
    records = parse_clause_annotations(gen.clauses_json, docs)
    mentions = load_referent_annotations(gen.referents_tsv)
    expected = gen.sizes()
    parsed = {
        "documents": len(docs),
        "words": sum(d.word_count() for d in docs.values()),
        "clauses": len(records),
        "mentions": len(mentions),
    }
    for key, value in parsed.items():
        if value != expected[key]:
            raise ValueError(f"generated {key}: parser reads {value}, generator wrote {expected[key]}")
    for doc in docs.values():
        lemmas = [t.lemma for t in doc.word_tokens()]
        if lemmas != [lemma for s in gen.sentences[doc.id] for lemma in s]:
            raise ValueError(f"generated document {doc.id}: parser reads other lemmas")
