"""Linear cost, checked on operation counts.

``train``, ``surprisal`` and ``analyze`` run in-process through
``cli.main`` on the ``analyze-dense`` benchmark shape at two sizes, the
second with twice the sentences and clause complexes per document. Every
counted operation that grows with the input may grow at most ×2.1, so a
stage that turns quadratic in document length fails here; the counts that
are fixed per run or per document must not grow at all, and no ``Token``
is built. Counts are deterministic, so the check does not flake as a
timing would.
"""

import importlib.util
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

from rcsurp import accommodation, clauses, corpus, givenness, ngram
from rcsurp.cli import main

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# Operations whose number grows with the words, mentions or clause records.
GROWING = ("prob", "observe", "content_predicate", "relinearize", "annotate_sequence",
           "classify_mention")
# Operations fixed per run or per document: the loader parses each
# distinct token line once, and each command builds each document's word
# columns once.
FIXED = ("parsed_rows", "word_columns")
MAX_GROWTH = 2.1


def _load_workloads():
    # Registered before it runs, as its dataclasses look their module up.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _shape(workloads, k: int):
    """The ``analyze-dense`` shape (the fixture's closed noun vocabulary,
    Zipf exponent 1, one clause complex in eighteen sentences) on one
    document of ``k`` times 1,080 sentences. At k = 1 the document already
    holds every distinct token line that the templates write, so the
    parsed rows do not grow with k."""
    return workloads.Shape(docs=1, sentences=1080 * k, clauses=60 * k,
                           vocab=len(workloads.fixture.NOUNS), zipf=1.0)


@pytest.fixture
def calls(monkeypatch):
    """Counts of the operations above, and of ``Token`` builds."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, attr, name in [
        (ngram.KneserNeyBigramModel, "prob", "prob"),
        (accommodation.AccommodationState, "observe", "observe"),
        (clauses, "relinearize", "relinearize"),
        (clauses, "annotate_sequence", "annotate_sequence"),
        (givenness, "classify_mention", "classify_mention"),
        (corpus, "_new_row", "parsed_rows"),
        (corpus, "_new_token", "tokens"),
    ]:
        monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))

    make_content_predicate = accommodation.make_content_predicate
    monkeypatch.setattr(accommodation, "make_content_predicate", lambda *args: counting(
        "content_predicate", make_content_predicate(*args)))

    word_columns = cached_property(
        counting("word_columns", vars(corpus.Document)["_word_columns"].func))
    word_columns.__set_name__(corpus.Document, "_word_columns")
    monkeypatch.setattr(corpus.Document, "_word_columns", word_columns)
    return counts


def _run(workloads, k, directory: Path, calls: Counter) -> Counter:
    """The counts of ``train``, ``surprisal`` and ``analyze`` at size ``k``."""
    generated = workloads.generate(1, _shape(workloads, k))
    directory.mkdir()
    corpus_path, clauses_path, referents_path, model_path = (
        directory / name for name in ("corpus.vert", "clauses.json", "referents.tsv", "m.arpa"))
    corpus_path.write_text(generated.vertical, encoding="utf-8")
    clauses_path.write_text(generated.clauses_json, encoding="utf-8")
    referents_path.write_text(generated.referents_tsv, encoding="utf-8")
    calls.clear()
    for argv in (
        ["train", "--corpus", str(corpus_path), "-o", str(model_path)],
        ["surprisal", "--model", str(model_path), "--corpus", str(corpus_path),
         "-o", str(directory / "s.tsv")],
        ["analyze", "--model", str(model_path), "--corpus", str(corpus_path),
         "--clauses", str(clauses_path), "--referents", str(referents_path),
         "--outdir", str(directory / "out")],
    ):
        assert main(argv) == 0, argv[0]
    return Counter(calls)


def test_operation_counts_grow_linearly(calls, tmp_path, capsys):
    workloads = _load_workloads()
    small, large = (_run(workloads, k, tmp_path / f"k{k}", calls) for k in (1, 2))
    assert small["tokens"] == large["tokens"] == 0
    growth = {name: large[name] / small[name] for name in GROWING + FIXED if small[name]}
    assert set(growth) == set(GROWING + FIXED), small
    assert all(growth[name] > 1.5 for name in GROWING), growth  # the input did grow
    assert all(growth[name] <= MAX_GROWTH for name in GROWING), growth
    assert {name: large[name] for name in FIXED} == {name: small[name] for name in FIXED}
