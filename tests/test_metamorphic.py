"""Relations between whole runs on the committed fixture.

Most tests change the input in a way the paper's tables must not see and
check that all five tables (and, where they train, the model) are
byte-identical to those of the plain run; one checks that a document's
surprisal rows are the same alone as in a run over every document, and one
that renaming the lemmas changes no number.
No reference implementation is needed, so these catch a wrong answer that
every unit oracle passes, such as a cache that serves one document's
values for another.
"""

import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from rcsurp.cli import main
from rcsurp.ngram import RESERVED, import_arpa

FIXTURES = Path(__file__).parent / "fixtures" / "minicorpus"
CORPUS = FIXTURES / "corpus.vert"
TABLES = ("table1.tsv", "table2.tsv", "table3.tsv", "hypotheticals.tsv", "chi_square.tsv")


def _analyze(model, corpora, outdir):
    argv = ["analyze", "--model", str(model)]
    for corpus in corpora:
        argv += ["--corpus", str(corpus)]
    argv += ["--clauses", str(FIXTURES / "clauses.json"),
             "--referents", str(FIXTURES / "referents.tsv"), "--outdir", str(outdir)]
    assert main(argv) == 0
    return {name: (outdir / name).read_bytes() for name in TABLES}


def _documents(text):
    """The corpus text split before each document header."""
    return [block for block in re.split(r"(?m)^(?=# doc:)", text) if block]


@pytest.fixture(scope="module")
def plain_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("plain")
    model = tmp / "model.arpa"
    assert main(["train", "--corpus", str(CORPUS), "-o", str(model)]) == 0
    return model, _analyze(model, [CORPUS], tmp / "out")


def test_reversed_document_order_leaves_the_tables(plain_run, tmp_path):
    model, tables = plain_run
    documents = _documents(CORPUS.read_text(encoding="utf-8"))
    assert len(documents) > 1
    reversed_corpus = tmp_path / "reversed.vert"
    reversed_corpus.write_text("".join(reversed(documents)), encoding="utf-8")
    assert _analyze(model, [reversed_corpus], tmp_path / "out") == tables


@settings(max_examples=8, deadline=None)
@given(st.permutations(_documents(CORPUS.read_text(encoding="utf-8"))))
def test_permuted_documents_leave_the_model_and_tables(plain_run, documents):
    model, tables = plain_run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        permuted = tmp / "permuted.vert"
        permuted.write_text("".join(documents), encoding="utf-8")
        permuted_model = tmp / "permuted.arpa"
        assert main(["train", "--corpus", str(permuted), "-o", str(permuted_model)]) == 0
        assert permuted_model.read_bytes() == model.read_bytes()
        assert _analyze(permuted_model, [permuted], tmp / "out") == tables


def test_corpus_split_over_two_files_leaves_the_model_and_tables(plain_run, tmp_path):
    model, tables = plain_run
    documents = _documents(CORPUS.read_text(encoding="utf-8"))
    half = len(documents) // 2
    parts = [tmp_path / "first.vert", tmp_path / "second.vert"]
    for part, chunk in zip(parts, (documents[:half], documents[half:])):
        part.write_text("".join(chunk), encoding="utf-8")
    split_model = tmp_path / "split.arpa"
    argv = ["train", "--corpus", str(parts[0]), "--corpus", str(parts[1]),
            "-o", str(split_model)]
    assert main(argv) == 0
    assert split_model.read_bytes() == model.read_bytes()
    assert _analyze(split_model, parts, tmp_path / "out") == tables


def test_surprisal_of_one_document_is_its_rows_of_the_full_run(plain_run, tmp_path):
    model, _ = plain_run
    full = tmp_path / "all.tsv"
    assert main(["surprisal", "--model", str(model), "--corpus", str(CORPUS),
                 "-o", str(full)]) == 0
    header, *rows = full.read_bytes().splitlines(keepends=True)
    ids = [re.match(r"# doc: (.*)", block).group(1).strip()
           for block in _documents(CORPUS.read_text(encoding="utf-8"))]
    for doc_id in ids:
        one = tmp_path / f"{doc_id}.tsv"
        assert main(["surprisal", "--model", str(model), "--corpus", str(CORPUS),
                     "--doc", doc_id, "-o", str(one)]) == 0
        own = [row for row in rows if row.startswith(doc_id.encode() + b"\t")]
        assert own
        assert one.read_bytes() == header + b"".join(own)


def test_unreferenced_document_leaves_the_tables(plain_run, tmp_path):
    # A copy of the first document under a new id: the same words, scored as
    # another document that no clause or mention refers to.
    model, tables = plain_run
    first = _documents(CORPUS.read_text(encoding="utf-8"))[0]
    extra = tmp_path / "extra.vert"
    extra.write_text(re.sub(r"^# doc: .*", "# doc: unreferenced", first), encoding="utf-8")
    for corpora in ([CORPUS, extra], [extra, CORPUS]):
        assert _analyze(model, corpora, tmp_path / "out") == tables


def _token_fields(text):
    """Each line of a vertical text, split at tabs when it is a token line."""
    return [(line, line.split("\t") if line and not line.startswith("#") else None)
            for line in text.split("\n")]


_CORPUS_LINES = _token_fields(CORPUS.read_text(encoding="utf-8"))
_LEMMAS = sorted({fields[1] for _, fields in _CORPUS_LINES if fields})


def _surprisal_rows(model, corpus, out):
    assert main(["surprisal", "--model", str(model), "--corpus", str(corpus),
                 "-o", str(out)]) == 0
    return [row.split("\t") for row in out.read_text(encoding="utf-8").splitlines()[1:]]


@settings(max_examples=4, deadline=None)
@given(st.permutations(_LEMMAS))
@example(_LEMMAS[::-1])
def test_renamed_lemmas_leave_every_number(plain_run, renamed):
    # Every fixture token carries a POS tag, so the content test reads no
    # lemma, and the corpus holds no reserved symbol; any permutation of its
    # lemmas is then a renaming that the model, the scores and the tables
    # must not see.
    assert all(len(fields) == 3 for _, fields in _CORPUS_LINES if fields)
    assert not set(RESERVED) & set(_LEMMAS)
    rename = dict(zip(_LEMMAS, renamed))
    rename.update((symbol, symbol) for symbol in RESERVED)
    model, tables = plain_run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus = tmp / "renamed.vert"
        corpus.write_text("\n".join(
            line if fields is None else "\t".join([fields[0], rename[fields[1]], *fields[2:]])
            for line, fields in _CORPUS_LINES
        ), encoding="utf-8")
        renamed_model = tmp / "renamed.arpa"
        assert main(["train", "--corpus", str(corpus), "-o", str(renamed_model)]) == 0

        plain_tables = import_arpa(model.read_text(encoding="utf-8")).string_tables()
        unigram_p, bow, bigram_p = import_arpa(
            renamed_model.read_text(encoding="utf-8")).string_tables()
        assert unigram_p == {rename[w]: p for w, p in plain_tables[0].items()}
        assert bow == {rename[w]: b for w, b in plain_tables[1].items()}
        assert bigram_p == {(rename[v], rename[w]): p
                            for (v, w), p in plain_tables[2].items()}

        plain_rows = _surprisal_rows(model, CORPUS, tmp / "plain.tsv")
        renamed_rows = _surprisal_rows(renamed_model, corpus, tmp / "renamed.tsv")
        assert len(renamed_rows) == len(plain_rows) > 0
        for plain, row in zip(plain_rows, renamed_rows):
            doc, position, lemma, context, *numbers = plain
            assert row == [doc, position, rename[lemma], rename[context], *numbers]

        assert _analyze(renamed_model, [corpus], tmp / "out") == tables
