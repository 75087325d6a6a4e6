"""Random corpus, model and config files through ``cli.main``.

Whatever the vertical corpus given to ``train``, the ARPA model given to
``surprisal`` or the ``--config`` file given to ``train`` holds, the run
must end in a documented exit code for input: 0 success, 2 input error
(argparse's ``SystemExit(2)`` included) or 3 validation error. Exit 4, an
internal fault, or any other exception escaping ``cli.main`` fails the
test. Every strategy draws from fixed alphabets, so a fresh example
database explores the same kinds of input as a warm one.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from rcsurp.cli import main

# Letters, the punctuation the loader knows, the reserved symbols' pieces,
# whitespace that ARPA splits on or ``str.splitlines`` breaks at, a carriage
# return, a NUL byte and a non-ASCII letter.
_ALPHABET = "ab.,/<>suä \t\u00a0\x0b\x1c\r\x00-#:=0159e"
_piece = st.text(alphabet=_ALPHABET, max_size=5)

# A strategy listed several times in ``st.one_of`` is drawn that much more
# often.
_known_word = st.sampled_from(["a", "b", "der", "Mann", "sah", ".", "/", "<s>", "</s>", "<unk>",
                               "a b", "a\u00a0b", "a\x0bb", "a\x00"])
_word = st.one_of(_known_word, _known_word, _known_word, _piece)
_token_line = st.tuples(_word, _word, st.sampled_from(["", "", "NN"])).map(
    lambda fields: "\t".join(fields[:2] if fields[2] == "" else fields))
# Mostly token lines after a header, so that runs reach counting and export.
_vertical_line = st.one_of(
    _token_line, _token_line, _token_line,
    st.sampled_from(["", "", "# doc: d2", "# doc: d1", "# doc: ", "# note", " \t"]),
    _piece,
)
_vertical = st.lists(_vertical_line, max_size=10).map(
    lambda lines: "# doc: d1\n" + "\n".join(lines) + "\n")

# The corpus of the model that ``surprisal`` reads, trained once, and the
# corpus it scores: the same lemmas, in pairs the model has not seen too,
# so that backoff weights come into play.
_CORPUS = ("# doc: d1\nder\tder\nMann\tMann\nsah\tsehen\n.\t.\n\n"
           "der\tder\nMann\tMann\nging\tgehen\n.\t.\n\n"
           "# doc: d2\nein\tein\nMann\tMann\nsah\tsehen\n")
_SCORED = _CORPUS + "\n# doc: d3\nMann\tMann\nder\tder\nsah\tsehen\nein\tein\n"

# A log10 field: valid values, positive ones that as backoff weights push a
# probability above 1, the sentinel, and values that are no number.
_known_log10 = st.sampled_from(["-0.5", "-1.25", "0", "5", "5", "5", "-99", "-400", "nan",
                                "1e400", ""])
_log10 = st.one_of(_known_log10, _known_log10, _known_log10, _piece)
_arpa_line = st.sampled_from(["\\data\\", "ngram 1=8", "ngram 2=x", "\\1-grams:",
                              "\\2-grams:", "\\end\\", "", " ", "-0.5\tMann\t-0.3",
                              "-0.5\tder Mann", "-0.5\tder\tMann", "-99\t<unk>\t0"]) | _piece
# One edit of a model: a log10 value of an entry line, a word of one, or a
# whole line replaced, inserted or deleted.
_edit = st.one_of(
    st.tuples(st.just("log10"), st.integers(0, 10_000), _log10),
    st.tuples(st.just("log10"), st.integers(0, 10_000), _log10),
    st.tuples(st.just("word"), st.integers(0, 10_000),
              st.sampled_from(["Mann", "der", "<s>", "<unk>", "x y", "x\ty", "gehen"]) | _piece),
    st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 10_000),
              _arpa_line),
)

# Most files name the corpus first, so that runs get past the first line;
# ``CORPUS`` stands for the corpus path.
_config_key = st.sampled_from(["corpus", "discount", "discount", "output", "report", "config",
                               "help", "no_such_option"]) | _piece
_config_value = st.sampled_from(["CORPUS", "a\x00b", "0.5", "1.5", "0", "nan", ""]) | _piece
_config_line = st.one_of(
    st.tuples(_config_key, st.sampled_from([" = ", "=", "==", ""]), _config_value).map("".join),
    st.sampled_from(["# comment", "", "="]),
    _piece,
)
_config = st.tuples(
    st.sampled_from(["corpus = CORPUS", "corpus = CORPUS", "corpus = a\x00b",
                     "corpus=CORPUS\x00", "# no corpus"]),
    st.lists(_config_line, max_size=3),
).map(lambda first_rest: [first_rest[0], *first_rest[1]])

_fuzz = settings(max_examples=40, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _exit_code(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's usage errors
        return exc.code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("input-fuzz")


@pytest.fixture(scope="module")
def model_lines(workdir):
    corpus, model = workdir / "corpus.vert", workdir / "model.arpa"
    corpus.write_text(_CORPUS, encoding="utf-8")
    (workdir / "scored.vert").write_text(_SCORED, encoding="utf-8")
    assert main(["train", "--corpus", str(corpus), "-o", str(model), "--discount", "0.5"]) == 0
    return model.read_text(encoding="utf-8").splitlines()


@_fuzz
@given(vertical=_vertical)
@example(vertical="# doc: d1\nder\t<unk>\nMann\tMann\n")  # a reserved symbol as a lemma
@example(vertical="# doc: d1\nder\ta\u00a0b\nMann\tMann\n")  # a lemma ARPA would split
def test_random_vertical_text_through_train(workdir, vertical):
    corpus = workdir / "random.vert"
    corpus.write_text(vertical, encoding="utf-8")
    code = _exit_code(["train", "--corpus", str(corpus), "-o", str(workdir / "random.arpa")])
    assert code in (0, 2, 3)


@_fuzz
@given(edits=st.lists(_edit, min_size=1, max_size=2))
# Entry 3 is the unigram line of ``Mann``, the fourth symbol in id order;
# an ``at`` of 3 plus the number of entries (8 unigrams and 8 bigrams)
# picks its backoff weight, which at 10 ** 5 puts p(der | Mann) above 1.
@example(edits=[("log10", 3 + 16, "5")])
def test_mutated_arpa_text_through_surprisal(workdir, model_lines, edits):
    lines = list(model_lines)
    for kind, at, text in edits:
        entries = [i for i, line in enumerate(lines) if "\t" in line]
        if kind in ("log10", "word") and entries:
            i = entries[at % len(entries)]
            fields = lines[i].split("\t")
            if kind == "word":
                fields[1] = text
            else:  # a unigram's log10 fields are its first and last, a bigram's its first
                fields[2 if len(fields) == 3 and at // len(entries) % 2 else 0] = text
            lines[i] = "\t".join(fields)
        elif kind == "delete" and lines:
            del lines[at % len(lines)]
        elif kind == "replace" and lines:
            lines[at % len(lines)] = text
        else:
            lines.insert(at % (len(lines) + 1), text)
    model = workdir / "mutated.arpa"
    model.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = _exit_code(["surprisal", "--model", str(model), "--corpus",
                       str(workdir / "scored.vert"), "-o", str(workdir / "mutated.tsv")])
    assert code in (0, 2, 3)


@_fuzz
@given(lines=_config)
@example(lines=["corpus = a\x00b"])
@example(lines=["corpus = CORPUS", "discount = 1.5"])
def test_random_config_file_through_train(workdir, model_lines, lines):
    corpus = str(workdir / "corpus.vert")  # written by ``model_lines``
    config = workdir / "run.cfg"
    config.write_text("\n".join(line.replace("CORPUS", corpus) for line in lines) + "\n",
                      encoding="utf-8")
    # ``-o`` is given, so no config line can send the model elsewhere.
    code = _exit_code(["train", "--config", str(config), "-o", str(workdir / "config.arpa")])
    assert code in (0, 2, 3)
