import gc
import hashlib
import json
import os
import re
import shutil
import sys
import warnings
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest

import helpers
from rcsurp import cli
from rcsurp import clauses as cl
from rcsurp import corpus, surprisal
from rcsurp import accommodation as accom
from rcsurp.accommodation import FactorConfig
from rcsurp.cli import main
from rcsurp.givenness import SALIENCE_WINDOW

FIXTURES = Path(__file__).parent / "fixtures" / "minicorpus"


@pytest.fixture
def toy_corpus(tmp_path):
    path = tmp_path / "toy.vert"
    path.write_text(helpers.TOY_VERTICAL, encoding="utf-8")
    return path


@pytest.fixture
def fixture_model(tmp_path):
    path = tmp_path / "model.arpa"
    code = main(["train", "--corpus", str(FIXTURES / "corpus.vert"),
                 "-o", str(path)])
    assert code == 0
    return path


def _analyze_args(model, outdir, *extra):
    return [
        "analyze",
        "--model", str(model),
        "--corpus", str(FIXTURES / "corpus.vert"),
        "--clauses", str(FIXTURES / "clauses.json"),
        "--referents", str(FIXTURES / "referents.tsv"),
        "--outdir", str(outdir),
        *extra,
    ]


# --- train ------------------------------------------------------------------

def test_train_toy_report(toy_corpus, tmp_path, capsys):
    out = tmp_path / "toy.arpa"
    code = main(["train", "--corpus", str(toy_corpus), "-o", str(out)])
    assert code == 0
    report = capsys.readouterr().out
    assert "vocabulary=4 (+3 reserved)" in report
    assert "D=0.5" in report
    assert "tokens=6" in report
    assert "sentences=2" in report
    assert out.exists()


def test_train_missing_corpus(tmp_path, capsys):
    out = tmp_path / "model.arpa"
    code = main(["train", "--corpus", str(tmp_path / "absent.vert"), "-o", str(out)])
    assert code == 2
    assert not out.exists()  # no partial output
    assert "error" in capsys.readouterr().err


def test_train_punctuation_only_corpus(tmp_path, capsys):
    corpus = tmp_path / "punct.vert"
    corpus.write_text("# doc: d\n.\t.\n/\t/\n\n,\t,\n", encoding="utf-8")
    out = tmp_path / "model.arpa"
    assert main(["train", "--corpus", str(corpus), "-o", str(out)]) == 2
    assert not out.exists()
    assert "no bigrams to train on" in capsys.readouterr().err


def test_train_rejects_lemma_with_whitespace(tmp_path, capsys):
    corpus = tmp_path / "spaced.vert"
    corpus.write_text("# doc: d\nich\tich\nbin\tsein\nzu Hause\tzu Hause\n.\t.\n",
                      encoding="utf-8")
    out = tmp_path / "model.arpa"
    assert main(["train", "--corpus", str(corpus), "--discount", "0.5",
                 "-o", str(out)]) == 2
    assert not out.exists()
    assert "'zu Hause'" in capsys.readouterr().err


def test_train_rejects_reserved_symbols_as_lemmas(tmp_path, capsys):
    corpus = tmp_path / "reserved.vert"
    corpus.write_text("# doc: d\nx\tx\n<s>\t<s>\ny\ty\n\nx\tx\n<unk>\t<unk>\n\n"
                      "</s>\t</s>\nz\tz\n", encoding="utf-8")
    out = tmp_path / "model.arpa"
    assert main(["train", "--corpus", str(corpus), "-o", str(out)]) == 2
    assert not out.exists()
    # The loader names the first reserved lemma, with its line.
    assert capsys.readouterr().err == "error: line 3: reserved lemma '<s>' for word token '<s>'\n"


@pytest.mark.parametrize("symbol", ["<s>", "</s>", "<unk>"])
@pytest.mark.parametrize("command", ["train", "surprisal", "analyze", "givenness"])
def test_reserved_lemma_stops_every_command_at_its_line(command, symbol, fixture_model,
                                                        tmp_path, capsys):
    # The fixture's first "Mann" line, line 3, with a reserved symbol as its
    # lemma: every command that reads the corpus names that line and writes
    # nothing, not even a model that the corpus never queries.
    text = (FIXTURES / "corpus.vert").read_text(encoding="utf-8")
    corpus = tmp_path / "reserved.vert"
    corpus.write_text(text.replace("Mann\tMann\tNN\n", f"Mann\t{symbol}\tNN\n", 1),
                      encoding="utf-8")
    out, outdir = tmp_path / "out", tmp_path / "outdir"
    annotations = ["--clauses", str(FIXTURES / "clauses.json"),
                   "--referents", str(FIXTURES / "referents.tsv")]
    argv = {
        "train": ["-o", str(out)],
        "surprisal": ["--model", str(fixture_model)],
        "analyze": ["--model", str(fixture_model), *annotations, "--outdir", str(outdir)],
        "givenness": annotations,
    }[command]
    capsys.readouterr()
    assert main([command, "--corpus", str(corpus), *argv]) == 2
    assert capsys.readouterr() == (
        "", f"error: line 3: reserved lemma {symbol!r} for word token 'Mann'\n")
    assert not out.exists() and not outdir.exists()


def test_train_lists_every_repeated_document_id(tmp_path, capsys):
    text = "# doc: a\nTrost\ttrost\n\n# doc: b\nKirche\tkirche\n"
    paths = [tmp_path / "d1.vert", tmp_path / "d2.vert"]
    for path in paths:
        path.write_text(text, encoding="utf-8")
    out = tmp_path / "model.arpa"
    assert main(["train", "--corpus", str(paths[0]), "--corpus", str(paths[1]),
                 "-o", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "validation error: duplicate document id 'a' across files",
        "validation error: duplicate document id 'b' across files",
    ]
    assert not out.exists()


def test_train_no_corpus_flag(tmp_path, capsys):
    # A missing corpus is a usage error, reported by argparse.
    with pytest.raises(SystemExit) as exc:
        main(["train", "-o", str(tmp_path / "m.arpa")])
    assert exc.value.code == 2
    assert "--corpus" in capsys.readouterr().err
    assert not (tmp_path / "m.arpa").exists()


def test_train_discount_override(toy_corpus, tmp_path, capsys):
    code = main(["train", "--corpus", str(toy_corpus), "--discount", "0.7",
                 "-o", str(tmp_path / "m.arpa")])
    assert code == 0
    assert "D=0.7" in capsys.readouterr().out


@pytest.mark.parametrize("text, discount", [
    ("x\tx\ny\ty\nz\tz\nx\tx\n", "0.999999"),
    ("x\tx\ny\ty\nz\tz\n\nx\tx\ny\ty\nz\tz\n", "1e-06"),
], ids=["no-bigram-seen-twice", "no-bigram-seen-once"])
def test_train_report_of_a_clamped_discount(text, discount, tmp_path, capsys):
    # The clamp shows in the report's D= line alone: no warning, no stderr.
    corpus = tmp_path / "c.vert"
    corpus.write_text("# doc: t\n" + text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--corpus", str(corpus), "-o", str(tmp_path / "m.arpa")]) == 0
    out, err = capsys.readouterr()
    assert out.endswith(f"\nD={discount}\n") and err == ""


def test_train_report_counts_sentences_with_a_word(tmp_path, capsys):
    # Three sentences; the middle one holds only punctuation.
    corpus = tmp_path / "c.vert"
    corpus.write_text("# doc: d\nthe\tthe\ncat\tcat\n\n/\t/\n\ncat\tcat\n", encoding="utf-8")
    assert main(["train", "--corpus", str(corpus), "-o", str(tmp_path / "m.arpa")]) == 0
    assert "sentences=2\n" in capsys.readouterr().out


# --- surprisal --------------------------------------------------------------

def test_surprisal_row_count(toy_corpus, tmp_path):
    model = tmp_path / "toy.arpa"
    main(["train", "--corpus", str(toy_corpus), "-o", str(model)])
    out = tmp_path / "ann.tsv"
    code = main(["surprisal", "--model", str(model), "--corpus", str(toy_corpus),
                 "-o", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 6  # header + one row per word token


def test_surprisal_weighted_column(fixture_model, tmp_path):
    out = tmp_path / "ann.tsv"
    main(["surprisal", "--model", str(fixture_model),
          "--corpus", str(FIXTURES / "corpus.vert"),
          "--doc", "sermon-01", "-o", str(out)])
    lines = out.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    surprisal_i = header.index("surprisal_bits")
    factor_i = header.index("factor")
    weighted_i = header.index("weighted_surprisal")
    for line in lines[1:]:
        fields = line.split("\t")
        expected = float(fields[surprisal_i]) * float(fields[factor_i])
        assert float(fields[weighted_i]) == pytest.approx(expected, abs=1e-5)


def test_surprisal_unknown_doc(fixture_model, tmp_path):
    code = main(["surprisal", "--model", str(fixture_model),
                 "--corpus", str(FIXTURES / "corpus.vert"),
                 "--doc", "no-such-doc", "-o", str(tmp_path / "x.tsv")])
    assert code == 2


def test_surprisal_repeated_doc_is_scored_once(fixture_model, tmp_path):
    once, twice = tmp_path / "once.tsv", tmp_path / "twice.tsv"
    args = ["surprisal", "--model", str(fixture_model),
            "--corpus", str(FIXTURES / "corpus.vert"), "--doc", "sermon-01"]
    assert main(args + ["-o", str(once)]) == 0
    assert main(args + ["--doc", "sermon-01", "-o", str(twice)]) == 0
    assert twice.read_bytes() == once.read_bytes()


def test_surprisal_repeated_unknown_doc_is_named_once(fixture_model, tmp_path, capsys):
    out = tmp_path / "x.tsv"
    code = main(["surprisal", "--model", str(fixture_model),
                 "--corpus", str(FIXTURES / "corpus.vert"),
                 "--doc", "z", "--doc", "z", "-o", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: unknown document id(s): z\n"
    assert not out.exists()


def test_surprisal_punctuation_option_is_gone(fixture_model, tmp_path):
    # A corpus must be scored with the punctuation set the model was trained
    # on, so no option may change it.
    out = tmp_path / "s.tsv"
    with pytest.raises(SystemExit) as exc:
        main(["surprisal", "--model", str(fixture_model),
              "--corpus", str(FIXTURES / "corpus.vert"), "--punctuation", ".",
              "-o", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["surprisal", "analyze"])
def test_non_finite_bonus_is_rejected(command, fixture_model, tmp_path, capsys):
    out, outdir = tmp_path / "s.tsv", tmp_path / "out"
    if command == "surprisal":
        argv = ["surprisal", "--model", str(fixture_model),
                "--corpus", str(FIXTURES / "corpus.vert"), "--bonus", "nan",
                "-o", str(out)]
    else:
        argv = _analyze_args(fixture_model, outdir, "--bonus", "inf")
    assert main(argv) == 2
    assert "bonus" in capsys.readouterr().err
    assert not out.exists() and not outdir.exists()


def test_surprisal_rerun_byte_identical(fixture_model, tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    args = ["surprisal", "--model", str(fixture_model),
            "--corpus", str(FIXTURES / "corpus.vert")]
    main(args + ["-o", str(a)])
    main(args + ["-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("entry, column, value", [
    ("\t<unk>\t", 0, "-99.000000"),
    ("\tBruder\t", 2, "-400.000000"),
    ("\tder Mann", 0, "-400.000000"),
], ids=["unk-sentinel", "backoff-underflow", "bigram-underflow"])
def test_surprisal_rejects_zero_mass_model_entry(entry, column, value, fixture_model,
                                                 tmp_path, capsys):
    # A zero-mass entry would make model.prob return 0.0 for some query.
    lines = fixture_model.read_text(encoding="utf-8").splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if entry in line + "\t")
    fields = lines[lineno - 1].split("\t")
    fields[column] = value
    lines[lineno - 1] = "\t".join(fields)
    fixture_model.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "ann.tsv"
    assert main(["surprisal", "--model", str(fixture_model),
                 "--corpus", str(FIXTURES / "corpus.vert"), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"line {lineno}:" in err and "zero mass" in err
    assert not out.exists()


def test_surprisal_names_a_malformed_ngram_declaration(tmp_path, capsys):
    model = tmp_path / "bad.arpa"
    model.write_text("\\data\\\nngram 1=x\nngram 2=0\n", encoding="utf-8")
    out = tmp_path / "ann.tsv"
    assert main(["surprisal", "--model", str(model),
                 "--corpus", str(FIXTURES / "corpus.vert"), "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: line 2: malformed ngram declaration '1=x'\n"
    assert not out.exists()


@pytest.mark.parametrize("output", ["file", "symlink", "stdout"])
def test_surprisal_probability_above_one_names_the_word(output, fixture_model, tmp_path,
                                                         capsys):
    # ARPA allows a positive backoff weight; 10 ** 5.0 on Mann's unigram line
    # makes p(</s> | Mann), a bigram the fixture never has, exceed 1. The
    # model is checked whole when it is read, before any output is opened.
    lines = fixture_model.read_text(encoding="utf-8").splitlines()
    i = next(i for i, line in enumerate(lines) if line.split("\t")[1:2] == ["Mann"])
    fields = lines[i].split("\t")
    fields[2] = "5.0"
    lines[i] = "\t".join(fields)
    fixture_model.write_text("\n".join(lines) + "\n", encoding="utf-8")
    corpus = tmp_path / "c.vert"
    corpus.write_text("# doc: a\nder\tder\tART\nMann\tMann\tNN\n\n"
                      "# doc: b\nMann\tMann\tNN\nMann\tMann\tNN\nder\tder\tART\n",
                      encoding="utf-8")
    out = tmp_path / "out.tsv"
    if output == "symlink":  # stands in for a device such as /dev/null
        out.symlink_to(tmp_path / "target.tsv")
    flags = [] if output == "stdout" else ["-o", str(out)]
    capsys.readouterr()
    assert main(["surprisal", "--model", str(fixture_model), "--corpus", str(corpus),
                 *flags]) == 2
    assert capsys.readouterr() == ("", (
        "error: probability of '</s>' after 'Mann' must be in (0, 1], got 2439.0235855733004"
        " (backoff weight 100000.0 of 'Mann')\n"
    ))
    # Nothing was written: no row reached stdout, no file was made, and
    # whatever was at the path is left in place.
    assert out.is_symlink() if output == "symlink" else not out.exists()
    assert not (tmp_path / "target.tsv").exists()


@pytest.fixture
def xyz_model(tmp_path):
    """A model of the lemmas x, y and z, none of which the fixture holds. The
    discount is given: estimated on 4 tokens, where no bigram is seen twice,
    it would be clamped to 0.999999."""
    corpus = tmp_path / "xyz.vert"
    corpus.write_text("# doc: t\nx\tx\ny\ty\nz\tz\nx\tx\n", encoding="utf-8")
    model = tmp_path / "xyz.arpa"
    assert main(["train", "--corpus", str(corpus), "-o", str(model), "--discount", "0.5"]) == 0
    return model


@pytest.mark.parametrize("command", ["surprisal", "surprisal-to-stdout", "analyze"])
def test_model_that_knows_no_scored_lemma_is_rejected(command, xyz_model, tmp_path, capsys):
    out, outdir = tmp_path / "s.tsv", tmp_path / "out"
    corpus = str(FIXTURES / "corpus.vert")
    if command == "analyze":
        argv = _analyze_args(xyz_model, outdir)
    else:
        argv = ["surprisal", "--model", str(xyz_model), "--corpus", corpus]
        if command == "surprisal":
            argv += ["-o", str(out)]
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr() == (
        "", f"validation error: model {xyz_model} knows none of the scored lemmas of {corpus}\n"
    )
    assert not out.exists() and not outdir.exists()


def test_vocabulary_check_reads_only_the_scored_documents(xyz_model, tmp_path, capsys):
    # One known lemma in the scored documents is enough; a known lemma in a
    # document that is not scored is not.
    corpus = tmp_path / "c.vert"
    corpus.write_text("# doc: a\nq\tq\nx\tx\n\n# doc: b\nq\tq\n", encoding="utf-8")
    argv = ["surprisal", "--model", str(xyz_model), "--corpus", str(corpus)]
    assert main(argv + ["--doc", "a", "-o", str(tmp_path / "a.tsv")]) == 0
    assert main(argv + ["--doc", "b", "-o", str(tmp_path / "b.tsv")]) == 3
    assert not (tmp_path / "b.tsv").exists()
    # The fixture documents, which the clause records name, are all unknown.
    outdir = tmp_path / "out"
    assert main(_analyze_args(xyz_model, outdir, "--corpus", str(corpus))) == 3
    assert "knows none of the scored lemmas" in capsys.readouterr().err
    assert not outdir.exists()


def test_vocabulary_check_passes_a_run_without_words(xyz_model, tmp_path):
    corpus = tmp_path / "punct.vert"
    corpus.write_text("# doc: p\n.\t.\n", encoding="utf-8")
    out = tmp_path / "p.tsv"
    assert main(["surprisal", "--model", str(xyz_model), "--corpus", str(corpus),
                 "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8").count("\n") == 1  # the header alone


@pytest.mark.parametrize("content_pos", [",", "noun"])
@pytest.mark.parametrize("command", ["surprisal", "analyze"])
def test_content_predicate_that_selects_no_scored_word_is_rejected(
        command, content_pos, fixture_model, tmp_path, capsys):
    # The fixture's tags are STTS tags: neither an empty tag set nor a
    # lower-case tag matches one, so accommodation would weight nothing.
    out, outdir = tmp_path / "s.tsv", tmp_path / "out"
    corpus = str(FIXTURES / "corpus.vert")
    flags = ["--content-pos", content_pos]
    if command == "analyze":
        argv = _analyze_args(fixture_model, outdir, *flags)
    else:
        argv = ["surprisal", "--model", str(fixture_model), "--corpus", corpus, "-o", str(out),
                *flags]
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr() == ("", (
        f"validation error: --content-pos {content_pos!r} and --stoplist ''"
        f" select no content word among the scored words of {corpus}\n"))
    assert not out.exists() and not outdir.exists()


def test_spaced_content_pos_list_weights_the_same_words(fixture_model, tmp_path):
    # The tags of a list are read with or without spaces after the commas,
    # given as a flag or as a config line.
    config = tmp_path / "run.cfg"
    config.write_text("content-pos = NN, VVFIN\n", encoding="utf-8")
    runs = {"unspaced": ["--content-pos", "NN,VVFIN"], "spaced": ["--content-pos", "NN, VVFIN"],
            "config": ["--config", str(config)]}
    for name, flags in runs.items():
        assert main(["surprisal", "--model", str(fixture_model),
                     "--corpus", str(FIXTURES / "corpus.vert"), *flags,
                     "-o", str(tmp_path / f"{name}.tsv")]) == 0
    unspaced = (tmp_path / "unspaced.tsv").read_bytes()
    assert (tmp_path / "spaced.tsv").read_bytes() == unspaced
    assert (tmp_path / "config.tsv").read_bytes() == unspaced


def test_content_pos_spellings_of_one_tag_set_give_one_bundle(fixture_model, tmp_path):
    # The manifest records the tag set, so the spellings of one set give
    # byte-identical bundles, config_sha256 included.
    bundles = []
    for n, tags in enumerate(["NN, VVFIN", "NN,VVFIN", "VVFIN,NN,NN"]):
        outdir = tmp_path / f"out{n}"
        assert main(_analyze_args(fixture_model, outdir, "--content-pos", tags)) == 0
        bundles.append({path.name: path.read_bytes() for path in outdir.iterdir()})
    assert bundles[0] == bundles[1] == bundles[2]
    manifest = json.loads(bundles[0]["manifest.json"])
    assert manifest["config"]["content_pos"] == "NN,VVFIN"


def test_unknown_lemmas_and_no_content_word_are_listed_together(xyz_model, tmp_path, capsys):
    outdir = tmp_path / "out"
    assert main(_analyze_args(xyz_model, outdir, "--content-pos", ",")) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert "knows none of the scored lemmas" in err[0]
    assert "select no content word" in err[1]
    assert not outdir.exists()


def test_analyze_checks_each_scored_document_once(fixture_model, tmp_path, monkeypatch):
    checked = []
    check = cli._check_scored_words

    def recording_check(model, predicate, docs, args):
        checked.append([doc.id for doc in docs])
        return check(model, predicate, docs, args)

    monkeypatch.setattr(cli, "_check_scored_words", recording_check)
    assert main(_analyze_args(fixture_model, tmp_path / "out")) == 0
    records = json.loads((FIXTURES / "clauses.json").read_text(encoding="utf-8"))
    assert checked == [list(dict.fromkeys(record["doc"] for record in records))]


# --- analyze ----------------------------------------------------------------

def test_analyze_smoke(fixture_model, tmp_path):
    outdir = tmp_path / "out"
    assert main(_analyze_args(fixture_model, outdir)) == 0
    names = ["table1.tsv", "table2.tsv", "table3.tsv",
             "hypotheticals.tsv", "chi_square.tsv", "manifest.json"]
    for name in names:
        assert (outdir / name).exists(), name
    manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["outputs"] == {
        name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        for name in names if name != "manifest.json"
    }
    for name in ["table1.tsv", "table2.tsv", "table3.tsv"]:
        lines = (outdir / name).read_text(encoding="utf-8").splitlines()
        assert len(lines) > 1
        assert all(len(line.split("\t")) == len(lines[0].split("\t"))
                   for line in lines)


def test_analyze_table_row_labels(fixture_model, tmp_path):
    outdir = tmp_path / "out"
    main(_analyze_args(fixture_model, outdir))
    for name in ("table2.tsv", "table3.tsv"):
        lines = (outdir / name).read_text(encoding="utf-8").splitlines()[1:]
        labels = {line.split("\t")[1] for line in lines}
        assert labels == {"rel. cl.", "matrix cl.", "combined"}


def test_analyze_deterministic(fixture_model, tmp_path):
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    main(_analyze_args(fixture_model, out1))
    main(_analyze_args(fixture_model, out2))
    for path in sorted(out1.iterdir()):
        assert path.read_bytes() == (out2 / path.name).read_bytes(), path.name


def test_analyze_scores_each_chain_once(fixture_model, tmp_path, monkeypatch):
    # Six table cells per record over its two chains, attested and
    # hypothetical: three rows in each of tables 2 and 3 for an in-situ
    # record, two each and two hypotheticals for an extraposed one.
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("relinearize", "annotate_sequence"):
        monkeypatch.setattr(cl, name, counting(name, getattr(cl, name)))
    monkeypatch.setattr(cl.ClauseScorer, "metrics",
                        counting("metrics", cl.ClauseScorer.metrics))
    assert main(_analyze_args(fixture_model, tmp_path / "out")) == 0
    records = len(json.loads((FIXTURES / "clauses.json").read_text(encoding="utf-8")))
    assert calls == {"relinearize": 2 * records, "annotate_sequence": 2 * records,
                     "metrics": 6 * records}


def test_pipeline_builds_no_token(fixture_model, tmp_path, monkeypatch, capsys):
    # The subcommands read each document's word columns, never its tokens.
    built = []
    new_token = corpus._new_token

    def counting_new_token(fields):
        built.append(fields)
        return new_token(fields)

    monkeypatch.setattr(corpus, "_new_token", counting_new_token)
    annotations = ["--clauses", str(FIXTURES / "clauses.json"),
                   "--referents", str(FIXTURES / "referents.tsv")]
    commands = [
        ["train", "--corpus", str(FIXTURES / "corpus.vert"), "-o", str(tmp_path / "m.arpa")],
        ["surprisal", "--model", str(fixture_model), "--corpus", str(FIXTURES / "corpus.vert"),
         "-o", str(tmp_path / "s.tsv")],
        _analyze_args(fixture_model, tmp_path / "out"),
        ["givenness", "--corpus", str(FIXTURES / "corpus.vert"), *annotations],
    ]
    for argv in commands:
        assert main(argv) == 0, argv[0]
    assert built == []
    # The counter sees every token that a loaded document does build.
    doc = corpus.load_vertical_file(FIXTURES / "corpus.vert")[0]
    assert len(doc.tokens) > doc.word_count() > 0
    assert len(built) == len(doc.tokens)


def test_pipeline_builds_no_surprisal_entry(fixture_model, tmp_path, monkeypatch):
    # The writer and the clause chains read the annotations' columns.
    built = []
    new_entry = surprisal._new_entry

    def counting_new_entry(fields):
        built.append(fields)
        return new_entry(fields)

    monkeypatch.setattr(surprisal, "_new_entry", counting_new_entry)
    annotations = []
    accommodate_document = accom.accommodate_document

    def recording_accommodate_document(annotation, *args):
        annotations.append(annotation)
        return accommodate_document(annotation, *args)

    monkeypatch.setattr(accom, "accommodate_document", recording_accommodate_document)
    surprisal_args = ["surprisal", "--model", str(fixture_model),
                      "--corpus", str(FIXTURES / "corpus.vert"), "-o", str(tmp_path / "s.tsv")]
    for argv in (surprisal_args, _analyze_args(fixture_model, tmp_path / "out")):
        assert main(argv) == 0, argv[0]
        assert built == [], argv[0]
    # The counter sees every entry that reading an annotation's entries builds.
    annotation = annotations[0]
    assert len(annotation.entries) == len(annotation) > 0
    assert len(built) == len(annotation)


def test_analyze_manifest_records_the_stoplist_contents(fixture_model, tmp_path):
    stoplist = tmp_path / "stop.txt"
    manifests = []
    for n, lemmas in enumerate(["und\n", "der\n"]):
        stoplist.write_text(lemmas, encoding="utf-8")
        outdir = tmp_path / f"out{n}"
        assert main(_analyze_args(fixture_model, outdir, "--stoplist", str(stoplist))) == 0
        manifests.append(json.loads((outdir / "manifest.json").read_text(encoding="utf-8")))
    first, second = manifests
    assert first["config"] == second["config"]
    assert first["inputs"]["stoplist"] != second["inputs"]["stoplist"]


def test_analyze_manifest_records_every_setting_and_no_path(fixture_model, tmp_path):
    stoplist = tmp_path / "stop.txt"
    stoplist.write_text("und\n", encoding="utf-8")
    # Each of analyze's settings away from its default.
    settings = {"bonus": 2.5, "combined_single_exclusion": True, "content_pos": "NN,VVFIN",
                "count_distinct": True, "floor": 1, "salience_window": 3, "wearout": 3,
                "window": 50}
    flags = []
    for name, value in settings.items():
        flag = "--" + name.replace("_", "-")
        flags += [flag] if value is True else [flag, str(value)]
    outdir = tmp_path / "out"
    assert main(_analyze_args(fixture_model, outdir, "--stoplist", str(stoplist), *flags)) == 0
    text = (outdir / "manifest.json").read_text(encoding="utf-8")
    manifest = json.loads(text)
    assert manifest["config"] == settings
    assert manifest["inputs"]["stoplist"] == hashlib.sha256(b"und\n").hexdigest()
    for part in (str(tmp_path), str(FIXTURES), "stop.txt", "model.arpa", "corpus.vert",
                 "clauses.json", "referents.tsv", os.sep):
        assert part not in text, part


def test_analyze_bundle_is_the_same_wherever_its_inputs_sit(fixture_model, tmp_path,
                                                            monkeypatch):
    files = {"--model": fixture_model, "--corpus": FIXTURES / "corpus.vert",
             "--clauses": FIXTURES / "clauses.json", "--referents": FIXTURES / "referents.tsv"}
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    for path in files.values():
        shutil.copy(path, elsewhere / path.name)
    monkeypatch.chdir(tmp_path)
    runs = {
        "relative": {flag: os.path.relpath(path) for flag, path in files.items()},
        "absolute": {flag: str(path.resolve()) for flag, path in files.items()},
        "copied": {flag: str(elsewhere / path.name) for flag, path in files.items()},
    }
    for name, paths in runs.items():
        assert main(["analyze", *chain.from_iterable(paths.items()), "--outdir", name]) == 0
    relative, absolute, copied = (
        {path.name: path.read_bytes() for path in (tmp_path / name).iterdir()} for name in runs)
    assert "manifest.json" in relative and len(relative) == 6
    assert absolute == relative
    assert copied == relative


def test_analyze_validation_lists_all_offenders(fixture_model, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([
        {"id": "bad-1", "doc": "sermon-01", "variant": "extraposed",
         "matrix": [[0, 6]], "rc": [3, 8], "attachment": 2},
        {"id": "bad-2", "doc": "sermon-01", "variant": "wat",
         "matrix": [[0, 4]], "rc": [4, 6], "attachment": 2},
    ]), encoding="utf-8")
    code = main([
        "analyze", "--model", str(fixture_model),
        "--corpus", str(FIXTURES / "corpus.vert"),
        "--clauses", str(bad),
        "--referents", str(FIXTURES / "referents.tsv"),
        "--outdir", str(tmp_path / "out"),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "bad-1" in err and "bad-2" in err


def test_analyze_lists_every_clause_too_short(fixture_model, tmp_path, capsys):
    records = json.loads((FIXTURES / "clauses.json").read_text(encoding="utf-8"))
    for record in records:
        if record["id"] in ("rc-002", "rc-004"):  # extraposed: shrink to one word
            record["rc"] = [record["rc"][0], record["rc"][0] + 1]
    clauses = tmp_path / "short.json"
    clauses.write_text(json.dumps(records), encoding="utf-8")
    outdir = tmp_path / "out"
    args = _analyze_args(fixture_model, outdir)
    args[args.index("--clauses") + 1] = str(clauses)
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "rc-002" in err and "rc-004" in err
    assert not outdir.exists()


def test_analyze_rejects_attachment_at_the_matrix_start(fixture_model, tmp_path, capsys):
    records = json.loads((FIXTURES / "clauses.json").read_text(encoding="utf-8"))
    for record in records:
        if record["id"] in ("rc-002", "rc-004"):  # extraposed
            record["attachment"] = record["matrix"][0][0]
    clauses = tmp_path / "attached.json"
    clauses.write_text(json.dumps(records), encoding="utf-8")
    outdir = tmp_path / "out"
    args = _analyze_args(fixture_model, outdir)
    args[args.index("--clauses") + 1] = str(clauses)
    assert main(args) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"validation error: {record_id}: attachment must lie after the matrix start"
        " and at most at its end"
        for record_id in ("rc-002", "rc-004")
    ]
    assert not outdir.exists()


def _annotation_job(command, model, tmp_path, referents,
                    clauses=FIXTURES / "clauses.json"):
    """Arguments for ``analyze`` or ``givenness`` on the fixture with the
    given annotation files, and the outputs the job would write."""
    outdir, output = tmp_path / "out", tmp_path / "table1.tsv"
    args = [
        command,
        "--corpus", str(FIXTURES / "corpus.vert"),
        "--clauses", str(clauses),
        "--referents", str(referents),
    ]
    if command == "analyze":
        args += ["--model", str(model), "--outdir", str(outdir)]
    else:
        args += ["-o", str(output)]
    return args, (outdir, output)


@pytest.mark.parametrize("command", ["analyze", "givenness"])
def test_negative_salience_window_rejected(command, fixture_model, tmp_path, capsys):
    args, outputs = _annotation_job(command, fixture_model, tmp_path,
                                    FIXTURES / "referents.tsv")
    assert main([*args, "--salience-window", "-1"]) == 2
    assert "salience window must be >= 0" in capsys.readouterr().err
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("command", ["analyze", "givenness"])
def test_negative_salience_window_rejected_without_mentions(
    command, fixture_model, tmp_path, capsys
):
    # With no mention to classify the window must still be checked.
    referents = tmp_path / "referents.tsv"
    referents.write_text("", encoding="utf-8")
    args, outputs = _annotation_job(command, fixture_model, tmp_path, referents)
    assert main([*args, "--salience-window", "-1"]) == 2
    assert "salience window must be >= 0" in capsys.readouterr().err
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("command", ["analyze", "givenness"])
def test_referent_problems_listed_together(command, fixture_model, tmp_path, capsys):
    referents = tmp_path / "referents.tsv"
    referents.write_text(
        "sermon-01\t1\t3\tMann\t0\t0\n"
        "sermon-01\t2\t4\tBruder\t0\t0\n"      # overlaps the line above
        "sermon-99\t0\t1\tKirche\t0\t0\n"      # unknown document
        "sermon-02\t700\t701\tKind\t0\t0\n",   # sermon-02 has 618 words
        encoding="utf-8",
    )
    args, outputs = _annotation_job(command, fixture_model, tmp_path, referents)
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "sermon-01: overlapping mention intervals at 2" in err
    assert "mention of 'Kirche': unknown document 'sermon-99'" in err
    assert "mention of 'Kind' at [700, 701) exceeds document 'sermon-02'" in err
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("command", ["analyze", "givenness"])
def test_problems_of_both_annotation_files_listed(command, fixture_model, tmp_path, capsys):
    records = json.loads((FIXTURES / "clauses.json").read_text(encoding="utf-8"))
    records[0]["variant"] = "wat"
    clauses = tmp_path / "clauses.json"
    clauses.write_text(json.dumps(records), encoding="utf-8")
    referents = tmp_path / "referents.tsv"
    referents.write_text((FIXTURES / "referents.tsv").read_text(encoding="utf-8")
                         + "sermon-99\t0\t1\tX\t0\t0\n", encoding="utf-8")
    args, outputs = _annotation_job(command, fixture_model, tmp_path, referents, clauses)
    assert main(args) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"validation error: {records[0]['id']}: 'wat' is not a valid Variant",
        "validation error: mention of 'X': unknown document 'sermon-99'",
    ]
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("command", ["analyze", "givenness"])
def test_deeply_nested_clause_json(command, fixture_model, tmp_path, capsys):
    clauses = tmp_path / "clauses.json"
    clauses.write_text("[" * 100_000, encoding="utf-8")
    args, outputs = _annotation_job(command, fixture_model, tmp_path,
                                    FIXTURES / "referents.tsv", clauses)
    assert main(args) == 2
    assert "clause annotations are nested too deeply" in capsys.readouterr().err
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("command", ["analyze", "givenness"])
def test_clause_file_that_is_not_json(command, fixture_model, tmp_path, capsys):
    clauses = tmp_path / "clauses.json"
    clauses.write_text("[1,", encoding="utf-8")
    args, outputs = _annotation_job(command, fixture_model, tmp_path,
                                    FIXTURES / "referents.tsv", clauses)
    assert main(args) == 2
    assert capsys.readouterr().err == (
        "error: line 1: clause annotations are not valid JSON: Expecting value (column 4)\n"
    )
    assert not any(path.exists() for path in outputs)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter converts integers of any length")
@pytest.mark.parametrize("command", ["analyze", "givenness"])
def test_clause_json_with_an_overlong_integer(command, fixture_model, tmp_path, capsys):
    clauses = tmp_path / "clauses.json"
    clauses.write_text("[" + "1" * (sys.get_int_max_str_digits() + 1) + "]", encoding="utf-8")
    args, outputs = _annotation_job(command, fixture_model, tmp_path,
                                    FIXTURES / "referents.tsv", clauses)
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: clause annotations: Exceeds the limit")
    assert not any(path.exists() for path in outputs)


def test_analyze_without_in_situ_records_has_no_chi_square(fixture_model, tmp_path):
    records = json.loads((FIXTURES / "clauses.json").read_text(encoding="utf-8"))
    clauses = tmp_path / "clauses.json"
    clauses.write_text(json.dumps([r for r in records if r["variant"] == "extraposed"]),
                       encoding="utf-8")
    args, (outdir, _) = _annotation_job("analyze", fixture_model, tmp_path,
                                        FIXTURES / "referents.tsv", clauses)
    assert main(args) == 0
    assert (outdir / "chi_square.tsv").read_text(encoding="utf-8") == (
        "comparison\tstatistic\tp\nnew referents, in-situ vs. extraposed rc\tNA\tNA\n")


def test_analyze_outdir_that_stdout_cannot_encode(fixture_model, tmp_path, capsys):
    # An undecodable byte of a path arrives as a lone surrogate (PEP 383),
    # which a strict UTF-8 stdout cannot print: an I/O error, not a fault.
    assert main(_analyze_args(fixture_model, tmp_path / "out-\udcff")) == 2
    assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't encode")
    assert not (tmp_path / "out-\udcff").exists()


def test_analyze_writes_nothing_when_an_input_cannot_be_hashed(fixture_model, tmp_path,
                                                               monkeypatch, capsys):
    # The model is read once to load it and once more to hash it; the second
    # read fails after every table is computed, and before any is written.
    read_bytes = Path.read_bytes

    def failing_read_bytes(path):
        if path == fixture_model:
            raise PermissionError(f"cannot read {path}")
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", failing_read_bytes)
    outdir = tmp_path / "out"
    assert main(_analyze_args(fixture_model, outdir)) == 2
    assert capsys.readouterr() == ("", f"error: cannot read {fixture_model}\n")
    assert not outdir.exists()


def test_analyze_missing_model(tmp_path):
    assert main(_analyze_args(tmp_path / "absent.arpa", tmp_path / "out")) == 2


# --- givenness and chi2 -----------------------------------------------------

def test_givenness_table(tmp_path, capsys):
    code = main([
        "givenness",
        "--corpus", str(FIXTURES / "corpus.vert"),
        "--clauses", str(FIXTURES / "clauses.json"),
        "--referents", str(FIXTURES / "referents.tsv"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("row\treferents_total")
    assert "Relative clauses: in-situ" in out


def test_clause_records_of_unknown_documents_are_all_listed(tmp_path, capsys):
    records = json.loads((FIXTURES / "clauses.json").read_text(encoding="utf-8"))[:2]
    records[0]["doc"], records[1]["doc"] = "nowhere-1", "nowhere-2"
    clauses = tmp_path / "clauses.json"
    clauses.write_text(json.dumps(records), encoding="utf-8")
    args, (_, output) = _annotation_job("givenness", None, tmp_path,
                                        FIXTURES / "referents.tsv", clauses)
    assert main(args) == 3
    assert capsys.readouterr() == ("", "".join(
        f"validation error: {record['id']}: unknown document {record['doc']!r}\n"
        for record in records))
    assert not output.exists()


def _with_bom(source, tmp_path):
    path = tmp_path / ("bom-" + source.name)
    path.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    return path


def test_train_accepts_a_leading_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.arpa", tmp_path / "marked.arpa"
    corpus = FIXTURES / "corpus.vert"
    assert main(["train", "--corpus", str(corpus), "-o", str(plain)]) == 0
    assert main(["train", "--corpus", str(_with_bom(corpus, tmp_path)), "-o", str(marked)]) == 0
    assert marked.read_bytes() == plain.read_bytes()


def test_annotation_files_accept_a_leading_byte_order_mark(tmp_path, capsys):
    args = ["givenness", "--corpus", str(FIXTURES / "corpus.vert")]
    files = {name: FIXTURES / name for name in ("clauses.json", "referents.tsv")}
    assert main([*args, "--clauses", str(files["clauses.json"]),
                 "--referents", str(files["referents.tsv"])]) == 0
    plain = capsys.readouterr().out
    marked = {name: _with_bom(path, tmp_path) for name, path in files.items()}
    assert main([*args, "--clauses", str(marked["clauses.json"]),
                 "--referents", str(marked["referents.tsv"])]) == 0
    assert capsys.readouterr().out == plain


def test_model_accepts_a_leading_byte_order_mark(fixture_model, tmp_path):
    marked = _with_bom(fixture_model, tmp_path)
    corpus = ["--corpus", str(FIXTURES / "corpus.vert")]
    tsv = {model: tmp_path / f"{model.stem}.tsv" for model in (fixture_model, marked)}
    for model, out in tsv.items():
        assert main(["surprisal", "--model", str(model), *corpus, "-o", str(out)]) == 0
    assert tsv[marked].read_bytes() == tsv[fixture_model].read_bytes()

    plain_dir, marked_dir = tmp_path / "plain", tmp_path / "marked"
    assert main(_analyze_args(fixture_model, plain_dir)) == 0
    assert main(_analyze_args(marked, marked_dir)) == 0
    for table in ("table1.tsv", "table2.tsv", "table3.tsv", "hypotheticals.tsv",
                  "chi_square.tsv"):
        assert (marked_dir / table).read_bytes() == (plain_dir / table).read_bytes()
    plain, with_bom = (json.loads((d / "manifest.json").read_text(encoding="utf-8"))
                       for d in (plain_dir, marked_dir))
    # Only the model's own digest differs.
    assert with_bom["inputs"]["model"] != plain["inputs"]["model"]
    with_bom["inputs"]["model"] = plain["inputs"]["model"]
    assert with_bom == plain

def test_chi2_command(capsys):
    assert main(["chi2", "2", "20", "11", "35"]) == 0
    out = capsys.readouterr().out
    assert "statistic=2.114486" in out
    assert "p=0.145911" in out


def test_chi2_degenerate(capsys):
    assert main(["chi2", "0", "0", "5", "7"]) == 2


# --- config file ------------------------------------------------------------

def test_config_file_provides_defaults(toy_corpus, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        f"# defaults\ncorpus = {toy_corpus}\ndiscount = 0.5\n", encoding="utf-8"
    )
    code = main(["train", "--config", str(config), "-o", str(tmp_path / "m.arpa")])
    assert code == 0
    assert "D=0.5" in capsys.readouterr().out


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_config_file_read_with_or_without_byte_order_mark(bom, toy_corpus, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(bom + b"discount = 0.5\n")
    code = main(["train", "--config", str(config), "--corpus", str(toy_corpus),
                 "-o", str(tmp_path / "m.arpa")])
    assert code == 0
    assert "D=0.5" in capsys.readouterr().out


def test_cli_flags_override_config(toy_corpus, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(f"corpus = {toy_corpus}\ndiscount = 0.5\n", encoding="utf-8")
    code = main(["train", "--config", str(config), "--discount", "0.7",
                 "-o", str(tmp_path / "m.arpa")])
    assert code == 0
    assert "D=0.7" in capsys.readouterr().out


# A repeatable option spelled in full replaces the config file's list: only
# the toy document is read (``--corpus``) or scored (``--doc``), not the
# config's ``z``. An abbreviation is an unknown option, so it cannot extend
# the list either: the run exits 2 and writes nothing.
@pytest.mark.parametrize("flag", ["--corpus", "--corpus=", "--doc", "--corp", "--corp=", "--do"])
def test_cli_repeatable_flag_replaces_config_list(flag, toy_corpus, tmp_path, capsys):
    other = tmp_path / "z.vert"
    other.write_text("# doc: z\nfoo\tfoo\nbar\tbar\n", encoding="utf-8")
    config = tmp_path / "run.cfg"
    if flag.startswith("--do"):
        model = tmp_path / "m.arpa"
        assert main(["train", "--corpus", str(toy_corpus), "-o", str(model)]) == 0
        config.write_text("doc = z\n", encoding="utf-8")
        out = tmp_path / "s.tsv"
        argv = ["surprisal", "--config", str(config), "--model", str(model),
                "--corpus", str(toy_corpus), "--corpus", str(other),
                flag, "toy", "-o", str(out)]
    else:
        config.write_text(f"corpus = {other}\n", encoding="utf-8")
        out = tmp_path / "m.arpa"
        corpus = [flag + str(toy_corpus)] if flag.endswith("=") else [flag, str(toy_corpus)]
        argv = ["train", "--config", str(config), *corpus, "-o", str(out)]
    capsys.readouterr()
    if flag.rstrip("=") in ("--corp", "--do"):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not out.exists()
    elif flag == "--doc":
        assert main(argv) == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert {row.split("\t")[0] for row in rows} == {"toy"}
    else:
        assert main(argv) == 0
        assert "tokens=6\n" in capsys.readouterr().out  # the toy corpus alone


def test_config_flag_rejected_when_abbreviated(toy_corpus, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("discount = 0.3\n", encoding="utf-8")
    out = tmp_path / "m.arpa"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--conf", str(config), "--corpus", str(toy_corpus), "-o", str(out)])
    assert exc.value.code == 2
    assert "--conf" in capsys.readouterr().err
    assert not out.exists()


# A prefix of an option name (``corp``, ``do``) is not a key: it is
# rejected before any input is read, instead of adding to the explicit list.
@pytest.mark.parametrize("command", ["train", "surprisal"])
def test_config_key_must_be_a_full_option_name(command, fixture_model, tmp_path, capsys):
    corpus = str(FIXTURES / "corpus.vert")
    config = tmp_path / "run.cfg"
    out = tmp_path / "out"
    if command == "train":
        key, value = "corp", "z.vert"
        argv = ["train", "--corpus", corpus, "-o", str(out)]
    else:
        key, value = "do", "z"
        argv = ["surprisal", "--model", str(fixture_model), "--corpus", corpus,
                "--doc", "sermon-01", "-o", str(out)]
    config.write_text(f"# defaults\n{key} = {value}\n", encoding="utf-8")
    capsys.readouterr()
    assert main(argv + ["--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert f"line 2: config key {key!r}" in captured.err
    assert captured.out == ""
    assert not out.exists()


# ``config`` and ``help`` are options but not keys: a nested file would
# not be read, and ``--help`` would end the run before it starts.
@pytest.mark.parametrize("key", ["config", "help"])
def test_config_key_config_or_help_is_rejected(key, tmp_path, capsys):
    nested = tmp_path / "o2.cfg"
    nested.write_text("discount = 0.5\n", encoding="utf-8")
    config = tmp_path / "nest.cfg"
    value = nested if key == "config" else "yes"
    config.write_text(f"{key} = {value}\ncorpus = {FIXTURES / 'corpus.vert'}\n",
                      encoding="utf-8")
    out = tmp_path / "m.arpa"
    assert main(["train", "--config", str(config), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"line 1: config key {key!r}" in captured.err
    assert captured.out == ""
    assert not out.exists()


_GIVENNESS = ["givenness", "--corpus", str(FIXTURES / "corpus.vert"),
              "--clauses", str(FIXTURES / "clauses.json"),
              "--referents", str(FIXTURES / "referents.tsv")]


# The subcommand's parser says which keys are flags (``count-distinct``)
# and which take a value (``salience-window``), under either spelling.
@pytest.mark.parametrize("line, flags", [
    ("count-distinct = yes", ["--count-distinct"]),
    ("count-distinct = no", []),
    ("salience_window = 3", ["--salience-window", "3"]),
    ("salience-window = 3", ["--salience-window", "3"]),
], ids=["flag-yes", "flag-no", "underscore", "hyphen"])
def test_config_key_reads_as_its_flag(line, flags, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    assert main(_GIVENNESS + flags) == 0
    expected = capsys.readouterr().out
    assert main(_GIVENNESS + ["--config", str(config)]) == 0
    assert capsys.readouterr().out == expected


def test_config_flag_key_needs_a_boolean(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("# defaults\ncount-distinct = maybe\n", encoding="utf-8")
    assert main(_GIVENNESS + ["--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert "line 2: boolean expected" in captured.err
    assert captured.out == ""


def test_config_malformed_line(toy_corpus, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("just some words\n", encoding="utf-8")
    assert main(["train", "--config", str(config), "--corpus", str(toy_corpus),
                 "-o", str(tmp_path / "m.arpa")]) == 2


@pytest.mark.parametrize("command, removed, config", [
    ("train", ["--unit", "surface"], None),
    ("surprisal", ["--include-punctuation"], None),
    ("analyze", ["--seed", "1"], None),
    ("train", [], "unit = surface\n"),
    ("train", ["--format", "text"], None),
    ("analyze", [], "format = vertical\n"),
    ("train", ["--punctuation", "."], None),
    ("surprisal", ["--punctuation", "."], None),
    ("analyze", ["--punctuation", "."], None),
    ("givenness", ["--punctuation", "."], None),
    ("train", [], "punctuation = .\n"),
    ("surprisal", [], "punctuation = .\n"),
    ("analyze", [], "punctuation = .\n"),
    ("givenness", [], "punctuation = .\n"),
    ("train", [], "model = m.arpa\n"),
], ids=["train-unit", "surprisal-include-punctuation", "analyze-seed", "config-unit",
        "train-format", "config-format", "train-punctuation", "surprisal-punctuation",
        "analyze-punctuation", "givenness-punctuation", "config-punctuation-train",
        "config-punctuation-surprisal", "config-punctuation-analyze",
        "config-punctuation-givenness", "config-model-train"])
def test_removed_options_are_rejected(command, removed, config, fixture_model, tmp_path,
                                      capsys):
    corpus = str(FIXTURES / "corpus.vert")
    valid = {
        "train": ["train", "--corpus", corpus, "-o", str(tmp_path / "m.arpa")],
        "surprisal": ["surprisal", "--model", str(fixture_model), "--corpus", corpus,
                      "-o", str(tmp_path / "s.tsv")],
        "analyze": _analyze_args(fixture_model, tmp_path / "out"),
        "givenness": ["givenness", "--corpus", corpus,
                      "--clauses", str(FIXTURES / "clauses.json"),
                      "--referents", str(FIXTURES / "referents.tsv"),
                      "-o", str(tmp_path / "g.tsv")],
    }[command]
    if config is None:
        with pytest.raises(SystemExit) as exc:
            main(valid + removed)
        assert exc.value.code == 2
        return
    # A config key is checked against the subcommand's options, so it is
    # reported with its line number.
    path = tmp_path / "run.cfg"
    path.write_text(config, encoding="utf-8")
    assert main(valid + ["--config", str(path)]) == 2
    assert "line 1: config key" in capsys.readouterr().err


def test_config_value_with_a_nul_byte_names_its_line(tmp_path, capsys):
    # ``open`` would refuse such a path with a bare ``ValueError``.
    config = tmp_path / "run.cfg"
    config.write_text("# corpus\ncorpus = a\0b\n", encoding="utf-8")
    assert main(["train", "--config", str(config), "-o", str(tmp_path / "m.arpa")]) == 2
    assert capsys.readouterr().err == "error: line 2: NUL byte in the value of 'corpus'\n"


# --- defaults ---------------------------------------------------------------

_ACCOMMODATION_DEFAULTS = {"bonus": f"{FactorConfig.bonus:g}", "wearout": FactorConfig.wearout,
                           "window": FactorConfig.window, "floor": FactorConfig.floor}
_ANNOTATION_DEFAULTS = {"salience-window": SALIENCE_WINDOW}


@pytest.mark.parametrize("command, defaults", [
    ("train", {}),
    ("surprisal", _ACCOMMODATION_DEFAULTS),
    ("analyze", {**_ACCOMMODATION_DEFAULTS, **_ANNOTATION_DEFAULTS}),
    ("givenness", _ANNOTATION_DEFAULTS),
])
def test_help_shows_each_default(command, defaults, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "500")  # no help text is wrapped
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    # One entry per option: its name, metavar and help text.
    entries = re.split(r"\s+(?=--[a-z])", capsys.readouterr().out.strip())
    assert any(entry.startswith("--corpus PATH") for entry in entries)
    for option, value in defaults.items():
        entry, = (entry for entry in entries if entry.startswith(f"--{option} "))
        assert " ".join(entry.split()).endswith(f"(default {value})"), entry


def test_analyze_parser_defaults_are_the_library_defaults():
    args = cli._build_parser().parse_args(
        ["analyze", "--model", "m", "--corpus", "c", "--clauses", "x",
         "--referents", "y", "--outdir", "o"])
    assert cli._factor_config(args) == FactorConfig()
    assert args.salience_window == SALIENCE_WINDOW
    assert args.count_distinct is False
    assert args.combined_single_exclusion is False


# --- exit codes -------------------------------------------------------------

def test_internal_invariant_exit_code(toy_corpus, tmp_path, monkeypatch):
    from rcsurp import ngram

    def boom(*args, **kwargs):
        raise AssertionError("invariant violated")

    monkeypatch.setattr(ngram, "train_kn", boom)
    code = main(["train", "--corpus", str(toy_corpus), "-o", str(tmp_path / "m.arpa")])
    assert code == 4


def test_internal_value_error_exit_code(toy_corpus, tmp_path, monkeypatch, capsys):
    # A ``ValueError`` that no input check raised is a fault of the program.
    from rcsurp import ngram

    def boom(*args, **kwargs):
        raise ValueError("invariant violated")

    monkeypatch.setattr(ngram, "train_kn", boom)
    assert main(["train", "--corpus", str(toy_corpus), "-o", str(tmp_path / "m.arpa")]) == 4
    assert capsys.readouterr().err == "internal error: invariant violated\n"


def _out_of_range_jobs(model, tmp_path):
    corpus = ["--corpus", str(FIXTURES / "corpus.vert")]
    surprisal = ["surprisal", "--model", str(model), *corpus, "-o", str(tmp_path / "s.tsv")]
    return {
        "wearout": ([*surprisal, "--wearout", "0"], "wearout must be >= 1"),
        "window": ([*surprisal, "--window", "0"], "window must be >= 1"),
        "floor": ([*surprisal, "--floor", "9"], "floor must lie in [1, wearout]"),
        "discount": (["train", *corpus, "-o", str(tmp_path / "m.arpa"), "--discount", "1.5"],
                     "discount must be in (0, 1), got 1.5"),
        "chi2": (["chi2", "-1", "1", "1", "1"], "counts must be non-negative"),
        # A backoff weight of 0.0 has no log10 for the ARPA file.
        "discount-underflow": (
            ["train", *corpus, "-o", str(tmp_path / "m.arpa"), "--discount", "5e-324"],
            "discount 5e-324 too small: a backoff weight underflows to 0"),
        "chi2-overflow": (["chi2", str(10**400), "1", "1", str(10**400)],
                          "counts too large: the chi-square statistic exceeds the float range"),
    }


@pytest.mark.parametrize("case", ["wearout", "window", "floor", "discount", "chi2",
                                  "discount-underflow", "chi2-overflow"])
def test_value_out_of_its_range_exits_2(case, fixture_model, tmp_path, capsys):
    argv, message = _out_of_range_jobs(fixture_model, tmp_path)[case]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "s.tsv").exists() and not (tmp_path / "m.arpa").exists()



# --- collector policy -------------------------------------------------------

@pytest.fixture
def distinctive_gc_threshold():
    saved = gc.get_threshold()
    gc.set_threshold(1234, 11, 7)
    yield gc.get_threshold()
    gc.set_threshold(*saved)


def _threshold_cases(tmp_path):
    corpus = tmp_path / "d.vert"
    corpus.write_text("# doc: a\nTrost\ttrost\n", encoding="utf-8")
    model = tmp_path / "bad.arpa"
    model.write_text("not a model\n", encoding="utf-8")
    return {
        "exit-0": (["chi2", "2", "20", "11", "35"], 0),
        "parse-error": (["surprisal", "--model", str(model), "--corpus", str(corpus)], 2),
        "validation-error": (["train", "--corpus", str(corpus), "--corpus", str(corpus),
                              "-o", str(tmp_path / "m.arpa")], 3),
        "argparse-exit": (["chi2", "--no-such-flag"], SystemExit),
    }


@pytest.mark.parametrize("case", ["exit-0", "parse-error", "validation-error",
                                  "argparse-exit"])
def test_main_restores_the_collector_threshold(case, distinctive_gc_threshold, tmp_path,
                                               capsys):
    argv, expected = _threshold_cases(tmp_path)[case]
    if expected is SystemExit:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    else:
        assert main(argv) == expected
    assert gc.get_threshold() == distinctive_gc_threshold
