"""Command-line front end for the measurement pipeline.

Subcommands:

* ``train``      -- count a corpus, write the ARPA model and print the report
* ``surprisal``  -- per-lemma surprisal TSV with accommodation columns
* ``analyze``    -- full report bundle (givenness, bare and accommodated
                    clause tables, counterfactual orders, chi-square, manifest)
* ``givenness``  -- the givenness table on its own
* ``chi2``       -- chi-square on four raw counts

Exit codes: 0 success, 2 input or I/O error, 3 validation error, 4 internal
fault, a ``ValueError`` that is neither a ``ParseError`` nor a
``UnicodeError`` included. Each subcommand imports the pipeline modules it
runs when it runs, so a process loads no others. Each option's default is
written once: in :func:`_build_parser`, or in ``_value`` for the ones the
library shares. A ``--config`` file overrides the defaults in a flat
``key = value`` format, each key the full long name of one of the
subcommand's options other than ``config`` and ``help``; command-line flags
override the file. Options are spelled in full on the command line as well:
a prefix of an option is an unknown option.

:func:`main` sets a batch threshold for the cyclic garbage collector for
the duration of the call and restores the caller's threshold on every exit
path, argparse's ``SystemExit`` included, so in-process callers see no
global change.
"""

from __future__ import annotations

import argparse
import gc
import sys
from contextlib import contextmanager
from functools import partial
from itertools import chain, groupby
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, TextIO

from . import ngram
from ._value import FACTOR_BONUS, FACTOR_FLOOR, FACTOR_WEAROUT, FACTOR_WINDOW, SALIENCE_WINDOW
from .corpus import Document, Word, load_vertical_file, resegment_sentences
from .errors import DegenerateCountsError, ParseError, PipelineError, ValidationError

if TYPE_CHECKING:
    from . import accommodation as accom
    from . import clauses as cl
    from . import givenness as giv

# Collector thresholds while ``main`` runs. The pipeline allocates tens of
# thousands of parsed corpus rows, per-word factor pairs and other tuples
# that hold only strings and numbers, so they cannot form reference cycles;
# at the default generation-0 threshold (700) the collector traverses them
# over and over for nothing.
_BATCH_GC_THRESHOLD = (50_000, 50, 1000)


def _factor_config(args: argparse.Namespace) -> accom.FactorConfig:
    from . import accommodation as accom

    return accom.FactorConfig(args.bonus, args.wearout, args.window, args.floor)


def _content_predicate(args: argparse.Namespace) -> Callable[[Word], bool]:
    from . import accommodation as accom

    pos = (
        frozenset(filter(None, args.content_pos.split(",")))
        if args.content_pos
        else accom.DEFAULT_CONTENT_POS
    )
    stoplist = accom.load_stoplist(args.stoplist) if args.stoplist else None
    return accom.make_content_predicate(pos, stoplist)


@contextmanager
def _open_output(path: str | None) -> Iterator[TextIO]:
    """The file at ``path`` opened for writing, or stdout when no path is
    given. When the block fails the file is removed, so a failed run leaves
    no partial output; a path that is not a regular file, such as a device,
    a pipe or a symbolic link, is left in place."""
    if not path:
        yield sys.stdout
        return
    fh = open(path, "w", encoding="utf-8")
    try:
        with fh:
            yield fh
    except BaseException:
        output = Path(path)
        if output.is_file() and not output.is_symlink():
            output.unlink()
        raise


def _load_model(path: str) -> ngram.KneserNeyBigramModel:
    """The ARPA model at ``path``; a leading BOM is dropped."""
    return ngram.import_arpa(Path(path).read_text(encoding="utf-8-sig"))


def _load_corpus(paths: list[str]) -> dict[str, Document]:
    docs: dict[str, Document] = {}
    repeated: dict[str, None] = {}  # ordered set
    for path in paths:
        for doc in load_vertical_file(path):
            if doc.id in docs:
                repeated[doc.id] = None
            else:
                docs[doc.id] = resegment_sentences(doc)
    if repeated:
        raise ValidationError([f"duplicate document id {i!r} across files" for i in repeated])
    return docs


def _check_scored_words(
    model: ngram.KneserNeyBigramModel, predicate: Callable[[Word], bool],
    docs: list[Document], args: argparse.Namespace,
) -> None:
    """Raise one :class:`ValidationError` when ``docs`` hold words and the
    model knows none of their lemmas, so that every score would be the
    unknown word's, or the content predicate selects none of them, so that
    accommodation would weight nothing. Each scan stops at its first hit."""
    if not any(doc.word_count() for doc in docs):
        return
    index = model.vocabulary.index
    corpus = ", ".join(args.corpus)
    problems = []
    if not any(lemma in index for doc in docs for lemma in doc._word_columns.lemmas):
        problems.append(f"model {args.model} knows none of the scored lemmas of {corpus}")
    if not any(map(predicate, chain.from_iterable(doc._word_columns.words for doc in docs))):
        problems.append(f"--content-pos {args.content_pos!r} and --stoplist {args.stoplist!r}"
                        f" select no content word among the scored words of {corpus}")
    if problems:
        raise ValidationError(problems)


# --- subcommands ------------------------------------------------------------

def cmd_train(args: argparse.Namespace) -> int:
    docs = _load_corpus(args.corpus)
    counts = ngram.count_bigrams(docs.values())
    model = ngram.train_kn(counts, args.discount)
    Path(args.output).write_text(ngram.export_arpa(model), encoding="utf-8")
    sys.stdout.write(
        f"vocabulary={model.vocabulary.corpus_size()}"
        f" (+{len(ngram.RESERVED)} reserved)\n"
        f"tokens={counts.token_count()}\n"
        f"sentences={counts.sentence_count()}\n"
        f"D={model.discount:.6g}\n"
    )
    return 0


def cmd_surprisal(args: argparse.Namespace) -> int:
    from . import accommodation as accom
    from .surprisal import annotate_document

    model = _load_model(args.model)
    docs = _load_corpus(args.corpus)
    if args.doc:
        wanted = dict.fromkeys(args.doc)  # each id once, in first-given order
        missing = [d for d in wanted if d not in docs]
        if missing:
            raise ParseError(f"unknown document id(s): {', '.join(missing)}")
        selected = [docs[d] for d in wanted]
    else:
        selected = list(docs.values())
    predicate = _content_predicate(args)
    _check_scored_words(model, predicate, selected, args)
    factor_cfg = _factor_config(args)

    def scored():
        # One document's entries at a time, scored as the writer asks for them.
        for doc in selected:
            annotation = annotate_document(model, doc)
            yield annotation, accom.accommodate_document(annotation, doc, predicate, factor_cfg)

    with _open_output(args.output) as out:
        accom.write_weighted_tsv(scored(), out)
    return 0


def _load_annotations(
    args: argparse.Namespace, docs: dict[str, Document]
) -> tuple[list[cl.ClauseRecord], dict[str, list[giv.ClassifiedMention]]]:
    """Parse the clause and referent annotations against the corpus and
    classify each document's mentions, keyed by document id. The salience
    window is checked first, whether or not there are mentions. Both files
    are read before failing, so one :class:`ValidationError` lists the
    clause problems and then the referent problems."""
    from . import clauses as cl
    from . import givenness as giv

    giv.check_salience_window(args.salience_window)
    loaded, problems = [], []
    for load, path in ((cl.parse_clause_annotations, args.clauses),
                       (giv.load_referent_annotations, args.referents)):
        try:  # a leading BOM is dropped
            loaded.append(load(Path(path).read_text(encoding="utf-8-sig"), docs))
        except ValidationError as exc:
            problems.extend(exc.problems)
    if problems:
        raise ValidationError(problems)
    records, mentions = loaded
    # The loader returns each document's mentions as one consecutive run.
    classified = {
        doc_id: giv.classify_document(doc_mentions, args.salience_window, args.count_distinct)
        for doc_id, doc_mentions in groupby(mentions, key=attrgetter("doc_id"))
    }
    return records, classified


def cmd_analyze(args: argparse.Namespace) -> int:
    # Only this manifest hashes and writes JSON; other subcommands skip both.
    import json
    from hashlib import sha256

    from . import clauses as cl
    from . import givenness as giv

    model = _load_model(args.model)
    docs = _load_corpus(args.corpus)
    records, classified = _load_annotations(args, docs)
    cl.check_scorable(records)
    predicate = _content_predicate(args)
    scored = [docs[doc_id] for doc_id in dict.fromkeys(r.doc_id for r in records)]
    _check_scored_words(model, predicate, scored, args)

    scorer = cl.ClauseScorer(model, _factor_config(args), predicate,
                             combined_excludes_matrix_first=not args.combined_single_exclusion)
    givenness_rows = giv.build_givenness_table(records, classified)
    table2 = cl.build_surprisal_table(records, docs, scorer, "bare")
    table3 = cl.build_surprisal_table(records, docs, scorer, "accommodated")
    hypothetical = cl.build_hypothetical_table(records, docs, scorer)
    # Each file of the bundle as the UTF-8 bytes that are hashed, then written.
    bundle = {
        "table1.tsv": giv.givenness_tsv(givenness_rows).encode(),
        "table2.tsv": cl.table_tsv(table2).encode(),
        "table3.tsv": cl.table_tsv(table3).encode(),
        "hypotheticals.tsv": cl.table_tsv(hypothetical).encode(),
        "chi_square.tsv": giv.chi_square_tsv(givenness_rows).encode(),
    }

    def digest(path: str) -> str:
        return sha256(Path(path).read_bytes()).hexdigest()

    # Each input by its role and contents, so that no path reaches the
    # manifest; every other parsed name but the output directory and the
    # parser's own is a setting.
    inputs = {"model": digest(args.model), "clauses": digest(args.clauses),
              "referents": digest(args.referents), "corpus": list(map(digest, args.corpus)),
              "stoplist": digest(args.stoplist) if args.stoplist else None}
    config = {name: value for name, value in vars(args).items()
              if name not in inputs and name not in ("outdir", "config", "command", "func")}
    canonical = json.dumps(config, sort_keys=True).encode("utf-8")
    manifest = {
        "config": config,
        "config_sha256": sha256(canonical).hexdigest(),
        "inputs": inputs,
        "outputs": {name: sha256(data).hexdigest() for name, data in bundle.items()},
    }
    bundle["manifest.json"] = (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode()

    outdir = Path(args.outdir)
    # What stdout gets once the bundle is written, encoded first as stdout
    # will encode it, so that a path it cannot print fails before anything
    # is written. An ``io.StringIO`` has no encoding and takes any text.
    report = (f"bare surprisal per clause\n{cl.render_table(table2)}\n"
              f"accommodated surprisal per clause\n{cl.render_table(table3)}\n"
              f"report bundle written to {outdir}\n")
    if sys.stdout.encoding:
        report.encode(sys.stdout.encoding, sys.stdout.errors)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, data in bundle.items():
        (outdir / name).write_bytes(data)
    sys.stdout.write(report)
    return 0


def cmd_givenness(args: argparse.Namespace) -> int:
    from . import givenness as giv

    docs = _load_corpus(args.corpus)
    records, classified = _load_annotations(args, docs)
    text = giv.givenness_tsv(giv.build_givenness_table(records, classified))
    with _open_output(args.output) as fh:
        fh.write(text)
    return 0


def cmd_chi2(args: argparse.Namespace) -> int:
    from . import givenness as giv

    statistic, p = giv.chi_square_2x2(args.a, args.b, args.c, args.d)
    print(f"statistic={statistic:.6f}\tp={p:.6f}")
    return 0


# --- argument plumbing ------------------------------------------------------

def _tag_list(text: str) -> str:
    """A ``--content-pos`` list spelled one way per tag set: its distinct
    tags, stripped of spaces, sorted and joined by commas. The default
    ``""`` stays as it is, and a given list that names no tag is ``","``,
    which selects no tag rather than the default ones."""
    if not text:
        return text
    return ",".join(sorted(set(filter(None, map(str.strip, text.split(",")))))) or ","


def _build_parser() -> argparse.ArgumentParser:
    # Option groups shared between subcommands, passed on as ``parents=``.
    config_corpus = argparse.ArgumentParser(add_help=False)
    config_corpus.add_argument("--config", metavar="PATH",
                               help="flat key = value defaults file")
    config_corpus.add_argument("--corpus", action="append", required=True, metavar="PATH",
                               help="corpus file; repeatable")

    accommodation = argparse.ArgumentParser(add_help=False)
    accommodation.add_argument("--bonus", type=float, default=FACTOR_BONUS,
                               help="first-mention factor (default %(default)g)")
    accommodation.add_argument("--wearout", type=int, default=FACTOR_WEAROUT,
                               help="mention count at which the bonus is gone"
                                    " (default %(default)s)")
    accommodation.add_argument("--window", type=int, default=FACTOR_WINDOW,
                               help="words of silence per reset point (default %(default)s)")
    accommodation.add_argument("--floor", type=int, default=FACTOR_FLOOR,
                               help="lowest count a reset can reach (default %(default)s)")
    accommodation.add_argument("--content-pos", type=_tag_list, default="", metavar="TAGS",
                               help="comma-separated POS tags treated as content words")
    accommodation.add_argument("--stoplist", default="", metavar="PATH",
                               help="function-word lemma list for untagged corpora")

    annotations = argparse.ArgumentParser(add_help=False)
    annotations.add_argument("--clauses", required=True, metavar="PATH",
                             help="clause annotation JSON")
    annotations.add_argument("--referents", required=True, metavar="PATH",
                             help="referent annotation TSV")
    annotations.add_argument("--salience-window", type=int, default=SALIENCE_WINDOW,
                             help="interveners tolerated for a salient re-mention, >= 0"
                                  " (default %(default)s)")
    annotations.add_argument("--count-distinct", action="store_true",
                             help="count distinct referents instead of mention events")

    # Full names only, so that a flag and a config key name an option one way.
    parser = argparse.ArgumentParser(
        prog="rcsurp",
        description="Surprisal and givenness measurements for relative-clause placement.",
        allow_abbrev=False,
    )
    add_parser = partial(parser.add_subparsers(dest="command", required=True).add_parser,
                         allow_abbrev=False)

    p = add_parser("train", parents=[config_corpus],
                   help="train the bigram model and write ARPA")
    p.add_argument("--discount", type=float, help="override the estimated discount")
    p.add_argument("-o", "--output", required=True, metavar="PATH",
                   help="ARPA output path")
    p.set_defaults(func=cmd_train)

    p = add_parser("surprisal", parents=[config_corpus, accommodation],
                   help="per-lemma surprisal and accommodation TSV")
    p.add_argument("--model", required=True, metavar="PATH", help="ARPA model")
    p.add_argument("--doc", action="append", metavar="ID",
                   help="restrict to this document id; repeatable")
    p.add_argument("-o", "--output", metavar="PATH", help="TSV output (default stdout)")
    p.set_defaults(func=cmd_surprisal)

    p = add_parser("analyze", parents=[config_corpus, accommodation, annotations],
                   help="emit the full report bundle")
    p.add_argument("--model", required=True, metavar="PATH", help="ARPA model")
    p.add_argument("--combined-single-exclusion", action="store_true",
                   help="exclude only the relative pronoun from combined metrics")
    p.add_argument("--outdir", required=True, metavar="DIR",
                   help="directory for the report bundle")
    p.set_defaults(func=cmd_analyze)

    p = add_parser("givenness", parents=[config_corpus, annotations],
                   help="givenness table only")
    p.add_argument("-o", "--output", metavar="PATH", help="TSV output (default stdout)")
    p.set_defaults(func=cmd_givenness)

    p = add_parser("chi2", help="chi-square on a 2x2 table")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("d", type=int)
    p.set_defaults(func=cmd_chi2)

    return parser


def _expand_config(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Splice ``key = value`` pairs from a ``--config`` file into the
    argument list, right after the subcommand; a key whose flag is given
    explicitly is left out, so the flag replaces it, repeatable or not.
    Each key must name a long option of the subcommand's own parser, which
    also says whether the option is a flag; ``help`` and ``config`` are not
    keys. A missing or unknown subcommand is left for ``parser`` to report."""
    # A missing value is left for the full parser to report.
    reader = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    reader.add_argument("--config", nargs="?")
    path = reader.parse_known_args(argv)[0].config
    at = next((i for i, token in enumerate(argv) if not token.startswith("-")), None)
    # argparse has no public way to list a parser's options; this is the one
    # place that reads its private ``_subparsers`` and ``_actions``.
    commands = parser._subparsers._group_actions[0].choices
    if path is None or at is None or argv[at] not in commands:
        return argv
    command = argv[at]
    options = {option: action for action in commands[command]._actions
               for option in action.option_strings
               if option.startswith("--") and option not in ("--help", "--config")}

    tokens: list[str] = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if "\0" in value:  # no path, number or document id holds one
            raise ParseError(f"NUL byte in the value of {key!r}", lineno)
        flag = "--" + key.replace("_", "-")
        if flag not in options:
            raise ParseError(f"config key {key!r} names no option of {command!r}"
                             " that a config file can set", lineno)
        if any(token.split("=", 1)[0] == flag for token in argv):
            continue
        if options[flag].nargs == 0:
            if value.lower() in ("1", "true", "yes"):
                tokens.append(flag)
            elif value.lower() not in ("0", "false", "no"):
                raise ParseError(f"boolean expected for {key!r}, got {value!r}", lineno)
        else:
            tokens.extend([flag, value])
    return argv[: at + 1] + tokens + argv[at + 1:]


def main(argv: list[str] | None = None) -> int:
    threshold = gc.get_threshold()
    gc.set_threshold(*_BATCH_GC_THRESHOLD)
    try:
        parser = _build_parser()
        args = parser.parse_args(
            _expand_config(list(sys.argv[1:] if argv is None else argv), parser))
        return args.func(args)
    except ValidationError as exc:
        for problem in exc.problems:
            print(f"validation error: {problem}", file=sys.stderr)
        return 3
    except (ParseError, DegenerateCountsError, OSError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, PipelineError, ValueError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    finally:
        gc.set_threshold(*threshold)


if __name__ == "__main__":
    sys.exit(main())
