"""``python -m rcsurp.cli`` as a process: the exit codes and output bytes
that ``cli.run`` gives. Each case runs under dev mode, which reports a file
left open when the process exits, so its stderr must hold no such report.
``cli.run`` freezes the heap after ``main`` returns; in-process callers of
``cli.main`` keep theirs unfrozen.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rcsurp import cli

SRC = Path(__file__).resolve().parent.parent / "src"
CORPUS = str(Path(__file__).resolve().parent / "fixtures" / "minicorpus" / "corpus.vert")


def _cli(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-X", "dev", "-m", "rcsurp.cli", *argv],
                            env=env, capture_output=True, timeout=60)
    assert b"ResourceWarning" not in result.stderr, result.stderr
    assert b"Exception ignored" not in result.stderr, result.stderr
    return result


@pytest.fixture(scope="module")
def model(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("entry") / "model.arpa"
    assert cli.main(["train", "--corpus", CORPUS, "-o", str(path)]) == 0
    return path


def test_surprisal_to_stdout_gives_the_bytes_of_the_file(model):
    out = model.with_name("all.tsv")
    to_file = _cli("surprisal", "--model", str(model), "--corpus", CORPUS, "-o", str(out))
    to_stdout = _cli("surprisal", "--model", str(model), "--corpus", CORPUS)
    assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, b"", b"")
    assert (to_stdout.returncode, to_stdout.stderr) == (0, b"")
    assert to_stdout.stdout == out.read_bytes() and to_stdout.stdout.count(b"\n") > 2000


def test_model_that_fails_when_read_exits_2_with_empty_stdout(model):
    # A backoff weight of 10 ** 5.0 on Mann's unigram line lifts p(w | Mann)
    # above 1 for the words never seen after Mann.
    lines = model.read_text(encoding="utf-8").splitlines()
    i = next(i for i, line in enumerate(lines) if line.split("\t")[1:2] == ["Mann"])
    fields = lines[i].split("\t")
    fields[2] = "5.0"
    lines[i] = "\t".join(fields)
    heavy = model.with_name("heavy.arpa")
    heavy.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = _cli("surprisal", "--model", str(heavy), "--corpus", CORPUS)
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr.startswith(b"error: probability of '</s>' after 'Mann'")


def test_validation_error_exits_3(model):
    out = model.with_name("none.tsv")
    result = _cli("surprisal", "--model", str(model), "--corpus", CORPUS,
                  "-o", str(out), "--content-pos", ",")
    assert (result.returncode, result.stdout) == (3, b"")
    assert result.stderr.startswith(b"validation error: ")
    assert not out.exists()


def test_unknown_option_exits_2_from_argparse():
    result = _cli("chi2", "2", "20", "11", "35", "--no-such-option")
    assert (result.returncode, result.stdout) == (2, b"")
    assert b"unrecognized arguments: --no-such-option" in result.stderr


def test_in_process_main_leaves_the_heap_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["chi2", "2", "20", "11", "35"]) == 0
    assert gc.get_freeze_count() == before
