"""Every subcommand runs in a fresh process, so what ``import rcsurp.cli``
loads is paid on each run. Modules that only one subcommand needs, or that
the program does not need at all, stay out of that import, and each
subcommand loads only the package modules it runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "minicorpus"

# ``dataclasses`` pulls in ``inspect``; ``statistics`` brings ``fractions``
# and ``decimal``; ``importlib.resources`` brings ``tempfile``; only
# ``analyze`` hashes, for its manifest.
NOT_IMPORTED = ("dataclasses", "inspect", "statistics", "importlib.resources", "hashlib")

TRAIN_MODULES = {"cli", "corpus", "ngram", "errors", "_value"}
SURPRISAL_MODULES = TRAIN_MODULES | {"accommodation", "surprisal"}
ALL_MODULES = SURPRISAL_MODULES | {"clauses", "givenness"}


def _run(code: str) -> list[str]:
    """The last line of what ``code`` prints in a fresh interpreter, split
    into words. ``-S`` skips ``site``, which in some environments imports
    modules of its own, such as ``importlib.resources``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1].split() if result.stdout.strip() else []


def test_cli_import_leaves_out_unneeded_modules():
    code = (
        "import sys, rcsurp.cli\n"
        f"print(' '.join(m for m in {NOT_IMPORTED!r} if m in sys.modules))\n"
    )
    assert _run(code) == []


@pytest.mark.parametrize("command, modules, loads_json", [
    ("train", TRAIN_MODULES, False),
    ("surprisal", SURPRISAL_MODULES, False),
    ("analyze", ALL_MODULES, True),
])
def test_subcommand_loads_only_the_modules_it_runs(command, modules, loads_json, tmp_path):
    corpus, model = str(FIXTURES / "corpus.vert"), str(tmp_path / "model.arpa")
    argv = {
        "train": ["train", "--corpus", corpus, "-o", str(tmp_path / "out.arpa")],
        "surprisal": ["surprisal", "--model", model, "--corpus", corpus,
                      "-o", str(tmp_path / "out.tsv")],
        "analyze": ["analyze", "--model", model, "--corpus", corpus,
                    "--clauses", str(FIXTURES / "clauses.json"),
                    "--referents", str(FIXTURES / "referents.tsv"),
                    "--outdir", str(tmp_path / "bundle")],
    }[command]
    # The model is trained in the same process; ``train`` loads a subset of
    # what the other two subcommands load.
    train = ["train", "--corpus", corpus, "-o", model]
    code = (
        "import sys\n"
        "from rcsurp import cli\n"
        f"assert cli.main({train!r}) == 0\n"
        f"assert cli.main({argv!r}) == 0\n"
        "loaded = [m.split('.', 1)[1] for m in sys.modules if m.startswith('rcsurp.')]\n"
        "print(*loaded, 'json' in sys.modules)\n"
    )
    *loaded, json_loaded = _run(code)
    assert set(loaded) == modules
    assert json_loaded == str(loads_json)
