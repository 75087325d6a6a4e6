"""README's command-line examples stay runnable.

The ``sh`` block under "Command line" is read as written: ``\\``
continuations are joined, ``$FIX`` is the committed fixture, and every
``rcsurp`` line runs through ``cli.main`` in an empty directory. A flag the
CLI no longer accepts, or a job that fails on the fixture, fails the test.
"""

import re
import shlex
from pathlib import Path

from rcsurp.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures" / "minicorpus"


def _readme_commands() -> list[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("rcsurp ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert len(commands) >= 5
    monkeypatch.chdir(tmp_path)
    for command in commands:
        argv = shlex.split(command.replace("$FIX", shlex.quote(str(FIXTURES))))
        assert main(argv[1:]) == 0, command
        capsys.readouterr()
