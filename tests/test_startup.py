"""Every subcommand runs in a fresh process, so what ``import rcsurp.cli``
loads is paid on each run. Modules that only one subcommand needs, or that
the program does not need at all, stay out of that import."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# ``dataclasses`` pulls in ``inspect``; ``statistics`` brings ``fractions``
# and ``decimal``; ``importlib.resources`` brings ``tempfile``; only
# ``analyze`` hashes, for its manifest.
NOT_IMPORTED = ("dataclasses", "inspect", "statistics", "importlib.resources", "hashlib")


def test_cli_import_leaves_out_unneeded_modules():
    # ``-S`` skips ``site``, which in some environments imports modules
    # of its own, such as ``importlib.resources``.
    code = (
        "import sys, rcsurp.cli\n"
        f"print(' '.join(m for m in {NOT_IMPORTED!r} if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
