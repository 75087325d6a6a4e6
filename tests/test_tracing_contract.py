"""The benchmark tracer (``perfbench/tracing.py``) wraps named functions and
methods of ``rcsurp`` by replacing them in place. This pins the names it
expects: each must stay a plain function defined in its module, or a plain
method in its class ``__dict__`` (not a property or a cached property).
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _load_tracing()
ENTRIES = _tracing.SPANNED + _tracing.COUNTED


@pytest.mark.parametrize("module_name, path, span", ENTRIES, ids=[e[1] for e in ENTRIES])
def test_traced_name_is_a_plain_function(module_name, path, span):
    module = importlib.import_module(f"rcsurp.{module_name}")
    if "." in path:
        class_name, attr = path.split(".")
        target = vars(getattr(module, class_name)).get(attr)
    else:
        target = vars(module).get(path)
    assert inspect.isfunction(target), f"{path} is {target!r}"
    assert target.__module__ == module.__name__
