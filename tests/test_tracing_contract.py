"""The benchmark tracer (``perfbench/tracing.py``) wraps named functions and
methods of ``rcsurp`` by replacing them in place. This pins the names it
expects: each must stay a plain function defined in its module, or a plain
method in its class ``__dict__`` (not a property or a cached property).
It also runs each benchmark workload's subcommand on the committed fixture
under the tracer, so a refactor that stops calling a traced function fails
here, as the benchmark's coverage check would on a traced run.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from rcsurp import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "minicorpus"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _load_tracing()
ENTRIES = _tracing.SPANNED + _tracing.COUNTED

# The tracer wraps functions in the modules already loaded, and ``cli``
# loads a pipeline module only when a subcommand that runs it runs. So load
# every traced module here, as the benchmark's set-up does by importing
# ``scripts/generate_fixture.py``.
for _module_name in {entry[0] for entry in ENTRIES}:
    importlib.import_module(f"rcsurp.{_module_name}")


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


# The subcommand each benchmark workload runs. As in the benchmark's set-up,
# the model that ``surprisal`` and ``analyze`` read is trained untraced.
WORKLOAD_COMMANDS = {
    "train-openvocab": "train",
    "surprisal-openvocab": "surprisal",
    "analyze-dense": "analyze",
}


def test_every_workload_has_a_subcommand():
    assert set(WORKLOAD_COMMANDS) == set(REFERENCE["workloads"])


@pytest.mark.parametrize("workload", sorted(WORKLOAD_COMMANDS))
def test_traced_run_records_every_mapped_metric(workload, tmp_path, capsys):
    corpus, model = str(FIXTURES / "corpus.vert"), str(tmp_path / "model.arpa")
    assert cli.main(["train", "--corpus", corpus, "-o", model]) == 0
    argv = {
        "train": ["train", "--corpus", corpus, "-o", str(tmp_path / "traced.arpa")],
        "surprisal": ["surprisal", "--model", model, "--corpus", corpus,
                      "-o", str(tmp_path / "surprisal.tsv")],
        "analyze": ["analyze", "--model", model, "--corpus", corpus,
                    "--clauses", str(FIXTURES / "clauses.json"),
                    "--referents", str(FIXTURES / "referents.tsv"),
                    "--outdir", str(tmp_path / "bundle")],
    }[WORKLOAD_COMMANDS[workload]]
    # The tracer rebinds ``main`` in the ``rcsurp.cli`` namespace, so the
    # call goes through the module attribute.
    with _tracing.Tracer() as tracer:
        assert cli.main(argv) == 0
    metrics = tracer.metrics()
    # ``trace.overhead_frac`` compares traced with untraced runs, which the
    # tracer alone does not record.
    silent = [metric for metric, entry in REFERENCE["layers"].items()
              if workload in entry["workloads"] and metric != "trace.overhead_frac"
              and not metrics[metric]]
    assert silent == []
