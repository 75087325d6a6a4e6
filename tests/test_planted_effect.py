"""A planted effect reaches the report in the direction it was planted.

Two corpora come from the fixture generator's sentence templates
(``scripts/generate_fixture.py``) with one seed. In the planted corpus
every noun of an extraposed clause complex is a lemma that occurs nowhere
else; the null corpus draws those nouns from the common pool, as it does
every other noun. The planted nouns take the null corpus's random draws,
so the two corpora differ in those nouns alone.

A noun seen once is a new referent and has a high bigram surprisal, so
the plant must raise the extraposed relative clauses' new-referent rate
and their bare adS. It fixes nothing about bare avS: the word after a
once-seen noun has a confident bigram context, which can offset the
noun's own surprisal, so bare avS is not asserted. The accommodated
measure weighs each first mention by the bonus factor, so the plant must
widen its extraposed − in-situ gap, in adS and in avS, beyond the bare
gap.
"""

import csv
import importlib.util
import json
import random
from itertools import count
from pathlib import Path

import pytest

from rcsurp.cli import main

ROOT = Path(__file__).resolve().parent.parent
SEED = 20170303
DOCUMENTS = 2
SENTENCES = 360
CLAUSE_EVERY = 9  # one clause complex in every nine sentences


_spec = importlib.util.spec_from_file_location(
    "generate_fixture", ROOT / "scripts" / "generate_fixture.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def _write_inputs(directory: Path, planted: bool) -> list[str]:
    """Write one corpus with its annotations and model into ``directory``;
    return the ``analyze`` arguments that read them."""
    rng = random.Random(SEED)
    unseen = map("Fremdling{}".format, count())
    vertical, records, referents = [], [], []
    for d in range(DOCUMENTS):
        doc_id = f"doc-{d}"
        b = gen.DocBuilder(doc_id, rng)
        pick = gen.zipf_picker(rng, gen.NOUNS)
        # A planted noun spends the draw that ``pick`` would have made.
        plant = (lambda pick=pick: (pick(), next(unseen))[1]) if planted else pick
        for s in range(SENTENCES):
            if s % CLAUSE_EVERY != CLAUSE_EVERY - 1:
                gen.plain_sentence(b, pick, rng)
                continue
            variant = "in_situ" if len(records) % 2 else "extraposed"
            picker = plant if variant == "extraposed" else pick
            records.append(gen.clause_sentence(b, picker, rng, variant,
                                               f"rc-{len(records) + 1:03d}"))
        vertical.append("\n".join(b.lines) + "\n")
        referents += [f"{doc_id}\t{start}\t{end}\t{referent}\t{inferable}\t{topic}\n"
                      for start, end, referent, inferable, topic in b.mentions]
    directory.mkdir()
    corpus, clauses, referent_file = (directory / name for name in
                                      ("corpus.vert", "clauses.json", "referents.tsv"))
    corpus.write_text("\n".join(vertical), encoding="utf-8")
    clauses.write_text(json.dumps(records), encoding="utf-8")
    referent_file.write_text("".join(referents), encoding="utf-8")
    model = directory / "model.arpa"
    assert main(["train", "--corpus", str(corpus), "-o", str(model)]) == 0
    return ["analyze", "--model", str(model), "--corpus", str(corpus),
            "--clauses", str(clauses), "--referents", str(referent_file),
            "--outdir", str(directory / "report")]


def _table(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh, delimiter="\t"))


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """The report directory of the null and of the planted run."""
    out = {}
    for name in ("null", "planted"):
        directory = tmp_path_factory.mktemp("planted-effect") / name
        assert main(_write_inputs(directory, name == "planted")) == 0
        out[name] = directory / "report"
    return out


def _new_rates(report: Path) -> dict[str, float]:
    rows = {row["row"]: row for row in _table(report / "table1.tsv")}
    return {variant: int(rows[f"Relative clauses: {variant}"]["new"])
            / int(rows[f"Relative clauses: {variant}"]["referents_total"])
            for variant in ("in-situ", "extraposed")}


def _rc_values(report: Path, table: str, column: str) -> dict[str, float]:
    """``column`` of the relative-clause rows of ``table``, by variant."""
    return {row["variant"]: float(row[column]) for row in _table(report / table)
            if row["row"] == "rel. cl."}


def _rc_gap(report: Path, table: str, column: str) -> float:
    """Extraposed − in-situ ``column`` of the relative-clause rows of ``table``."""
    values = _rc_values(report, table, column)
    return values["extraposed"] - values["in_situ"]


def test_plant_raises_the_extraposed_new_referent_rate(reports):
    null, planted = _new_rates(reports["null"]), _new_rates(reports["planted"])
    assert planted["extraposed"] > null["extraposed"]
    assert planted["extraposed"] > planted["in-situ"]


def test_plant_makes_the_chi_square_significant(reports):
    def p(report):
        (row,) = _table(report / "chi_square.tsv")
        return float(row["p"])

    assert p(reports["planted"]) < 0.01
    assert p(reports["null"]) > 0.05


def test_plant_raises_the_extraposed_bare_rc_adS(reports):
    null, planted = (_rc_values(reports[name], "table2.tsv", "adS")
                     for name in ("null", "planted"))
    assert planted["extraposed"] > null["extraposed"]
    assert planted["extraposed"] - planted["in_situ"] > null["extraposed"] - null["in_situ"]
    assert planted["extraposed"] > planted["in_situ"]


@pytest.mark.parametrize("column", ["adS", "avS"])
def test_plant_widens_the_accommodated_rc_gap_beyond_the_bare_one(column, reports):
    null, planted = (_rc_gap(reports[name], "table3.tsv", column)
                     for name in ("null", "planted"))
    assert planted > null
    assert planted > _rc_gap(reports["planted"], "table2.tsv", column)
