"""Random annotation files through ``rcsurp givenness`` on the fixture corpus.

Whatever the clause JSON or the referent TSV holds, the run must end in a
documented exit code (0 success, 2 input error, 3 validation error) and no
exception may escape ``cli.main``.
"""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rcsurp.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "minicorpus"
DOC_IDS = ["sermon-01", "sermon-02", "sermon-03", "sermon-04", "sermon-99"]

_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=8,
)
_position = st.integers(-2, 700) | _json
_interval = st.lists(_position, min_size=2, max_size=2) | _json
# Records with every field optional and each one either plausible or any
# JSON value, so runs reach both the field checks and the span checks.
_record = st.fixed_dictionaries({}, optional={
    "id": st.sampled_from(["rc-1", "rc-2"]) | _json,
    "doc": st.sampled_from(DOC_IDS) | _json,
    "variant": st.sampled_from(["in_situ", "extraposed"]) | _json,
    "matrix": st.lists(_interval, max_size=3) | _json,
    "rc": _interval,
    "attachment": _position,
})
_clause_file = st.one_of(
    (st.lists(_record | _json, max_size=4) | _json).map(json.dumps),
    _text,
)

_flag = st.sampled_from(["0", "1"]) | _text
_referent_row = st.tuples(
    st.sampled_from(DOC_IDS) | _text,
    st.integers(-2, 700).map(str) | _text,
    st.integers(-2, 700).map(str) | _text,
    st.sampled_from(["Mann", "Kirche"]) | _text,
    _flag,
    _flag,
).map("\t".join) | _text
_referent_file = st.lists(_referent_row, max_size=8).map(lambda rows: "\n".join(rows) + "\n")

_fuzz = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _givenness(workdir, clauses: str, referents: str) -> int:
    clause_path, referent_path = workdir / "clauses.json", workdir / "referents.tsv"
    clause_path.write_text(clauses, encoding="utf-8")
    referent_path.write_text(referents, encoding="utf-8")
    return main([
        "givenness",
        "--corpus", str(FIXTURES / "corpus.vert"),
        "--clauses", str(clause_path),
        "--referents", str(referent_path),
        "-o", str(workdir / "table1.tsv"),
    ])


@_fuzz
@given(clauses=_clause_file)
def test_random_clause_json_ends_in_an_exit_code(workdir, clauses):
    referents = (FIXTURES / "referents.tsv").read_text(encoding="utf-8")
    assert _givenness(workdir, clauses, referents) in (0, 2, 3)


@_fuzz
@given(referents=_referent_file)
def test_random_referent_rows_end_in_an_exit_code(workdir, referents):
    clauses = (FIXTURES / "clauses.json").read_text(encoding="utf-8")
    assert _givenness(workdir, clauses, referents) in (0, 2, 3)
