"""Pins every output of the CLI jobs on the committed fixture.

Each digest is the sha256 of the file the job writes, ``manifest.json``
included. The fixture is read by absolute path: the manifest names each
input by its role and digest, never by its path, so no output depends on
where the repository is checked out or the model is written.
"""

import hashlib
import json
from pathlib import Path

import pytest

from rcsurp.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "minicorpus"
CORPUS = str(FIXTURES / "corpus.vert")
ANNOTATIONS = ["--clauses", str(FIXTURES / "clauses.json"),
               "--referents", str(FIXTURES / "referents.tsv")]

TABLE1 = "58498c4ec24d0285dfd674bb4596a77d40d4ebb6e9133399ccbf1a8b92ffa90b"
EXPECTED = {
    "model.arpa": "f74126f4257c3da67b40ce7d653def7e3395999e91263a7d69b65d085fdba33e",
    "report.txt": "7ccdbedad65ec63aaae8cdecac457bd9473fa80b5154ba8eb56b41a9359bcc98",
    "surprisal.tsv": "59815ab2b4620129307b2d111d8e6e68178b18d375660ac92f35225163918f3e",
    "givenness.tsv": TABLE1,
    "out/table1.tsv": TABLE1,
    "out/table2.tsv": "559695b1a45b416ea8ae824ac8fa680bcb9cfd2de1895ad5f4fa7cc20a3ef411",
    "out/table3.tsv": "a669a52be29d1d6cf221671b9d5789dbb6c62ab2bb46086b59f0f8d0bcaff9c2",
    "out/hypotheticals.tsv": "11f1323de2111000086cfc2a8441d41d747bdb42a28a00a4db767fb221e4d788",
    "out/chi_square.tsv": "1618d90ccf9178b54ee0e374b5aaee8b488a97d076bdef3254aac44b4fa3ba3c",
    "out/manifest.json": "0fab87a56cd0027aec052ac0960c738ea08b210ca05fb18f3fd92d9c4123dc8f",
}
CONFIG_SHA256 = "f78395baeb909f99f4c2fab588b2ef5eea6a15648a3efbfc2abec951378d9914"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_fixture_outputs_are_pinned(tmp_path, capsys):
    model = tmp_path / "model.arpa"
    # ``train``'s report is its stdout.
    assert main(["train", "--corpus", CORPUS, "-o", str(model)]) == 0
    (tmp_path / "report.txt").write_text(capsys.readouterr().out, encoding="utf-8")
    jobs = [
        ["surprisal", "--model", str(model), "--corpus", CORPUS,
         "-o", str(tmp_path / "surprisal.tsv")],
        ["analyze", "--model", str(model), "--corpus", CORPUS, *ANNOTATIONS,
         "--outdir", str(tmp_path / "out")],
        ["givenness", "--corpus", CORPUS, *ANNOTATIONS,
         "-o", str(tmp_path / "givenness.tsv")],
    ]
    for args in jobs:
        assert main(args) == 0, args[0]
    capsys.readouterr()

    digests = {name: _sha256(tmp_path / name) for name in EXPECTED}
    assert digests == EXPECTED
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config_sha256"] == CONFIG_SHA256
    assert manifest["outputs"] == {
        name.removeprefix("out/"): digest
        for name, digest in EXPECTED.items()
        if name.startswith("out/") and name != "out/manifest.json"
    }


# The givenness table in the non-default counting modes.
@pytest.mark.parametrize("flags, digest", [
    (["--count-distinct"],
     "46b366aca26aa6e2ff2d3fc2d5a87b2f788b18b2be20ba19c4c4f807ef850222"),
    (["--salience-window", "3"],
     "6e59302b6d6f1b0f1fa868ee9eda09d69cd5e74dba8b693692be40c2edef5c46"),
    (["--count-distinct", "--salience-window", "3"],
     "daf56295cfd7ca2941fd7259b2f10b240b64928d38672a1ca224e491933f3e5c"),
], ids=["count-distinct", "window-3", "count-distinct-window-3"])
def test_givenness_modes_are_pinned(flags, digest, tmp_path):
    out = tmp_path / "givenness.tsv"
    assert main(["givenness", "--corpus", CORPUS, *ANNOTATIONS, *flags, "-o", str(out)]) == 0
    assert _sha256(out) == digest
