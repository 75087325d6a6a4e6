"""Output checks: each returns a list of problems, empty when the output
is right.

The model oracle is ``reference_kn`` from ``tests/helpers.py``, fed with
the generator's own sentence lists, so neither the counts nor the
sentence split come from the code under test.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from pathlib import Path

from workloads import Generated, load_repo_module

helpers = load_repo_module("helpers", "tests/helpers.py")

SAMPLED_PAIRS = 2000
# Listed bigrams are one rounded ARPA field, backed-off pairs the sum of two,
# each rounded to 6 decimals of log10.
LOG10_TOLERANCE = 1e-6 + 1e-9


def digests(paths: dict[str, Path]) -> dict[str, str | None]:
    """sha256 of each file, None for a file that is not there."""
    return {name: hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
            for name, path in paths.items()}


def _sentences(gen: Generated) -> list[list[str]]:
    return [s for doc in gen.sentences.values() for s in doc]


def check_model(gen: Generated, arpa: Path, seed: int) -> list[str]:
    """The ARPA file round-trips through import/export, and sampled pairs
    match the brute-force Kneser-Ney oracle within the ARPA rounding."""
    from rcsurp.ngram import END, START, export_arpa, import_arpa

    text = arpa.read_text(encoding="utf-8")
    model = import_arpa(text)
    problems = []
    if export_arpa(model) != text:
        problems.append(f"{arpa.name}: import_arpa/export_arpa does not reproduce the file")

    sentences = _sentences(gen)
    _, c2, _, _, _ = helpers.reference_counts(sentences)
    count_of_counts = Counter(c2.values())
    n1, n2 = count_of_counts[1], count_of_counts[2]
    oracle = helpers.reference_kn(sentences, n1 / (n1 + 2 * n2))

    rng = random.Random(seed)
    seen = rng.sample(sorted(c2), min(SAMPLED_PAIRS // 2, len(c2)))
    lemmas = sorted({lemma for s in sentences for lemma in s})
    contexts, words = lemmas + [START], lemmas + [END]
    unseen = [(rng.choice(contexts), rng.choice(words)) for _ in range(SAMPLED_PAIRS // 2)]
    for v, w in seen + unseen:
        got, want = math.log10(model.prob(v, w)), math.log10(oracle(v, w))
        if abs(got - want) > LOG10_TOLERANCE:
            problems.append(f"{arpa.name}: log10 p({w} | {v}) is {got:.9f}, oracle {want:.9f}")
    return problems[:10]


def check_surprisal(gen: Generated, arpa: Path, tsv: Path) -> list[str]:
    """Every row names the generator's lemma and bigram context at its
    position, and its surprisal equals -log2 p from the imported model."""
    from rcsurp.ngram import START, import_arpa

    model = import_arpa(arpa.read_text(encoding="utf-8"))
    expected = []
    for doc_id, doc in gen.sentences.items():
        position = 0
        for sentence in doc:
            context = START
            for lemma in sentence:
                expected.append((doc_id, str(position), lemma, context))
                context = lemma
                position += 1

    lines = tsv.read_text(encoding="utf-8").splitlines()
    problems = []
    if len(lines) != len(expected) + 1:
        return [f"{tsv.name}: {len(lines) - 1} rows for {len(expected)} words"]
    for line, want in zip(lines[1:], expected):
        fields = line.split("\t")
        if tuple(fields[:4]) != want:
            problems.append(f"{tsv.name}: row {fields[:4]} where {list(want)} was expected")
        elif fields[5] != f"{-math.log2(model.prob(want[3], want[2])):.6f}":
            problems.append(f"{tsv.name}: surprisal {fields[5]} for {list(want)} "
                            "differs from -log2 p of the imported model")
        if len(problems) >= 10:
            break
    return problems


def check_bundle(gen: Generated, bundle: Path) -> list[str]:
    """The clause tables count every generated record of each variant."""
    by_variant = Counter(record["variant"] for record in gen.records)
    problems = []
    for table in ("table2.tsv", "table3.tsv"):
        for line in (bundle / table).read_text(encoding="utf-8").splitlines()[1:]:
            variant, label, n = line.split("\t")[:3]
            if int(n) != by_variant[variant]:
                problems.append(f"{table}: {variant} {label} has n = {n}, "
                                f"generated {by_variant[variant]}")
    return problems
