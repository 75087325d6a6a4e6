"""In-memory spans and counts around the public functions of each
``rcsurp`` module, recorded from outside the program.

``cli`` imports ``load_vertical_file``, ``resegment_sentences`` and
``annotate_document`` by name, and ``clauses`` imports
``annotate_sequence`` and ``accommodation_factors`` the same way, so a
wrapper is installed in every ``rcsurp`` module namespace that holds the
function, not only in the module that defines it. Methods are wrapped on
their class.

Functions called once per token are counted, not spanned. A span's self
time is its duration minus the durations of its direct children; spans
nest strictly because the pipeline is single-threaded.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Callable

# (defining module, attribute path, span name)
SPANNED = (
    ("corpus", "load_vertical_file", "corpus.load"),
    ("corpus", "resegment_sentences", "corpus.resegment"),
    ("corpus", "Document.word_count", "corpus.word_scan"),
    ("corpus", "Document.word_tokens", "corpus.word_scan"),
    ("ngram", "count_bigrams", "ngram.count"),
    ("ngram", "train_kn", "ngram.train"),
    ("ngram", "export_arpa", "ngram.export"),
    ("ngram", "import_arpa", "ngram.import"),
    ("surprisal", "annotate_document", "surprisal.annotate_document"),
    ("surprisal", "annotate_sequence", "surprisal.annotate_sequence"),
    ("accommodation", "accommodation_factors", "accommodation.factors"),
    ("accommodation", "accommodate_document", "accommodation.accommodate"),
    ("accommodation", "write_weighted_tsv", "accommodation.write"),
    ("clauses", "parse_clause_annotations", "clauses.parse"),
    ("clauses", "relinearize", "clauses.relinearize"),
    ("clauses", "ClauseScorer.metrics", "clauses.metrics"),
    ("clauses", "build_surprisal_table", "clauses.tables"),
    ("clauses", "build_hypothetical_table", "clauses.tables"),
    ("givenness", "load_referent_annotations", "givenness.load"),
    ("givenness", "classify_document", "givenness.classify"),
    ("givenness", "clause_givenness", "givenness.clause_givenness"),
    ("cli", "main", "cli.main"),
)

COUNTED = (
    ("ngram", "KneserNeyBigramModel.prob", "ngram.prob"),
    ("accommodation", "AccommodationState.observe", "accommodation.observe"),
    ("givenness", "classify_mention", "givenness.classify_mention"),
)


def _loaded_tokens(args, result):
    return {"corpus.tokens": sum(len(doc.tokens) for doc in result)}


def _scanned_tokens(args, result):
    return {"corpus.word_scan_tokens": len(args[0].tokens)}


def _model_size(args, result):
    return {"ngram.vocab": len(result.vocabulary), "ngram.bigram_types": len(result.bigram_p)}


def _scored_tokens(args, result):
    return {"surprisal.tokens_scored": len(result)}


# Sizes taken from a span's arguments or result, keyed by span name.
SIZES: dict[str, Callable] = {
    "corpus.load": _loaded_tokens,
    "corpus.word_scan": _scanned_tokens,
    "ngram.train": _model_size,
    "ngram.import": _model_size,
    "surprisal.annotate_document": _scored_tokens,
    "surprisal.annotate_sequence": _scored_tokens,
}


class Tracer:
    """Install with ``with Tracer() as t:``; every wrapper is removed on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.calls: Counter = Counter()
        self.sizes: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _spanned(self, name: str, fn):
        spans, stack, calls, sizes = self.spans, self._stack, self.calls, self.sizes
        size = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            calls[name] += 1
            if size is not None:
                sizes.update(size(args, result))
            return result

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _install(self, module_name: str, path: str, wrapper_for):
        modules = [m for n, m in sys.modules.items() if n == "rcsurp" or n.startswith("rcsurp.")]
        owner = sys.modules[f"rcsurp.{module_name}"]
        if "." in path:  # a method: wrap it on its class
            class_name, attr = path.split(".")
            cls = getattr(owner, class_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, wrapper_for(original))
            return
        original = getattr(owner, path)
        wrapper = wrapper_for(original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def __enter__(self) -> "Tracer":
        try:
            for module_name, path, name in SPANNED:
                self._install(module_name, path, functools.partial(self._spanned, name))
            for module_name, path, name in COUNTED:
                self._install(module_name, path, functools.partial(self._counted, name))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def self_times(self) -> Counter:
        """Self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _), children in zip(self.spans, child_time):
            out[name] += end - start - children
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since entry: ``<span>_s``
        self time, ``<span>_calls``, the sizes, and ``cli.main_s`` as the
        whole span of ``cli.main`` with ``cli.self_s`` its self time."""
        self_times = self.self_times()
        out: dict[str, float] = {}
        for name in {n for _, _, n in SPANNED}:
            out[f"{name}_s"] = self_times[name]
            out[f"{name}_calls"] = self.calls[name]
        for _, _, name in COUNTED:
            out[f"{name}_calls"] = self.calls[name]
        out["cli.self_s"] = out["cli.main_s"]
        out["cli.main_s"] = sum(end - start for n, start, end, _ in self.spans if n == "cli.main")
        out.update((key, self.sizes[key]) for key in
                   ("corpus.tokens", "corpus.word_scan_tokens", "ngram.vocab",
                    "ngram.bigram_types", "surprisal.tokens_scored"))
        return out
