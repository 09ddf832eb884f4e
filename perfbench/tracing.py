"""Spans and counts recorded around the program's public functions.

The program is not changed. While ``Tracer.installed`` is active, the public
functions that ``relwords.cli`` and ``relwords.pipeline`` call are replaced,
in those two modules' namespaces, by wrappers that record one span per call:
its name, start, end, parent span and operation id. Spans stay in memory
until the run writes them out. Return values of a few functions are kept
until the operation ends, and ``op_counts`` turns them into the per-layer
counts outside every timed span.
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager
from dataclasses import dataclass, fields
from time import perf_counter

import numpy as np

LAYERS = ("corpus", "text", "features", "embedding", "clustering", "relevance", "report", "pipeline", "cli")

ROOT_SPAN = "cli.main"

# (module, attribute, span name): the functions as the CLI and the pipeline
# look them up. A span's layer is the part of its name before the dot.
TARGETS = (
    ("cli", "corpus_sha256", "cli.corpus_sha256"),
    ("cli", "load_jsonl", "corpus.load_jsonl"),
    ("cli", "run_clustering", "pipeline.run_clustering"),
    ("cli", "prepare_streams", "pipeline.prepare_streams"),
    ("cli", "build_vocabulary", "features.build_vocabulary"),
    ("cli", "write_labels_csv", "clustering.write_labels_csv"),
    ("cli", "build_occurrence_index", "relevance.build_occurrence_index"),
    ("cli", "compute_relevance", "relevance.compute_relevance"),
    ("cli", "rank_terms", "relevance.rank_terms"),
    ("cli", "write_relevance_csv", "relevance.write_relevance_csv"),
    ("cli", "layout_wordcloud", "report.layout_wordcloud"),
    ("cli", "render_svg", "report.render_svg"),
    ("cli", "highlight_html", "report.highlight_html"),
    ("pipeline", "prepare_streams", "pipeline.prepare_streams"),
    ("pipeline", "tokenize_corpus", "text.tokenize"),
    ("pipeline", "score_bigrams", "text.score_bigrams"),
    ("pipeline", "select_bigrams", "text.select_bigrams"),
    ("pipeline", "apply_bigrams", "text.apply_bigrams"),
    ("pipeline", "build_vocabulary", "features.build_vocabulary"),
    ("pipeline", "vectorize", "features.vectorize"),
    ("pipeline", "fit_kpca", "embedding.fit_kpca"),
    ("pipeline", "transform", "embedding.transform"),
    ("pipeline", "pairwise_distances", "clustering.pairwise_distances"),
    ("pipeline", "dbscan", "clustering.dbscan"),
)

# Spans whose return values feed op_counts.
_CAPTURED = {
    "text.tokenize",
    "text.score_bigrams",
    "text.select_bigrams",
    "features.build_vocabulary",
    "features.vectorize",
    "embedding.fit_kpca",
    "embedding.transform",
    "clustering.pairwise_distances",
    "clustering.dbscan",
    "report.layout_wordcloud",
}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for an operation's root
    op: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.calls: list[tuple[str, inspect.BoundArguments, object]] = []
        self._stack: list[int] = []
        self._op = -1

    def _wrap(self, name: str, fn):
        spans, stack, calls = self.spans, self._stack, self.calls
        signature = inspect.signature(fn) if name in _CAPTURED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self._op)
            if signature is not None:
                calls.append((name, signature.bind(*args, **kwargs), result))
            return result

        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Replace the TARGETS in ``modules`` (name -> module) by traced
        wrappers; the originals are restored on exit."""
        saved = []
        try:
            for module_name, attribute, span in TARGETS:
                module = modules[module_name]
                original = getattr(module, attribute)
                saved.append((module, attribute, original))
                setattr(module, attribute, self._wrap(span, original))
            yield self
        finally:
            for module, attribute, original in reversed(saved):
                setattr(module, attribute, original)

    def operation(self, fn, *args):
        """Run one operation inside its root span, under the next id (ids
        count up from 0)."""
        self._op += 1
        return self._wrap(ROOT_SPAN, fn)(*args)

    def take_calls(self) -> list[tuple[str, inspect.BoundArguments, object]]:
        taken = list(self.calls)
        self.calls.clear()
        return taken


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Calls are sequential, so children of one span never overlap and the
    covered time is the sum of their durations."""
    own = [span.seconds for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.seconds
    return own


def _array_bytes(obj) -> int:
    """Bytes of the dense numpy arrays an object returned by a stage holds."""
    return sum(
        value.nbytes
        for value in (getattr(obj, f.name) for f in fields(obj))
        if isinstance(value, np.ndarray)
    )


def op_counts(calls) -> dict[str, float]:
    """Per-layer counts of one operation, from the captured return values.

    The word counts add up over the clouds of one operation; every other
    count describes the corpus or a stage that runs once per operation. The
    byte counts are computed from the shapes of the dense arrays the stages
    return (the fitted model and the embedding; the distance matrix), not
    measured."""
    counts: dict[str, float] = {}
    for name, bound, result in calls:
        bound.apply_defaults()
        arguments = bound.arguments
        if name == "text.tokenize":
            counts["text.tokens"] = sum(len(stream) for stream in result)
        elif name == "text.score_bigrams":
            counts["text.bigram_candidates"] = len(result)
        elif name == "text.select_bigrams":
            counts["text.bigrams_kept"] = len(result)
        elif name == "features.build_vocabulary":
            counts["features.vocab_size"] = len(result)
        elif name == "features.vectorize":
            counts["features.nnz"] = int(result.matrix.nnz)
            counts["features.empty_docs"] = int(np.count_nonzero(np.diff(result.matrix.indptr) == 0))
        elif name == "embedding.fit_kpca":
            matrix = arguments["features"].matrix
            mean = np.asarray(matrix.mean(axis=0)).ravel()
            total = float(matrix.multiply(matrix).sum()) - matrix.shape[0] * float(mean @ mean)
            counts["embedding.components_kept"] = int(result.eigenvalues.shape[0])
            counts["embedding.explained_variance"] = float(result.eigenvalues.sum()) / total
            counts["embedding.dense_bytes"] = counts.get("embedding.dense_bytes", 0) + _array_bytes(result)
        elif name == "embedding.transform":
            counts["embedding.dense_bytes"] = counts.get("embedding.dense_bytes", 0) + _array_bytes(result)
        elif name == "clustering.pairwise_distances":
            counts["clustering.distance_bytes"] = int(result.nbytes)
        elif name == "clustering.dbscan":
            degree = (arguments["dist"] <= arguments["eps"]).sum(axis=1)
            counts["clustering.core_points"] = int((degree >= arguments["min_pts"]).sum())
            counts["clustering.eps_degree_mean"] = float(degree.mean())
            counts["clustering.eps_degree_max"] = int(degree.max())
            counts["clustering.noise_frac"] = float((result.labels < 0).mean())
        elif name == "report.layout_wordcloud":
            ranked = list(arguments["ranked"])[: arguments["top_k"]]
            wanted = sum(1 for _, weight in ranked if weight > 0.0)
            placed = len(result.entries)
            counts["report.words_placed"] = counts.get("report.words_placed", 0) + placed
            counts["report.words_skipped"] = counts.get("report.words_skipped", 0) + wanted - placed
    return counts
