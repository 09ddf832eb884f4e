"""Vocabulary construction and the sparse tf-idf document-term matrix."""

from __future__ import annotations

import csv
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .text import TokenStream


@dataclass(frozen=True)
class Vocabulary:
    """Lexicographically ordered terms with their document frequencies."""

    terms: tuple[str, ...]
    index: dict[str, int]
    doc_freq: np.ndarray

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class FeatureMatrix:
    """N x T sparse tf-idf matrix; row k is document k of the source corpus."""

    matrix: sparse.csr_matrix
    vocab: Vocabulary
    doc_ids: tuple[str, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def build_vocabulary(streams: list[TokenStream], min_df: int = 1) -> Vocabulary:
    """Collect terms appearing in at least ``min_df`` documents.

    Terms are ordered lexicographically so column indices are deterministic.
    """
    if not streams:
        raise ValueError("empty corpus")
    doc_freq: Counter = Counter()
    for stream in streams:
        doc_freq.update(set(stream.tokens))
    terms = tuple(sorted(t for t, n in doc_freq.items() if n >= min_df))
    if not terms:
        raise ValueError("empty vocabulary")
    return Vocabulary(
        terms=terms,
        index={t: i for i, t in enumerate(terms)},
        doc_freq=np.array([doc_freq[t] for t in terms], dtype=np.int64),
    )


def idf(vocab: Vocabulary, n_docs: int) -> np.ndarray:
    """Inverse document frequency, ln(N / doc_freq), per vocabulary term.

    Terms present in every document get exactly 0, which nullifies
    uninformative words without a stopword list.
    """
    return np.log(float(n_docs) / vocab.doc_freq)


def vectorize(streams: list[TokenStream], vocab: Vocabulary) -> FeatureMatrix:
    """Build the tf-idf matrix for a corpus against a vocabulary.

    tf is the term count divided by the document's total token count (all
    tokens, so out-of-vocabulary tokens still shrink tf of the rest).
    """
    if not streams:
        raise ValueError("empty corpus")
    idf_vec = idf(vocab, len(streams))
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    empty_docs: list[str] = []
    for k, stream in enumerate(streams):
        total = len(stream.tokens)
        counts = Counter(t for t in stream.tokens if t in vocab.index)
        if not counts:
            empty_docs.append(stream.doc_id)
            continue
        for term in sorted(counts):
            col = vocab.index[term]
            weight = (counts[term] / total) * idf_vec[col]
            if weight != 0.0:
                rows.append(k)
                cols.append(col)
                vals.append(weight)
    if empty_docs:
        warnings.warn(
            "documents with no in-vocabulary tokens (zero feature vectors): "
            + ", ".join(empty_docs)
        )
    matrix = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(len(streams), len(vocab.terms)), dtype=np.float64
    )
    return FeatureMatrix(matrix=matrix, vocab=vocab, doc_ids=tuple(s.doc_id for s in streams))


def write_matrix_csv(features: FeatureMatrix, path) -> None:
    """Sparse triplet dump: ``doc_id,term,weight``, one row per nonzero."""
    coo = features.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("doc_id", "term", "weight"))
        rows = zip(coo.row[order].tolist(), coo.col[order].tolist(), coo.data[order].tolist())
        for row, col, weight in rows:
            writer.writerow((features.doc_ids[row], features.vocab.terms[col], f"{weight:.12g}"))
