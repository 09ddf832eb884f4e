"""Vocabulary construction and the sparse tf-idf document-term matrix."""

from __future__ import annotations

import csv
import warnings
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import chain, repeat

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
    """N x T sparse tf-idf matrix and the N x T int64 term counts it was
    weighted from; row k is document k of the source corpus."""

    matrix: sparse.csr_matrix
    vocab: Vocabulary
    counts: sparse.csr_matrix


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


def term_counts(streams: Sequence[TokenStream], index: Mapping[str, int]) -> sparse.csr_matrix:
    """N x len(index) int64 counts of the tokens found in ``index``; row k is ``streams[k]``."""
    lengths = [len(stream.tokens) for stream in streams]
    tokens = chain.from_iterable(stream.tokens for stream in streams)
    cols = np.fromiter(map(index.get, tokens, repeat(-1)), np.int32, sum(lengths))
    kept = cols >= 0
    # Tokens come in row order, so a row starts after the kept tokens of the rows before it.
    kept_before = np.zeros(cols.size + 1, dtype=np.int64)
    np.cumsum(kept, out=kept_before[1:])
    indptr = kept_before[np.cumsum([0] + lengths)]
    ones = np.ones(indptr[-1], dtype=np.int64)
    counts = sparse.csr_matrix((ones, cols[kept], indptr), shape=(len(streams), len(index)))
    counts.sum_duplicates()
    return counts


def group_doc_freq(counts: sparse.csr_matrix, groups: np.ndarray, n_groups: int) -> np.ndarray:
    """(n_groups, columns) int64: per group, how many of its rows have a
    nonzero count in each column. Row k of ``counts`` is in group
    ``groups[k]``; rows of a negative group count nowhere."""
    rows = np.flatnonzero(groups >= 0)
    ones = np.ones(rows.size, dtype=np.int64)
    members = sparse.csr_matrix((ones, (groups[rows], rows)), shape=(n_groups, counts.shape[0]))
    return (members @ counts.sign()).toarray()


def vectorize(streams: list[TokenStream], vocab: Vocabulary) -> FeatureMatrix:
    """Build the tf-idf matrix for a corpus against a vocabulary.

    tf is the term count divided by the document's total token count (all
    tokens, so out-of-vocabulary tokens still shrink tf of the rest).
    """
    if not streams:
        raise ValueError("empty corpus")
    counts = term_counts(streams, vocab.index)
    per_row = np.diff(counts.indptr)
    empty_docs = [streams[k].doc_id for k in np.flatnonzero(per_row == 0).tolist()]
    if empty_docs:
        warnings.warn(
            "documents with no in-vocabulary tokens (zero feature vectors): "
            + ", ".join(empty_docs)
        )
    totals = np.repeat(np.array([len(s.tokens) for s in streams], dtype=np.int64), per_row)
    weights = counts.data / totals * idf(vocab, len(streams))[counts.indices]
    # Own index arrays: eliminate_zeros rewrites them in place, and counts is kept.
    indices, indptr = counts.indices.copy(), counts.indptr.copy()
    matrix = sparse.csr_matrix((weights, indices, indptr), shape=counts.shape)
    matrix.eliminate_zeros()
    return FeatureMatrix(matrix=matrix, vocab=vocab, counts=counts)


def write_matrix_csv(features: FeatureMatrix, doc_ids, path) -> None:
    """Sparse triplet dump: ``doc_id,term,weight``, one row per nonzero;
    row k of the matrix is document ``doc_ids[k]``."""
    if len(doc_ids) != features.matrix.shape[0]:
        raise ValueError("doc_ids length does not match matrix rows")
    coo = features.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("doc_id", "term", "weight"))
        rows = zip(coo.row[order].tolist(), coo.col[order].tolist(), coo.data[order].tolist())
        for row, col, weight in rows:
            writer.writerow((doc_ids[row], features.vocab.terms[col], f"{weight:.12g}"))
