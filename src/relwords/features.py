"""Vocabulary construction and the sparse tf-idf document-term matrix."""

from __future__ import annotations

import csv
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import repeat

import numpy as np
from scipy import sparse

from .text import TokenIds


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


def build_vocabulary(corpus: TokenIds, min_df: int = 1) -> Vocabulary:
    """Collect terms appearing in at least ``min_df`` documents.

    Terms are ordered lexicographically so column indices are deterministic.
    Token ids already follow that order, so the terms are the ids with
    enough documents, in id order, and no string is sorted here. A term's
    document frequency is the number of rows of ``corpus.counts`` holding it.
    """
    if not len(corpus):
        raise ValueError("empty corpus")
    doc_freq = np.bincount(corpus.counts.indices, minlength=len(corpus.tokens))
    kept = np.flatnonzero(doc_freq >= min_df)
    if not kept.size:
        raise ValueError(f"empty vocabulary: no term is in at least {min_df} document(s)")
    terms = tuple(map(corpus.tokens.__getitem__, kept.tolist()))
    return Vocabulary(terms=terms, index={t: i for i, t in enumerate(terms)}, doc_freq=doc_freq[kept])


def idf(vocab: Vocabulary, n_docs: int) -> np.ndarray:
    """Inverse document frequency, ln(N / doc_freq), per vocabulary term.

    Terms present in every document get exactly 0, which nullifies
    uninformative words without a stopword list.
    """
    return np.log(float(n_docs) / vocab.doc_freq)


def term_counts(corpus: TokenIds, index: Mapping[str, int]) -> sparse.csr_matrix:
    """N x len(index) int64 counts of the tokens found in ``index``; row k is
    document k. Read from ``corpus.counts``: each token id is looked up once."""
    columns = np.fromiter(map(index.get, corpus.tokens, repeat(-1)), np.int32, len(corpus.tokens))
    by_id = corpus.counts
    cols = columns[by_id.indices]
    kept = cols >= 0
    # Entries come in row order, so a row starts after the kept entries of the rows before it.
    kept_before = np.zeros(cols.size + 1, dtype=np.int64)
    np.cumsum(kept, out=kept_before[1:])
    counts = sparse.csr_matrix(
        (by_id.data[kept], cols[kept], kept_before[by_id.indptr]), shape=(len(corpus), len(index))
    )
    counts.sort_indices()  # the index need not order its terms as the ids
    return counts


def group_doc_freq(
    counts: sparse.csr_matrix, groups: np.ndarray, n_groups: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per group, how many of its rows have a nonzero count in each column,
    (n_groups, columns) int64, and how many rows it has, (n_groups,) int64.
    Row k of ``counts`` is in group ``groups[k]``; rows of a negative group
    count nowhere."""
    rows = np.flatnonzero(groups >= 0)
    ones = np.ones(rows.size, dtype=np.int64)
    members = sparse.csr_matrix((ones, (groups[rows], rows)), shape=(n_groups, counts.shape[0]))
    return (members @ counts.sign()).toarray(), np.bincount(groups[rows], minlength=n_groups)


def vectorize(corpus: TokenIds, vocab: Vocabulary) -> FeatureMatrix:
    """Build the tf-idf matrix for a corpus against a vocabulary.

    tf is the term count divided by the document's total token count (all
    tokens, so out-of-vocabulary tokens still shrink tf of the rest). The
    counts are ``term_counts``, read from ``corpus.counts``, the one sort
    ``build_vocabulary`` of the same corpus made. A document with no
    in-vocabulary token gets a zero row and no counts, and one whose terms
    all occur in every document (idf 0) a zero row; ``run_clustering``,
    which has the documents' ids, warns of both.
    """
    if not len(corpus):
        raise ValueError("empty corpus")
    counts = term_counts(corpus, vocab.index)
    per_row = np.diff(counts.indptr)
    totals = np.repeat(corpus.lengths, per_row)
    weights = counts.data / totals * idf(vocab, len(corpus))[counts.indices]
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
