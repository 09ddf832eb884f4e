"""Per-cluster relevant-word scoring.

A word is relevant to a cluster when it occurs in many of the cluster's
documents but few documents elsewhere. The score combines an absolute
rate difference with a saturating rate quotient, so both dominant words and
words that are merely several times more frequent inside the cluster rank
highly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np
from scipy import sparse

from .clustering import NOISE
from .features import Vocabulary, group_doc_freq

# FPR floor in the quotient score: it only keeps a zero FPR from dividing.
# A positive FPR is at least 1/((C-1)·largest cluster), above EPSILON while
# that product is below 1e8, and over a zero FPR any positive TPR saturates
# the quotient in clusters of up to 1/(4·EPSILON) = 25M documents.
EPSILON = 1e-8

ClusterKey = Hashable


@dataclass(frozen=True)
class OccurrenceIndex:
    """Document-occurrence counts per (cluster, term).

    ``counts[c, i]`` is the number of documents in cluster c that contain
    term i at least once; ``sizes[c]`` the cluster's document count.
    ``terms`` are a vocabulary's, so in ascending string order (token ids
    keep it): ranking breaks its last ties by column, which is term order.
    """

    terms: tuple[str, ...]
    clusters: tuple[ClusterKey, ...]
    counts: np.ndarray
    sizes: np.ndarray


@dataclass(frozen=True)
class RelevanceTable:
    """All five scores per (cluster, term); every stored value is in [0, 1].

    ``fpr`` is clamped at 1 for storage; the raw value (mean + std can exceed
    1) is what the difference and quotient scores were computed from.
    ``terms`` are the occurrence index's, in ascending string order, so a
    column's position is its term's rank.
    """

    terms: tuple[str, ...]
    clusters: tuple[ClusterKey, ...]
    tpr: np.ndarray
    fpr: np.ndarray
    r_diff: np.ndarray
    r_quot: np.ndarray
    r: np.ndarray

    def cluster_position(self, cluster: ClusterKey) -> int:
        return _position(self.clusters, cluster)


def _position(clusters: tuple[ClusterKey, ...], cluster: ClusterKey) -> int:
    try:
        return clusters.index(cluster)
    except ValueError:
        raise ValueError(f"unknown cluster: {cluster!r}") from None


def build_occurrence_index(
    counts: sparse.csr_matrix,
    vocab: Vocabulary,
    labels: Sequence[ClusterKey],
) -> OccurrenceIndex:
    """Count, per cluster, how many documents contain each vocabulary term.

    ``counts`` is the N x T term-count matrix of the documents against
    ``vocab`` (``features.term_counts``); ``labels`` is one cluster id (or
    period label) per row, in order. Documents labeled NOISE are excluded
    entirely: they form neither a target cluster nor a contrast cluster.
    """
    if counts.shape[0] != len(labels):
        raise ValueError("labels length does not match document count")
    kept = sorted({label for label in labels if label != NOISE})
    positions = {label: c for c, label in enumerate(kept)}
    groups = np.array([positions.get(label, NOISE) for label in labels], dtype=np.int64)
    doc_freq = group_doc_freq(counts, groups, len(kept))
    sizes = np.bincount(groups[groups != NOISE], minlength=len(kept))
    return OccurrenceIndex(
        terms=vocab.terms, clusters=tuple(kept), counts=doc_freq, sizes=sizes
    )


def _fpr_raw(rates: np.ndarray, rows: Sequence[int]) -> np.ndarray:
    """Per (cluster, term): mean plus population std of the term's rates over
    all other clusters, from a (clusters, terms) rate matrix, for the cluster
    rows ``rows`` in that order.

    Mean-plus-std rather than a maximum keeps one small cluster from
    dominating the estimate. With no other cluster the value is 0 and scores
    reduce to plain occurrence rates. Each row costs O(clusters x terms).
    """
    n_clusters = rates.shape[0]
    fpr_raw = np.zeros((len(rows), rates.shape[1]), dtype=rates.dtype)
    if n_clusters == 1:
        warnings.warn("single cluster: FPR is 0 and scores reduce to occurrence rates")
    else:
        for i, c in enumerate(rows):
            others = rates[[l for l in range(n_clusters) if l != c]]
            fpr_raw[i] = others.mean(axis=0) + others.std(axis=0)
    return fpr_raw


def score_diff(tpr_value, fpr_value):
    """Rate difference clamped at zero: max(TPR - FPR, 0)."""
    return np.maximum(np.asarray(tpr_value, dtype=np.float64) - fpr_value, 0.0)


def score_quot(tpr_value, fpr_value):
    """Saturating rate quotient in [0, 1].

    The TPR/max(FPR, EPSILON) ratio is clipped to [1, 4] and rescaled, so any
    word at least four times more frequent inside the cluster scores 1
    regardless of its absolute rate.
    """
    ratio = np.asarray(tpr_value, dtype=np.float64) / np.maximum(fpr_value, EPSILON)
    return (np.clip(ratio, 1.0, 4.0) - 1.0) / 3.0


def score_final(tpr_value, fpr_value):
    """Mean of the difference and quotient scores."""
    return 0.5 * (score_diff(tpr_value, fpr_value) + score_quot(tpr_value, fpr_value))


def compute_relevance(
    index: OccurrenceIndex, clusters: Sequence[ClusterKey] | None = None
) -> RelevanceTable:
    """Score every term for the given clusters of an occurrence index, in the
    order given (default: every cluster, in index order).

    A cluster's row is the same, bit for bit, whichever clusters are scored
    with it. Its FPR reads every cluster's rates, so one row costs
    O(clusters x terms) and the whole table O(clusters^2 x terms).
    """
    if not index.clusters:
        raise ValueError("no clusters to score (all documents are noise)")
    clusters = index.clusters if clusters is None else tuple(clusters)
    rows = [_position(index.clusters, key) for key in clusters]
    rates = index.counts / index.sizes[:, None]
    fpr_raw = _fpr_raw(rates, rows)
    tpr = rates[rows]
    del rates, rows
    # With rates freed and in this order, no more (scored clusters, terms)
    # arrays are alive at once than the five stored ones and fpr_raw.
    r = score_final(tpr, fpr_raw)
    r_quot = score_quot(tpr, fpr_raw)
    r_diff = score_diff(tpr, fpr_raw)
    return RelevanceTable(
        terms=index.terms,
        clusters=clusters,
        tpr=tpr,
        fpr=np.minimum(fpr_raw, 1.0),
        r_diff=r_diff,
        r_quot=r_quot,
        r=r,
    )


def _ranked(table: RelevanceTable, c: int) -> np.ndarray:
    """Term positions of cluster row ``c`` by score descending, ties by TPR
    descending, then term ascending: ``lexsort`` is stable and the terms are
    in ascending order, so the last ties keep column order."""
    return np.lexsort((-table.tpr[c], -table.r[c]))


def rank_terms(table: RelevanceTable, cluster: ClusterKey, k: int) -> list[tuple[str, float]]:
    """Top-k terms for a cluster by score, descending.

    Ties break by higher TPR, then term order; zero-score terms never appear,
    so the list may be shorter than k. A k below 1 is rejected.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    c = table.cluster_position(cluster)
    n_positive = int(np.count_nonzero(table.r[c] > 0.0))
    top = _ranked(table, c)[:n_positive][:k]
    return [(table.terms[i], score) for i, score in zip(top.tolist(), table.r[c, top].tolist())]


def _distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)``, by a sort and an adjacent-difference mask: on
    numpy 2.4, bare ``np.unique`` of integers takes a hash path that was
    ~25x slower on 600k values."""
    ordered = np.sort(values, axis=None)
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def write_relevance_csv(table: RelevanceTable, path) -> None:
    """Full table dump: ``cluster,term,tpr,fpr,r_diff,r_quot,r``.

    Rows sorted by cluster, then score descending (ties: TPR descending,
    term ascending) — the same order used for ranking. Values print as
    ``.12g``.
    """
    # Each distinct value is formatted once. Values are told apart by bit
    # pattern, since 0.0 and -0.0 are equal as values but print differently,
    # and found column by column so that no copy of the whole table is made.
    columns = [
        column.view(np.uint64) for column in (table.tpr, table.fpr, table.r_diff, table.r_quot, table.r)
    ]
    distinct = _distinct(np.concatenate([_distinct(column) for column in columns]))
    text = [f"{v:.12g}" for v in distinct.view(np.float64).tolist()]
    # A value's text carries the comma before it and the last column's the
    # line end, so a cluster's rows are one join of its cells, encoded and
    # written as one block.
    lookups = [np.array(["," + s for s in text], dtype=object)] * 4 + [
        np.array(["," + s + "\n" for s in text], dtype=object)
    ]
    terms = np.array(table.terms, dtype=object)
    cells = np.empty((len(table.terms), 7), dtype=object)
    with open(path, "wb") as handle:
        handle.write(b"cluster,term,tpr,fpr,r_diff,r_quot,r\n")
        for c, cluster in enumerate(table.clusters):
            order = _ranked(table, c)
            cells[:, 0] = f"{cluster},"
            cells[:, 1] = terms[order]
            for j, (lookup, column) in enumerate(zip(lookups, columns), start=2):
                cells[:, j] = lookup[np.searchsorted(distinct, column[c, order])]
            handle.write("".join(cells.ravel().tolist()).encode("utf-8"))
