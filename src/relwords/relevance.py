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
    """Document-occurrence counts per (group, term); the groups are a run's
    clusters, contrast's periods or trends' buckets.

    ``counts[c, i]`` is the number of documents in group c that contain
    term i at least once; ``sizes[c]`` the group's document count, 0 only
    for an empty bucket of a trend index. ``terms`` are in column order,
    ascending for ``build_occurrence_index`` (token ids keep a vocabulary's
    order), which ranking's last tie-break relies on; a trend index keeps
    the order its terms were given in.
    """

    terms: tuple[str, ...]
    clusters: tuple[ClusterKey, ...]
    counts: np.ndarray
    sizes: np.ndarray


@dataclass(frozen=True)
class RelevanceTable:
    """TPR and raw FPR per (cluster, term); every score is formed from the
    two where it is read, a cluster's ``score_final(tpr[c], fpr_raw[c])``.

    ``fpr_raw`` (mean + std) can exceed 1; only ``relevance.csv`` prints it
    clamped at 1. ``terms`` are the occurrence index's, in its column order:
    ascending for ``build_occurrence_index``'s, so a column's position is
    then its term's rank.
    """

    terms: tuple[str, ...]
    clusters: tuple[ClusterKey, ...]
    tpr: np.ndarray
    fpr_raw: np.ndarray

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
    doc_freq, sizes = group_doc_freq(counts, groups, len(kept))
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
    """The TPR and raw FPR of every term for the given clusters of an
    occurrence index, in the order given (default: every cluster, in index
    order).

    A cluster's row is the same, bit for bit, whichever clusters are scored
    with it. Its FPR reads every cluster's rates, so one row costs
    O(clusters x terms) and the whole table O(clusters^2 x terms). A group
    without documents has no rates, and is rejected by name.
    """
    if not index.clusters:
        raise ValueError("no clusters to score (all documents are noise)")
    empty = np.flatnonzero(index.sizes == 0)
    if empty.size:
        raise ValueError(f"group {index.clusters[empty[0]]!r} has no documents")
    clusters = index.clusters if clusters is None else tuple(clusters)
    rows = [_position(index.clusters, key) for key in clusters]
    rates = index.counts / index.sizes[:, None]
    fpr_raw = _fpr_raw(rates, rows)
    return RelevanceTable(terms=index.terms, clusters=clusters, tpr=rates[rows], fpr_raw=fpr_raw)


def _ranked(tpr: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Term positions of one cluster's row by score ``r`` descending, ties by
    TPR descending, then term ascending: ``lexsort`` is stable and the terms
    are in ascending order, so the last ties keep column order."""
    return np.lexsort((-tpr, -r))


def rank_terms(table: RelevanceTable, cluster: ClusterKey, k: int) -> list[tuple[str, float]]:
    """Top-k terms for a cluster by score, descending.

    Ties break by higher TPR, then term order; zero-score terms never appear,
    so the list may be shorter than k. A k below 1 is rejected.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    c = table.cluster_position(cluster)
    r = score_final(table.tpr[c], table.fpr_raw[c])
    top = _ranked(table.tpr[c], r)[: np.count_nonzero(r > 0.0)][:k]
    return [(table.terms[i], score) for i, score in zip(top.tolist(), r[top].tolist())]


def _distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)``, by a sort and an adjacent-difference mask: on
    numpy 2.4, bare ``np.unique`` of integers takes a hash path that was
    ~25x slower on 600k values."""
    ordered = np.sort(values, axis=None)
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


# Rows of the relevance CSV grouped at once. Grouping holds ~20 bytes a row
# (the sort order, one gathered column, the group ids), so blocks of whole
# clusters up to 2**18 rows keep it near 5 MiB whatever the number of clusters.
_WRITE_BLOCK_ROWS = 1 << 18


def _row_tails(tpr: np.ndarray, fpr_raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tails ``,tpr,fpr,r_diff,r_quot,r\\n`` of a block of rows, given as
    its (rows, terms) ``tpr`` and ``fpr_raw`` bit patterns, and each row's
    index into them: one tail per run of rows equal in both, once sorted by a
    key mixed from the two. Every printed value is a function of the pair,
    so it is formed only for each run's first row. Bit patterns tell 0.0
    from -0.0, which print differently."""
    flat = [tpr.ravel(), fpr_raw.ravel()]
    # Equal pairs share a key, so each sorts into one run (a key two pairs
    # share can only split runs, never merge unequal rows). One quicksort of
    # a mixed key is ~4x faster than a lexsort of the two columns.
    order = np.argsort(flat[0] * np.uint64(0x9E3779B97F4A7C15) ^ flat[1])
    starts = np.zeros(order.size, dtype=bool)
    starts[:1] = True
    for column in flat:
        gathered = column[order]
        starts[1:] |= gathered[1:] != gathered[:-1]
        del gathered
    group = np.empty(order.size, dtype=np.int32)
    group[order] = np.cumsum(starts, dtype=np.int32) - 1
    firsts = order[starts]
    del order, starts
    t, f = (column[firsts].view(np.float64) for column in flat)
    values = [
        value.view(np.uint64)
        for value in (t, np.minimum(f, 1.0), score_diff(t, f), score_quot(t, f), score_final(t, f))
    ]
    # Each distinct value among the groups' first rows is formatted once.
    distinct = _distinct(np.concatenate(values))
    text = np.array([f"{v:.12g}" for v in distinct.view(np.float64).tolist()], dtype=object)
    cells = zip(*(text[np.searchsorted(distinct, value)].tolist() for value in values))
    tails = np.array([f",{a},{b},{c},{d},{e}\n" for a, b, c, d, e in cells], dtype=object)
    return tails, group.reshape(tpr.shape)


def write_relevance_csv(table: RelevanceTable, path) -> None:
    """Full table dump: ``cluster,term,tpr,fpr,r_diff,r_quot,r``, with the
    FPR clamped at 1 and the three scores formed from TPR and raw FPR.

    Rows sorted by cluster, then score descending (ties: TPR descending,
    term ascending) — the same order used for ranking. Values print as
    ``.12g``.
    """
    # A row is three cells, its cluster, its term and its group's tail, so
    # a cluster's rows are one join, encoded and written as one block.
    tpr, fpr_raw = table.tpr.view(np.uint64), table.fpr_raw.view(np.uint64)
    per_block = max(1, _WRITE_BLOCK_ROWS // max(len(table.terms), 1))
    terms = np.array(table.terms, dtype=object)
    cells = np.empty((len(table.terms), 3), dtype=object)
    with open(path, "wb") as handle:
        handle.write(b"cluster,term,tpr,fpr,r_diff,r_quot,r\n")
        for start in range(0, len(table.clusters), per_block):
            tails, group = _row_tails(tpr[start : start + per_block], fpr_raw[start : start + per_block])
            for row, cluster in enumerate(table.clusters[start : start + per_block], start):
                order = _ranked(table.tpr[row], score_final(table.tpr[row], table.fpr_raw[row]))
                cells[:, 0] = f"{cluster},"
                cells[:, 1] = terms[order]
                cells[:, 2] = tails[group[row - start, order]]
                handle.write("".join(cells.ravel().tolist()).encode("utf-8"))
            del tails, group
