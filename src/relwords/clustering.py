"""Cosine-distance DBSCAN over embedded documents."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

NOISE = -1

DEFAULT_EPS = 0.45
DEFAULT_MIN_PTS = 3

# Vectors shorter than this are treated as directionless: distance 1 to
# everything by convention.
_NORM_FLOOR = 1e-12

# Rows per tile of the similarity product and of DBSCAN's neighbourhood
# scan. One ``unit @ unit.T`` goes to BLAS syrk, which kills the process
# (SIGSEGV) under OpenBLAS 0.3.31 at about 20k rows; the tiles are plain
# gemm calls.
_TILE_ROWS = 1024


@dataclass(frozen=True)
class ClusterAssignment:
    """Per-document cluster labels; NOISE (-1) marks unassigned documents.

    Cluster ids are contiguous from 0, numbered by each cluster's smallest
    core point.
    """

    labels: np.ndarray
    n_clusters: int


def pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """Full symmetric matrix of cosine distances between the rows of an N x D array.

    Entries lie in [0, 2] with an exactly-zero diagonal. Each tile of rows
    is multiplied against the rows from its own first one on, so every
    unordered pair is computed once, in the upper triangle, and mirrored
    into the lower: symmetry is exact.
    """
    n = coords.shape[0]
    if n < 2:
        raise ValueError("need at least 2 documents")
    norms = np.linalg.norm(coords, axis=1)
    safe = np.where(norms < _NORM_FLOOR, 1.0, norms)
    unit = coords / safe[:, None]
    sim = np.empty((n, n))
    for a in range(0, n, _TILE_ROWS):
        b = min(a + _TILE_ROWS, n)
        np.matmul(unit[a:b], unit[a:].T, out=sim[a:b, a:])
        for i in range(a, b - 1):  # the diagonal block: upper triangle into lower
            sim[i + 1:b, i] = sim[i, i + 1:b]
        sim[b:, a:b] = sim[a:b, b:].T
    sim[norms < _NORM_FLOOR, :] = 0.0
    sim[:, norms < _NORM_FLOOR] = 0.0
    dist = np.subtract(1.0, sim, out=sim)
    np.clip(dist, 0.0, 2.0, out=dist)
    np.fill_diagonal(dist, 0.0)
    return dist


def dbscan(
    dist: np.ndarray,
    eps: float = DEFAULT_EPS,
    min_pts: int = DEFAULT_MIN_PTS,
) -> ClusterAssignment:
    """Density-based clustering on a precomputed symmetric distance matrix.

    A point is core iff its eps-neighborhood (itself included, a distance
    of exactly eps counts) holds at least ``min_pts`` points. Clusters are
    the connected components of the core points, numbered by their smallest
    core point; a border point joins the smallest-numbered cluster among its
    core neighbours, and a point with no core neighbour is noise. This is
    what seeding in index order with breadth-first expansion assigns, so the
    assignment is fully deterministic.

    ``dist`` is read once, tile by tile, for its eps-pairs. Core components
    come from hooking roots over core-core pairs, one pointer jump a round:
    ~log2 n rounds, not a cluster's index-order length (10 for a 3000-point
    chain in random index order, 12 in zigzag order).
    """
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError("distance matrix must be square")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    n = dist.shape[0]
    # The eps-pairs in row-major order, by row tiles (no N x N boolean); a
    # point's pair count is its eps-degree.
    point, neighbour = [], []
    for a in range(0, max(n, 1), _TILE_ROWS):  # one empty tile when n = 0
        rows, columns = np.nonzero(dist[a:a + _TILE_ROWS] <= eps)
        point.append(rows + a)
        neighbour.append(columns)
    point, neighbour = np.concatenate(point), np.concatenate(neighbour)
    core = np.bincount(point, minlength=n) >= min_pts
    kept = core[neighbour]
    point, neighbour = point[kept], neighbour[kept]
    both = core[point]
    p, q = point[both], neighbour[both]
    # Hooking keeps root[i] <= i, so a component ends at its smallest index.
    root = np.arange(n)
    while np.any(root[p] != root[q]):
        np.minimum.at(root, root[p], root[q])
        root = root[root]
    # A border point takes its core neighbours' smallest root; n marks noise.
    root[~core] = n
    np.minimum.at(root, point[~both], root[neighbour[~both]])
    roots, labels = np.unique(root, return_inverse=True)
    labels[root == n] = NOISE
    return ClusterAssignment(
        labels=labels.astype(np.int64, copy=False), n_clusters=int(np.count_nonzero(roots < n))
    )


def write_labels_csv(assignment: ClusterAssignment, doc_ids, path) -> None:
    """Dump the assignment as ``doc_id,label`` CSV (noise as -1), quoting ids as ``csv`` does."""
    if len(doc_ids) != assignment.labels.shape[0]:
        raise ValueError("doc_ids length does not match label count")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("doc_id", "label"))
        writer.writerows(zip(doc_ids, assignment.labels.tolist()))
