"""Cosine-distance DBSCAN over embedded documents."""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass

import numpy as np

from .embedding import Embedding

NOISE = -1

DEFAULT_EPS = 0.45
DEFAULT_MIN_PTS = 3

# Vectors shorter than this are treated as directionless: distance 1 to
# everything by convention.
_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class ClusterAssignment:
    """Per-document cluster labels; NOISE (-1) marks unassigned documents.

    Cluster ids are contiguous from 0 in order of discovery.
    """

    labels: np.ndarray
    n_clusters: int

    def members(self, cluster: int) -> np.ndarray:
        return np.flatnonzero(self.labels == cluster)


def pairwise_distances(embedding: Embedding) -> np.ndarray:
    """Full symmetric matrix of cosine distances between embedding rows.

    Entries lie in [0, 2] with an exactly-zero diagonal; each unordered pair
    is computed once and mirrored, so symmetry is exact.
    """
    coords = embedding.coords
    n = coords.shape[0]
    if n < 2:
        raise ValueError("need at least 2 documents")
    norms = np.linalg.norm(coords, axis=1)
    safe = np.where(norms < _NORM_FLOOR, 1.0, norms)
    unit = coords / safe[:, None]
    sim = unit @ unit.T
    sim[norms < _NORM_FLOOR, :] = 0.0
    sim[:, norms < _NORM_FLOOR] = 0.0
    dist = 1.0 - sim
    np.clip(dist, 0.0, 2.0, out=dist)
    dist = np.triu(dist, 1)
    dist = dist + dist.T
    return dist


def dbscan(
    dist: np.ndarray,
    eps: float = DEFAULT_EPS,
    min_pts: int = DEFAULT_MIN_PTS,
) -> ClusterAssignment:
    """Density-based clustering on a precomputed distance matrix.

    A point is core iff its eps-neighborhood (itself included) holds at least
    ``min_pts`` points; clusters are the maximal density-connected sets and
    non-core points within eps of a core join that core's cluster. Points are
    seeded in index order and expansion is breadth-first in index order, so a
    border point reachable from several clusters joins the first one
    discovered — the assignment is fully deterministic.
    """
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError("distance matrix must be square")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    n = dist.shape[0]
    labels = np.full(n, NOISE, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    cluster = 0
    for seed in range(n):
        if visited[seed]:
            continue
        visited[seed] = True
        neighborhood = np.flatnonzero(dist[seed] <= eps)
        if neighborhood.size < min_pts:
            continue
        labels[seed] = cluster
        queue = deque(int(j) for j in neighborhood if j != seed)
        while queue:
            point = queue.popleft()
            if labels[point] == NOISE:
                labels[point] = cluster
            if visited[point]:
                continue
            visited[point] = True
            expansion = np.flatnonzero(dist[point] <= eps)
            if expansion.size >= min_pts:
                queue.extend(
                    int(q) for q in expansion if not visited[q] or labels[q] == NOISE
                )
        cluster += 1
    return ClusterAssignment(labels=labels, n_clusters=cluster)


def write_labels_csv(assignment: ClusterAssignment, doc_ids, path) -> None:
    """Dump the assignment as ``doc_id,label`` CSV (noise as -1), quoting ids as ``csv`` does."""
    if len(doc_ids) != assignment.labels.shape[0]:
        raise ValueError("doc_ids length does not match label count")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("doc_id", "label"))
        writer.writerows(zip(doc_ids, assignment.labels.tolist()))
