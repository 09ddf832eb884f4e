"""Independent reference implementations used to cross-check the fast paths.

These deliberately follow the textbook definitions step by step and share no
code with the library.
"""

from __future__ import annotations

from collections import Counter, deque

import numpy as np
from scipy import sparse

NOISE = -1


def dbscan_reference(dist: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Definition-level DBSCAN on a precomputed distance matrix.

    Core points by direct neighbor counting (point included), clusters as
    connected components of the core-core adjacency graph, border points
    attached to the earliest-discovered adjacent cluster, everything else
    noise.
    """
    n = dist.shape[0]
    within = dist <= eps
    core = within.sum(axis=1) >= min_pts
    labels = np.full(n, NOISE, dtype=np.int64)
    cluster = 0
    for start in range(n):
        if not core[start] or labels[start] != NOISE:
            continue
        labels[start] = cluster
        frontier = [start]
        while frontier:
            point = frontier.pop()
            for neighbor in np.flatnonzero(within[point] & core):
                if labels[neighbor] == NOISE:
                    labels[neighbor] = cluster
                    frontier.append(int(neighbor))
        cluster += 1
    for point in range(n):
        if core[point]:
            continue
        adjacent_cores = np.flatnonzero(within[point] & core)
        if adjacent_cores.size:
            labels[point] = labels[adjacent_cores].min()
    return labels


def dbscan_index_order(dist: np.ndarray, eps: float, min_pts: int) -> tuple[np.ndarray, int]:
    """(labels, n_clusters) of DBSCAN seeded in index order with breadth-first
    expansion in index order: cluster ids count up in discovery order, and a
    border point reachable from several clusters joins the first one that
    reaches it."""
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
    return labels, cluster


def vectorize_reference(streams, vocab) -> sparse.csr_matrix:
    """tf-idf by a per-document Counter: weight (count / total tokens) *
    ln(N / doc_freq) per in-vocabulary term, zero weights left out."""
    idf = np.log(float(len(streams)) / vocab.doc_freq)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for k, stream in enumerate(streams):
        total = len(stream.tokens)
        counts = Counter(t for t in stream.tokens if t in vocab.index)
        for term in sorted(counts):
            col = vocab.index[term]
            weight = (counts[term] / total) * idf[col]
            if weight != 0.0:
                rows.append(k)
                cols.append(col)
                vals.append(weight)
    return sparse.csr_matrix(
        (vals, (rows, cols)), shape=(len(streams), len(vocab.terms)), dtype=np.float64
    )


def occurrence_reference(streams, vocab, labels):
    """(clusters, counts, sizes) by one increment per (document, distinct
    term); NOISE documents are left out and clusters are the sorted labels."""
    kept = sorted({label for label in labels if label != NOISE})
    positions = {label: c for c, label in enumerate(kept)}
    counts = np.zeros((len(kept), len(vocab.terms)), dtype=np.int64)
    sizes = np.zeros(len(kept), dtype=np.int64)
    for stream, label in zip(streams, labels):
        if label == NOISE:
            continue
        c = positions[label]
        sizes[c] += 1
        for term in set(stream.tokens):
            col = vocab.index.get(term)
            if col is not None:
                counts[c, col] += 1
    return tuple(kept), counts, sizes


def partition_of(labels: np.ndarray) -> tuple[frozenset[frozenset[int]], frozenset[int]]:
    """(set of clusters as index sets, noise index set) for label-free comparison."""
    clusters = frozenset(
        frozenset(np.flatnonzero(labels == value).tolist())
        for value in np.unique(labels)
        if value != NOISE
    )
    noise = frozenset(np.flatnonzero(labels == NOISE).tolist())
    return clusters, noise


def random_distance_matrix(seed: int) -> np.ndarray:
    """A symmetric, zero-diagonal matrix in [0, 2] with clustery structure.

    Alternates between cosine distances of noisy cluster centers in a random
    space and plain symmetric uniform matrices, to exercise both realistic
    and adversarial inputs.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 201))
    if seed % 2 == 0:
        n_centers = int(rng.integers(1, 8))
        dim = int(rng.integers(3, 20))
        centers = rng.normal(size=(n_centers, dim))
        points = centers[rng.integers(0, n_centers, n)] + rng.normal(scale=0.3, size=(n, dim))
        norms = np.linalg.norm(points, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        unit = points / norms
        dist = 1.0 - unit @ unit.T
        dist = np.clip(dist, 0.0, 2.0)
    else:
        dist = rng.uniform(0.0, 2.0, size=(n, n)) * rng.uniform(0.5, 2.0)
        dist = np.clip(dist, 0.0, 2.0)
    dist = np.triu(dist, 1)
    dist = dist + dist.T
    return dist


def kpca_reference(rows: np.ndarray, k: int) -> np.ndarray:
    """Textbook linear kernel PCA: the top ``k`` principal coordinates of the
    rows of a dense matrix.

    Double-centers the Gram matrix as H K H with H = I - 11^T / n,
    eigendecomposes it, and returns sqrt(eigenvalue) * eigenvector per
    component, each column's sign fixed so its largest-magnitude entry is
    positive.
    """
    n = rows.shape[0]
    centering = np.eye(n) - np.full((n, n), 1.0 / n)
    kernel = centering @ (rows @ rows.T) @ centering
    values, vectors = np.linalg.eigh(kernel)
    order = np.argsort(values)[::-1][:k]
    coords = vectors[:, order] * np.sqrt(values[order])
    for d in range(k):
        pivot = int(np.argmax(np.abs(coords[:, d])))
        if coords[pivot, d] < 0:
            coords[:, d] = -coords[:, d]
    return coords
