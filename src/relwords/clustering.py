"""Cosine-distance DBSCAN over embedded documents."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

NOISE = -1

DEFAULT_EPS = 0.45
DEFAULT_MIN_PTS = 3

# Vectors shorter than this are treated as directionless: similarity -1,
# so distance 2, to every other row, which no eps in (0, 2) reaches.
_NORM_FLOOR = 1e-12

# Rows per tile of the similarity product. One ``unit @ unit.T`` goes to BLAS
# syrk, which kills the process (SIGSEGV) under OpenBLAS 0.3.31 at about 20k
# rows; the tiles are plain gemm calls. A row's bits depend on how many rows
# its gemm multiplies, so the height is fixed, not derived from N.
_TILE_ROWS = 1024


@dataclass(frozen=True)
class ClusterAssignment:
    """Per-document cluster labels; NOISE (-1) marks unassigned documents.

    Cluster ids are contiguous from 0, numbered by each cluster's smallest
    core point.
    """

    labels: np.ndarray
    n_clusters: int


@dataclass(frozen=True)
class CosineDistances:
    """The cosine distances between the rows of an N x D array, computed
    tile by tile when read, never held as an N x N matrix.

    ``unit`` holds the rows scaled to unit length (directionless rows as
    they were) and ``directionless`` marks the rows shorter than
    ``_NORM_FLOOR``: O(N D) in all.
    """

    unit: np.ndarray
    directionless: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        n = self.unit.shape[0]
        return n, n

    @property
    def nbytes(self) -> int:
        return self.unit.nbytes + self.directionless.nbytes

    def tiles(self):
        """Yield ``(a, b, block)``: the distances of rows a:b to rows a:, for
        row tiles of ``_TILE_ROWS`` in order.

        Entries lie in [0, 2] and the diagonal is exactly 0. Every unordered
        pair is computed once, in the strict upper triangle; the lower
        triangle of the square block at the left of each tile is not to be
        read. ``block`` is a view into one buffer that the next tile
        overwrites, so at most one tile is alive.
        """
        unit = self.unit
        n = unit.shape[0]
        zero = np.flatnonzero(self.directionless)
        buffer = np.empty((min(_TILE_ROWS, n), n))
        for a in range(0, n, _TILE_ROWS):
            b = min(a + _TILE_ROWS, n)
            block = buffer[:b - a, a:]
            np.matmul(unit[a:b], unit[a:].T, out=block)
            block[zero[(zero >= a) & (zero < b)] - a] = -1.0
            block[:, zero[zero >= a] - a] = -1.0
            np.subtract(1.0, block, out=block)
            np.clip(block, 0.0, 2.0, out=block)
            np.fill_diagonal(block, 0.0)
            yield a, b, block

    def __le__(self, eps: float) -> np.ndarray:
        """The N x N boolean ``distance <= eps``, mirrored from the tiles.

        The library never calls it. It exists because the benchmark's tracer
        (``perfbench/tracing.py``) counts eps-degrees as
        ``(dist <= eps).sum(axis=1)`` from ``dbscan``'s argument; ROADMAP item
        2b deletes it once those counts are read from the run's records.
        """
        n = self.shape[0]
        within = np.zeros((n, n), dtype=bool)
        for a, b, block in self.tiles():
            np.less_equal(block, eps, out=within[a:b, a:])
        within = np.triu(within, 1)
        within |= within.T
        np.fill_diagonal(within, True)
        return within


def pairwise_distances(coords: np.ndarray) -> CosineDistances:
    """The cosine distances between the rows of an N x D array, to be read
    tile by tile (``CosineDistances.tiles``)."""
    n = coords.shape[0]
    if n < 2:
        raise ValueError("need at least 2 documents")
    norms = np.linalg.norm(coords, axis=1)
    directionless = norms < _NORM_FLOOR
    unit = coords / np.where(directionless, 1.0, norms)[:, None]
    return CosineDistances(unit=unit, directionless=directionless)


def _upper_hits(block: np.ndarray, eps: float, strict_upper: np.ndarray) -> np.ndarray:
    """``block <= eps`` on the strict upper triangle of a tile, False elsewhere."""
    hits = block <= eps
    rows = hits.shape[0]
    hits[:, :rows] &= strict_upper[:rows, :rows]
    return hits


def _pair_counts(dist, eps: float, strict_upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's eps-pairs with later points and with earlier points.

    A function of its own, so that its last tile is freed before the next
    read of the tiles allocates theirs.
    """
    n = dist.shape[0]
    after = np.zeros(n, dtype=np.int64)
    before = np.zeros(n, dtype=np.int64)
    for a, b, block in dist.tiles():
        hits = _upper_hits(block, eps, strict_upper)
        after[a:b] = np.count_nonzero(hits, axis=1)
        before[a:] += np.count_nonzero(hits, axis=0)
        del hits
    return after, before


def _hook(root: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``root`` (each point's smallest-index component member, a star) with
    the components of the pairs (p, q) of such roots joined.

    Each round hooks roots to the smallest root across a pair, in both
    directions, then jumps one pointer: ~log2 n rounds. Hooking keeps
    root[i] <= i. A point that is in no pair follows its root by one more
    jump at the end.
    """
    p, q = np.concatenate((p, q)), np.concatenate((q, p))
    while np.any(root[p] != root[q]):
        np.minimum.at(root, root[p], root[q])
        root = root[root]
    return root[root]


def dbscan(
    dist: CosineDistances,
    eps: float = DEFAULT_EPS,
    min_pts: int = DEFAULT_MIN_PTS,
) -> ClusterAssignment:
    """Density-based clustering on distances read tile by tile.

    A point is core iff its eps-neighborhood (itself included, a distance
    of exactly eps counts) holds at least ``min_pts`` points. Clusters are
    the connected components of the core points, numbered by their smallest
    core point; a border point joins the smallest-numbered cluster among its
    core neighbours, and a point with no core neighbour is noise. This is
    what seeding in index order with breadth-first expansion assigns, so the
    assignment is fully deterministic.

    ``dist`` is anything with a square ``shape`` and ``tiles()`` as
    ``CosineDistances`` has them; only each tile's strict upper triangle is
    read, twice. Pass 1 counts each point's eps-degree, which gives the core
    points. Pass 2 keeps the pairs of a core and a non-core point (fewer
    than N ``min_pts``) and joins the core points' components as it goes,
    from the core-core pairs between components, taken about N at a time;
    a tile's pairs are taken in row slices of about N. Components come from
    hooking roots with one pointer jump a round: ~log2 n rounds, not a
    cluster's index-order length (10 for a 3000-point chain in random index
    order, 12 in zigzag order).
    """
    if len(dist.shape) != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError("distance matrix must be square")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    n = dist.shape[0]
    strict_upper = ~np.tri(min(n, _TILE_ROWS), dtype=bool)
    after, before = _pair_counts(dist, eps, strict_upper)
    core = 1 + after + before >= min_pts
    # Pass 2: border pairs, and core components as a star forest.
    root = np.arange(n)
    border, neighbour = [], []
    held_p, held_q, held = [], [], 0
    for a, b, block in dist.tiles():
        hits = _upper_hits(block, eps, strict_upper)
        step = max(1, (b - a) * n // max(int(after[a:b].sum()), 1))  # ~n pairs a slice
        for r in range(0, b - a, step):
            p, q = np.divmod(np.flatnonzero(hits[r:r + step]), n - a)  # 2-D nonzero is ~5x slower
            p += a + r
            q += a
            core_p, core_q = core[p], core[q]
            mixed = core_p != core_q
            p_is_core = core_p[mixed]
            border.append(np.where(p_is_core, q[mixed], p[mixed]))
            neighbour.append(np.where(p_is_core, p[mixed], q[mixed]))
            both = core_p & core_q
            root_p, root_q = root[p[both]], root[q[both]]
            apart = root_p != root_q
            held_p.append(root_p[apart])
            held_q.append(root_q[apart])
            held += int(np.count_nonzero(apart))
            if held > n:
                root = _hook(root, np.concatenate(held_p), np.concatenate(held_q))
                held_p, held_q, held = [], [], 0
        del hits
    if held:
        root = _hook(root, np.concatenate(held_p), np.concatenate(held_q))
    # A border point takes its core neighbours' smallest root; n marks noise.
    root[~core] = n
    np.minimum.at(root, np.concatenate(border), root[np.concatenate(neighbour)])
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
