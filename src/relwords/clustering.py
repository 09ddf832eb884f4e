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
# rows; the tiles are plain gemm calls. No decision depends on the height.
_TILE_ROWS = 1024

_FLOAT32_UNIT = 2.0**-24
_FLOAT64_UNIT = 2.0**-53


@dataclass(frozen=True)
class ClusterAssignment:
    """Per-document cluster labels; NOISE (-1) marks unassigned documents.

    Cluster ids are contiguous from 0, numbered by each cluster's smallest
    core point.
    """

    labels: np.ndarray
    n_clusters: int


def _float32_error(k: int) -> float:
    """A bound on |sim32 - sim64| for two unit rows x, y of length k: sim32
    their float32 product (float32 copies of the rows, float32 sums), sim64
    any float64 dot product of the rows themselves.

    With u = 2^-24, casting the rows costs at most (2u + u^2) sum |x_i y_i|
    and the float32 sums gamma32(k) (1 + u)^2 sum |x_i y_i| (Higham 2002,
    3.1): less than (gamma32(k + 1) + 2u) nu^2 in all, as sum |x_i y_i| <=
    |x| |y| <= nu^2 with nu = 1 + gamma64(k + 2) for the float64 rounding
    of the rows' scaling. sim64 is within gamma64(k) nu^2 of the exact
    product. gamma32(k + 1) exceeds what it bounds by nearly u, far more
    than the float64 rounding of this sum, and any underflow.
    """

    def gamma(n: int, u: float) -> float:
        return n * u / (1.0 - n * u)

    nu = 1.0 + gamma(k + 2, _FLOAT64_UNIT)
    return (gamma(k + 1, _FLOAT32_UNIT) + 2.0 * _FLOAT32_UNIT + gamma(k, _FLOAT64_UNIT)) * nu * nu


def _float32_band(eps: float, k: int) -> tuple[np.float32, np.float32]:
    """The float32 bounds of ``hit_tiles``'s band for 0 < eps < 2: fl(1 - eps)
    -+ (delta + 2^-23), delta = ``_float32_error(k)``. As 1 - s rounds by at
    most 2^-53 for |s| <= 1, the rule holds for every s >= 1 - eps + 2^-52 and
    fails for every s <= 1 - eps - 2^-52. A float64 similarity lies within
    delta of its float32 one, and rounding fl(1 - eps), the sum and the
    float32 (|bound| < 2: delta < 1 for k < 2^22) moves a bound by at most
    2^-54 + 2^-53 + 2^-24 < 2^-23 - 2^-52 toward 1 - eps."""
    margin = _float32_error(k) + 2.0**-23
    return np.float32(1.0 - eps - margin), np.float32(1.0 - eps + margin)


@dataclass(frozen=True)
class CosineDistances:
    """The cosine distances between the rows of an N x D array, decided
    against eps tile by tile when read, never held as an N x N matrix.

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

    def hit_tiles(self, eps: float):
        """Yield ``(a, b, hits)`` for the tiles of ``_TILE_ROWS`` rows, first
        to last: ``hits[i, j]`` tells whether rows a + i and a + j are within
        eps, on the strict upper triangle (j > i), and is False elsewhere.

        A pair is within eps when ``clip(1 - sim, 0, 2) <= eps`` (the rule),
        sim being the dot product of the unit rows and -1 for a directionless
        row: always for eps >= 2. Each tile is one float32 gemm (4 B a pair).
        A float32 similarity at or above ``_float32_band`` is a hit, one below
        it is not, and the pairs in it are settled by the rule on a float64
        dot product of their two rows. So every decision is the rule's on
        that dot, whatever the tile height or BLAS thread count. One float32
        tile and two booleans are alive at a time, besides the hits yielded.
        """
        n = self.shape[0]
        tiles = _tiles(n)
        if eps >= 2.0:
            for a, b in tiles:
                yield a, b, ~np.tri(b - a, n - a, dtype=bool)
            return
        low, high = _float32_band(eps, self.unit.shape[1])
        unit32 = self.unit.astype(np.float32)
        zero = np.flatnonzero(self.directionless)
        height = min(_TILE_ROWS, n)  # the first tile is the tallest and the widest
        upper = ~np.tri(height, dtype=bool)
        buffer = np.empty(height * n, dtype=np.float32)
        for a, b in tiles:
            rows = b - a
            sim = buffer[:rows * (n - a)].reshape(rows, n - a)
            np.matmul(unit32[a:b], unit32[a:].T, out=sim)
            sim[zero[(zero >= a) & (zero < b)] - a] = -1.0
            sim[:, zero[zero >= a] - a] = -1.0
            hits = sim >= high
            band = sim >= low
            band ^= hits
            hits[:, :rows] &= upper[:rows, :rows]
            band[:, :rows] &= upper[:rows, :rows]
            for r in np.flatnonzero(band.any(axis=1)):
                q = np.flatnonzero(band[r])
                hits[r, q] = np.clip(1.0 - self._similarity(a + r, q + a), 0.0, 2.0) <= eps
            del band
            yield a, b, hits
            del hits  # before the next tile's are allocated

    def _similarity(self, p: int, q: np.ndarray) -> np.ndarray:
        """The float64 similarities of row p to rows q: each one the same
        sum of the same products, whatever the other rows."""
        if self.directionless[p]:
            return np.full(q.size, -1.0)
        sim = (self.unit[q] * self.unit[p]).sum(axis=1)
        sim[self.directionless[q]] = -1.0
        return sim

    def __le__(self, eps: float) -> np.ndarray:
        """The N x N boolean ``distance <= eps``, mirrored from the hit tiles.

        The library never calls it. It exists because the benchmark's tracer
        (``perfbench/tracing.py``) counts eps-degrees as
        ``(dist <= eps).sum(axis=1)`` from ``dbscan``'s argument; ROADMAP item
        2b deletes it once those counts are read from the run's records.
        """
        n = self.shape[0]
        within = np.zeros((n, n), dtype=bool)
        for a, b, hits in self.hit_tiles(eps):
            within[a:b, a:] = hits
        within |= within.T
        np.fill_diagonal(within, True)
        return within


def pairwise_distances(coords: np.ndarray) -> CosineDistances:
    """The cosine distances between the rows of an N x D array, to be read
    tile by tile (``CosineDistances.hit_tiles``)."""
    n = coords.shape[0]
    if n < 2:
        raise ValueError("need at least 2 documents")
    norms = np.linalg.norm(coords, axis=1)
    directionless = norms < _NORM_FLOOR
    unit = coords / np.where(directionless, 1.0, norms)[:, None]
    return CosineDistances(unit=unit, directionless=directionless)


def _tiles(n: int) -> list[tuple[int, int]]:
    """The row ranges of ``_TILE_ROWS`` rows that cover n rows, in order."""
    return [(a, min(a + _TILE_ROWS, n)) for a in range(0, n, _TILE_ROWS)]


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

    ``dist`` is anything with a square ``shape`` and ``hit_tiles(eps)`` as
    ``CosineDistances`` has them, read once. Pass 1 counts each point's
    eps-degree from the tiles, which gives the core points, and keeps each
    tile's hits packed 8 to a byte (N^2 / 16 bytes in all). Pass 2 unpacks
    them in row slices of about N pairs. It keeps the pairs of a core and a
    non-core point (fewer than N ``min_pts``) and joins the core points'
    components as it goes, from the core-core pairs between components,
    taken about N at a time. Components come from hooking roots with one
    pointer jump a round: ~log2 n rounds, not a cluster's index-order length
    (10 for a 3000-point chain in random index order, 12 in zigzag order).
    """
    if len(dist.shape) != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError("distance matrix must be square")
    if not eps > 0:  # NaN included
        raise ValueError(f"eps must be positive, got {eps!r}")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    n = dist.shape[0]
    after = np.zeros(n, dtype=np.int64)
    before = np.zeros(n, dtype=np.int64)
    packed = []
    for a, b, hits in dist.hit_tiles(eps):
        after[a:b] = np.count_nonzero(hits, axis=1)
        before[a:] += np.count_nonzero(hits, axis=0)
        packed.append((a, b, np.packbits(hits, axis=1)))
        del hits  # before the next tile's are allocated
    core = 1 + after + before >= min_pts
    # Pass 2: border pairs, and core components as a star forest.
    root = np.arange(n)
    border, neighbour = [], []
    held_p, held_q, held = [], [], 0
    for a, b, bits in packed:
        step = max(1, (b - a) * n // max(int(after[a:b].sum()), 1))  # ~n pairs a slice
        for r in range(0, b - a, step):
            # a boolean view: flatnonzero reads uint8 ~3x slower
            hits = np.unpackbits(bits[r:r + step], axis=1, count=n - a).view(bool)
            p, q = np.divmod(np.flatnonzero(hits), n - a)  # 2-D nonzero is ~5x slower
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
