"""Independent reference implementations used to cross-check the fast paths.

These deliberately follow the textbook definitions step by step and share no
code with the library (the word-cloud, bigram and distance references take
only constants and result types from it). Four exceptions keep an earlier
version's code path, so that its successor can be required to give the very
same bits: ``fit_dual_reference``, ``fit_primal_reference`` and
``relevance_from_corpus`` on the library's own functions, and
``pairwise_distances_reference``.
"""

from __future__ import annotations

import re
import warnings
from collections import Counter, deque
from dataclasses import dataclass
from math import ceil, copysign, cos, hypot, sin

import numpy as np
from scipy import sparse

from relwords import clustering
from relwords.embedding import KernelPca, _leading_eigenpairs, _partial_solve, _pivot_signs
from relwords.features import build_vocabulary, term_counts
from relwords.relevance import build_occurrence_index, compute_relevance, score_diff, score_final, score_quot
from relwords.report import (
    _PALETTE,
    _SPIRAL_GROWTH,
    _SPIRAL_STEP,
    CANVAS_HEIGHT,
    CANVAS_WIDTH,
    CHAR_ADVANCE,
    MAX_FONT_PT,
    MIN_FONT_PT,
    CloudEntry,
    WordCloudSpec,
)
from relwords.text import (
    JOINER,
    apply_bigrams,
    normalize_tokenize,
    read_bigrams_csv,
    token_ids,
)

NOISE = -1

# The token rule as a regex: letters and digits only; underscore separates.
TOKEN = re.compile(r"[^\W_]+")


def token_spans_reference(text: str) -> list[tuple[int, int, str]]:
    """(start, end, lowercased token) of each match of ``TOKEN``: split
    first, then lowercase each token on its own."""
    return [(m.start(), m.end(), m.group().lower()) for m in TOKEN.finditer(text)]


def pairwise_distances_reference(coords: np.ndarray) -> np.ndarray:
    """The full symmetric N x N matrix of cosine distances between the rows of
    ``coords``, computed as ``clustering.pairwise_distances`` did while it
    returned that matrix: gemm over row tiles of ``clustering._TILE_ROWS``
    (read at each call, so a test can patch it) against the rows from each
    tile's first one on, the upper triangle mirrored into the lower.

    Rows shorter than ``clustering._NORM_FLOOR`` have no direction and are at
    distance 2 from every other row. Entries lie in [0, 2] and the diagonal
    is exactly 0. ``reference <= eps`` is what ``CosineDistances.hit_tiles``
    decides, except for a pair within float64 rounding of eps.
    """
    n = coords.shape[0]
    norms = np.linalg.norm(coords, axis=1)
    directionless = norms < clustering._NORM_FLOOR
    unit = coords / np.where(directionless, 1.0, norms)[:, None]
    sim = np.empty((n, n))
    rows = clustering._TILE_ROWS
    for a in range(0, n, rows):
        b = min(a + rows, n)
        np.matmul(unit[a:b], unit[a:].T, out=sim[a:b, a:])
        for i in range(a, b - 1):  # the diagonal block: upper triangle into lower
            sim[i + 1:b, i] = sim[i, i + 1:b]
        sim[b:, a:b] = sim[a:b, b:].T
    sim[directionless, :] = -1.0
    sim[:, directionless] = -1.0
    dist = np.subtract(1.0, sim, out=sim)
    np.clip(dist, 0.0, 2.0, out=dist)
    np.fill_diagonal(dist, 0.0)
    return dist


def least_similarity_reference(eps: float) -> float:
    """The least double s with ``1 - s <= eps`` in float64, for 0 < eps < 2:
    ``1 - s`` rounds monotonically, so ``clip(1 - s, 0, 2) <= eps`` holds
    exactly for the similarities at or above it. Found by bisecting the
    doubles in their order: the bits of |s| as an integer, negated for s < 0.
    """

    def double(rank: int) -> float:
        return copysign(float(np.int64(abs(rank)).view(np.float64)), rank)

    low, high = -int(np.float64(2.0).view(np.int64)), int(np.float64(1.0).view(np.int64))
    while high - low > 1:  # 1 - (-2) > eps >= 1 - 1
        middle = (low + high) // 2
        if 1.0 - double(middle) <= eps:
            high = middle
        else:
            low = middle
    return double(high)


@dataclass(frozen=True)
class TiledMatrix:
    """A precomputed distance matrix served as ``clustering.dbscan`` reads its
    argument: a ``shape``, and ``hit_tiles(eps)`` yielding ``(a, b, hits)``
    for each row range of ``clustering._tiles``, hits the strict upper
    triangle of ``matrix[a:b, a:] <= eps``. The matrix need not hold cosine
    distances."""

    matrix: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.matrix.shape

    def hit_tiles(self, eps):
        for a, b in clustering._tiles(self.matrix.shape[0]):
            yield a, b, np.triu(self.matrix[a:b, a:] <= eps, 1)


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
    for k, tokens in enumerate(streams):
        total = len(tokens)
        counts = Counter(t for t in tokens if t in vocab.index)
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


def build_vocabulary_reference(streams, min_df: int) -> tuple[list[str], list[int]]:
    """(terms, document frequencies) from a Counter of each document's set
    of tokens: the tokens in at least ``min_df`` documents, sorted."""
    doc_freq: Counter = Counter()
    for tokens in streams:
        doc_freq.update(set(tokens))
    terms = sorted(term for term, n in doc_freq.items() if n >= min_df)
    return terms, [doc_freq[term] for term in terms]


def occurrence_reference(streams, vocab, labels):
    """(clusters, counts, sizes) by one increment per (document, distinct
    term); NOISE documents are left out and clusters are the sorted labels."""
    kept = sorted({label for label in labels if label != NOISE})
    positions = {label: c for c, label in enumerate(kept)}
    counts = np.zeros((len(kept), len(vocab.terms)), dtype=np.int64)
    sizes = np.zeros(len(kept), dtype=np.int64)
    for tokens, label in zip(streams, labels):
        if label == NOISE:
            continue
        c = positions[label]
        sizes[c] += 1
        for term in set(tokens):
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


def fit_dual_reference(matrix, max_components: int) -> KernelPca:
    """The dual kernel-PCA fit with the Gram as one whole sparse product,
    the centred Gram as a second N x N matrix and the uncentred one kept for
    its trace. On the partial path (``_partial_solve(N, max_components)``)
    the solve works on the transposed centred Gram, as the library's solve
    that overwrites it does. It does not share rows between identical
    documents."""
    gram = np.asarray((matrix @ matrix.T).todense(), dtype=np.float64)
    col_means = gram.mean(axis=0)
    centered = gram - col_means[None, :] - col_means[:, None] + float(gram.mean())
    partial = _partial_solve(matrix.shape[0], max_components)
    eigenvalues, eigenvectors = _leading_eigenpairs(
        centered.T if partial else centered, np.trace(gram), max_components
    )
    coords = eigenvectors * np.sqrt(eigenvalues)[None, :]
    coords *= _pivot_signs(coords)
    return KernelPca(eigenvalues=eigenvalues, coords=coords)


def fit_primal_reference(matrix, max_components: int) -> KernelPca:
    """The primal kernel-PCA fit that keeps its covariance intact through
    the eigensolve, which then works on a copy of it."""
    mean = np.asarray(matrix.mean(axis=0)).ravel()
    covariance = (matrix.T @ matrix).toarray()
    scale = np.trace(covariance)
    covariance -= matrix.shape[0] * np.outer(mean, mean)
    eigenvalues, axes = _leading_eigenpairs(covariance, scale, max_components)
    axes = np.ascontiguousarray(axes)
    coords = matrix @ axes
    coords -= mean @ axes
    coords *= _pivot_signs(coords)
    return KernelPca(eigenvalues=eigenvalues, coords=coords)


def relevance_from_corpus(corpus, bigrams_path, labels, min_df: int):
    """The relevance table of a cluster run derived again from the corpus
    text: tokenize every document, merge the run's ``bigrams.csv``, build the
    vocabulary at ``min_df`` and count occurrences under the run's labels."""
    selected = read_bigrams_csv(bigrams_path.read_bytes())
    streams = [normalize_tokenize(doc.text) for doc in corpus.docs]
    merged = apply_bigrams(token_ids(streams), selected)
    vocab = build_vocabulary(merged, min_df=min_df)
    return compute_relevance(build_occurrence_index(term_counts(merged, vocab.index), vocab, labels))


@dataclass(frozen=True)
class CounterCounts:
    """Corpus-wide unigram counts, adjacent ordered-pair counts, total tokens."""

    unigrams: Counter
    pairs: Counter
    total: int


def count_corpus_reference(streams) -> CounterCounts:
    """The unigrams and within-document adjacent pairs of a corpus, counted
    as strings and string tuples one document at a time."""
    if not streams:
        raise ValueError("empty corpus")
    unigrams: Counter = Counter()
    pairs: Counter = Counter()
    total = 0
    for tokens in streams:
        unigrams.update(tokens)
        pairs.update(zip(tokens, tokens[1:]))
        total += len(tokens)
    return CounterCounts(unigrams, pairs, total)


@dataclass(frozen=True)
class ScoredPair:
    """One bigram candidate of the references: a word pair and its score."""

    first: str
    second: str
    score: float


def score_bigrams_reference(counts: CounterCounts, discount: int = 5) -> list[ScoredPair]:
    """Every pair adjacent more than ``discount`` times, in tuple order,
    scored with Python integers: (joint - discount) * W / (count(a) * count(b))."""
    unigrams, total = counts.unigrams, counts.total
    frequent = ((pair, joint) for pair, joint in counts.pairs.items() if joint > discount)
    candidates = []
    for (first, second), joint in sorted(frequent):
        score = (joint - discount) * total / (unigrams[first] * unigrams[second])
        candidates.append(ScoredPair(first, second, score))
    return candidates


def select_bigrams_reference(candidates: list[ScoredPair], counts: CounterCounts):
    """(selection, threshold) of the bigram selection, with the universe of
    adjacent pairs sorted as tuples: the cut is mean + 2 std of the
    undiscounted scores of ``10 * len(candidates)`` uniform draws from it
    by ``np.random.default_rng(0)``, and the candidates scoring above the
    cut are kept, in their order."""
    unigrams, pairs, total = counts.unigrams, counts.pairs, counts.total
    universe = sorted(pairs)
    rng = np.random.default_rng(0)
    sample = [universe[pick] for pick in rng.integers(0, len(universe), size=10 * len(candidates))]
    baseline = np.array([pairs[(a, b)] * total / (unigrams[a] * unigrams[b]) for a, b in sample])
    threshold = baseline.mean() + 2.0 * baseline.std()
    return [c for c in candidates if c.score > threshold], threshold


def write_bigrams_csv_reference(selected: list[ScoredPair], path) -> None:
    """The bigrams CSV written one row at a time: rows by score descending,
    then by first and second token as Python strings compare; each score
    printed with ``.12g``."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("first,second,score\n")
        for c in sorted(selected, key=lambda c: (-c.score, c.first, c.second)):
            handle.write(f"{c.first},{c.second},{c.score:.12g}\n")


def apply_bigrams_reference(tokens: tuple[str, ...], selected) -> tuple[str, ...]:
    """Selected pairs merged by a left-to-right scan over every position: a
    selected pair starting at a token not yet consumed becomes one token."""
    merged: list[str] = []
    i = 0
    while i < len(tokens):
        if i + 1 < len(tokens) and (tokens[i], tokens[i + 1]) in selected:
            merged.append(tokens[i] + JOINER + tokens[i + 1])
            i += 2
        else:
            merged.append(tokens[i])
            i += 1
    return tuple(merged)


def write_relevance_csv_reference(table, path) -> None:
    """The relevance CSV written one row and one value at a time: rows by
    cluster, then score descending, TPR descending and term ascending; each
    cell's clamped FPR and three scores formed from its own (tpr, fpr_raw)
    pair and printed with ``.12g``."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("cluster,term,tpr,fpr,r_diff,r_quot,r\n")
        for c, cluster in enumerate(table.clusters):
            cells = [(t, f, score_final(t, f)) for t, f in zip(table.tpr[c], table.fpr_raw[c])]
            for i in sorted(range(len(table.terms)), key=lambda i: (-cells[i][2], -cells[i][0], table.terms[i])):
                t, f, r = cells[i]
                values = ",".join(
                    f"{float(v):.12g}" for v in (t, np.minimum(f, 1.0), score_diff(t, f), score_quot(t, f), r)
                )
                handle.write(f"{cluster},{table.terms[i]},{values}\n")


def _boxes_overlap(a, b) -> bool:
    return not (a[2] <= b[0] or b[2] <= a[0] or a[3] <= b[1] or b[3] <= a[1])


def layout_wordcloud_reference(
    ranked,
    *,
    top_k: int = 50,
    width: int = CANVAS_WIDTH,
    height: int = CANVAS_HEIGHT,
    color: str | None = None,
) -> WordCloudSpec:
    """Word-cloud layout by walking the spiral one position at a time and
    testing each candidate box against every placed box in turn."""
    if not ranked:
        raise ValueError("nothing to lay out: empty ranking")
    chosen = [(term, weight) for term, weight in list(ranked)[:top_k] if weight > 0.0]
    if not chosen:
        raise ValueError("nothing to lay out: all scores are zero")
    chosen.sort(key=lambda entry: -entry[1])  # stable: ties keep ranking order
    weights = [w for _, w in chosen]
    w_min, w_max = min(weights), max(weights)
    span = w_max - w_min

    center_x, center_y = width / 2.0, height / 2.0
    max_radius = hypot(width, height) / 2.0
    max_steps = ceil(max_radius / (_SPIRAL_GROWTH * _SPIRAL_STEP)) + 1

    entries: list[CloudEntry] = []
    boxes: list[tuple[float, float, float, float]] = []
    for rank, (term, weight) in enumerate(chosen):
        if span > 0.0:
            size = MIN_FONT_PT + (MAX_FONT_PT - MIN_FONT_PT) * (weight - w_min) / span
        else:
            size = MAX_FONT_PT
        box_w = CHAR_ADVANCE * size * len(term)
        box_h = size
        if box_w > width or box_h > height:
            warnings.warn(f"word {term!r} does not fit the canvas; skipped")
            continue
        placed = None
        for step in range(max_steps):
            theta = step * _SPIRAL_STEP
            radius = _SPIRAL_GROWTH * theta
            x = center_x + radius * cos(theta)
            y = center_y + radius * sin(theta)
            candidate = (x - box_w / 2.0, y - box_h / 2.0, x + box_w / 2.0, y + box_h / 2.0)
            if candidate[0] < 0 or candidate[1] < 0 or candidate[2] > width or candidate[3] > height:
                continue
            if any(_boxes_overlap(candidate, other) for other in boxes):
                continue
            placed = (x, y)
            boxes.append(candidate)
            break
        if placed is None:
            warnings.warn(f"no free position for word {term!r}; skipped")
            continue
        entries.append(
            CloudEntry(
                term=term,
                weight=weight,
                font_size=size,
                x=placed[0],
                y=placed[1],
                color=color if color is not None else _PALETTE[rank % len(_PALETTE)],
            )
        )
    return WordCloudSpec(entries=tuple(entries), width=width, height=height)
