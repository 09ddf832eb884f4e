import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relwords import clustering
from relwords.clustering import (
    DEFAULT_EPS,
    NOISE,
    dbscan,
    pairwise_distances,
    write_labels_csv,
)
from relwords.pipeline import PipelineConfig, run_clustering

from corpora import planted_topic_corpus
from oracles import (
    TiledMatrix,
    dbscan_index_order,
    dbscan_reference,
    least_similarity_reference,
    pairwise_distances_reference,
    partition_of,
    random_distance_matrix,
)


def embedding_of(rows):
    return np.asarray(rows, dtype=np.float64)


def clustered_rows(seed, n, dim):
    """``n`` noisy copies of a few random centres, some rows zero and some
    rows exact (or positively scaled) duplicates of earlier ones."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(int(rng.integers(1, 8)), dim))
    rows = centers[rng.integers(0, len(centers), n)] + rng.normal(scale=0.3, size=(n, dim))
    rows[rng.choice(n, size=max(1, n // 20), replace=False)] = 0.0
    copies = rng.choice(n, size=max(2, n // 5), replace=False)
    rows[copies] = rows[rng.integers(0, n, copies.size)] * rng.choice([1.0, 1.0, 2.5], copies.size)[:, None]
    return rows


def within(rows, eps):
    """``pairwise_distances(rows) <= eps``: the N x N boolean of the hit tiles."""
    return pairwise_distances(embedding_of(rows)) <= eps


def assert_hits_equal(distances, reference, eps):
    """Each hit tile holds the reference's decisions on its strict upper triangle."""
    for a, b, hits in distances.hit_tiles(eps):
        assert np.array_equal(hits, np.triu(reference[a:b, a:] <= eps, 1)), f"tile at row {a}"


EPS_VALUES = (0.05, 0.45, 1.0, 1.9)
BAND_EPS = [1e-12, 0.05, 0.45, 0.5, 1.0 - 2.0**-40, 1.0, float(np.nextafter(2.0, 0.0))]


class TestCosineDistance:
    """The cosine distance of two rows, as ``pairwise_distances`` decides it
    against eps."""

    def test_identical_vectors(self):
        v = [0.3, -1.2, 4.0]
        assert within([v, v], 1e-15)[0, 1]

    def test_orthogonal_vectors(self):
        rows = [[1.0, 0.0], [0.0, 2.0]]
        assert within(rows, 1.0)[0, 1]
        assert not within(rows, np.nextafter(1.0, 0.0))[0, 1]

    def test_opposite_vectors(self):
        v = np.array([1.5, -2.0])
        assert within([v, -v], 2.0)[0, 1]
        assert not within([v, -v], 2.0 - 1e-15)[0, 1]

    def test_zero_vector_convention(self):
        # a zero-norm row is at distance 2 from every other row, another
        # zero row included, and at distance 0 from itself: no eps < 2
        # makes it a neighbour
        zero, v = [0.0, 0.0, 0.0], [1.0, 2.0, 3.0]
        rows = [zero, v, zero, [-1.0, -2.0, -3.0]]
        below = within(rows, np.nextafter(2.0, 0.0))
        assert below[0].tolist() == [True, False, False, False]
        assert below[2].tolist() == [False, False, True, False]
        assert below[:, 0].tolist() == [True, False, False, False]
        assert within(rows, 2.0).all()
        assert np.array_equal(within(rows, 1e-300), np.eye(4, dtype=bool))

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.lists(st.floats(-50, 50), min_size=3, max_size=3),
        b=st.lists(st.floats(-50, 50), min_size=3, max_size=3),
    )
    def test_bounds_and_symmetry(self, a, b):
        # each pair is decided once, so symmetry is the same decision with
        # the two rows in either order; every distance is within 2
        for eps in (1e-12, 0.45, 1.0, np.nextafter(2.0, 0.0)):
            assert within([a, b], eps)[0, 1] == within([b, a], eps)[0, 1]
        assert within([a, b], 2.0).all()


class TestPairwiseDistances:
    def test_identical_rows(self):
        assert within([[1.0, 2.0], [1.0, 2.0]], 1e-12).all()

    def test_known_angles(self):
        angles = [0.0, np.pi / 3, np.pi / 2]
        rows = [[np.cos(a), np.sin(a)] for a in angles]
        for (i, j), distance in {(0, 1): 1 - np.cos(np.pi / 3), (0, 2): 1.0, (1, 2): 1 - np.cos(np.pi / 6)}.items():
            assert within(rows, distance + 1e-12)[i, j]
            assert not within(rows, distance - 1e-12)[i, j]

    def test_bounds_symmetry_zero_diagonal(self):
        # the rows in reverse order give the same decisions, bit for bit: a
        # pair near eps is settled by the same dot product either way
        rng = np.random.default_rng(0)
        rows = embedding_of(rng.normal(size=(40, 7)))
        assert np.array_equal(within(rows, 1e-300), np.eye(40, dtype=bool))
        assert within(rows, 2.0).all()
        for eps in EPS_VALUES:
            assert np.array_equal(within(rows, eps), within(rows[::-1], eps)[::-1, ::-1])

    def test_exact_symmetry_with_zero_and_duplicate_rows(self):
        # the tiles hold the oracle's decisions; mirrored they are exactly
        # symmetric, and a zero row is no other row's neighbour below eps 2
        rows = embedding_of(clustered_rows(1, 601, 17))
        distances = pairwise_distances(rows)
        reference = pairwise_distances_reference(rows)
        zero = np.flatnonzero(~rows.any(axis=1))
        assert zero.size
        for eps in EPS_VALUES:
            assert_hits_equal(distances, reference, eps)
            decided = distances <= eps
            assert np.array_equal(decided, decided.T) and np.diag(decided).all()
            assert np.array_equal(decided[zero], np.eye(601, dtype=bool)[zero])

    @pytest.mark.parametrize("tile", [2, 3, 7, 64])
    def test_tiles_bitwise_equal_to_the_oracle(self, tile, monkeypatch):
        # the oracle's decisions at every tile height, for 45 and 601 rows
        # (a ragged last tile at every height)
        monkeypatch.setattr(clustering, "_TILE_ROWS", tile)
        planted = run_clustering(planted_topic_corpus()[0]).model.coords
        for rows in (planted, embedding_of(clustered_rows(1, 601, 17))):
            distances, reference = pairwise_distances(rows), pairwise_distances_reference(rows)
            for eps in EPS_VALUES:
                assert_hits_equal(distances, reference, eps)

    def test_several_tiles_as_one(self, monkeypatch):
        # the tile height moves no decision: tiles of 7 rows decide every
        # pair as one tile does, and give the pipeline's labels
        result = run_clustering(planted_topic_corpus()[0])
        embeddings = (result.model.coords, embedding_of(clustered_rows(1, 601, 17)))
        whole = [[pairwise_distances(embedding) <= eps for eps in EPS_VALUES] for embedding in embeddings]
        monkeypatch.setattr(clustering, "_TILE_ROWS", 7)  # a ragged last tile for 45 and 601 rows
        for embedding, decided in zip(embeddings, whole):
            for eps, expected in zip(EPS_VALUES, decided):
                assert np.array_equal(pairwise_distances(embedding) <= eps, expected)
        config = PipelineConfig()
        labels = dbscan(pairwise_distances(embeddings[0]), eps=config.eps, min_pts=config.min_pts).labels
        assert np.array_equal(labels, result.assignment.labels)

    def test_symmetric_whatever_a_tile_holds_below_its_diagonal(self, monkeypatch):
        # BLAS need not sum a pair's two products in the same order, so the
        # lower triangle of each tile's diagonal block is never read: with it
        # set to similarity 1 (distance 0, within every eps) the tiles' hits
        # and the labels stay the same
        monkeypatch.setattr(clustering, "_TILE_ROWS", 7)
        embedding = embedding_of(clustered_rows(1, 61, 17))
        reference = pairwise_distances_reference(embedding)
        matmul = np.matmul

        def skewed(a, b, out):
            matmul(a, b, out=out)
            below = np.tril_indices(a.shape[0], -1)
            out[:, :a.shape[0]][below] = 1.0

        monkeypatch.setattr(np, "matmul", skewed)
        distances = pairwise_distances(embedding)
        for eps in (0.05, 0.45, 1.5):
            assert_hits_equal(distances, reference, eps)
            labels, n_clusters = dbscan_index_order(reference, eps, 3)
            assignment = dbscan(distances, eps=eps, min_pts=3)
            assert assignment.labels.tolist() == labels.tolist()
            assert assignment.n_clusters == n_clusters

    def test_within_eps_as_one_boolean(self, monkeypatch):
        # ``dist <= eps`` exists for the benchmark's tracer: the N x N
        # boolean of the oracle's matrix
        monkeypatch.setattr(clustering, "_TILE_ROWS", 7)
        rows = embedding_of(clustered_rows(2, 61, 5))
        reference = pairwise_distances_reference(rows)
        for eps in (0.05, 0.45, 1.0, 1.9):
            within = pairwise_distances(rows) <= eps
            assert within.dtype == bool
            assert np.array_equal(within, reference <= eps)

    def test_sizes_count_the_rows_not_the_pairs(self):
        rows = embedding_of(clustered_rows(3, 300, 11))
        distances = pairwise_distances(rows)
        assert distances.shape == (300, 300)
        assert distances.nbytes == 300 * 11 * 8 + 300


class TestFloat32Band:
    """A tile is one float32 product; only the pairs in a band around
    fl(1 - eps) are settled in float64."""

    @pytest.mark.parametrize("eps", BAND_EPS)
    def test_threshold_identity(self, eps):
        # the oracle's s*: clip(1 - s, 0, 2) <= eps exactly when s >= s*, on
        # s* +- 64 ulps and on random similarities
        s_star = least_similarity_reference(eps)
        near = [s_star]
        for toward in (-math.inf, math.inf):
            s = s_star
            for _ in range(64):
                s = math.nextafter(s, toward)
                near.append(s)
        s = np.concatenate((near, np.random.default_rng(0).uniform(-1.2, 1.2, 100_000)))
        assert np.array_equal(np.clip(1.0 - s, 0.0, 2.0) <= eps, s >= s_star)

    @pytest.mark.parametrize("k", [1, 37, 250])
    def test_band_bounds_cover_the_boundary(self, k):
        # the least similarity within eps, s*, lies within 2^-51 of
        # fl(1 - eps), and the float32 bounds lie outside it by delta more
        delta = clustering._float32_error(k)
        for eps in BAND_EPS + np.random.default_rng(k).uniform(0.0, 2.0, 500).tolist():
            assert abs(least_similarity_reference(eps) - (1.0 - eps)) < 2.0**-51
            low, high = clustering._float32_band(eps, k)
            assert low.dtype == high.dtype == np.float32
            assert float(low) <= 1.0 - eps - delta - 2.0**-51
            assert float(high) >= 1.0 - eps + delta + 2.0**-51

    @pytest.mark.parametrize("k", [2, 37, 250])
    def test_band_pairs_decided_by_the_rule(self, k):
        # row 0 is (1, 0, ...), and row j (s_j, sqrt(1 - s_j^2), 0, ...), so
        # their float64 dot is s_j exactly, with s_j the doubles in [-1, 1]
        # up to 8 steps from s* (the oracle's bisection), all in the band. At eps = 1.0, s* = -2^-53
        # lies 4.4e18 doubles from fl(1 - eps) = 0; at 1 - 2^-40, 5.5e11.
        assert least_similarity_reference(1.0) == -(2.0**-53)
        for eps in BAND_EPS + np.random.default_rng(k).uniform(0.0, 2.0, 50).tolist():
            near = [least_similarity_reference(eps)]
            for toward in (-math.inf, math.inf):
                x = near[0]
                for _ in range(8):
                    x = math.nextafter(x, toward)
                    near.append(x)
            s = np.array([x for x in near if abs(x) <= 1.0])
            unit = np.zeros((1 + s.size, k))
            unit[0, 0] = 1.0
            unit[1:, 0] = s
            unit[1:, 1] = np.sqrt(1.0 - s * s)
            distances = clustering.CosineDistances(unit=unit, directionless=np.zeros(1 + s.size, bool))
            low, high = clustering._float32_band(eps, k)
            assert np.all((low <= s.astype(np.float32)) & (s.astype(np.float32) < high))
            [(_, _, hits)] = distances.hit_tiles(eps)
            assert np.array_equal(hits[0, 1:], np.clip(1.0 - s, 0.0, 2.0) <= eps)
            assert hits[0, 1:].any() and not hits[0, 1:].all()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 2, 37, 250]))
    def test_float32_similarity_within_delta(self, seed, k):
        # random unit rows, some with only positive entries (no cancelling
        # errors) and some near-duplicates, against gemm and against the
        # pair-by-pair dot products that settle the band
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(120, k)) * rng.choice([1e-6, 1.0, 1e6], size=(120, 1))
        rows[:40] = np.abs(rows[:40])
        rows[80:] = rows[:40] + rng.normal(scale=1e-4, size=(40, k)) * np.abs(rows[:40])
        distances = pairwise_distances(rows)
        unit32 = distances.unit.astype(np.float32)
        sim32 = (unit32 @ unit32.T).astype(np.float64)
        delta = clustering._float32_error(k)
        assert np.abs(sim32 - distances.unit @ distances.unit.T).max() <= delta
        settled = np.array([distances._similarity(p, np.arange(120)) for p in range(120)])
        assert np.abs(sim32 - settled).max() <= delta

    @pytest.mark.parametrize("tile", [2, 7, 1024])
    def test_pairs_near_eps_decided_as_the_oracle(self, tile, monkeypatch):
        # pairs planted at cosines 1 - eps +- delta / 2 and +- 2^-30, closer
        # than float32 can tell, clamped to [-1, 1], among random rows; then
        # the exact-eps tie of rows 0 and 3 and the eps just below it
        monkeypatch.setattr(clustering, "_TILE_ROWS", tile)
        rng = np.random.default_rng(tile)
        k = 37
        delta = clustering._float32_error(k)
        for eps in (1e-12, 0.05, 0.45, 0.5, 1.0 - 2.0**-40, 1.0, 1.5):
            planted = []
            for offset in (delta / 2, -delta / 2, 2**-30, -(2**-30)) * 8:
                x, z = np.linalg.qr(rng.normal(size=(k, 2)))[0].T  # orthonormal
                c = min(max(1.0 - eps + offset, -1.0), 1.0)
                planted += [x, c * x + np.sqrt(1 - c * c) * z]
            rows = np.concatenate((planted, rng.normal(size=(20, k))))[rng.permutation(len(planted) + 20)]
            assert np.array_equal(within(rows, eps), pairwise_distances_reference(rows) <= eps)
        t = 0.7
        rows = embedding_of(
            [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [np.cos(t), np.sin(t), 0.0], [0.0, -1.0, 0.0]]
        )
        reference = pairwise_distances_reference(rows)
        for eps in (reference[0, 3], np.nextafter(reference[0, 3], 0.0)):
            assert np.array_equal(within(rows, eps), reference <= eps)

    @pytest.mark.parametrize("n, products", [(300, 1), (1024, 1), (2600, 3)])
    def test_float32_products_per_dbscan(self, n, products, monkeypatch):
        # pass 1 reads each tile once and pass 2 reads its packed hits: one
        # product a tile
        matmul = np.matmul
        dtypes = []

        def counting(a, b, out):
            dtypes.append(out.dtype)
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", counting)
        assert -(-n // clustering._TILE_ROWS) == products
        dbscan(pairwise_distances(embedding_of(clustered_rows(5, n, 20))), eps=DEFAULT_EPS, min_pts=3)
        assert dtypes == [np.float32] * products

    def test_dbscan_reads_the_hit_tiles_once(self, monkeypatch):
        # pass 2 reads pass 1's packed hits, not the tiles again; 45 rows
        # in tiles of 7 leave a ragged last tile
        monkeypatch.setattr(clustering, "_TILE_ROWS", 7)
        hit_tiles = clustering.CosineDistances.hit_tiles
        calls = []

        def counting(self, *args):
            calls.append(args)
            return hit_tiles(self, *args)

        monkeypatch.setattr(clustering.CosineDistances, "hit_tiles", counting)
        dbscan(pairwise_distances(embedding_of(clustered_rows(5, 45, 20))), eps=DEFAULT_EPS, min_pts=3)
        assert calls == [(DEFAULT_EPS,)]

    @pytest.mark.parametrize("eps", [2.0, 7.5])
    def test_every_pair_within_an_eps_of_2(self, eps, monkeypatch):
        # zero rows included
        monkeypatch.setattr(clustering, "_TILE_ROWS", 7)
        rows = embedding_of(clustered_rows(6, 30, 4))
        assignment = dbscan(pairwise_distances(rows), eps=eps, min_pts=30)
        assert assignment.labels.tolist() == [0] * 30 and assignment.n_clusters == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eps", [2.0, float(np.nextafter(2.0, 3.0)), 7.5, 1e300, math.inf])
    def test_hit_tiles_of_an_eps_of_2_or_more_hold_every_pair(self, eps, monkeypatch):
        # zero rows and rows antipodal to others (distance 2) in five tiles;
        # the band of such an eps is the band of 2, so no cast overflows
        monkeypatch.setattr(clustering, "_TILE_ROWS", 7)
        rows = embedding_of(clustered_rows(6, 30, 4))
        rows[[3, 17]] = 0.0
        rows[20:25] = -rows[5:10]
        n = len(rows)
        tiles = list(pairwise_distances(rows).hit_tiles(eps))
        assert [(a, b) for a, b, _ in tiles] == [(0, 7), (7, 14), (14, 21), (21, 28), (28, 30)]
        for a, b, hits in tiles:
            assert np.array_equal(hits, np.triu(np.ones((b - a, n - a), dtype=bool), 1)), f"tile at row {a}"


class TestDbscan:
    def two_blob_matrix(self):
        dist = np.full((6, 6), 0.9)
        for group in (range(3), range(3, 6)):
            for i in group:
                for j in group:
                    dist[i, j] = 0.1
        np.fill_diagonal(dist, 0.0)
        return dist

    def test_two_separated_groups(self):
        assignment = dbscan(TiledMatrix(self.two_blob_matrix()), eps=0.45, min_pts=3)
        assert assignment.n_clusters == 2
        assert assignment.labels.tolist() == [0, 0, 0, 1, 1, 1]

    def test_isolated_point_is_noise(self):
        dist = np.full((5, 5), 0.05)
        dist[4, :] = dist[:, 4] = 1.5
        np.fill_diagonal(dist, 0.0)
        assignment = dbscan(TiledMatrix(dist), eps=0.45, min_pts=3)
        assert assignment.labels[4] == NOISE
        assert assignment.labels[:4].tolist() == [0, 0, 0, 0]

    def test_all_zero_distances_single_cluster(self):
        assignment = dbscan(TiledMatrix(np.zeros((4, 4))), eps=0.45, min_pts=3)
        assert assignment.n_clusters == 1
        assert assignment.labels.tolist() == [0] * 4

    def test_min_pts_counts_the_point_itself(self):
        # Two points at distance 0.1: with min_pts=2 each neighborhood has
        # exactly 2 members, so they cluster; with min_pts=3 both are noise.
        dist = np.array([[0.0, 0.1], [0.1, 0.0]])
        assert dbscan(TiledMatrix(dist), eps=0.45, min_pts=2).n_clusters == 1
        assert dbscan(TiledMatrix(dist), eps=0.45, min_pts=3).labels.tolist() == [NOISE, NOISE]

    def test_cluster_ids_contiguous_in_discovery_order(self):
        assignment = dbscan(TiledMatrix(self.two_blob_matrix()), eps=0.45, min_pts=3)
        first_seen = []
        for label in assignment.labels:
            if label != NOISE and label not in first_seen:
                first_seen.append(label)
        assert first_seen == list(range(assignment.n_clusters))

    def test_every_cluster_has_min_pts_members_and_a_core(self):
        for seed in range(10):
            dist = random_distance_matrix(seed)
            assignment = dbscan(TiledMatrix(dist), eps=0.45, min_pts=3)
            core = (dist <= 0.45).sum(axis=1) >= 3
            for cluster in range(assignment.n_clusters):
                members = assignment.labels == cluster
                assert members.sum() >= 3
                assert core[members].any()

    def test_matches_reference_on_random_instances(self):
        for seed in range(25):
            dist = random_distance_matrix(seed)
            fast = dbscan(TiledMatrix(dist), eps=0.45, min_pts=3).labels
            reference = dbscan_reference(dist, eps=0.45, min_pts=3)
            assert partition_of(fast) == partition_of(reference), f"seed {seed}"

    def test_a_pair_exactly_at_eps_is_a_neighbour(self):
        dist = np.array([[0.0, 0.25, 0.75], [0.25, 0.0, 0.75], [0.75, 0.75, 0.0]])
        assert dbscan(TiledMatrix(dist), eps=0.25, min_pts=2).labels.tolist() == [0, 0, NOISE]
        below = dbscan(TiledMatrix(dist), eps=np.nextafter(0.25, 0.0), min_pts=2)
        assert below.labels.tolist() == [NOISE] * 3 and below.n_clusters == 0

    def test_a_cosine_distance_of_exactly_eps_is_a_neighbour(self, monkeypatch):
        # rows 0 and 3 are the one pair within eps, in a tile of its own
        # row, off the tile's diagonal block; every other pair is 1 or more
        monkeypatch.setattr(clustering, "_TILE_ROWS", 2)
        t = 0.7
        rows = embedding_of(
            [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [np.cos(t), np.sin(t), 0.0], [0.0, -1.0, 0.0]]
        )
        distances = pairwise_distances(rows)
        eps = pairwise_distances_reference(rows)[0, 3]
        assert 0.2 < eps < 0.3
        assignment = dbscan(distances, eps=eps, min_pts=2)
        assert assignment.labels.tolist() == [0, NOISE, NOISE, 0, NOISE] and assignment.n_clusters == 1
        below = dbscan(distances, eps=np.nextafter(eps, 0.0), min_pts=2)
        assert below.labels.tolist() == [NOISE] * 5 and below.n_clusters == 0

    def test_noise_count_never_grows_with_eps(self):
        dist = random_distance_matrix(12)
        noise_counts = [
            int((dbscan(TiledMatrix(dist), eps=eps, min_pts=3).labels == NOISE).sum())
            for eps in np.linspace(0.05, 1.9, 25)
        ]
        assert all(b <= a for a, b in zip(noise_counts, noise_counts[1:]))

    def test_parameter_validation(self):
        dist = TiledMatrix(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="eps"):
            dbscan(dist, eps=0.0)
        with pytest.raises(ValueError, match="min_pts"):
            dbscan(dist, min_pts=0)
        with pytest.raises(ValueError, match="square"):
            dbscan(TiledMatrix(np.zeros((3, 2))))

    def test_nan_eps_rejected(self):
        # no comparison with NaN holds, so ``eps <= 0`` would let it through
        rows = embedding_of(clustered_rows(4, 20, 3))
        with pytest.raises(ValueError, match="eps"):
            dbscan(pairwise_distances(rows), eps=float("nan"))


class TestDbscanIndexOrder:
    """Equal labels and cluster counts, not just the same partition, as
    seeding in index order with breadth-first expansion (the oracle)."""

    @staticmethod
    def assert_index_order(dist, eps, min_pts, distances=None):
        """``dbscan`` reads ``distances``, or the matrix ``dist`` when that is None."""
        labels, n_clusters = dbscan_index_order(dist, eps, min_pts)
        assignment = dbscan(TiledMatrix(dist) if distances is None else distances, eps=eps, min_pts=min_pts)
        assert assignment.labels.dtype == np.int64
        assert assignment.labels.tolist() == labels.tolist()
        assert assignment.n_clusters == n_clusters

    @pytest.mark.parametrize("eps, min_pts", [(0.45, 3), (0.45, 1), (0.2, 2), (0.8, 5), (1.2, 4)])
    def test_criterion_3_matrices(self, eps, min_pts):
        for seed in range(100):
            self.assert_index_order(random_distance_matrix(seed), eps, min_pts)

    @pytest.mark.parametrize("tile", [1, 7])
    def test_criterion_3_matrices_in_small_tiles(self, tile, monkeypatch):
        # The eps-degrees and core-neighbour pairs are gathered per row tile.
        monkeypatch.setattr(clustering, "_TILE_ROWS", tile)
        for eps, min_pts in [(0.45, 3), (0.45, 1), (0.2, 2), (0.8, 5), (1.2, 4)]:
            for seed in range(100):
                self.assert_index_order(random_distance_matrix(seed), eps, min_pts)

    def test_random_embeddings_with_zero_and_duplicate_rows(self):
        for seed in range(60):
            rng = np.random.default_rng(seed)
            rows = clustered_rows(seed, int(rng.integers(20, 150)), int(rng.integers(2, 10)))
            distances = pairwise_distances(embedding_of(rows))
            dist = pairwise_distances_reference(embedding_of(rows))
            for eps in (0.05, 0.2, 0.45, 0.8, 1.5):
                self.assert_index_order(dist, eps, int(rng.integers(1, 6)), distances)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_coordinates_in_several_tiles(self, seed):
        # zero, duplicate and scaled rows; N from a few rows to ~2,600 (up
        # to three tiles of 1024); the oracle's matrix holds the tiles' bits
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1100, 2700)) if seed < 2 else int(rng.integers(2, 400))
        rows = embedding_of(clustered_rows(seed, n, int(rng.integers(2, 12))))
        distances = pairwise_distances(rows)
        dist = pairwise_distances_reference(rows)
        for eps in rng.uniform(0.05, 1.9, size=3):
            min_pts = int(rng.integers(1, 6))
            self.assert_index_order(dist, eps, min_pts, distances)
            labels = dbscan(distances, eps=eps, min_pts=min_pts).labels
            assert partition_of(labels) == partition_of(dbscan_reference(dist, eps, min_pts))

    def test_chain_in_random_index_order(self):
        # one cluster whose core points link only to their two chain
        # neighbours, numbered at random: labels spread over many rounds
        positions = np.random.default_rng(5).permutation(400).astype(np.float64)
        dist = np.abs(positions[:, None] - positions[None, :])
        assignment = dbscan(TiledMatrix(dist), eps=1.0, min_pts=3)
        assert assignment.n_clusters == 1
        assert assignment.labels.tolist() == [0] * 400
        self.assert_index_order(dist, 1.0, 3)

    @pytest.mark.parametrize("order", ["random", "zigzag"])
    def test_chain_rounds_grow_with_log_n(self, order, monkeypatch):
        # Each round scatters minima with one np.minimum.at, so counting
        # those calls counts rounds. Propagating the smallest label along
        # these chains takes 1077 (random) and 1510 (zigzag) rounds.
        n = 3000
        index = np.arange(n)
        positions = {
            "random": np.random.default_rng(5).permutation(n),
            "zigzag": np.where(index % 2 == 0, index // 2, n - 1 - index // 2),  # from both ends in
        }[order].astype(np.float64)
        dist = np.abs(positions[:, None] - positions[None, :])
        calls = []

        class CountingMinimum:
            def at(self, *args):
                calls.append(None)
                return np.minimum.at(*args)

        class CountingNumpy:
            minimum = CountingMinimum()

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(clustering, "np", CountingNumpy())
        self.assert_index_order(dist, 1.0, 3)
        assert 0 < len(calls) <= 2 * int(np.ceil(np.log2(n)))

    def test_no_core_point_all_noise(self):
        dist = np.full((6, 6), 1.0)
        np.fill_diagonal(dist, 0.0)
        assignment = dbscan(TiledMatrix(dist), eps=0.5, min_pts=2)
        assert assignment.labels.tolist() == [NOISE] * 6
        assert assignment.n_clusters == 0
        self.assert_index_order(dist, 0.5, 2)


class TestDbscanMemory:
    """Clustering holds one tile of distances and its boolean, never N x N."""

    @staticmethod
    def traced_peak(rows, eps):
        tracemalloc.start()
        try:
            dbscan(pairwise_distances(rows), eps=eps, min_pts=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_is_one_tile_plus_the_rows(self):
        n = 3000
        rows = embedding_of(clustered_rows(4, n, 50))
        peak = self.traced_peak(rows, DEFAULT_EPS)
        tile = clustering._TILE_ROWS * n * (8 + 1)  # float64 distances and a boolean
        assert peak < tile + 4 * rows.nbytes
        assert peak < 8 * n * n / 2

    def test_a_wide_eps_holds_about_what_the_default_holds(self):
        # at eps 1.9 nearly every pair is within eps; they are taken about
        # N at a time, and those between points already joined are dropped
        rows = embedding_of(clustered_rows(4, 3000, 50))
        assert self.traced_peak(rows, 1.9) < 1.25 * self.traced_peak(rows, DEFAULT_EPS)

    @pytest.mark.parametrize("eps", [DEFAULT_EPS, 1.9])
    def test_peak_is_one_float32_tile_three_booleans_and_the_rows(self, eps):
        # a float32 tile, its hits and its band; no tile's hits are kept
        # whole, and the packed hits of all tiles are 0.56 MB at 3,000 rows
        n = 3000
        rows = embedding_of(clustered_rows(4, n, 50))
        assert self.traced_peak(rows, eps) < clustering._TILE_ROWS * n * (4 + 3) + rows.nbytes


def test_labels_csv_renders_noise_as_minus_one(tmp_path):
    dist = np.full((5, 5), 0.05)
    dist[4, :] = dist[:, 4] = 1.5
    np.fill_diagonal(dist, 0.0)
    assignment = dbscan(TiledMatrix(dist), eps=0.45, min_pts=3)
    out = tmp_path / "labels.csv"
    write_labels_csv(assignment, [f"doc{i}" for i in range(5)], out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "doc_id,label"
    assert lines[-1] == "doc4,-1"
