import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relwords import clustering
from relwords.clustering import (
    NOISE,
    dbscan,
    pairwise_distances,
    write_labels_csv,
)
from relwords.pipeline import PipelineConfig, run_clustering

from corpora import planted_topic_corpus
from oracles import dbscan_index_order, dbscan_reference, partition_of, random_distance_matrix


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


class TestCosineDistance:
    """The cosine distance of two rows, as ``pairwise_distances`` computes it."""

    def test_identical_vectors(self):
        v = [0.3, -1.2, 4.0]
        assert pairwise_distances(embedding_of([v, v]))[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_vectors(self):
        assert pairwise_distances(embedding_of([[1.0, 0.0], [0.0, 2.0]]))[0, 1] == 1.0

    def test_opposite_vectors(self):
        v = np.array([1.5, -2.0])
        assert pairwise_distances(embedding_of([v, -v]))[0, 1] == pytest.approx(2.0, abs=1e-15)

    def test_zero_vector_convention(self):
        # a zero-norm row is at distance 1 from every other row, another
        # zero row included, and at distance 0 from itself
        zero, v = [0.0, 0.0, 0.0], [1.0, 2.0, 3.0]
        dist = pairwise_distances(embedding_of([zero, v, zero, [-1.0, -2.0, -3.0]]))
        assert dist[0].tolist() == [0.0, 1.0, 1.0, 1.0]
        assert dist[2].tolist() == [1.0, 1.0, 0.0, 1.0]
        assert dist[:, 0].tolist() == [0.0, 1.0, 1.0, 1.0]
        assert np.diag(dist).tolist() == [0.0] * 4

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.lists(st.floats(-50, 50), min_size=3, max_size=3),
        b=st.lists(st.floats(-50, 50), min_size=3, max_size=3),
    )
    def test_bounds_and_symmetry(self, a, b):
        dist = pairwise_distances(embedding_of([a, b]))
        assert 0.0 <= dist[0, 1] <= 2.0
        assert dist[0, 1] == dist[1, 0]


class TestPairwiseDistances:
    def test_identical_rows(self):
        dist = pairwise_distances(embedding_of([[1.0, 2.0], [1.0, 2.0]]))
        np.testing.assert_allclose(dist, np.zeros((2, 2)), atol=1e-12)

    def test_known_angles(self):
        angles = [0.0, np.pi / 3, np.pi / 2]
        rows = [[np.cos(a), np.sin(a)] for a in angles]
        dist = pairwise_distances(embedding_of(rows))
        assert dist[0, 1] == pytest.approx(1 - np.cos(np.pi / 3), abs=1e-12)
        assert dist[0, 2] == pytest.approx(1.0, abs=1e-12)
        assert dist[1, 2] == pytest.approx(1 - np.cos(np.pi / 6), abs=1e-12)

    def test_bounds_symmetry_zero_diagonal(self):
        rng = np.random.default_rng(0)
        dist = pairwise_distances(embedding_of(rng.normal(size=(40, 7))))
        assert np.array_equal(dist, dist.T)  # exact symmetry
        assert np.all(np.diag(dist) == 0.0)
        assert dist.min() >= 0.0 and dist.max() <= 2.0

    def test_exact_symmetry_with_zero_and_duplicate_rows(self):
        # the product itself must be symmetric: nothing mirrors it
        dist = pairwise_distances(embedding_of(clustered_rows(1, 601, 17)))
        assert np.array_equal(dist, dist.T)
        assert np.all(np.diag(dist) == 0.0)
        assert dist.min() >= 0.0 and dist.max() <= 2.0

    def test_several_tiles_as_one(self, monkeypatch):
        result = run_clustering(planted_topic_corpus()[0])
        embeddings = (result.model.coords, embedding_of(clustered_rows(1, 601, 17)))
        whole = [pairwise_distances(embedding) for embedding in embeddings]
        monkeypatch.setattr(clustering, "_TILE_ROWS", 7)  # a ragged last tile for 45 and 601 rows
        tiled = [pairwise_distances(embedding) for embedding in embeddings]
        for dist, reference in zip(tiled, whole):
            assert np.array_equal(dist, dist.T)
            assert np.all(np.diag(dist) == 0.0)
            assert np.abs(dist - reference).max() <= 1e-12
        config = PipelineConfig()
        labels = dbscan(tiled[0], eps=config.eps, min_pts=config.min_pts).labels
        assert np.array_equal(labels, result.assignment.labels)

    def test_symmetric_whatever_a_tile_holds_below_its_diagonal(self, monkeypatch):
        # BLAS need not sum a pair's two products in the same order; the
        # lower triangle of each diagonal block is overwritten, not trusted
        monkeypatch.setattr(clustering, "_TILE_ROWS", 7)
        embedding = embedding_of(clustered_rows(1, 61, 17))
        reference = pairwise_distances(embedding)
        matmul = np.matmul

        def skewed(a, b, out):
            matmul(a, b, out=out)
            below = np.tril_indices(a.shape[0], -1)
            out[:, :a.shape[0]][below] += 1e-9

        monkeypatch.setattr(np, "matmul", skewed)
        dist = pairwise_distances(embedding)
        monkeypatch.undo()
        assert np.array_equal(dist, reference)


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
        assignment = dbscan(self.two_blob_matrix(), eps=0.45, min_pts=3)
        assert assignment.n_clusters == 2
        assert assignment.labels.tolist() == [0, 0, 0, 1, 1, 1]

    def test_isolated_point_is_noise(self):
        dist = np.full((5, 5), 0.05)
        dist[4, :] = dist[:, 4] = 1.5
        np.fill_diagonal(dist, 0.0)
        assignment = dbscan(dist, eps=0.45, min_pts=3)
        assert assignment.labels[4] == NOISE
        assert assignment.labels[:4].tolist() == [0, 0, 0, 0]

    def test_all_zero_distances_single_cluster(self):
        assignment = dbscan(np.zeros((4, 4)), eps=0.45, min_pts=3)
        assert assignment.n_clusters == 1
        assert assignment.labels.tolist() == [0] * 4

    def test_min_pts_counts_the_point_itself(self):
        # Two points at distance 0.1: with min_pts=2 each neighborhood has
        # exactly 2 members, so they cluster; with min_pts=3 both are noise.
        dist = np.array([[0.0, 0.1], [0.1, 0.0]])
        assert dbscan(dist, eps=0.45, min_pts=2).n_clusters == 1
        assert dbscan(dist, eps=0.45, min_pts=3).labels.tolist() == [NOISE, NOISE]

    def test_cluster_ids_contiguous_in_discovery_order(self):
        assignment = dbscan(self.two_blob_matrix(), eps=0.45, min_pts=3)
        first_seen = []
        for label in assignment.labels:
            if label != NOISE and label not in first_seen:
                first_seen.append(label)
        assert first_seen == list(range(assignment.n_clusters))

    def test_every_cluster_has_min_pts_members_and_a_core(self):
        for seed in range(10):
            dist = random_distance_matrix(seed)
            assignment = dbscan(dist, eps=0.45, min_pts=3)
            core = (dist <= 0.45).sum(axis=1) >= 3
            for cluster in range(assignment.n_clusters):
                members = assignment.labels == cluster
                assert members.sum() >= 3
                assert core[members].any()

    def test_matches_reference_on_random_instances(self):
        for seed in range(25):
            dist = random_distance_matrix(seed)
            fast = dbscan(dist, eps=0.45, min_pts=3).labels
            reference = dbscan_reference(dist, eps=0.45, min_pts=3)
            assert partition_of(fast) == partition_of(reference), f"seed {seed}"

    def test_a_pair_exactly_at_eps_is_a_neighbour(self):
        dist = np.array([[0.0, 0.25, 0.75], [0.25, 0.0, 0.75], [0.75, 0.75, 0.0]])
        assert dbscan(dist, eps=0.25, min_pts=2).labels.tolist() == [0, 0, NOISE]
        below = dbscan(dist, eps=np.nextafter(0.25, 0.0), min_pts=2)
        assert below.labels.tolist() == [NOISE] * 3 and below.n_clusters == 0

    def test_noise_count_never_grows_with_eps(self):
        dist = random_distance_matrix(12)
        noise_counts = [
            int((dbscan(dist, eps=eps, min_pts=3).labels == NOISE).sum())
            for eps in np.linspace(0.05, 1.9, 25)
        ]
        assert all(b <= a for a, b in zip(noise_counts, noise_counts[1:]))

    def test_parameter_validation(self):
        dist = np.zeros((3, 3))
        with pytest.raises(ValueError, match="eps"):
            dbscan(dist, eps=0.0)
        with pytest.raises(ValueError, match="min_pts"):
            dbscan(dist, min_pts=0)
        with pytest.raises(ValueError, match="square"):
            dbscan(np.zeros((3, 2)))


class TestDbscanIndexOrder:
    """Equal labels and cluster counts, not just the same partition, as
    seeding in index order with breadth-first expansion (the oracle)."""

    @staticmethod
    def assert_index_order(dist, eps, min_pts):
        labels, n_clusters = dbscan_index_order(dist, eps, min_pts)
        assignment = dbscan(dist, eps=eps, min_pts=min_pts)
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
            dist = pairwise_distances(embedding_of(rows))
            for eps in (0.05, 0.2, 0.45, 0.8, 1.5):
                self.assert_index_order(dist, eps, int(rng.integers(1, 6)))

    def test_chain_in_random_index_order(self):
        # one cluster whose core points link only to their two chain
        # neighbours, numbered at random: labels spread over many rounds
        positions = np.random.default_rng(5).permutation(400).astype(np.float64)
        dist = np.abs(positions[:, None] - positions[None, :])
        assignment = dbscan(dist, eps=1.0, min_pts=3)
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
        assignment = dbscan(dist, eps=0.5, min_pts=2)
        assert assignment.labels.tolist() == [NOISE] * 6
        assert assignment.n_clusters == 0
        self.assert_index_order(dist, 0.5, 2)


def test_labels_csv_renders_noise_as_minus_one(tmp_path):
    dist = np.full((5, 5), 0.05)
    dist[4, :] = dist[:, 4] = 1.5
    np.fill_diagonal(dist, 0.0)
    assignment = dbscan(dist, eps=0.45, min_pts=3)
    out = tmp_path / "labels.csv"
    write_labels_csv(assignment, [f"doc{i}" for i in range(5)], out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "doc_id,label"
    assert lines[-1] == "doc4,-1"
