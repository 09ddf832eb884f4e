import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse

from relwords import embedding
from relwords.embedding import fit_kpca, write_embedding_csv
from relwords.features import FeatureMatrix, Vocabulary

from oracles import fit_dual_reference, fit_primal_reference, kpca_reference


def make_feature_matrix(rows: np.ndarray) -> FeatureMatrix:
    rows = np.asarray(rows, dtype=np.float64)
    terms = tuple(f"t{i:03d}" for i in range(rows.shape[1]))
    vocab = Vocabulary(
        terms=terms,
        index={t: i for i, t in enumerate(terms)},
        doc_freq=np.ones(rows.shape[1], dtype=np.int64),
    )
    return FeatureMatrix(
        matrix=sparse.csr_matrix(rows),
        vocab=vocab,
        counts=sparse.csr_matrix((rows != 0).astype(np.int64)),  # unread by kernel PCA
    )


def centered_gram(rows: np.ndarray) -> np.ndarray:
    gram = rows @ rows.T
    n = gram.shape[0]
    ones = np.full((n, n), 1.0 / n)
    return gram - ones @ gram - gram @ ones + ones @ gram @ ones


def random_tfidf(rng, n, t):
    rows = rng.random((n, t)) * (rng.random((n, t)) < 0.3)
    rows[rows.sum(axis=1) == 0, 0] = rng.random()  # no all-zero doc
    return rows


@pytest.fixture
def solvers(monkeypatch):
    """The eigen-solvers ``fit_kpca`` calls, by name, in call order."""
    called = []
    for name in ("_fit_dual", "_fit_primal"):

        def traced(*args, _name=name, _solver=getattr(embedding, name), **kwargs):
            called.append(_name)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(embedding, name, traced)
    return called


class TestFitKpca:
    def test_identical_documents_degenerate(self):
        fm = make_feature_matrix(np.ones((4, 3)))
        with pytest.raises(ValueError, match="degenerate corpus"):
            fit_kpca(fm)

    def test_all_zero_matrix_degenerate(self):
        fm = make_feature_matrix(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="degenerate corpus"):
            fit_kpca(fm)

    def test_single_document_rejected(self):
        fm = make_feature_matrix(np.ones((1, 3)))
        with pytest.raises(ValueError, match="at least 2"):
            fit_kpca(fm)

    def test_orthogonal_unit_rows(self):
        # Centered Gram of the 3x3 identity is I - J/3: eigenvalues {1, 1, 0},
        # so two components survive and the embedded points are the corners
        # of an equilateral triangle with squared side 2.
        fm = make_feature_matrix(np.eye(3))
        model = fit_kpca(fm)
        assert model.eigenvalues.shape == (2,)
        np.testing.assert_allclose(model.eigenvalues, [1.0, 1.0], atol=1e-12)
        coords = model.coords
        for i in range(3):
            for j in range(i + 1, 3):
                side = np.sum((coords[i] - coords[j]) ** 2)
                assert side == pytest.approx(2.0, abs=1e-10)

    def test_component_cap_applies(self, solvers):
        rng = np.random.default_rng(0)
        model = fit_kpca(make_feature_matrix(random_tfidf(rng, 40, 60)), max_components=10)
        assert model.eigenvalues.shape == (10,)
        assert model.coords.shape == (40, 10)
        model = fit_kpca(make_feature_matrix(random_tfidf(rng, 60, 40)), max_components=10)
        assert model.eigenvalues.shape == (10,)
        assert model.coords.shape == (60, 10)
        assert solvers == ["_fit_dual", "_fit_primal"]

    def test_default_cap_on_large_corpus(self):
        rng = np.random.default_rng(10)
        fm = make_feature_matrix(random_tfidf(rng, 300, 400))
        model = fit_kpca(fm)  # default cap of 250
        assert model.eigenvalues.shape == (250,)

    def test_rank_deficiency_shrinks_components(self):
        rng = np.random.default_rng(1)
        base = random_tfidf(rng, 5, 30)
        rows = np.vstack([base, base + 0.0])  # rank <= 5
        model = fit_kpca(make_feature_matrix(rows), max_components=250)
        assert model.eigenvalues.shape[0] <= 5

    def test_eigenvalues_sorted_descending_positive(self):
        rng = np.random.default_rng(2)
        model = fit_kpca(make_feature_matrix(random_tfidf(rng, 25, 40)))
        assert np.all(model.eigenvalues > 0)
        assert np.all(np.diff(model.eigenvalues) <= 0)

    def test_coordinate_columns_orthogonal_with_eigenvalue_norms(self, solvers):
        # coords.T @ coords == diag(eigenvalues), on both solver paths.
        rng = np.random.default_rng(3)
        for n, t in ((20, 30), (30, 20)):
            model = fit_kpca(make_feature_matrix(random_tfidf(rng, n, t)))
            np.testing.assert_allclose(
                model.coords.T @ model.coords, np.diag(model.eigenvalues), rtol=0, atol=1e-10
            )
        assert solvers == ["_fit_dual", "_fit_primal"]

    def test_refit_is_bitwise_reproducible(self):
        rng = np.random.default_rng(4)
        for n, t in ((15, 25), (25, 15)):
            rows = random_tfidf(rng, n, t)
            first = fit_kpca(make_feature_matrix(rows))
            second = fit_kpca(make_feature_matrix(rows))
            assert type(first) is type(second)
            for field in fields(first):
                value = getattr(first, field.name)
                if isinstance(value, np.ndarray):
                    assert np.array_equal(value, getattr(second, field.name)), field.name

    def test_fit_keeps_no_features_and_at_most_k_columns(self, solvers):
        # Neither path keeps the feature matrix or anything wider than the
        # k kept components: the fit is the eigenvalues and the coordinates.
        rng = np.random.default_rng(11)
        for n, t in ((40, 90), (90, 40)):
            model = fit_kpca(make_feature_matrix(random_tfidf(rng, n, t)), max_components=10)
            k = model.eigenvalues.shape[0]
            for field in fields(model):
                value = getattr(model, field.name)
                assert not isinstance(value, FeatureMatrix) and not sparse.issparse(value), field.name
                assert isinstance(value, np.ndarray) and value.shape[-1] <= k, field.name
        assert solvers == ["_fit_dual", "_fit_primal"]


@pytest.fixture
def eigensolves(monkeypatch):
    """The eigensolvers called, in order: "full" for ``np.linalg.eigh``,
    "partial" for ``scipy.linalg.eigh``."""
    called = []
    full, partial = np.linalg.eigh, scipy.linalg.eigh

    def spy_full(*args, **kwargs):
        called.append("full")
        return full(*args, **kwargs)

    def spy_partial(*args, **kwargs):
        called.append("partial")
        return partial(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy_full)
    monkeypatch.setattr(scipy.linalg, "eigh", spy_partial)
    return called


class TestPartialEigensolve:
    """From a side of ``_PARTIAL_SOLVE_RATIO * max_components`` on, only the
    kept eigenpairs are computed; the fit must stay the textbook one."""

    # (n, t): a 90 x 90 Gram and a 90 x 90 covariance, for 10 components
    SHAPES = [(90, 200), (200, 90)]

    @pytest.mark.parametrize("n, t", SHAPES)
    def test_matches_textbook_reference(self, n, t, solvers, eigensolves):
        # Against the independent oracle: a Gram clobbered by the eigensolve
        # would also corrupt the dual path's coordinates, gram @ dual_coef.
        rows = random_tfidf(np.random.default_rng(n + 7 * t), n, t)
        model = fit_kpca(make_feature_matrix(rows), max_components=10)
        assert solvers == ["_fit_dual" if n <= t else "_fit_primal"]
        assert eigensolves == ["partial"]
        assert model.coords.shape == (n, 10)
        np.testing.assert_allclose(model.coords, kpca_reference(rows, 10), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n, t", SHAPES)
    def test_duplicate_documents_identical_rows(self, n, t, eigensolves):
        rows = random_tfidf(np.random.default_rng(n + t + 1), n, t)
        rows[n // 2] = rows[n // 3]
        coords = fit_kpca(make_feature_matrix(rows), max_components=10).coords
        assert eigensolves == ["partial"]
        assert np.array_equal(coords[n // 2], coords[n // 3])

    @pytest.mark.parametrize("n, t", SHAPES)
    def test_refit_is_bitwise_reproducible(self, n, t, eigensolves):
        rows = random_tfidf(np.random.default_rng(n * t), n, t)
        first = fit_kpca(make_feature_matrix(rows), max_components=10)
        second = fit_kpca(make_feature_matrix(rows), max_components=10)
        assert eigensolves == ["partial", "partial"]
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.coords, second.coords)

    @pytest.mark.parametrize("n, t", [(200, 90), (900, 300)])
    def test_primal_fit_bitwise_equal_to_the_copying_solve(self, n, t, solvers, eigensolves):
        # The primal path lets the partial solve overwrite the covariance
        # instead of a copy of it; not one bit of the fit may move.
        fm = make_feature_matrix(random_tfidf(np.random.default_rng(n - t), n, t))
        model = fit_kpca(fm, max_components=10)
        reference = fit_primal_reference(fm.matrix, 10)
        assert solvers == ["_fit_primal"]
        assert eigensolves == ["partial", "partial"]
        assert np.array_equal(model.eigenvalues, reference.eigenvalues)
        assert np.array_equal(model.coords, reference.coords)

    def test_primal_partial_solve_makes_no_covariance_copy(self, monkeypatch, solvers):
        # numpy reports its allocations to tracemalloc: what the solve
        # allocates beyond what it was given must stay well below a d x d copy
        n, t, k = 900, 300, 10
        fm = make_feature_matrix(random_tfidf(np.random.default_rng(5), n, t))
        partial, grown = scipy.linalg.eigh, []

        def measured(*args, **kwargs):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = partial(*args, **kwargs)
            grown.append(tracemalloc.get_traced_memory()[1] - start)
            return result

        monkeypatch.setattr(scipy.linalg, "eigh", measured)
        tracemalloc.start()
        try:
            fit_kpca(fm, max_components=k)
        finally:
            tracemalloc.stop()
        assert solvers == ["_fit_primal"]
        assert len(grown) == 1 and grown[0] < 0.5 * 8 * t * t

    def test_primal_peak_below_one_and_a_half_covariances(self, monkeypatch, solvers):
        # The covariance is the one t x t matrix: neither the whole sparse
        # product nor the centring term may be alive beside it. (scipy.linalg
        # is imported at the top of this module, so its import allocates
        # nothing under the trace.)
        monkeypatch.setattr(embedding, "_PRODUCT_BLOCK_ROWS", 16)
        n, t, k = 900, 300, 10
        rng = np.random.default_rng(8)
        fm = make_feature_matrix(
            sparse.random(n, t, density=0.05, format="csr", random_state=rng).toarray()
        )
        tracemalloc.start()
        try:
            fit_kpca(fm, max_components=k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert solvers == ["_fit_primal"]
        assert peak < 1.5 * 8 * t * t

    def test_solver_switches_at_the_size_rule(self, solvers, eigensolves):
        k = 10
        threshold = embedding._PARTIAL_SOLVE_RATIO * k
        rng = np.random.default_rng(13)
        for d in (threshold - 1, threshold):
            for n, t in ((d, 3 * d), (3 * d, d)):  # a d x d Gram, a d x d covariance
                eigensolves.clear()
                fit_kpca(make_feature_matrix(random_tfidf(rng, n, t)), max_components=k)
                assert eigensolves == ["full" if d < threshold else "partial"], (n, t)
        assert solvers == ["_fit_dual", "_fit_primal"] * 2

    def test_spectral_reconstruction_on_the_partial_path(self, monkeypatch, eigensolves):
        # Criterion 4's loop with the size rule lowered so every fit takes
        # the partial path. It keeps min(n - 1, t) components, the most the
        # centred spectrum can hold (criterion 4 asks for n, more than the
        # d x d matrix has): every positive component is still kept.
        monkeypatch.setattr(embedding, "_PARTIAL_SOLVE_RATIO", 1)
        rng = np.random.default_rng(2024)
        for trial in range(8):
            n = int(rng.integers(5, 101))
            t = int(rng.integers(10, 150))
            rows = random_tfidf(rng, n, t)
            rows[n // 2] = rows[n // 3]  # plant a duplicate document
            fm = make_feature_matrix(rows)
            eigensolves.clear()
            model = fit_kpca(fm, max_components=min(n - 1, t))
            assert eigensolves == ["partial"], f"trial {trial}"
            coords = model.coords
            reference = centered_gram(rows)
            err = np.linalg.norm(coords @ coords.T - reference) / np.linalg.norm(reference)
            assert err <= 1e-8, f"trial {trial}: relative error {err:.2e}"
            assert np.array_equal(coords[n // 2], coords[n // 3]), f"trial {trial}: duplicates differ"


class TestShortSide:
    """The eigenproblem is solved on the N x N Gram when N <= T and on the
    T x T covariance when T < N; both must give the textbook coordinates."""

    @pytest.mark.parametrize("n, t", [(30, 50), (70, 25)])
    def test_matches_textbook_reference(self, n, t, solvers):
        rng = np.random.default_rng(n * 1000 + t)
        rows = random_tfidf(rng, n, t)
        fm = make_feature_matrix(rows)
        coords = fit_kpca(fm, max_components=min(n, t)).coords
        assert solvers == ["_fit_dual" if n <= t else "_fit_primal"]
        reference = kpca_reference(rows, coords.shape[1])
        assert coords.shape == (n, min(n - 1, t))
        np.testing.assert_allclose(coords, reference, rtol=0, atol=1e-9)

    def test_more_documents_than_terms_reconstruction(self, solvers):
        rng = np.random.default_rng(12)
        n, t = 120, 35
        rows = random_tfidf(rng, n, t)
        rows[n // 2] = rows[n // 3]  # plant a duplicate document
        fm = make_feature_matrix(rows)
        coords = fit_kpca(fm, max_components=n).coords
        assert solvers == ["_fit_primal"]
        reference = centered_gram(rows)
        err = np.linalg.norm(coords @ coords.T - reference) / np.linalg.norm(reference)
        assert err <= 1e-8
        assert np.array_equal(coords[n // 2], coords[n // 3])


class TestDualFitMemory:
    """The dual path centres the Gram in place and lets the full eigenvector
    matrix go before the coordinate product."""

    @staticmethod
    def sparse_features(n, t, density=0.01):
        rng = np.random.default_rng(n + t)
        matrix = sparse.random(n, t, density=density, format="csr", random_state=rng)
        return make_feature_matrix(matrix.toarray())

    @pytest.mark.parametrize("n, t, k", [(60, 400, 250), (300, 900, 10)])
    def test_bitwise_equal_to_the_two_copy_fit(self, n, t, k, solvers):
        fm = self.sparse_features(n, t)
        model = fit_kpca(fm, max_components=k)
        reference = fit_dual_reference(fm.matrix, k)
        assert solvers == ["_fit_dual"]
        assert np.array_equal(model.eigenvalues, reference.eigenvalues)
        assert np.array_equal(model.coords, reference.coords)

    def test_peak_below_two_and_a_half_gram_matrices(self, solvers):
        # The Gram and the partial solver's working copy of it are two
        # N x N float64 matrices; nothing else of that size may be alive
        # with them (below the size rule, the second is eigh's eigenvectors).
        n, k = 300, 10
        fm = self.sparse_features(n, 900)
        tracemalloc.start()
        try:
            fit_kpca(fm, max_components=k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert solvers == ["_fit_dual"]
        assert peak < 2.5 * 8 * n * n

    def test_dense_gram_peak_below_two_and_a_quarter_gram_matrices(self, monkeypatch, solvers):
        # Every entry of this Gram is nonzero, so a whole sparse product of
        # it would cost 1.5 Gram matrices more: beside the Gram and the
        # solver's copy there may be only a block of it.
        monkeypatch.setattr(embedding, "_PRODUCT_BLOCK_ROWS", 16)
        n, k = 300, 10
        fm = self.sparse_features(n, 900, density=0.1)
        tracemalloc.start()
        try:
            fit_kpca(fm, max_components=k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert solvers == ["_fit_dual"]
        assert peak < 2.25 * 8 * n * n


class TestProductBlocks:
    """The d x d matrix is written one block of ``_PRODUCT_BLOCK_ROWS`` rows
    at a time; at any block height the fit is the whole product's, bit for
    bit."""

    @staticmethod
    def features(n, t):
        rows = random_tfidf(np.random.default_rng(n * t), n, t)
        rows[n // 2] = 0.0  # an all-zero document
        rows[:, t // 3] = 0.0  # a term no document uses
        return make_feature_matrix(rows)

    # 43 and 101 are multiples of none of the block heights; k = 5 takes the
    # partial solve, k = 40 the full one
    @pytest.mark.parametrize("block", [1, 3, 7])
    @pytest.mark.parametrize("k", [5, 40])
    def test_dual_fit_bitwise_equal_to_the_whole_product(self, block, k, monkeypatch, solvers):
        monkeypatch.setattr(embedding, "_PRODUCT_BLOCK_ROWS", block)
        fm = self.features(43, 101)
        model = fit_kpca(fm, max_components=k)
        reference = fit_dual_reference(fm.matrix, k)
        assert solvers == ["_fit_dual"]
        for got, want in ((model.eigenvalues, reference.eigenvalues), (model.coords, reference.coords)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("block", [1, 3, 7])
    @pytest.mark.parametrize("k", [5, 40])
    def test_primal_fit_bitwise_equal_to_the_whole_product(self, block, k, monkeypatch, solvers):
        monkeypatch.setattr(embedding, "_PRODUCT_BLOCK_ROWS", block)
        fm = self.features(101, 43)
        model = fit_kpca(fm, max_components=k)
        reference = fit_primal_reference(fm.matrix, k)
        assert solvers == ["_fit_primal"]
        for got, want in ((model.eigenvalues, reference.eigenvalues), (model.coords, reference.coords)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestTransform:
    """The coordinates the pipeline clusters, as ``fit_kpca`` returns them."""

    def test_training_gram_reconstruction(self):
        rng = np.random.default_rng(5)
        rows = random_tfidf(rng, 30, 50)
        fm = make_feature_matrix(rows)
        model = fit_kpca(fm, max_components=250)
        coords = model.coords
        reference = centered_gram(rows)
        err = np.linalg.norm(coords @ coords.T - reference) / np.linalg.norm(reference)
        assert err <= 1e-8

    def test_duplicate_documents_identical_rows(self):
        rng = np.random.default_rng(6)
        rows = random_tfidf(rng, 12, 20)
        rows[7] = rows[2]
        fm = make_feature_matrix(rows)
        coords = fit_kpca(fm).coords
        assert np.array_equal(coords[7], coords[2])

    def test_column_sign_flip_leaves_cosines_unchanged(self):
        rng = np.random.default_rng(9)
        fm = make_feature_matrix(random_tfidf(rng, 12, 18))
        model = fit_kpca(fm)
        coords = model.coords
        flipped = coords.copy()
        flipped[:, 0] = -flipped[:, 0]

        def cosine_matrix(m):
            norms = np.linalg.norm(m, axis=1, keepdims=True)
            return (m / norms) @ (m / norms).T

        np.testing.assert_allclose(
            cosine_matrix(flipped), cosine_matrix(coords), atol=1e-12
        )


def test_embedding_csv_dump(tmp_path):
    fm = make_feature_matrix(np.eye(3))
    model = fit_kpca(fm)
    out = tmp_path / "embedding.csv"
    write_embedding_csv(model.coords, ("d0", "d1", "d2"), out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "doc_id,c0,c1"
    assert len(lines) == 4
    assert lines[1].startswith("d0,")
    with pytest.raises(ValueError, match="doc_ids length"):
        write_embedding_csv(model.coords, ("d0", "d1"), out)
