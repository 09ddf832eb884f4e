from dataclasses import fields

import numpy as np
import pytest
from scipy import sparse

from relwords import embedding
from relwords.embedding import fit_kpca, transform, write_embedding_csv
from relwords.features import FeatureMatrix, Vocabulary

from oracles import kpca_reference


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
        doc_ids=tuple(f"d{k}" for k in range(rows.shape[0])),
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


class TestTransform:
    """The embedding the pipeline clusters, as ``transform`` hands it on."""

    def test_training_gram_reconstruction(self):
        rng = np.random.default_rng(5)
        rows = random_tfidf(rng, 30, 50)
        fm = make_feature_matrix(rows)
        model = fit_kpca(fm, max_components=250)
        coords = transform(model, fm).coords
        reference = centered_gram(rows)
        err = np.linalg.norm(coords @ coords.T - reference) / np.linalg.norm(reference)
        assert err <= 1e-8

    def test_duplicate_documents_identical_rows(self):
        rng = np.random.default_rng(6)
        rows = random_tfidf(rng, 12, 20)
        rows[7] = rows[2]
        fm = make_feature_matrix(rows)
        coords = transform(fit_kpca(fm), fm).coords
        assert np.array_equal(coords[7], coords[2])

    def test_column_sign_flip_leaves_cosines_unchanged(self):
        rng = np.random.default_rng(9)
        fm = make_feature_matrix(random_tfidf(rng, 12, 18))
        model = fit_kpca(fm)
        coords = transform(model, fm).coords
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
    emb = transform(model, fm)
    out = tmp_path / "embedding.csv"
    write_embedding_csv(emb, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "doc_id,c0,c1"
    assert len(lines) == 4
    assert lines[1].startswith("d0,")
