"""Linear kernel PCA over tf-idf vectors.

Reducing documents to a few hundred principal coordinates removes noise and
creates overlap between otherwise nearly-orthogonal sparse vectors, which is
what makes cosine-distance clustering productive afterwards.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .features import FeatureMatrix

DEFAULT_COMPONENTS = 250

# Relative cutoff below which trailing eigenvalues are treated as rank
# deficiency rather than signal.
_EIGENVALUE_RTOL = 1e-10
_DEGENERATE_RTOL = 1e-12


@dataclass(frozen=True)
class DualKpca:
    """Kernel PCA fitted on the N x N Gram matrix (corpora with N <= T).

    ``dual_coef`` columns are eigenvectors of the double-centered Gram matrix
    scaled so that eigenvalue * ||column||^2 == 1; with that normalization the
    embedded training points reproduce the centered Gram exactly on the kept
    eigenspace. ``column_means``/``grand_mean`` center kernel evaluations of
    new documents against the training corpus.
    """

    eigenvalues: np.ndarray
    dual_coef: np.ndarray
    column_means: np.ndarray
    grand_mean: float
    training: FeatureMatrix

    @property
    def n_terms(self) -> int:
        return self.training.matrix.shape[1]

    def project(self, matrix) -> np.ndarray:
        kernel = np.asarray((matrix @ self.training.matrix.T).todense(), dtype=np.float64)
        row_means = kernel.mean(axis=1, keepdims=True)
        centered = kernel - row_means - self.column_means[None, :] + self.grand_mean
        return centered @ self.dual_coef


@dataclass(frozen=True)
class PrimalKpca:
    """Kernel PCA fitted on the T x T covariance (corpora with T < N).

    ``axes`` columns are orthonormal eigenvectors of the centered covariance
    X_c^T X_c, which has the same positive spectrum as the centered Gram
    X_c X_c^T; a document's coordinates are its centered row times ``axes``.
    Nothing here grows with the number of training documents.
    """

    eigenvalues: np.ndarray
    axes: np.ndarray
    mean: np.ndarray

    @property
    def n_terms(self) -> int:
        return self.mean.shape[0]

    def project(self, matrix) -> np.ndarray:
        coords = matrix @ self.axes
        coords -= self.mean @ self.axes
        return coords


KpcaModel = DualKpca | PrimalKpca


@dataclass(frozen=True)
class Embedding:
    """Dense N x D matrix of principal coordinates, row k = document k."""

    coords: np.ndarray
    doc_ids: tuple[str, ...]

    def __len__(self) -> int:
        return self.coords.shape[0]


def fit_kpca(features: FeatureMatrix, max_components: int = DEFAULT_COMPONENTS) -> KpcaModel:
    """Fit linear kernel PCA on a feature matrix.

    The eigenproblem is solved on the short side of the N x T matrix: the
    double-centered N x N Gram when N <= T, the centered T x T covariance
    when T < N. Both have the same positive spectrum and give the same
    coordinates. Keeps at most ``max_components`` components and drops
    eigenvalues below 1e-10 of the largest (rank deficiency), so small
    corpora yield fewer dimensions than requested.
    """
    n, n_terms = features.matrix.shape
    if n < 2:
        raise ValueError("need at least 2 documents")
    if max_components < 1:
        raise ValueError("max_components must be >= 1")
    if n_terms < n:
        return _fit_primal(features.matrix, max_components)
    return _fit_dual(features, max_components)


def _fit_dual(features: FeatureMatrix, max_components: int) -> DualKpca:
    gram = np.asarray((features.matrix @ features.matrix.T).todense(), dtype=np.float64)
    col_means = gram.mean(axis=0)
    grand_mean = float(gram.mean())
    centered = gram - col_means[None, :] - col_means[:, None] + grand_mean
    eigenvalues, eigenvectors = _leading_eigenpairs(centered, np.trace(gram), max_components)
    dual_coef = eigenvectors / np.sqrt(eigenvalues)[None, :]
    dual_coef *= _pivot_signs(dual_coef)
    return DualKpca(
        eigenvalues=eigenvalues,
        dual_coef=dual_coef,
        column_means=col_means,
        grand_mean=grand_mean,
        training=features,
    )


def _fit_primal(matrix, max_components: int) -> PrimalKpca:
    mean = np.asarray(matrix.mean(axis=0)).ravel()
    covariance = (matrix.T @ matrix).toarray()
    scale = np.trace(covariance)
    covariance -= matrix.shape[0] * np.outer(mean, mean)
    eigenvalues, axes = _leading_eigenpairs(covariance, scale, max_components)
    axes = np.ascontiguousarray(axes)
    # The training coordinates are proportional to the Gram eigenvectors, so
    # this picks the same sign as the dual path's rule on ``dual_coef``.
    axes *= _pivot_signs(matrix @ axes - mean @ axes)
    return PrimalKpca(eigenvalues=eigenvalues, axes=axes, mean=mean)


def _leading_eigenpairs(
    centered: np.ndarray, scale: float, max_components: int
) -> tuple[np.ndarray, np.ndarray]:
    """Kept eigenpairs of a centered kernel or covariance, largest first.

    ``scale`` is the trace of the uncentered matrix (the squared Frobenius
    norm of the features), against which an all-zero spectrum is detected.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(centered)
    eigenvalues = eigenvalues[::-1]
    eigenvectors = eigenvectors[:, ::-1]
    if eigenvalues[0] <= max(float(scale), 0.0) * _DEGENERATE_RTOL:
        raise ValueError("degenerate corpus: centered Gram matrix has no positive spectrum")
    keep = min(max_components, int(np.sum(eigenvalues > _EIGENVALUE_RTOL * eigenvalues[0])))
    return eigenvalues[:keep].copy(), eigenvectors[:, :keep]


def _pivot_signs(columns: np.ndarray) -> np.ndarray:
    """+1 or -1 per column: the sign of the column's largest-magnitude entry
    (the first such entry on ties). Multiplying by it fixes each column's sign
    so refits are bitwise reproducible without affecting dot products."""
    pivots = np.argmax(np.abs(columns), axis=0)
    return np.where(columns[pivots, np.arange(columns.shape[1])] < 0, -1.0, 1.0)


def transform(model: KpcaModel, features: FeatureMatrix) -> Embedding:
    """Project documents into the fitted principal coordinates.

    Transforming the training matrix itself reproduces the centered Gram
    (restricted to the kept eigenspace) as the embedding's pairwise dot
    products. Each row depends only on its own document's features, so
    identical documents get bitwise-identical rows.
    """
    if features.matrix.shape[1] != model.n_terms:
        raise ValueError(
            f"vocabulary dimension mismatch: {features.matrix.shape[1]} != {model.n_terms}"
        )
    return Embedding(coords=model.project(features.matrix), doc_ids=features.doc_ids)


def write_embedding_csv(embedding: Embedding, path) -> None:
    """Dump coordinates as CSV: doc_id followed by the D components."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["doc_id"] + [f"c{d}" for d in range(embedding.coords.shape[1])])
        for doc_id, coords in zip(embedding.doc_ids, embedding.coords.tolist()):
            writer.writerow([doc_id] + [f"{v:.12g}" for v in coords])
