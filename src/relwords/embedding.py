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
class KernelPca:
    """Linear kernel PCA of a corpus: the kept eigenvalues of its centered
    Gram matrix, largest first, and the documents' principal coordinates
    (N x k), whose dot products reproduce that Gram on the kept eigenspace."""

    eigenvalues: np.ndarray
    coords: np.ndarray


@dataclass(frozen=True)
class Embedding:
    """Dense N x D matrix of principal coordinates, row k = document k."""

    coords: np.ndarray
    doc_ids: tuple[str, ...]

    def __len__(self) -> int:
        return self.coords.shape[0]


def fit_kpca(features: FeatureMatrix, max_components: int = DEFAULT_COMPONENTS) -> KernelPca:
    """Fit linear kernel PCA on a feature matrix and embed its documents.

    The eigenproblem is solved on the short side of the N x T matrix: the
    double-centered N x N Gram when N <= T, the centered T x T covariance
    when T < N. Both have the same positive spectrum and give the same
    coordinates. Keeps at most ``max_components`` components and drops
    eigenvalues below 1e-10 of the largest (rank deficiency), so small
    corpora yield fewer dimensions than requested.
    """
    n, t = features.matrix.shape
    if n < 2:
        raise ValueError("need at least 2 documents")
    if max_components < 1:
        raise ValueError("max_components must be >= 1")
    if t < n:
        return _fit_primal(features.matrix, max_components)
    return _fit_dual(features.matrix, max_components)


def _fit_dual(matrix, max_components: int) -> KernelPca:
    gram = np.asarray((matrix @ matrix.T).todense(), dtype=np.float64)
    col_means = gram.mean(axis=0)
    centered = gram - col_means[None, :] - col_means[:, None] + float(gram.mean())
    eigenvalues, eigenvectors = _leading_eigenpairs(centered, np.trace(gram), max_components)
    # Scaled so that eigenvalue * ||column||^2 == 1: the coordinates' dot
    # products then reproduce the centered Gram on the kept eigenspace.
    dual_coef = eigenvectors / np.sqrt(eigenvalues)[None, :]
    dual_coef *= _pivot_signs(dual_coef)
    return KernelPca(eigenvalues=eigenvalues, coords=centered @ dual_coef)


def _fit_primal(matrix, max_components: int) -> KernelPca:
    mean = np.asarray(matrix.mean(axis=0)).ravel()
    covariance = (matrix.T @ matrix).toarray()
    scale = np.trace(covariance)
    covariance -= matrix.shape[0] * np.outer(mean, mean)
    eigenvalues, axes = _leading_eigenpairs(covariance, scale, max_components)
    # The columns of ``axes`` are orthonormal eigenvectors of the centered
    # covariance, so a document's coordinates are its centered row times them.
    axes = np.ascontiguousarray(axes)
    coords = matrix @ axes
    coords -= mean @ axes
    # The coordinates are proportional to the Gram eigenvectors, so this
    # picks the same sign as the dual path's rule on its coefficients.
    coords *= _pivot_signs(coords)
    return KernelPca(eigenvalues=eigenvalues, coords=coords)


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


def transform(model: KernelPca, features: FeatureMatrix) -> Embedding:
    """The fitted documents' coordinates, labelled with their ids.

    It computes nothing. It exists because the benchmark's tracer
    (``perfbench/tracing.py``) times the embedding stage as
    ``pipeline.transform`` and reads the ``Embedding`` it returns.
    """
    return Embedding(coords=model.coords, doc_ids=features.doc_ids)


def write_embedding_csv(embedding: Embedding, path) -> None:
    """Dump coordinates as CSV: doc_id followed by the D components."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["doc_id"] + [f"c{d}" for d in range(embedding.coords.shape[1])])
        for doc_id, coords in zip(embedding.doc_ids, embedding.coords.tolist()):
            writer.writerow([doc_id] + [f"{v:.12g}" for v in coords])
