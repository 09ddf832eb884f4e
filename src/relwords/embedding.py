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
class KpcaModel:
    """Fitted kernel-PCA state.

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


@dataclass(frozen=True)
class Embedding:
    """Dense N x D matrix of principal coordinates, row k = document k."""

    coords: np.ndarray
    doc_ids: tuple[str, ...]

    def __len__(self) -> int:
        return self.coords.shape[0]


def fit_kpca(features: FeatureMatrix, max_components: int = DEFAULT_COMPONENTS) -> KpcaModel:
    """Fit linear kernel PCA on a feature matrix.

    Builds the Gram matrix of pairwise dot products, double-centers it, and
    eigendecomposes. Keeps at most ``max_components`` components and drops
    eigenvalues below 1e-10 of the largest (rank deficiency), so small
    corpora yield fewer dimensions than requested.
    """
    n = features.matrix.shape[0]
    if n < 2:
        raise ValueError("need at least 2 documents")
    if max_components < 1:
        raise ValueError("max_components must be >= 1")
    gram = np.asarray((features.matrix @ features.matrix.T).todense(), dtype=np.float64)
    col_means = gram.mean(axis=0)
    grand_mean = float(gram.mean())
    centered = gram - col_means[None, :] - col_means[:, None] + grand_mean

    eigenvalues, eigenvectors = np.linalg.eigh(centered)
    eigenvalues = eigenvalues[::-1]
    eigenvectors = eigenvectors[:, ::-1]

    scale = max(float(np.trace(gram)), 0.0)
    if eigenvalues[0] <= scale * _DEGENERATE_RTOL:
        raise ValueError("degenerate corpus: centered Gram matrix has no positive spectrum")

    keep = min(max_components, int(np.sum(eigenvalues > _EIGENVALUE_RTOL * eigenvalues[0])))
    eigenvalues = eigenvalues[:keep].copy()
    dual_coef = eigenvectors[:, :keep] / np.sqrt(eigenvalues)[None, :]

    # Fix each column's sign so the largest-magnitude entry is positive;
    # makes refits bitwise reproducible without affecting dot products.
    for d in range(keep):
        pivot = int(np.argmax(np.abs(dual_coef[:, d])))
        if dual_coef[pivot, d] < 0:
            dual_coef[:, d] = -dual_coef[:, d]

    return KpcaModel(
        eigenvalues=eigenvalues,
        dual_coef=dual_coef,
        column_means=col_means,
        grand_mean=grand_mean,
        training=features,
    )


def transform(model: KpcaModel, features: FeatureMatrix) -> Embedding:
    """Project documents into the fitted principal coordinates.

    Rows are centered kernel evaluations against the training corpus weighted
    by the dual coefficients. Transforming the training matrix itself
    reproduces the centered Gram (restricted to the kept eigenspace) as the
    embedding's pairwise dot products.
    """
    train = model.training.matrix
    if features.matrix.shape[1] != train.shape[1]:
        raise ValueError(
            f"vocabulary dimension mismatch: {features.matrix.shape[1]} != {train.shape[1]}"
        )
    kernel = np.asarray((features.matrix @ train.T).todense(), dtype=np.float64)
    row_means = kernel.mean(axis=1, keepdims=True)
    centered = kernel - row_means - model.column_means[None, :] + model.grand_mean
    coords = centered @ model.dual_coef
    return Embedding(coords=coords, doc_ids=features.doc_ids)


def write_embedding_csv(embedding: Embedding, path) -> None:
    """Dump coordinates as CSV: doc_id followed by the D components."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["doc_id"] + [f"c{d}" for d in range(embedding.coords.shape[1])])
        for doc_id, coords in zip(embedding.doc_ids, embedding.coords.tolist()):
            writer.writerow([doc_id] + [f"{v:.12g}" for v in coords])
