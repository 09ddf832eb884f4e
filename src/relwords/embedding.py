"""Linear kernel PCA over tf-idf vectors.

Reducing documents to a few hundred principal coordinates removes noise and
creates overlap between otherwise nearly-orthogonal sparse vectors, which is
what makes cosine-distance clustering productive afterwards.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .features import FeatureMatrix

DEFAULT_COMPONENTS = 250

# Relative cutoff below which trailing eigenvalues are treated as rank
# deficiency rather than signal.
_EIGENVALUE_RTOL = 1e-10
_DEGENERATE_RTOL = 1e-12

# From a side of this many times max_components, computing only the kept
# eigenpairs (LAPACK dsyevr) beats the full decomposition; measured with
# 250 components on a 2-core host, partial/full was 1.1 at 5x and 0.64 at 9.6x.
_PARTIAL_SOLVE_RATIO = 6

# Rows per block of a sparse product written into its dense result: the
# whole sparse product would cost ~12 B per nonzero, up to 1.5x the dense
# matrix. On a 2-core host, of 64, 128, 256 and 512 rows only 128 kept the
# 1k-document bench run at the whole product's peak RSS (256 rows: +0.8 MiB).
_PRODUCT_BLOCK_ROWS = 128

# At most this many blocks of a sparse product are computed at once, so its
# transient memory is at most this many blocks' sparse products, whatever
# the core count.
_MAX_PRODUCT_WORKERS = 4

# Rows of the centred Gram rebuilt at once for the dual coordinates on the
# partial path. The height is fixed, since gemm's bits for a row depend on how
# many rows it multiplies, so the coordinates do not depend on the core count.
# The peak stays the solve's as long as a chunk is smaller than the Gram it
# replaces. Taller chunks leave BLAS's spinning threads fewer product phases to
# slow: on 6k snippets (2-core host) the rebuild's sparse products took 1.3 s
# in 512-row chunks, 1.05 s in 1024 and 0.9 s in 2048 (0.74 s whole), and the
# fit peaked at 392.7 MiB of RSS with 512 and with 2048.
_REBUILD_ROWS = 2048


@dataclass(frozen=True)
class KernelPca:
    """Linear kernel PCA of a corpus: the kept eigenvalues of its centered
    Gram matrix, largest first, and the documents' principal coordinates
    (N x k), whose dot products reproduce that Gram on the kept eigenspace."""

    eigenvalues: np.ndarray
    coords: np.ndarray


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
    left, right = matrix.tocsr(), matrix.T.tocsr()
    gram = _dense_product(left, right)
    n = gram.shape[0]
    scale, col_means, grand = np.trace(gram), gram.mean(axis=0), float(gram.mean())
    _center(gram, col_means, col_means, grand)
    # On the partial path the solve gets the transpose: the same matrix,
    # Fortran-ordered as LAPACK wants it, which it may overwrite instead of a
    # copy. Below it np.linalg.eigh copies its input anyway, so the Gram is
    # kept for the coordinate product there: a rebuild would buy no memory.
    partial = _partial_solve(n, max_components)
    eigenvalues, eigenvectors = _leading_eigenpairs(
        gram.T if partial else gram, scale, max_components, overwrite=partial
    )
    # Scaled so that eigenvalue * ||column||^2 == 1: the coordinates' dot
    # products then reproduce the centered Gram on the kept eigenspace.
    dual_coef = eigenvectors / np.sqrt(eigenvalues)[None, :]
    del eigenvectors  # a view that keeps the whole N x N eigenvector matrix alive
    dual_coef *= _pivot_signs(dual_coef)
    if not partial:
        return KernelPca(eigenvalues=eigenvalues, coords=gram @ dual_coef)
    del gram  # overwritten by the solve
    # The centred Gram rows are rebuilt _REBUILD_ROWS at a time. A one-row
    # chunk would multiply by gemv, whose bits differ from gemm's, so a
    # one-row tail joins the chunk before it. A chunk's features are a view
    # of their rows, as ``left[a:b]`` would copy their nonzeros.
    coords = np.empty((n, dual_coef.shape[1]))
    bounds = [*range(0, n - 1, _REBUILD_ROWS), n]
    for a, b in zip(bounds, bounds[1:]):
        first, last = left.indptr[a], left.indptr[b]
        rows = (left.data[first:last], left.indices[first:last], left.indptr[a : b + 1] - first)
        block = _dense_product(sparse.csr_matrix(rows, shape=(b - a, left.shape[1])), right)
        _center(block, col_means[a:b], col_means, grand)
        coords[a:b] = block @ dual_coef
    return KernelPca(eigenvalues=eigenvalues, coords=coords)


def _center(block: np.ndarray, row_means: np.ndarray, col_means: np.ndarray, grand: float) -> None:
    """Double-centre rows of the Gram in place, in the order of
    ``gram - col - row + grand``: the same bits as that expression, without a
    second matrix."""
    block -= col_means[None, :]
    block -= row_means[:, None]
    block += grand


def _fit_primal(matrix, max_components: int) -> KernelPca:
    n, t = matrix.shape
    mean = np.asarray(matrix.mean(axis=0)).ravel()
    covariance = _dense_product(matrix.T, matrix)
    scale = np.trace(covariance)
    for a in range(0, t, _PRODUCT_BLOCK_ROWS):
        rows = slice(a, a + _PRODUCT_BLOCK_ROWS)
        covariance[rows] -= n * np.outer(mean[rows], mean)
    # The transpose is the same symmetric matrix, Fortran-ordered as LAPACK
    # wants it: the covariance is dead after the solve, which may then
    # overwrite it instead of a copy.
    eigenvalues, axes = _leading_eigenpairs(covariance.T, scale, max_components, overwrite=True)
    del covariance
    # The columns of ``axes`` are orthonormal eigenvectors of the centered
    # covariance, so a document's coordinates are its centered row times them.
    axes = np.ascontiguousarray(axes)
    coords = matrix @ axes
    coords -= mean @ axes
    # The coordinates are proportional to the Gram eigenvectors, so this
    # picks the same sign as the dual path's rule on its coefficients.
    coords *= _pivot_signs(coords)
    return KernelPca(eigenvalues=eigenvalues, coords=coords)


def _dense_product(left, right) -> np.ndarray:
    """``left @ right`` of two sparse matrices as a dense float64 array,
    written one block of at most ``_PRODUCT_BLOCK_ROWS`` rows at a time.

    Each block's rows are the whole product's, bit for bit: both are
    computed row by row from the same CSR operands. So the blocks are
    shared out by a pool of one thread per core the process may run on, at
    most ``_MAX_PRODUCT_WORKERS``, and the result has the same bits for any
    worker count (one is a pool of one). scipy releases the GIL in the
    sparse product. An exception raised in a block is raised here, once
    every worker has stopped.
    """
    left, right = left.tocsr(), right.tocsr()
    n = left.shape[0]
    out = np.empty((n, right.shape[1]))
    blocks = range(0, n, _PRODUCT_BLOCK_ROWS)

    def fill(a: int) -> None:
        b = min(a + _PRODUCT_BLOCK_ROWS, n)
        (left[a:b] @ right).toarray(out=out[a:b])

    with ThreadPoolExecutor(min(_worker_count(), _MAX_PRODUCT_WORKERS, len(blocks))) as pool:
        list(pool.map(fill, blocks))
    return out


def _worker_count() -> int:
    """The number of cores this process may run on: its CPU affinity where
    the platform reports one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _partial_solve(side: int, max_components: int) -> bool:
    """Whether a centered matrix of this side gets the partial eigensolve,
    which computes only the kept eigenpairs, rather than the full one."""
    return side >= _PARTIAL_SOLVE_RATIO * max_components


def _leading_eigenpairs(
    centered: np.ndarray, scale: float, max_components: int, *, overwrite: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Kept eigenpairs of a centered kernel or covariance, largest first.

    ``scale`` is the trace of the uncentered matrix (the squared Frobenius
    norm of the features), against which an all-zero spectrum is detected.
    Once the matrix's side reaches ``_PARTIAL_SOLVE_RATIO * max_components``,
    only the top ``max_components`` eigenpairs are computed; below it, all.
    Either way the kept pairs are the top ones above the rank cutoff. With
    ``overwrite``, the partial solve may destroy a Fortran-ordered matrix
    rather than copy it.
    """
    d = centered.shape[0]
    if _partial_solve(d, max_components):
        # Imported only here: scipy.linalg adds ~8 MiB of resident memory,
        # which the read commands and the smaller fits never need.
        import scipy.linalg

        eigenvalues, eigenvectors = scipy.linalg.eigh(
            centered,
            subset_by_index=[d - max_components, d - 1],
            driver="evr",
            overwrite_a=overwrite,
            check_finite=False,
        )
    else:
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


def transform(model: KernelPca) -> KernelPca:
    """The fitted model, unchanged.

    It computes nothing. It exists because the benchmark's tracer
    (``perfbench/tracing.py``) times the embedding stage as
    ``pipeline.transform`` and sizes the arrays it returns; ROADMAP item 2b
    deletes it once that span moves to ``fit_kpca``.
    """
    return model


def write_embedding_csv(coords: np.ndarray, doc_ids, path) -> None:
    """Dump coordinates as CSV: doc_id followed by the D components; row k
    of ``coords`` is document ``doc_ids[k]``."""
    if len(doc_ids) != coords.shape[0]:
        raise ValueError("doc_ids length does not match coordinate rows")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["doc_id"] + [f"c{d}" for d in range(coords.shape[1])])
        for doc_id, row in zip(doc_ids, coords.tolist()):
            writer.writerow([doc_id] + [f"{v:.12g}" for v in row])
