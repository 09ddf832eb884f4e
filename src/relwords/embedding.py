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
    corpora yield fewer dimensions than requested. Identical documents get
    one coordinate row (``_share_identical_rows``).
    """
    n, t = features.matrix.shape
    if n < 2:
        raise ValueError("need at least 2 documents")
    if max_components < 1:
        raise ValueError("max_components must be >= 1")
    fit = (_fit_primal if t < n else _fit_dual)(features.matrix, max_components)
    _share_identical_rows(features.matrix, fit.coords)
    return fit


def _share_identical_rows(matrix, coords: np.ndarray) -> None:
    """Give each feature row that repeats an earlier one (the same CSR
    indices and values, bit for bit) the earlier row's coordinates, in
    place, in one pass over the rows.

    A dense product gives a row bits that depend on where the row sits among
    the others, so identical documents could differ in the last bits; here
    they are equal by construction, on every path.
    """
    matrix = matrix.tocsr()
    indptr, indices, data = matrix.indptr.tolist(), matrix.indices, matrix.data
    first = {}
    for row, (a, b) in enumerate(zip(indptr, indptr[1:])):
        earlier = first.setdefault((indices[a:b].tobytes(), data[a:b].tobytes()), row)
        if earlier != row:
            coords[row] = coords[earlier]


def _fit_dual(matrix, max_components: int) -> KernelPca:
    gram = _dense_product(matrix, matrix.T)
    scale, col_means, grand = np.trace(gram), gram.mean(axis=0), float(gram.mean())
    # Double-centred in place, in the order of ``gram - col - row + grand``:
    # the same bits as that expression, without a second matrix.
    gram -= col_means[None, :]
    gram -= col_means[:, None]
    gram += grand
    # On the partial path the solve gets the transpose: the same matrix,
    # Fortran-ordered as LAPACK wants it, which it may overwrite instead of a
    # copy. Below it np.linalg.eigh copies its input anyway.
    partial = _partial_solve(gram.shape[0], max_components)
    eigenvalues, eigenvectors = _leading_eigenpairs(
        gram.T if partial else gram, scale, max_components, overwrite=partial
    )
    # A document's coordinate on component k is sqrt(lambda_k) times its
    # entry of the unit eigenvector: their dot products then reproduce the
    # centered Gram on the kept eigenspace.
    coords = eigenvectors * np.sqrt(eigenvalues)[None, :]
    coords *= _pivot_signs(coords)
    return KernelPca(eigenvalues=eigenvalues, coords=coords)


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
    # picks the same sign as the dual path's rule.
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
    ``pipeline.transform`` and sizes the arrays it returns. Once that span
    moves to ``fit_kpca`` (ROADMAP item 16), item 12 deletes it.
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
