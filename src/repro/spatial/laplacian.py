"""Degree matrix **W** (Formula 4) and graph Laplacian **L = W - D**.

Note the paper's naming is inverted from the common convention: **D**
is the adjacency/similarity matrix and **W** is the diagonal degree
matrix.  We keep the paper's symbols so the update rules (Formulas 13
and 14) read exactly as published:

- numerator term ``lambda * (D @ U)``,
- denominator term ``lambda * (W @ U)``.

The models' build (:func:`sparse_graph_from_points`) assembles **D**
and **L** directly as CSR from the neighbour lists, with **W** kept as
its diagonal vector; :func:`degree_matrix`, :func:`graph_laplacian` and
:func:`laplacian_from_points` are dense conveniences for small inputs
and user-supplied similarity matrices.
"""

from __future__ import annotations

import numpy as np

from ..validation import as_matrix, ValidationError
from .similarity import knn_neighbors, similarity_structure

__all__ = [
    "degree_matrix",
    "dense_operator",
    "graph_laplacian",
    "laplacian_from_points",
    "laplacian_structure",
    "sparse_graph_from_points",
]


def _check_similarity(similarity: np.ndarray) -> np.ndarray:
    sim = as_matrix(similarity, name="similarity")
    if sim.shape[0] != sim.shape[1]:
        raise ValidationError(f"similarity matrix must be square, got {sim.shape}")
    if (sim < 0).any():
        raise ValidationError("similarity matrix must be non-negative")
    if not np.allclose(sim, sim.T):
        raise ValidationError("similarity matrix must be symmetric")
    return sim


def degree_matrix(similarity: np.ndarray) -> np.ndarray:
    """Diagonal degree matrix ``W`` with ``w_ii = sum_t d_it`` (Formula 4)."""
    sim = _check_similarity(similarity)
    return np.diag(sim.sum(axis=1))


def graph_laplacian(similarity: np.ndarray) -> np.ndarray:
    """Graph Laplacian ``L = W - D`` from a similarity matrix ``D``.

    The result is symmetric positive semi-definite with zero row sums,
    which is what makes ``Tr(U^T L U) = 1/2 * sum_ij d_ij |u_i - u_j|^2``
    a valid smoothness penalty (Section II-C).
    """
    sim = _check_similarity(similarity)
    return degree_matrix(sim) - sim


def laplacian_structure(
    indptr: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Degree vector and CSR arrays of ``L = W - D`` from **D**'s CSR.

    ``D`` is 0/1 with a zero diagonal and sorted row indices (as built
    by :func:`repro.spatial.similarity.similarity_structure`), so row
    ``i`` of ``L`` is ``-1`` at each neighbour and ``w_ii`` (the row's
    neighbour count) on the diagonal, inserted in column order.  A row
    with no neighbour (possible when a row shares no observed dimension
    with any other and lists only itself) stores no diagonal entry,
    as the canonical CSR of the dense matrix has none.

    Returns
    -------
    degree, l_indptr, l_indices, l_data:
        The Formula 4 diagonal as a float vector, and ``L`` in
        canonical CSR form.
    """
    n = indptr.shape[0] - 1
    counts = np.diff(indptr)
    degree = counts.astype(np.float64)
    row_of = np.repeat(np.arange(n, dtype=np.int64), counts)
    # Each row with a neighbour gains one diagonal entry, placed after
    # its neighbours with a smaller column index.
    has_diagonal = counts > 0
    l_indptr = indptr.copy()
    np.cumsum(has_diagonal, out=l_indptr[1:])
    l_indptr += indptr
    below = np.bincount(row_of[indices < row_of], minlength=n)
    diagonal = (l_indptr[:-1] + below)[has_diagonal]
    off_diagonal = np.ones(l_indptr[-1], dtype=bool)
    off_diagonal[diagonal] = False
    l_indices = np.empty(l_indptr[-1], dtype=indices.dtype)
    l_indices[off_diagonal] = indices
    l_indices[diagonal] = np.flatnonzero(has_diagonal)
    l_data = np.full(l_indptr[-1], -1.0)
    l_data[diagonal] = degree[has_diagonal]
    return degree, l_indptr, l_indices, l_data


def _csr_operator(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray
) -> object:
    """A square scipy CSR matrix from canonical CSR arrays.

    Falls back to the equal dense array when scipy is not importable
    (scipy is a soft dependency; the dense operator is what the models
    used before the sparse build).
    """
    n = indptr.shape[0] - 1
    try:
        from scipy import sparse
    except ImportError:  # pragma: no cover - scipy is a soft dependency
        dense = np.zeros((n, n))
        dense[np.repeat(np.arange(n), np.diff(indptr)), indices] = data
        return dense
    matrix = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
    matrix.has_sorted_indices = True
    return matrix


def sparse_graph_from_points(
    spatial: np.ndarray,
    p: int,
    *,
    observed: np.ndarray | None = None,
    method: str = "auto",
    missing_strategy: str = "masked",
) -> tuple[object, np.ndarray, object]:
    """Build ``(D, w, L)`` from spatial coordinates with no ``n x n`` array.

    The neighbour search runs in row blocks and the operators are
    assembled directly in CSR form (a dense fallback without scipy).

    Returns
    -------
    similarity, degree, laplacian:
        The Formula 3 matrix **D** and ``L = W - D`` as CSR matrices,
        and the degree vector (the diagonal of the Formula 4 matrix
        **W**).
    """
    neighbors = knn_neighbors(
        spatial, p, observed=observed, method=method,
        missing_strategy=missing_strategy,
    )
    indptr, indices = similarity_structure(neighbors)
    degree, l_indptr, l_indices, l_data = laplacian_structure(indptr, indices)
    similarity = _csr_operator(np.ones(indices.shape[0]), indices, indptr)
    laplacian = _csr_operator(l_data, l_indices, l_indptr)
    return similarity, degree, laplacian


def dense_operator(operator: object) -> np.ndarray:
    """The dense array of a CSR operator (dense input passes through)."""
    return operator if isinstance(operator, np.ndarray) else operator.toarray()


def laplacian_from_points(
    spatial: np.ndarray,
    p: int,
    *,
    observed: np.ndarray | None = None,
    method: str = "auto",
    missing_strategy: str = "masked",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convenience: build dense ``(D, W, L)`` from spatial coordinates.

    Densifies :func:`sparse_graph_from_points`; meant for small inputs
    and tests, since each result is ``n x n``.

    Returns
    -------
    similarity, degree, laplacian:
        The Formula 3 matrix **D**, the Formula 4 matrix **W**, and
        ``L = W - D``.
    """
    similarity, degree, laplacian = sparse_graph_from_points(
        spatial, p, observed=observed, method=method,
        missing_strategy=missing_strategy,
    )
    return dense_operator(similarity), np.diag(degree), dense_operator(laplacian)
