"""The symmetric p-NN similarity matrix **D** of Formula 3.

``d_ij = 1`` iff ``x_i`` is among the ``p`` nearest neighbours of
``x_j`` *or* vice versa, computed over the spatial-information columns
``SI``.  Section II-C also prescribes how to handle missing spatial
cells when building the graph: initialise them with the column mean of
the *observed* entries (this initialisation is used only for the
similarity computation; the actual imputation happens later in the
factorization).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DegenerateDataError
from ..validation import as_matrix, check_mask, check_positive_int
from .neighbors import check_neighbor_method, knn_indices, smallest_p_stable

__all__ = [
    "prepare_spatial_coordinates",
    "knn_neighbors",
    "knn_similarity_matrix",
    "similarity_structure",
]


def prepare_spatial_coordinates(
    spatial: np.ndarray,
    observed: np.ndarray | None = None,
) -> np.ndarray:
    """Fill missing spatial cells with observed column means (Section II-C).

    Parameters
    ----------
    spatial:
        ``(n, L)`` spatial-information block; may contain NaN at
        unobserved cells.
    observed:
        Optional ``(n, L)`` boolean mask of observed cells.  When
        omitted, NaN entries are treated as unobserved.

    Returns
    -------
    ``(n, L)`` array with every cell finite: observed values are kept,
    unobserved ones are replaced by the mean of the observed entries of
    the same column.

    Raises
    ------
    DegenerateDataError:
        If some spatial column has no observed entry at all, the graph
        cannot be anchored and the caller must drop that column.
    """
    spatial = as_matrix(spatial, name="spatial", allow_nan=True, copy=True)
    if observed is None:
        observed_mask = ~np.isnan(spatial)
    else:
        observed_mask = check_mask(observed, spatial.shape, name="observed")
        spatial[~observed_mask] = np.nan
    for j in range(spatial.shape[1]):
        col_observed = observed_mask[:, j]
        if not col_observed.any():
            raise DegenerateDataError(
                f"spatial column {j} has no observed entries; the similarity "
                "graph cannot be built"
            )
        if not col_observed.all():
            fill = float(spatial[col_observed, j].mean())
            spatial[~col_observed, j] = fill
    return spatial


def knn_neighbors(
    spatial: np.ndarray,
    p: int,
    *,
    observed: np.ndarray | None = None,
    method: str = "auto",
    missing_strategy: str = "masked",
) -> np.ndarray:
    """``(n, p)`` neighbour lists behind the Formula 3 graph.

    Row ``i`` holds the ``p`` nearest rows of row ``i``, ordered by
    distance (ties by index).  Parameters as in
    :func:`knn_similarity_matrix`; ``method`` only affects the
    ``"column-mean"`` strategy (the masked search is always brute
    force).
    """
    p = check_positive_int(p, name="p")
    check_neighbor_method(method)
    if missing_strategy not in ("masked", "column-mean"):
        raise ValueError(
            f"unknown missing_strategy {missing_strategy!r}; "
            "use 'masked' or 'column-mean'"
        )
    if missing_strategy == "masked":
        return _masked_knn_indices(spatial, p, observed)
    coords = prepare_spatial_coordinates(spatial, observed)
    return knn_indices(coords, p, method=method)


def similarity_structure(neighbors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of **D** from ``(n, p)`` neighbour lists.

    ``d_ij = 1`` iff ``j`` lists ``i`` or ``i`` lists ``j`` (the "or"
    of Formula 3), with a zero diagonal and every row's column indices
    sorted — the canonical CSR layout of the dense matrix, so the
    values are all ones and need no array of their own.
    """
    n, p = neighbors.shape
    rows = np.repeat(np.arange(n, dtype=np.int64), p)
    cols = neighbors.ravel().astype(np.int64)
    # One int64 key per directed edge, both directions; np.unique sorts
    # them row-major and drops duplicates in one pass.
    keys = np.unique(np.concatenate([rows * n + cols, cols * n + rows]))
    r, c = np.divmod(keys, n)
    off_diagonal = r != c
    r, c = r[off_diagonal], c[off_diagonal]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(r, minlength=n), out=indptr[1:])
    return indptr, c


def knn_similarity_matrix(
    spatial: np.ndarray,
    p: int,
    *,
    observed: np.ndarray | None = None,
    method: str = "auto",
    missing_strategy: str = "masked",
) -> np.ndarray:
    """Build the symmetric 0/1 similarity matrix **D** (Formula 3), dense.

    A dense convenience for small inputs: the models build the same
    matrix sparse (:func:`repro.spatial.graph_cache.spatial_graph`),
    without any ``n x n`` array.

    Parameters
    ----------
    spatial:
        ``(n, L)`` spatial coordinates, possibly with NaNs at missing
        cells.
    p:
        Number of nearest neighbours.
    observed:
        Optional boolean mask of observed spatial cells.
    method:
        Neighbour-search strategy, forwarded to
        :func:`repro.spatial.neighbors.knn_indices`.
    missing_strategy:
        How rows with missing spatial cells enter the neighbour search:
        ``"masked"`` (default) measures the mean squared difference
        over the dimensions observed in *both* rows, so a partially
        observed row is matched on its real coordinates only;
        ``"column-mean"`` reproduces Section II-C literally by
        initialising missing cells with the observed column mean
        before a plain Euclidean search.

    Returns
    -------
    ``(n, n)`` symmetric float array with zero diagonal and
    ``d_ij in {0, 1}``.
    """
    neighbors = knn_neighbors(
        spatial, p, observed=observed, method=method,
        missing_strategy=missing_strategy,
    )
    indptr, indices = similarity_structure(neighbors)
    n = neighbors.shape[0]
    similarity = np.zeros((n, n))
    similarity[np.repeat(np.arange(n), np.diff(indptr)), indices] = 1.0
    return similarity


_BLOCK_ELEMENTS = 1 << 17
"""Distance entries per row block of the masked search (1 MiB per
float64 block): the block holds ``max(1, _BLOCK_ELEMENTS // n)`` rows,
so its scratch stays a few MiB at any ``n``."""


def _masked_knn_indices(
    spatial: np.ndarray,
    p: int,
    observed: np.ndarray | None,
    *,
    block_rows: int | None = None,
) -> np.ndarray:
    """p-NN indices under per-dimension masked RMS distance.

    Rows sharing no observed dimension get infinite mutual distance and
    fall back to the global ordering (they still receive p neighbours,
    chosen among the finite-distance candidates first).

    The distances are evaluated ``block_rows`` rows at a time (default
    from :data:`_BLOCK_ELEMENTS`) and each block's neighbours picked
    with :func:`~repro.spatial.neighbors.smallest_p_stable`, so no
    ``n x n`` array exists.  The squared differences are summed
    directly over the shared dimensions rather than expanded as
    ``|x|^2 + |y|^2 - 2 x.y`` through BLAS products: the expansion's
    rounding depends on how the product is tiled, which reorders
    duplicate coordinates between block sizes, whereas each direct
    entry depends only on its two rows.  With a selection equal to a
    stable argsort, the lists do not depend on the block size, and
    duplicates tie exactly and break by index.
    """
    spatial = as_matrix(spatial, name="spatial", allow_nan=True, copy=True)
    if observed is None:
        obs = ~np.isnan(spatial)
    else:
        obs = check_mask(observed, spatial.shape, name="observed")
    n = spatial.shape[0]
    if p >= n:
        raise DegenerateDataError(
            f"p={p} nearest neighbours requested but only {n} points exist"
        )
    for j in range(spatial.shape[1]):
        if not obs[:, j].any():
            raise DegenerateDataError(
                f"spatial column {j} has no observed entries; the similarity "
                "graph cannot be built"
            )
    if block_rows is None:
        block_rows = max(1, _BLOCK_ELEMENTS // n)
    x = np.where(obs, spatial, 0.0)
    weights = obs.astype(np.float64)
    out = np.empty((n, p), dtype=np.int64)
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        rows = slice(start, stop)
        # Sum over the L dimensions of both-observed (x_i - x_j)^2.
        d2 = np.zeros((stop - start, n))
        common = np.zeros((stop - start, n))
        for k in range(x.shape[1]):
            both = np.multiply.outer(weights[rows, k], weights[:, k])
            common += both
            diff = np.subtract.outer(x[rows, k], x[:, k])
            diff *= diff
            diff *= both
            d2 += diff
        # mean = d2 / common, +inf where no dimension is shared.
        no_common = common == 0.0
        np.maximum(common, 1.0, out=common)
        d2 /= common
        np.copyto(d2, np.inf, where=no_common)
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        out[rows] = smallest_p_stable(d2, p)
    return out
