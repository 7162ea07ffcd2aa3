"""``p``-nearest-neighbour search over spatial coordinates.

The similarity matrix of Formula 3 needs, for every tuple, its ``p``
nearest neighbours on the spatial information ``SI`` (excluding the
tuple itself).  This module dispatches between a brute-force search
over row blocks of the distance matrix (fast for small ``n``) and the
KD-tree (sub-quadratic for large ``n``).  Both brute-force searches in
the package (here and the masked search of
:mod:`repro.spatial.similarity`) select neighbours with
:func:`smallest_p_stable`, which never sorts a whole row.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DegenerateDataError
from ..validation import as_matrix, check_positive_int
from .distances import DISTANCE_CHUNK_ROWS
from .kdtree import KDTree

__all__ = ["check_neighbor_method", "knn_indices", "smallest_p_stable"]

# Below this many points the O(n^2) distance matrix beats tree traversal.
_BRUTE_FORCE_LIMIT = 2048

def check_neighbor_method(method: str) -> str:
    """Return ``method`` if it names a search strategy, else raise ``ValueError``."""
    if method not in ("auto", "brute", "kdtree"):
        raise ValueError(f"unknown method {method!r}; use 'auto', 'brute' or 'kdtree'")
    return method


def smallest_p_stable(values: np.ndarray, p: int) -> np.ndarray:
    """Column indices of the ``p`` smallest entries of every row.

    Exactly ``np.argsort(values, axis=1, kind="stable")[:, :p]``: each
    row's indices come ordered by value, equal values by index.  A
    partition finds each row's ``p + 1`` smallest entries, so only those
    are sorted, not the whole row.  Where the ``p``-th and ``(p+1)``-th
    smallest values tie, the partition's choice among the tied entries
    is arbitrary; those rows alone sort every entry at or below the
    tied value to pick the lowest indices.

    ``values`` must not contain NaN (``inf`` is fine).
    """
    n = values.shape[1]
    if p >= n:
        return np.argsort(values, axis=1, kind="stable")[:, :p].astype(np.int64)
    part = np.argpartition(values, p, axis=1)[:, : p + 1]
    part_values = np.take_along_axis(values, part, axis=1)
    kth = part_values[:, :p].max(axis=1)
    chosen, chosen_values = part[:, :p], part_values[:, :p]
    order = np.lexsort((chosen, chosen_values))
    out = np.take_along_axis(chosen, order, axis=1).astype(np.int64)
    tied = np.flatnonzero(kth == part_values[:, p])
    if tied.size:
        out[tied] = _smallest_p_among_ties(values[tied], kth[tied], p)
    return out


def _smallest_p_among_ties(values: np.ndarray, kth: np.ndarray, p: int) -> np.ndarray:
    """:func:`smallest_p_stable` for rows whose ``p``-th smallest value
    is ``kth``: sorts the entries ``<= kth`` by (row, value, index)."""
    r, c = np.nonzero(values <= kth[:, None])
    order = np.lexsort((c, values[r, c], r))
    counts = np.bincount(r, minlength=values.shape[0])
    starts = np.cumsum(counts) - counts
    first_p = order[(starts[:, None] + np.arange(p)).ravel()]
    return c[first_p].reshape(-1, p)


def knn_indices(
    points: np.ndarray,
    p: int,
    *,
    method: str = "auto",
) -> np.ndarray:
    """Indices of the ``p`` nearest neighbours of each point (self excluded).

    Parameters
    ----------
    points:
        ``(n, d)`` coordinate array.
    p:
        Number of neighbours per point; requires ``p < n``.
    method:
        ``"auto"`` (default) picks brute force below 2048 points and the
        KD-tree above; ``"brute"`` and ``"kdtree"`` force a strategy.

    Returns
    -------
    ``(n, p)`` integer array; row ``i`` holds the neighbour indices of
    point ``i`` ordered by increasing distance.  Ties are broken by
    index for determinism.
    """
    points = as_matrix(points, name="points")
    p = check_positive_int(p, name="p")
    n = points.shape[0]
    if p >= n:
        raise DegenerateDataError(
            f"p={p} nearest neighbours requested but only {n} points exist "
            "(each point needs p other points)"
        )
    check_neighbor_method(method)
    if method == "brute" or (method == "auto" and n <= _BRUTE_FORCE_LIMIT):
        return _knn_brute(points, p)
    return _knn_kdtree(points, p)


def _knn_brute(points: np.ndarray, p: int) -> np.ndarray:
    # Row blocks of DISTANCE_CHUNK_ROWS bound the scratch at chunk x n
    # (one block below that many points).  Squared differences are
    # summed directly per dimension, not expanded as |x|^2 + |y|^2 -
    # 2 x.y through a gemm whose rounding depends on its tiling: each
    # entry then depends only on its two points, so the lists do not
    # depend on the block size and duplicate points tie exactly.
    n = points.shape[0]
    step = min(n, DISTANCE_CHUNK_ROWS)
    out = np.empty((n, p), dtype=np.int64)
    for start in range(0, n, step):
        stop = min(start + step, n)
        block = np.zeros((stop - start, n))
        for k in range(points.shape[1]):
            diff = np.subtract.outer(points[start:stop, k], points[:, k])
            diff *= diff
            block += diff
        block[np.arange(stop - start), np.arange(start, stop)] = np.inf
        out[start:stop] = smallest_p_stable(block, p)
    return out


def _knn_kdtree(points: np.ndarray, p: int) -> np.ndarray:
    tree = KDTree(points)
    # Query k=p+1 because each point finds itself at distance zero.
    _, idx = tree.query(points, k=p + 1)
    n = points.shape[0]
    out = np.empty((n, p), dtype=np.int64)
    for i in range(n):
        row = idx[i]
        row = row[row != i]
        if row.size < p:
            # Duplicate coordinates can push "self" out of the result;
            # refill from the raw candidate list while skipping self.
            row = np.array([j for j in idx[i] if j != i][:p], dtype=np.int64)
        out[i] = row[:p]
    return out
