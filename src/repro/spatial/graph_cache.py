"""Content-addressed cache of the spatial similarity/Laplacian build.

The p-NN graph build (Proposition 1's ``N²·L`` term) is a pure
function of the spatial coordinates, the observation mask over them,
``p``, and the neighbour-search options — yet every model fit used to
rebuild it from scratch.  A λ or missing-rate sweep over one dataset
(Figures 6-8) therefore paid the same ``N²`` build once per cell.

This module keeps a small process-local LRU keyed by the SHA-256 of
the exact build inputs (raw coordinate bytes, mask bytes, parameters) —
the same content-addressing discipline as the runner's result cache,
so a hit is *guaranteed* to be the identical matrices.  Entries are
returned read-only and shared between fits; :class:`repro.core.smf.SMF`
pulls from here, which makes the reuse automatic for every runner cell,
λ value, seed, and SMF/SMFL variant that shares a dataset and ``p``.

A miss builds the graph with
:func:`repro.spatial.laplacian.sparse_graph_from_points`: the default
``"masked"`` search evaluates its distances in row blocks with an exact
top-``p`` selection per block, and **D** and ``L = W - D`` are
assembled directly as CSR — no ``N x N`` array is allocated.  The
dense Laplacian that the gradient and stochastic update rules consume
is materialised from the CSR on first request
(:meth:`SpatialGraph.dense_laplacian`) and kept with the entry, so the
multiplicative rule never pays for it.

Hits and misses are counted on the ambient metrics registry
(``spatial_graph_cache.hits`` / ``.misses``, see :mod:`repro.obs`).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..obs.metrics import get_metrics
from .laplacian import dense_operator, sparse_graph_from_points
from .neighbors import check_neighbor_method

__all__ = ["SpatialGraph", "spatial_graph", "clear_graph_cache", "graph_cache_info"]

_MAX_ENTRIES = 16
"""LRU capacity: sweeps touch a handful of (dataset, p) combinations."""

_LOCK = threading.Lock()
_CACHE: "OrderedDict[str, SpatialGraph]" = OrderedDict()


@dataclass(frozen=True, eq=False)
class SpatialGraph:
    """One cached graph build; all arrays are read-only and shared.

    ``similarity`` (the Formula 3 matrix **D**) and ``laplacian``
    (``L = W - D``) are scipy CSR matrices — the ``O(p N K)``
    per-iteration operators — or the equal dense arrays when scipy is
    not importable.  ``degree`` is the degree *vector* (the diagonal of
    the paper's Formula 4 matrix **W**).
    """

    similarity: object
    degree: np.ndarray
    laplacian: object
    _dense_laplacian: np.ndarray | None = field(default=None, init=False, repr=False)

    def dense_laplacian(self) -> np.ndarray:
        """``L`` as a dense read-only array, built on first call and kept.

        Bit-identical to ``laplacian.toarray()``; for the update rules
        that apply the Laplacian as a dense matrix.
        """
        with _LOCK:
            if self._dense_laplacian is None:
                dense = dense_operator(self.laplacian)
                dense.setflags(write=False)
                object.__setattr__(self, "_dense_laplacian", dense)
            return self._dense_laplacian


def _graph_key(
    spatial: np.ndarray,
    p: int,
    observed: np.ndarray | None,
    method: str,
    missing_strategy: str,
) -> str:
    # The masked search is always brute force: ``method`` cannot change
    # its graph, so it stays out of the key there.
    search = method if missing_strategy == "column-mean" else None
    h = hashlib.sha256()
    h.update(repr((spatial.shape, str(spatial.dtype), int(p), search,
                   missing_strategy)).encode())
    h.update(spatial.tobytes())
    if observed is None:
        h.update(b"|mask:none")
    else:
        h.update(b"|mask:")
        h.update(np.packbits(observed).tobytes())
    return h.hexdigest()


def _read_only(operator: object) -> None:
    arrays = (
        (operator,) if isinstance(operator, np.ndarray)
        else (operator.data, operator.indices, operator.indptr)
    )
    for arr in arrays:
        arr.setflags(write=False)


def _build(
    spatial: np.ndarray,
    p: int,
    observed: np.ndarray | None,
    method: str,
    missing_strategy: str,
) -> SpatialGraph:
    similarity, degree, laplacian = sparse_graph_from_points(
        spatial, p, observed=observed, method=method,
        missing_strategy=missing_strategy,
    )
    _read_only(similarity)
    _read_only(laplacian)
    degree.setflags(write=False)
    return SpatialGraph(similarity=similarity, degree=degree, laplacian=laplacian)


def spatial_graph(
    spatial: np.ndarray,
    p: int,
    *,
    observed: np.ndarray | None = None,
    method: str = "auto",
    missing_strategy: str = "masked",
) -> SpatialGraph:
    """The ``(D, W, L)`` build for these exact inputs, cached.

    Same contract as
    :func:`repro.spatial.laplacian.sparse_graph_from_points` (which
    does the building on a miss).  ``method`` is validated but only
    keys and affects the ``"column-mean"`` graph.
    """
    check_neighbor_method(method)
    spatial = np.asarray(spatial, dtype=np.float64)
    key = _graph_key(spatial, p, observed, method, missing_strategy)
    with _LOCK:
        hit = _CACHE.get(key)
        if hit is not None:
            _CACHE.move_to_end(key)
            get_metrics().counter("spatial_graph_cache.hits").inc()
            return hit
    # Build outside the lock: graph construction is the expensive part,
    # and a rare duplicate build is cheaper than serializing all fits.
    built = _build(spatial, p, observed, method, missing_strategy)
    with _LOCK:
        get_metrics().counter("spatial_graph_cache.misses").inc()
        _CACHE[key] = built
        _CACHE.move_to_end(key)
        while len(_CACHE) > _MAX_ENTRIES:
            _CACHE.popitem(last=False)
    return built


def clear_graph_cache() -> None:
    """Drop every cached graph (tests; memory pressure)."""
    with _LOCK:
        _CACHE.clear()


def graph_cache_info() -> dict[str, int]:
    """Current size and capacity (the hit/miss counts live on the
    metrics registry)."""
    with _LOCK:
        return {"entries": len(_CACHE), "capacity": _MAX_ENTRIES}
