"""The row-blocked, CSR-only graph build against dense oracles.

The oracle below is the full-matrix build: the masked ``n x n``
distance matrix, a stable argsort of every row, the dense "or"
symmetrisation of Formula 3, and ``L = diag(W) - D``.  The blocked
build must reproduce its neighbour lists, its CSR arrays and its
degree vector exactly, for every block size.

The oracle sums the masked squared differences directly, as the build
does.  The earlier full-matrix build expanded them as
``|x|^2 + |y|^2 - 2 x.y`` through BLAS products, whose rounding at
duplicate coordinates depends on the product's tiling;
:func:`expansion_neighbors` keeps that build to show the generated
datasets' graphs are unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import load_dataset
from repro.masking import MissingSpec, inject_missing
from repro.spatial.laplacian import sparse_graph_from_points
from repro.spatial.neighbors import smallest_p_stable
from repro.spatial.similarity import _masked_knn_indices

sparse = pytest.importorskip("scipy.sparse")


def _argsort_p(mean_d2: np.ndarray, p: int) -> np.ndarray:
    np.fill_diagonal(mean_d2, np.inf)
    return np.argsort(mean_d2, axis=1, kind="stable")[:, :p]


def oracle_neighbors(spatial: np.ndarray, p: int, obs: np.ndarray) -> np.ndarray:
    """Masked p-NN by a stable argsort over the full distance matrix."""
    x = np.where(obs, spatial, 0.0)
    both = obs[:, None, :] & obs[None, :, :]
    diff = np.where(both, x[:, None, :] - x[None, :, :], 0.0)
    d2 = (diff**2).sum(axis=2)
    common = both.sum(axis=2)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_d2 = np.where(common > 0, d2 / np.maximum(common, 1), np.inf)
    return _argsort_p(mean_d2, p)


def expansion_neighbors(spatial: np.ndarray, p: int, obs: np.ndarray) -> np.ndarray:
    """The earlier full-matrix build: expanded distances via BLAS."""
    x = np.where(obs, spatial, 0.0)
    weights = obs.astype(np.float64)
    cross = (x * weights) @ (x * weights).T
    sq = (x**2 * weights) @ weights.T
    common = weights @ weights.T
    d2 = sq + sq.T - 2.0 * cross
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_d2 = np.where(common > 0, d2 / np.maximum(common, 1.0), np.inf)
    np.maximum(mean_d2, 0.0, out=mean_d2)
    return _argsort_p(mean_d2, p)


def oracle_graph(spatial: np.ndarray, p: int, obs: np.ndarray):
    """Dense (D, W, L) of Formula 3/4 from the oracle neighbour lists."""
    neighbors = oracle_neighbors(spatial, p, obs)
    n = neighbors.shape[0]
    similarity = np.zeros((n, n))
    similarity[np.repeat(np.arange(n), p), neighbors.ravel()] = 1.0
    np.maximum(similarity, similarity.T, out=similarity)
    np.fill_diagonal(similarity, 0.0)
    degree = np.diag(similarity.sum(axis=1))
    return similarity, degree, degree - similarity


def assert_same_csr(actual, expected_dense: np.ndarray) -> None:
    expected = sparse.csr_matrix(expected_dense)
    for name in ("data", "indices", "indptr"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


@st.composite
def spatial_cases(draw):
    """Coordinates with ties, duplicates, partial masks and isolated rows."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(3, 70))
    dims = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["grid", "duplicates", "uniform"]))
    if kind == "grid":
        # Small integer grid: exact distances, many ties at the p-th.
        spatial = rng.integers(0, 4, size=(n, dims)).astype(np.float64)
    elif kind == "duplicates":
        distinct = rng.random((max(1, n // 3), dims))
        spatial = distinct[rng.integers(0, distinct.shape[0], size=n)]
    else:
        spatial = rng.random((n, dims)) * 10.0
    obs = rng.random((n, dims)) > draw(st.sampled_from([0.0, 0.2, 0.5]))
    if dims > 1 and draw(st.booleans()):
        # Rows observed only in disjoint dimensions share none with
        # each other (infinite mutual distance).
        half = n // 2
        obs[:half] = False
        obs[:half, 0] = True
        obs[half:, 0] = False
        obs[half:, 1:] = True
    obs[np.arange(dims), np.arange(dims)] = True  # every column observed once
    spatial = np.where(obs, spatial, np.nan)
    p = draw(st.integers(1, min(8, n - 1)))
    block_rows = draw(st.integers(1, n + 3))
    return spatial, obs, p, block_rows


class TestAgainstDenseOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=spatial_cases())
    def test_neighbour_lists_match_stable_argsort(self, case):
        spatial, obs, p, block_rows = case
        expected = oracle_neighbors(spatial, p, obs)
        got = _masked_knn_indices(spatial, p, obs, block_rows=block_rows)
        assert np.array_equal(got, expected)

    @settings(max_examples=60, deadline=None)
    @given(case=spatial_cases())
    def test_csr_operators_and_degree_match(self, case):
        spatial, obs, p, _ = case
        similarity, degree, laplacian = oracle_graph(spatial, p, obs)
        d_csr, w, l_csr = sparse_graph_from_points(spatial, p, observed=obs)
        assert_same_csr(d_csr, similarity)
        assert_same_csr(l_csr, laplacian)
        assert w.dtype == np.float64
        assert np.array_equal(w, np.diag(degree))
        assert np.array_equal(l_csr.toarray(), laplacian)

    @pytest.mark.parametrize("block_rows", [1, 7, 64, 500])
    def test_block_size_not_dividing_n(self, block_rows):
        rng = np.random.default_rng(7)
        n = 211
        spatial = rng.integers(0, 6, size=(n, 2)).astype(np.float64)
        obs = rng.random((n, 2)) > 0.15
        obs[0] = True
        expected = oracle_neighbors(spatial, 5, obs)
        got = _masked_knn_indices(
            np.where(obs, spatial, np.nan), 5, obs, block_rows=block_rows
        )
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("name", ["lake", "farm", "vehicle", "economic"])
    def test_generated_graphs_match_expansion_build(self, name):
        data = load_dataset(name, n_rows=400, random_state=1)
        x, mask = inject_missing(data.values, MissingSpec(missing_rate=0.2), random_state=2)
        spatial = x[:, : data.n_spatial]
        obs = mask.observed[:, : data.n_spatial]
        for p in (1, 3, 5, 8):
            expected = expansion_neighbors(spatial, p, obs)
            for block_rows in (None, 37):
                got = _masked_knn_indices(spatial, p, obs, block_rows=block_rows)
                assert np.array_equal(got, expected), (p, block_rows)

    def test_duplicates_tie_exactly_and_break_by_index(self):
        rng = np.random.default_rng(5)
        distinct = rng.random((4, 2)) * 100.0
        spatial = distinct[np.arange(40) % 4]
        got = _masked_knn_indices(spatial, 3, np.ones_like(spatial, dtype=bool), block_rows=3)
        # Row i's copies sit at i +- 4, +- 8, ...: the three lowest
        # other indices of its residue class.
        for i in range(40):
            copies = [j for j in range(i % 4, 40, 4) if j != i]
            assert list(got[i]) == copies[:3]

    def test_isolated_row_has_zero_degree_and_no_stored_entry(self):
        # Row 0 shares no dimension with any row: its +inf candidates
        # break by index, so it lists only itself, which the zero
        # diagonal drops; nobody lists it back.
        spatial = np.array([[3.0, np.nan], [np.nan, 1.0], [np.nan, 2.0], [np.nan, 4.0]])
        obs = ~np.isnan(spatial)
        similarity, _, laplacian = oracle_graph(spatial, 1, obs)
        d_csr, w, l_csr = sparse_graph_from_points(spatial, 1, observed=obs)
        assert w[0] == 0.0
        assert l_csr.indptr[1] == 0
        assert_same_csr(d_csr, similarity)
        assert_same_csr(l_csr, laplacian)

    def test_row_sharing_no_dimension_still_gets_p_neighbours(self):
        spatial = np.array([[0.0, np.nan], [1.0, np.nan], [2.0, np.nan],
                            [np.nan, 5.0], [np.nan, 6.0]])
        obs = ~np.isnan(spatial)
        got = _masked_knn_indices(spatial, 3, obs, block_rows=2)
        assert np.array_equal(got, oracle_neighbors(spatial, 3, obs))
        # Row 3 shares a dimension with row 4 only; its other candidates
        # are all +inf and follow in index order.
        assert list(got[3]) == [4, 0, 1]


class TestSmallestPStable:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 12),
        cols=st.integers(1, 40),
        levels=st.sampled_from([2, 5, 1000]),
        p=st.integers(1, 9),
    )
    def test_equals_stable_argsort(self, seed, rows, cols, levels, p):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, levels, size=(rows, cols)).astype(np.float64)
        values[rng.random((rows, cols)) < 0.1] = np.inf
        p = min(p, cols)
        expected = np.argsort(values, axis=1, kind="stable")[:, :p]
        got = smallest_p_stable(values, p)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)


class TestColumnMeanBrute:
    @pytest.mark.parametrize("kind", ["grid", "float_duplicates"])
    def test_branches_match_stable_argsort(self, kind, monkeypatch):
        import repro.spatial.neighbors as neighbors

        rng = np.random.default_rng(3)
        if kind == "grid":
            pts = rng.integers(0, 8, size=(150, 2)).astype(np.float64)
        else:
            pts = (rng.random((20, 2)) * 100.0)[rng.integers(0, 20, size=150)]
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        expected = np.argsort(d2, axis=1, kind="stable")[:, :6]
        one_shot = neighbors._knn_brute(pts, 6)
        monkeypatch.setattr(neighbors, "DISTANCE_CHUNK_ROWS", 37)
        chunked = neighbors._knn_brute(pts, 6)
        assert np.array_equal(one_shot, expected)
        assert np.array_equal(chunked, expected)
