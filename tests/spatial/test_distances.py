"""Unit tests for repro.spatial.distances."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.spatial import euclidean_distances, haversine_distances, pairwise_sq_euclidean


class TestPairwiseSqEuclidean:
    def test_matches_naive(self, rng):
        a = rng.random((8, 3))
        b = rng.random((5, 3))
        out = pairwise_sq_euclidean(a, b)
        naive = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        assert np.allclose(out, naive)

    def test_self_distances_zero_diagonal(self, rng):
        a = rng.random((6, 2))
        out = pairwise_sq_euclidean(a)
        assert np.allclose(np.diag(out), 0.0)

    def test_never_negative(self, rng):
        # Cancellation-prone: nearly identical large-magnitude points.
        a = 1e8 + rng.random((10, 2)) * 1e-6
        out = pairwise_sq_euclidean(a)
        assert (out >= 0.0).all()

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValidationError, match="dimension mismatch"):
            pairwise_sq_euclidean(rng.random((3, 2)), rng.random((3, 3)))

    def test_symmetry(self, rng):
        a = rng.random((7, 4))
        out = pairwise_sq_euclidean(a)
        assert np.allclose(out, out.T)


class TestEuclideanDistances:
    def test_known_values(self):
        a = np.array([[0.0, 0.0], [3.0, 4.0]])
        out = euclidean_distances(a)
        assert out[0, 1] == pytest.approx(5.0)

    def test_triangle_inequality(self, rng):
        pts = rng.random((10, 3))
        d = euclidean_distances(pts)
        for i in range(10):
            for j in range(10):
                for k in range(10):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


class TestHaversineDistances:
    def test_zero_for_same_point(self):
        coords = np.array([[40.0, -70.0]])
        assert haversine_distances(coords)[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_equator_degree(self):
        # One degree of longitude at the equator is ~111.19 km.
        coords = np.array([[0.0, 0.0], [0.0, 1.0]])
        out = haversine_distances(coords)
        assert out[0, 1] == pytest.approx(111.19, rel=0.01)

    def test_antipodal(self):
        coords = np.array([[0.0, 0.0], [0.0, 180.0]])
        out = haversine_distances(coords)
        assert out[0, 1] == pytest.approx(np.pi * 6371.0088, rel=0.001)

    def test_requires_two_columns(self):
        with pytest.raises(ValidationError, match="2 columns"):
            haversine_distances(np.zeros((2, 3)))

    def test_symmetry(self, rng):
        coords = rng.uniform(-80, 80, size=(6, 2))
        out = haversine_distances(coords)
        assert np.allclose(out, out.T, atol=1e-9)


class TestOutAndChunkedPaths:
    def test_out_only_is_bit_identical_to_plain(self, rng):
        a = rng.random((40, 3))
        b = rng.random((17, 3))
        plain = pairwise_sq_euclidean(a, b)
        out = np.empty((40, 17))
        result = pairwise_sq_euclidean(a, b, out=out)
        assert result is out
        assert np.array_equal(out, plain)

    def test_out_buffer_reusable_across_calls(self, rng):
        a = rng.random((10, 2))
        b = rng.random((8, 2))
        out = np.empty((10, 8))
        first = pairwise_sq_euclidean(a, b, out=out).copy()
        pairwise_sq_euclidean(a + 1.0, b, out=out)
        assert not np.array_equal(out, first)
        assert np.array_equal(
            out, pairwise_sq_euclidean(a + 1.0, b)
        )

    def test_chunked_numerically_equivalent(self, rng):
        # Row-blocking changes the gemm's internal blocking, so the
        # contract is tight closeness, not bit-identity.
        a = rng.random((50, 2))
        plain = pairwise_sq_euclidean(a)
        chunked = pairwise_sq_euclidean(a, chunk_rows=16)
        assert np.allclose(chunked, plain, rtol=0.0, atol=1e-12)

    def test_chunk_not_dividing_n_covers_all_rows(self, rng):
        a = rng.random((23, 3))
        b = rng.random((9, 3))
        chunked = pairwise_sq_euclidean(a, b, chunk_rows=7)
        assert np.allclose(chunked, pairwise_sq_euclidean(a, b), atol=1e-12)

    def test_out_shape_validated(self, rng):
        a = rng.random((5, 2))
        with pytest.raises(ValidationError, match="shape"):
            pairwise_sq_euclidean(a, out=np.empty((4, 5)))

    def test_chunk_rows_validated(self, rng):
        a = rng.random((5, 2))
        with pytest.raises(ValidationError, match="chunk_rows"):
            pairwise_sq_euclidean(a, chunk_rows=0)


class TestChunkedKnnBrute:
    def test_one_shot_matches_naive(self, rng):
        from repro.spatial.neighbors import _knn_brute

        pts = rng.random((60, 2))
        out = _knn_brute(pts, 5)
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        expected = np.argsort(d2, axis=1, kind="stable")[:, :5]
        assert np.array_equal(out, expected)

    def test_chunked_matches_one_shot_neighbour_lists(self, rng, monkeypatch):
        import repro.spatial.neighbors as neighbors

        pts = rng.random((90, 2))
        one_shot = neighbors._knn_brute(pts, 5)
        # Shrink the chunk threshold so the same points take the
        # row-blocked path.
        monkeypatch.setattr(neighbors, "DISTANCE_CHUNK_ROWS", 32)
        chunked = neighbors._knn_brute(pts, 5)
        assert np.array_equal(chunked, one_shot)
