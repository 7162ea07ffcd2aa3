"""Unit tests for the content-addressed spatial graph cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.spatial import (
    clear_graph_cache,
    graph_cache_info,
    laplacian_from_points,
    spatial_graph,
)
from repro.spatial.graph_cache import _MAX_ENTRIES


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_graph_cache()
    yield
    clear_graph_cache()


@pytest.fixture
def points(rng):
    return rng.random((25, 2)) * 10.0


class TestHitIdentity:
    def test_second_call_returns_same_objects(self, points):
        first = spatial_graph(points, 3)
        second = spatial_graph(points, 3)
        assert second is first
        assert second.similarity is first.similarity
        assert second.laplacian is first.laplacian

    def test_matches_uncached_build(self, points):
        graph = spatial_graph(points, 3)
        similarity, degree, laplacian = laplacian_from_points(points, 3)
        assert np.array_equal(graph.similarity.toarray(), similarity)
        assert np.array_equal(graph.degree, np.diag(degree))
        assert np.array_equal(graph.laplacian.toarray(), laplacian)

    def test_copy_of_coordinates_still_hits(self, points):
        # Content addressing: the key is the bytes, not the object.
        assert spatial_graph(points.copy(), 3) is spatial_graph(points, 3)


class TestKeySensitivity:
    def test_different_p_misses(self, points):
        assert spatial_graph(points, 3) is not spatial_graph(points, 4)

    def test_different_coordinates_miss(self, points):
        moved = points.copy()
        moved[0, 0] += 1e-9
        assert spatial_graph(points, 3) is not spatial_graph(moved, 3)

    def test_mask_participates_in_key(self, points):
        observed = np.ones(points.shape, dtype=bool)
        observed[1, 0] = False
        with_mask = spatial_graph(points, 3, observed=observed)
        without = spatial_graph(points, 3)
        assert with_mask is not without

    def test_method_and_strategy_participate(self, points):
        a = spatial_graph(points, 3, method="brute", missing_strategy="column-mean")
        b = spatial_graph(points, 3, method="kdtree", missing_strategy="column-mean")
        assert a is not b
        assert spatial_graph(points, 3, method="brute") is not a

    def test_method_left_out_of_masked_key(self, points):
        # The masked search ignores `method`: one entry serves them all.
        graphs = [spatial_graph(points, 3, method=m) for m in ("auto", "brute", "kdtree")]
        assert graphs[1] is graphs[0] and graphs[2] is graphs[0]
        assert graph_cache_info()["entries"] == 1

    def test_unknown_method_rejected(self, points):
        with pytest.raises(ValueError, match="unknown method"):
            spatial_graph(points, 3, method="bogus")


class TestSharedEntriesAreReadOnly:
    def test_arrays_reject_writes(self, points):
        graph = spatial_graph(points, 3)
        arrays = [graph.degree, graph.dense_laplacian()]
        for op in (graph.similarity, graph.laplacian):
            arrays += [op.data, op.indices, op.indptr]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 1


class TestEvictionAndClear:
    def test_lru_eviction_caps_entries(self, rng):
        for i in range(_MAX_ENTRIES + 4):
            spatial_graph(rng.random((12, 2)) + i, 3)
        assert graph_cache_info()["entries"] == _MAX_ENTRIES

    def test_oldest_entry_evicted_first(self, rng):
        batches = [rng.random((12, 2)) + i for i in range(_MAX_ENTRIES + 1)]
        first = spatial_graph(batches[0], 3)
        for pts in batches[1:]:
            spatial_graph(pts, 3)
        # The first build fell off the LRU: same inputs rebuild fresh.
        assert spatial_graph(batches[0], 3) is not first

    def test_touching_an_entry_refreshes_it(self, rng):
        batches = [rng.random((12, 2)) + i for i in range(_MAX_ENTRIES)]
        first = spatial_graph(batches[0], 3)
        for pts in batches[1:]:
            spatial_graph(pts, 3)
        spatial_graph(batches[0], 3)  # move to MRU position
        spatial_graph(rng.random((12, 2)) + 99, 3)  # evicts the 2nd entry
        assert spatial_graph(batches[0], 3) is first

    def test_clear_drops_everything(self, points):
        graph = spatial_graph(points, 3)
        clear_graph_cache()
        assert graph_cache_info()["entries"] == 0
        assert spatial_graph(points, 3) is not graph


class TestDenseLaplacian:
    def test_built_once_under_concurrent_first_calls(self, points):
        import sys
        import threading

        graph = spatial_graph(points, 3)
        results = []
        barrier = threading.Barrier(8)

        def first_call():
            barrier.wait(timeout=10)
            results.append(graph.dense_laplacian())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_call) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8
        assert all(r is results[0] for r in results)
        assert np.array_equal(results[0], graph.laplacian.toarray())
