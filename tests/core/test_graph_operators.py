"""The spatial-graph operators an SMF/SMFL fit holds and hands its kernels.

Multiplicative fits run on the CSR operators alone, so a fit allocates
nothing of size ``N x N``; the gradient and stochastic rules get the
dense Laplacian, materialised once per cached graph and equal to the
dense operator the full-matrix build produced.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import SMF, SMFL
from repro.data import load_dataset
from repro.masking import MissingSpec, inject_missing
from repro.spatial import clear_graph_cache, graph_cache_info
from repro.spatial.graph_cache import SpatialGraph

sparse = pytest.importorskip("scipy.sparse")


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_graph_cache()
    yield
    clear_graph_cache()


def lake_trial(n: int, seed: int = 0):
    data = load_dataset("lake", n_rows=n, random_state=seed)
    return inject_missing(
        data.values,
        MissingSpec(missing_rate=0.1, columns=data.attribute_columns),
        random_state=seed,
    )


def dense_reference_laplacian(model: SMF) -> np.ndarray:
    """``L = diag(W) - D`` assembled densely from the fitted graph's
    neighbour structure, the way the full-matrix build did."""
    similarity = np.zeros(model.similarity_.shape)
    rows, cols = model.similarity_.nonzero()
    similarity[rows, cols] = 1.0
    degree = np.diag(similarity.sum(axis=1))
    return degree - similarity


class TestMultiplicativeFitMemory:
    def test_fit_peaks_far_below_one_dense_matrix(self):
        n = 4000
        x, mask = lake_trial(n)
        one_dense = n * n * 8  # 128 MB
        # Warm-up fit: first-use imports stay out of the traced peak.
        SMFL(rank=4, n_spatial=2, max_iter=1, random_state=0).fit(*lake_trial(50))
        model = SMFL(rank=4, n_spatial=2, max_iter=2, random_state=0)
        tracemalloc.start()
        try:
            model.fit(x, mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < one_dense / 8, f"fit peaked at {peak / 2**20:.1f} MiB"
        assert sparse.issparse(model.similarity_)
        assert sparse.issparse(model.laplacian_)
        assert model._graph._dense_laplacian is None
        assert model._kernel_context(model.v_.shape).laplacian is None


class TestGradientRuleDenseLaplacian:
    KWARGS = dict(rank=3, n_spatial=2, update_rule="gradient", max_iter=30, random_state=0)

    def test_kernel_gets_dense_laplacian_built_once(self):
        x, mask = lake_trial(150)
        first = SMF(**self.KWARGS).fit(x, mask)
        lap = first._kernel_context(first.v_.shape).laplacian
        assert isinstance(lap, np.ndarray)
        assert np.array_equal(lap, first.laplacian_.toarray())
        second = SMF(**self.KWARGS, lam=0.5).fit(x, mask)
        assert second._kernel_context(second.v_.shape).laplacian is lap
        assert graph_cache_info()["entries"] == 1

    def test_factors_match_dense_reference_operator(self, monkeypatch):
        x, mask = lake_trial(150)
        model = SMF(**self.KWARGS).fit(x, mask)
        reference = dense_reference_laplacian(model)
        assert np.array_equal(model._graph.dense_laplacian(), reference)
        clear_graph_cache()
        monkeypatch.setattr(SpatialGraph, "dense_laplacian", lambda self: reference)
        again = SMF(**self.KWARGS).fit(x, mask)
        assert np.array_equal(again.u_, model.u_)
        assert np.array_equal(again.v_, model.v_)

    def test_stochastic_rule_gets_dense_laplacian(self):
        x, mask = lake_trial(120)
        model = SMF(rank=3, n_spatial=2, update_rule="sgd", batch_size=32,
                    max_iter=3, random_state=0).fit(x, mask)
        lap = model._kernel_context(model.v_.shape).laplacian
        assert isinstance(lap, np.ndarray)
        assert np.array_equal(lap, model.laplacian_.toarray())


class TestNeighborMethod:
    def test_unknown_method_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            SMF(rank=3, neighbor_method="bogus")

    def test_methods_share_one_masked_graph(self):
        x, mask = lake_trial(100)
        models = [
            SMF(rank=3, neighbor_method=m, max_iter=10, random_state=0).fit(x, mask)
            for m in ("auto", "brute", "kdtree")
        ]
        assert graph_cache_info()["entries"] == 1
        for other in models[1:]:
            assert other.similarity_ is models[0].similarity_
            assert np.array_equal(other.u_, models[0].u_)


class _GraphAtZero(SMF):
    """Builds and holds the spatial graph even at ``lam == 0``, as SMF
    did before it learned to skip the build: the reference the skip
    must not change."""

    def _prepare_fit(self, x, x_observed, mask):
        lam, self.lam = self.lam, 1.0
        try:
            super()._prepare_fit(x, x_observed, mask)
        finally:
            self.lam = lam


def _graph_misses() -> int:
    from repro.obs import get_metrics

    return get_metrics().counter("spatial_graph_cache.misses").value


class TestZeroLambdaSkipsGraph:
    @pytest.mark.parametrize("cls", [SMF, SMFL])
    def test_no_graph_build(self, cls):
        x, mask = lake_trial(200)
        before = _graph_misses()
        model = cls(rank=3, n_spatial=2, lam=0.0, max_iter=5, random_state=0)
        model.fit(x, mask)
        assert _graph_misses() == before
        assert graph_cache_info()["entries"] == 0
        assert model.similarity_ is None
        assert model.degree_ is None
        assert model.laplacian_ is None
        # A nonzero lam still builds (and counts) the graph.
        cls(rank=3, n_spatial=2, lam=0.1, max_iter=5, random_state=0).fit(x, mask)
        assert _graph_misses() == before + 1

    @pytest.mark.parametrize("rule,extra", [
        ("multiplicative", {}),
        ("gradient", {"learning_rate": 1e-3}),
        ("sgd", {"learning_rate": 1e-3, "batch_size": 32}),
    ])
    def test_factors_match_graph_holding_fit(self, rule, extra):
        x, mask = lake_trial(150)
        kwargs = dict(rank=3, n_spatial=2, lam=0.0, max_iter=20, tol=0.0,
                      update_rule=rule, random_state=1, **extra)
        reference = _GraphAtZero(**kwargs).fit(x, mask)
        assert reference.similarity_ is not None
        model = SMF(**kwargs).fit(x, mask)
        np.testing.assert_array_equal(model.u_, reference.u_)
        np.testing.assert_array_equal(model.v_, reference.v_)
        assert model.objective_history_ == reference.objective_history_

    def test_batched_mix_of_zero_and_nonzero_lam(self):
        from repro.core.batched_fit import fit_models_batched

        x, mask = lake_trial(120)
        lams = (0.0, 0.1, 0.0, 0.5)

        def models():
            return [SMF(rank=3, n_spatial=2, lam=lam, max_iter=15, tol=0.0,
                        random_state=i) for i, lam in enumerate(lams)]

        batched = models()
        fit_models_batched([(m, x, mask) for m in batched])
        for mb, ml in zip(batched, models()):
            ml.fit(x, mask)
            np.testing.assert_array_equal(mb.u_, ml.u_)
            np.testing.assert_array_equal(mb.v_, ml.v_)
            assert mb.objective_history_ == ml.objective_history_
