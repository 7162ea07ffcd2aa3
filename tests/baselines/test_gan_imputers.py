"""Unit tests for the GAN-family imputers (GAIN, CAMF)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import CAMFImputer, GAINImputer, MeanImputer
from repro.engine import FitReport
from repro.exceptions import ValidationError
from repro.masking import MissingSpec, inject_missing
from repro.metrics import rms_over_mask
from repro.obs import collecting_tracer, use_tracer


@pytest.fixture
def gan_problem(rng):
    u = rng.random((80, 3))
    v = rng.random((3, 5))
    x = u @ v
    x = (x - x.min()) / (x.max() - x.min())
    x_missing, mask = inject_missing(
        x, MissingSpec(missing_rate=0.15), random_state=0
    )
    return x, x_missing, mask


class TestGAIN:
    def test_output_finite_and_merged(self, gan_problem):
        _, x_missing, mask = gan_problem
        out = GAINImputer(n_epochs=50, random_state=0).fit_impute(x_missing, mask)
        assert np.isfinite(out).all()
        assert np.allclose(out[mask.observed], x_missing[mask.observed])

    def test_imputations_in_unit_range(self, gan_problem):
        _, x_missing, mask = gan_problem
        out = GAINImputer(n_epochs=50, random_state=0).fit_impute(x_missing, mask)
        assert (out >= 0).all() and (out <= 1).all()

    def test_deterministic_given_seed(self, gan_problem):
        _, x_missing, mask = gan_problem
        a = GAINImputer(n_epochs=30, random_state=7).fit_impute(x_missing, mask)
        b = GAINImputer(n_epochs=30, random_state=7).fit_impute(x_missing, mask)
        assert np.array_equal(a, b)

    def test_training_helps_over_random_generator(self, gan_problem):
        x, x_missing, mask = gan_problem
        untrained = GAINImputer(n_epochs=1, random_state=0).fit_impute(x_missing, mask)
        trained = GAINImputer(n_epochs=400, random_state=0).fit_impute(x_missing, mask)
        assert rms_over_mask(trained, x, mask) < rms_over_mask(untrained, x, mask)

    def test_invalid_hint_rate(self):
        with pytest.raises(ValidationError):
            GAINImputer(hint_rate=0.0)
        with pytest.raises(ValidationError):
            GAINImputer(hint_rate=1.5)

    def test_invalid_alpha(self):
        with pytest.raises(ValidationError):
            GAINImputer(alpha=-1.0)


class TestCAMF:
    def test_output_finite_and_merged(self, gan_problem):
        _, x_missing, mask = gan_problem
        out = CAMFImputer(n_epochs=50, random_state=0).fit_impute(x_missing, mask)
        assert np.isfinite(out).all()
        assert np.allclose(out[mask.observed], x_missing[mask.observed])

    def test_beats_mean_on_low_rank(self, gan_problem):
        x, x_missing, mask = gan_problem
        out = CAMFImputer(n_epochs=300, random_state=0).fit_impute(x_missing, mask)
        mean_out = MeanImputer().fit_impute(x_missing, mask)
        assert rms_over_mask(out, x, mask) < rms_over_mask(mean_out, x, mask)

    def test_rank_capped_by_shape(self, rng):
        x = rng.random((6, 4))
        x[0, 0] = np.nan
        out = CAMFImputer(rank=50, n_epochs=10, random_state=0).fit_impute(x)
        assert np.isfinite(out).all()

    def test_invalid_gamma_beta(self):
        with pytest.raises(ValidationError):
            CAMFImputer(gamma=-0.1)
        with pytest.raises(ValidationError):
            CAMFImputer(beta=-0.1)

    def test_deterministic_given_seed(self, gan_problem):
        _, x_missing, mask = gan_problem
        a = CAMFImputer(n_epochs=30, random_state=7).fit_impute(x_missing, mask)
        b = CAMFImputer(n_epochs=30, random_state=7).fit_impute(x_missing, mask)
        assert np.array_equal(a, b)

    def test_runs_fixed_budget_through_engine(self, gan_problem):
        _, x_missing, mask = gan_problem
        imputer = CAMFImputer(n_epochs=25, random_state=0)
        imputer.fit_impute(x_missing, mask)
        report = imputer.fit_report_
        assert isinstance(report, FitReport)
        assert report.method == "camf"
        assert report.n_iter == 25
        assert report.converged is False
        assert len(report.objective_history) == 25
        assert np.isfinite(report.objective_history).all()
        assert report.objective_history[-1] < report.objective_history[0]

    def test_fit_and_iteration_spans(self, gan_problem):
        _, x_missing, mask = gan_problem
        tracer = collecting_tracer()
        with use_tracer(tracer):
            CAMFImputer(n_epochs=4, random_state=0).fit_impute(x_missing, mask)
        spans = [e for e in tracer.sink.events if e.get("type") == "span"]
        fits = [e for e in spans if e["name"] == "fit"]
        assert [e["attrs"]["solver"] for e in fits] == ["camf"]
        assert sum(e["name"] == "iteration" for e in spans) == 4
