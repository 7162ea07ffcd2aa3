"""Registry coverage: every Table IV name constructs, fits, and reports.

Each registered imputer must (1) build through :func:`make_imputer`,
(2) impute a tiny trial to a finite matrix that preserves the observed
cells, and (3) — when engine-driven — publish a :class:`FitReport`
whose fields survive a field-by-field reconstruction (the "round trip"
the experiment harness relies on when it persists telemetry).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines import IMPUTER_NAMES, STOCHASTIC_VARIANTS, make_imputer
from repro.engine import FitReport
from repro.exceptions import ValidationError

#: Iteration-budget attributes, shrunk after construction so the whole
#: registry sweep stays cheap.  setattr is applied only where the
#: attribute exists.
SPEED_OVERRIDES = {
    "max_iter": 8,
    "max_rounds": 2,
    "n_epochs": 10,
    "n_path": 2,
}

#: Names expected to publish engine telemetry after fit_impute.
ENGINE_DRIVEN = {
    "mc", "softimpute", "iterative", "gain", "camf",
    "nmf", "smf", "smfl", *STOCHASTIC_VARIANTS,
}


def build(name, dataset):
    imputer = make_imputer(
        name, n_spatial=dataset.n_spatial, rank=3, random_state=0
    )
    for attr, value in SPEED_OVERRIDES.items():
        if hasattr(imputer, attr):
            setattr(imputer, attr, value)
    return imputer


class TestRegistryCoverage:
    def test_stochastic_variants_are_registered(self):
        assert set(STOCHASTIC_VARIANTS) <= set(IMPUTER_NAMES)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError, match="unknown imputer"):
            make_imputer("does-not-exist")

    def test_lookup_is_case_insensitive(self, tiny_dataset):
        assert type(build("SMFL", tiny_dataset)) is type(build("smfl", tiny_dataset))

    @pytest.mark.parametrize("name", IMPUTER_NAMES)
    def test_constructs_and_imputes(self, name, tiny_trial):
        dataset, x_missing, mask = tiny_trial
        imputer = build(name, dataset)
        estimate = imputer.fit_impute(x_missing, mask)
        assert estimate.shape == x_missing.shape
        assert np.isfinite(estimate).all()
        # Formula 8: observed cells pass through untouched.
        np.testing.assert_allclose(
            estimate[mask.observed], x_missing[mask.observed], rtol=0, atol=1e-9
        )

    @pytest.mark.parametrize("name", sorted(ENGINE_DRIVEN))
    def test_fit_report_roundtrip(self, name, tiny_trial):
        dataset, x_missing, mask = tiny_trial
        imputer = build(name, dataset)
        imputer.fit_impute(x_missing, mask)
        report = imputer.fit_report_
        assert isinstance(report, FitReport)
        assert report.method
        assert report.n_iter >= 1
        assert len(report.wall_times) == report.n_iter
        assert all(t >= 0 for t in report.wall_times)

        # Field-by-field reconstruction must reproduce the report.
        fields = {
            f.name: getattr(report, f.name) for f in dataclasses.fields(report)
        }
        rebuilt = FitReport(**fields)
        for key, value in fields.items():
            other = getattr(rebuilt, key)
            if isinstance(value, np.ndarray):
                assert np.array_equal(other, value)
            else:
                assert other == value
        assert rebuilt.final_objective == report.final_objective
        assert rebuilt.total_row_updates == report.total_row_updates

    @pytest.mark.parametrize("name", STOCHASTIC_VARIANTS)
    def test_stochastic_variants_carry_epoch_telemetry(self, name, tiny_trial):
        dataset, x_missing, mask = tiny_trial
        imputer = build(name, dataset)
        imputer.fit_impute(x_missing, mask)
        report = imputer.fit_report_
        assert imputer.fit_method == "stochastic"
        assert len(report.sampled_objectives) == report.n_iter
        assert len(report.rows_touched) == report.n_iter
        assert report.total_row_updates == sum(report.rows_touched)
