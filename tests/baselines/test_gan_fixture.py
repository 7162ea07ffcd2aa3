"""Bit-identity contract for the GAN-family baselines (GAIN, CAMF).

The committed fixture ``golden/gan_outputs.json`` holds, for every
generator dataset x two injection seeds at ``n_rows=120``, the sha256 of
each imputer's float64 output bytes and its RMS over the injected
cells.  Replaying the cells must reproduce both *exactly*: the neural
substrate (:mod:`repro.baselines.neural`) may be restructured for speed,
but not change a single bit of what the baselines return.

The old masked-assignment ``sigmoid`` is kept here as the oracle of the
branch-free form the substrate uses.

Refreshing after an intentional numeric change::

    REPRO_REFRESH_GOLDEN=1 PYTHONPATH=src python -m pytest tests/baselines/test_gan_fixture.py

then commit the rewritten fixture together with the change.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.neural import sigmoid
from repro.baselines.registry import make_imputer
from repro.experiments.protocol import DATASET_RANKS, prepare_trial
from repro.metrics import rms_over_mask

FIXTURE = Path(__file__).parent / "golden" / "gan_outputs.json"
REFRESH_ENV = "REPRO_REFRESH_GOLDEN"
DATASETS = ("economic", "farm", "lake", "vehicle")
SEEDS = (0, 1)
METHODS = ("gain", "camf")
N_ROWS = 120


def _run_cell(method: str, dataset: str, seed: int) -> dict:
    trial = prepare_trial(dataset, missing_rate=0.1, seed=seed, n_rows=N_ROWS)
    imputer = make_imputer(
        method,
        n_spatial=trial.dataset.n_spatial,
        rank=DATASET_RANKS[dataset],
        random_state=seed,
    )
    out = np.ascontiguousarray(imputer.fit_impute(trial.x_missing, trial.mask),
                               dtype=np.float64)
    return {
        "sha256": hashlib.sha256(out.tobytes()).hexdigest(),
        "shape": list(out.shape),
        "rms": rms_over_mask(out, trial.dataset.values, trial.mask),
    }


def _cells():
    return [(m, d, s) for m in METHODS for d in DATASETS for s in SEEDS]


def _key(method: str, dataset: str, seed: int) -> str:
    return f"{method}/{dataset}/{seed}"


def test_refresh_fixture():
    if not os.environ.get(REFRESH_ENV):
        pytest.skip(f"set {REFRESH_ENV}=1 to rewrite the GAN fixture")
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "n_rows": N_ROWS,
        "missing_rate": 0.1,
        "cells": {_key(*cell): _run_cell(*cell) for cell in _cells()},
    }
    FIXTURE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("method,dataset,seed", _cells())
def test_output_bit_identical_to_fixture(method, dataset, seed):
    if os.environ.get(REFRESH_ENV):
        pytest.skip("fixture being refreshed")
    expected = json.loads(FIXTURE.read_text())["cells"][_key(method, dataset, seed)]
    got = _run_cell(method, dataset, seed)
    assert got["shape"] == expected["shape"]
    # Exact equality: the RMS is a float64 round-tripped through JSON.
    assert got["rms"] == expected["rms"], (
        f"{method}/{dataset}/{seed}: RMS {got['rms']!r} != {expected['rms']!r}"
    )
    assert got["sha256"] == expected["sha256"], (
        f"{method}/{dataset}/{seed}: output bytes drifted from the fixture"
    )


def _masked_sigmoid(x: np.ndarray) -> np.ndarray:
    """The original masked-assignment logistic, kept as the oracle."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestSigmoidOracle:
    def test_special_values_bitwise(self):
        x = np.array([1e4, -1e4, 0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                      709.0, -709.0, 745.0, -745.0, 1e-300, -1e-300])
        np.testing.assert_array_equal(_bits(sigmoid(x)), _bits(_masked_sigmoid(x)))

    @pytest.mark.parametrize("scale", [1.0, 10.0, 300.0])
    def test_random_normals_bitwise(self, scale):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            x = rng.standard_normal((64, 13)) * scale
            np.testing.assert_array_equal(_bits(sigmoid(x)), _bits(_masked_sigmoid(x)))

    def test_non_contiguous_input(self):
        x = np.random.default_rng(3).standard_normal((16, 10))[:, ::3]
        np.testing.assert_array_equal(_bits(sigmoid(x)), _bits(_masked_sigmoid(x)))
