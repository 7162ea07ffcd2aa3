"""Smoke tests of the benchmark itself (run: python3 -m pytest perfbench/tests).

Each workload runs at smoke size through run.main, the entry point of
the benchmark command; the tests check the printed metrics against
BENCHMARK.json, that the seed reaches the generated inputs, and that a
corrupted output is caught by the correctness checks.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import fit_serve, oocore_stream, run, spec, table4_grid

ROOT = run.ROOT
WORKLOADS = {"table4_grid": table4_grid, "fit_serve": fit_serve,
             "oocore_stream": oocore_stream}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_is_the_spec_and_within_contract():
    doc = _benchmark()
    assert doc == spec.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= doc["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])


def test_interaction_map_names_real_workloads_and_metrics():
    for name, layer in spec.PER_LAYER.items():
        for workload, metric in layer["moves"]:
            assert workload in spec.WORKLOADS and metric in spec.END_TO_END, name
        assert set(layer["still"]) <= set(spec.WORKLOADS), name


def _run(capsys, workload: str, trace: int, seed: int = 3) -> dict:
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace)], scale="smoke")
    assert code == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return json.loads(last)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(capsys, workload, trace):
    result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _benchmark()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, float) and np.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_seed_changes_the_generated_inputs(tmp_path):
    scale = table4_grid.SCALES["smoke"]
    digests = [table4_grid.input_digest(
        table4_grid.prepare_trials(table4_grid.injection_seeds(s, 1), scale))
        for s in (1, 1, 2)]
    assert digests[0] == digests[1] != digests[2]

    fs = fit_serve.SCALES["smoke"]
    a, b, c = (fit_serve.make_inputs(s, fs) for s in (1, 1, 2))
    assert np.array_equal(a.x_train, b.x_train)
    assert not np.array_equal(a.x_train, c.x_train)

    oo = oocore_stream.SCALES["smoke"]
    paths = []
    for k, s in enumerate((1, 1, 2)):
        directory = tmp_path / str(k)
        directory.mkdir()
        data_path, _, _ = oocore_stream.write_matrix(s, oo, str(directory))
        paths.append(np.load(data_path))
    assert np.array_equal(paths[0], paths[1])
    assert not np.array_equal(paths[0], paths[2])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_output_drives_pass_ratio_below_one(tmp_path, workload):
    module = WORKLOADS[workload]
    kwargs = dict(seed=3, seconds=0.0, trace=False, scale=module.SCALES["smoke"],
                  workdir=str(tmp_path))
    clean = module.run(**kwargs).checks
    broken = module.run(**kwargs, corrupt=True).checks
    assert broken.checked == clean.checked
    assert broken.passed < clean.passed
    assert broken.pass_ratio < 1.0


def test_exits_nonzero_without_result_when_the_library_is_absent(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table4_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
