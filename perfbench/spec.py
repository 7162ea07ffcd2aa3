"""What the benchmark measures, and why: the catalogue behind BENCHMARK.json.

Every workload prints every metric listed here (the run contract): the
end-to-end metrics on an untraced run (``--trace 0``) and the per-layer
metrics on a traced run (``--trace 1``).  End-to-end metrics are
therefore defined so that each one means something on every workload;
a per-layer metric of a layer that a workload never calls reads 0 there,
which is itself the "should not move" prediction of the interaction map.

``PER_LAYER[name]["moves"]`` lists the ``(workload, end-to-end metric)``
pairs a change to that layer is expected to move, and ``"still"`` the
workloads on which the metric should stay where it is.  ``tests`` check
that this catalogue and BENCHMARK.json agree.
"""

from __future__ import annotations

WORKLOADS: dict[str, str] = {
    "table4_grid": (
        "the paper's headline path: Table IV at paper rows through run_grid, "
        "MF cells (batched 3-D engine) and 10 competitor baselines timed apart"
    ),
    "fit_serve": (
        "one cold SMFL fit on thousands of rows (2-D engine loop, one large N^2 "
        "graph) then save, load and a mixed 1-row/64-row fold-in request stream"
    ),
    "oocore_stream": (
        "the only path through oocore and the stochastic kernels: a 1M x 13 "
        "memmap fitted out of core serially and with 2 worker processes"
    ),
}

# Times are calibrated seconds (harness.Clock): wall seconds of each phase
# rescaled by a machine-speed probe run just before and after it, so that
# load from neighbours on a shared machine cancels out.  Wall-clock
# medians are printed beside them as detail lines.  Over ten seeds per
# workload on a shared 2-core VM, the calibrated run-to-run spread
# (IQR / median) of job_s and mf_fit_s was 3-9% (5-11% in noisier
# stretches) where the wall-clock spread was 4-26%; the bounds allow
# for that.
END_TO_END: dict[str, dict] = {
    "setup_s": {
        "unit": "s", "better": "lower", "bound": 0.25,
        "means": "median seconds of one repetition's preparation: table4_grid "
                 "makes every (dataset, seed) trial through the data and masking "
                 "layers (load_dataset + inject_missing; the cells make their own "
                 "again), builds the two grids and resets the graph cache; "
                 "fit_serve makes its inputs, then saves, loads and boots the "
                 "server; oocore_stream copies the memmap pair and inits the "
                 "factors (the 1M-row matrix and its landmarks are made once per run)",
    },
    "job_s": {
        "unit": "s", "better": "lower", "bound": 0.25,
        "means": "median seconds of one timed repetition: MF + competitor grids "
                 "/ cold fit + request stream / serial + 2-worker fits",
    },
    "mf_fit_s": {
        "unit": "s", "better": "lower", "bound": 0.25,
        "means": "median seconds of the repetition's in-process MF fit phase: "
                 "MF grid cells / the cold SMFL fit / the jobs=1 oocore fit",
    },
    "peak_rss_mb": {
        "unit": "MB", "better": "lower", "bound": 0.15,
        "means": "peak resident set of the run: max of the process and its "
                 "worker children",
    },
    "pass_ratio": {
        "unit": "ratio", "better": "higher", "bound": 0.01,
        "means": "output checks passed / output checks made",
    },
}

T4, FS, OO = "table4_grid", "fit_serve", "oocore_stream"


def _layer(unit: str, better: str, moves: list[tuple[str, str]],
           still: tuple[str, ...] = ()) -> dict:
    return {"unit": unit, "better": better, "moves": moves, "still": list(still)}


_GRID_BOTH = [(T4, "job_s"), (T4, "mf_fit_s")]
_BASELINE = [(T4, "job_s")]

PER_LAYER: dict[str, dict] = {
    # data / masking / metrics: both grid phases and the fit_serve inputs
    "data.generate_s": _layer("s", "lower", _GRID_BOTH + [(T4, "setup_s"), (FS, "setup_s")],
                              (OO,)),
    "data.write_s": _layer("s", "lower", [(OO, "setup_s")], (T4, FS)),
    "masking.inject_s": _layer("s", "lower", _GRID_BOTH + [(T4, "setup_s"), (FS, "setup_s")]),
    "metrics.score_s": _layer("s", "lower", _GRID_BOTH),
    # spatial graph: the MF grid and the cold fit, never the baselines
    "spatial.graph_s": _layer("s", "lower", [(T4, "mf_fit_s"), (FS, "mf_fit_s")], (OO,)),
    "spatial.graph_builds": _layer("count", "lower", [(T4, "mf_fit_s"), (FS, "mf_fit_s")], (OO,)),
    "spatial.cache_hit_ratio": _layer("ratio", "higher", [(T4, "mf_fit_s")], (OO,)),
    "core.landmarks_s": _layer("s", "lower", [(T4, "mf_fit_s"), (FS, "mf_fit_s")], (OO,)),
    # engine: batched grid fits and the 2-D loop; not the stochastic path
    "engine.mf_fit_s": _layer("s", "lower", [(T4, "mf_fit_s"), (FS, "mf_fit_s")], (OO,)),
    "engine.fits": _layer("count", "higher", [(T4, "mf_fit_s"), (FS, "mf_fit_s")], (OO,)),
    "engine.iterations": _layer("count", "lower", [(T4, "mf_fit_s"), (FS, "mf_fit_s")], (OO,)),
    "engine.converged_ratio": _layer("ratio", "higher", [(T4, "mf_fit_s"), (FS, "mf_fit_s")], (OO,)),
    "engine.objective_increases": _layer("count", "lower", [(T4, "pass_ratio"), (FS, "pass_ratio")], (OO,)),
    "engine.batched_over_looped": _layer("ratio", "lower", [(T4, "mf_fit_s")], (FS, OO)),
    "engine.smfl_fit_s": _layer("s", "lower", [(FS, "mf_fit_s")], (T4, OO)),
    "engine.smf_fit_s": _layer("s", "lower", [(FS, "mf_fit_s")], (T4, OO)),
    "engine.smfl_over_smf": _layer("ratio", "lower", [(FS, "mf_fit_s")], (T4, OO)),
    # baselines: the competitor grid only
    **{
        f"baselines.{name}_s": _layer("s", "lower", _BASELINE, (FS, OO))
        for name in ("knn", "knne", "loess", "iim", "mc", "dlm", "gain",
                     "softimpute", "iterative", "camf")
    },
    # runner: both grid phases
    "runner.units": _layer("count", "lower", _GRID_BOTH, (FS, OO)),
    "runner.self_s": _layer("s", "lower", _GRID_BOTH, (FS, OO)),
    "runner.warm_s": _layer("s", "lower", _GRID_BOTH, (FS, OO)),
    "runner.warm_hit_ratio": _layer("ratio", "higher", _GRID_BOTH, (FS, OO)),
    "runner.mf_cells_per_s": _layer("cells/s", "higher", [(T4, "mf_fit_s")], (FS, OO)),
    "runner.baseline_cells_per_s": _layer("cells/s", "higher", _BASELINE, (FS, OO)),
    # model artifacts: fit_serve set-up
    "model.save_s": _layer("s", "lower", [(FS, "setup_s")], (T4, OO)),
    "model.load_s": _layer("s", "lower", [(FS, "setup_s")], (T4, OO)),
    "model.artifact_bytes": _layer("bytes", "lower", [(FS, "setup_s")], (T4, OO)),
    # serving: the request stream
    "serving.foldin_s": _layer("s", "lower", [(FS, "job_s")], (T4, OO)),
    "serving.server_overhead_ratio": _layer("ratio", "lower", [(FS, "job_s")], (T4, OO)),
    "serving.requests": _layer("count", "higher", [(FS, "job_s")], (T4, OO)),
    "serving.failed": _layer("count", "lower", [(FS, "pass_ratio")], (T4, OO)),
    "serving.foldin_rows_per_s": _layer("rows/s", "higher", [(FS, "job_s")], (T4, OO)),
    "serving.request_p50_ms": _layer("ms", "lower", [(FS, "job_s")], (T4, OO)),
    "serving.request_p99_ms": _layer("ms", "lower", [(FS, "job_s")], (T4, OO)),
    "serving.p99_tail_samples": _layer("count", "higher", [(FS, "job_s")], (T4, OO)),
    # oocore: the stream workload only
    "oocore.init_s": _layer("s", "lower", [(OO, "setup_s")], (T4, FS)),
    "oocore.block_read_s": _layer("s", "lower", [(OO, "job_s"), (OO, "mf_fit_s")], (T4, FS)),
    "oocore.blocks": _layer("count", "higher", [(OO, "job_s"), (OO, "mf_fit_s")], (T4, FS)),
    "oocore.serial_fit_s": _layer("s", "lower", [(OO, "mf_fit_s"), (OO, "job_s")], (T4, FS)),
    "oocore.serial_rows_per_s": _layer("rows/s", "higher", [(OO, "mf_fit_s")], (T4, FS)),
    "oocore.parallel_fit_s": _layer("s", "lower", [(OO, "job_s")], (T4, FS)),
    "oocore.parallel_rows_per_s": _layer("rows/s", "higher", [(OO, "job_s")], (T4, FS)),
    "oocore.parallel_speedup": _layer("ratio", "higher", [(OO, "job_s")], (T4, FS)),
    "oocore.parallel_objective_ratio": _layer("ratio", "lower", [(OO, "pass_ratio")], (T4, FS)),
    "oocore.worker_peak_rss_mb": _layer("MB", "lower", [(OO, "peak_rss_mb")], (T4, FS)),
    # machine and tracing health: move nothing, make drift visible
    "env.probe_s": _layer("s", "lower", []),
    "trace.attributed_share": _layer("ratio", "higher", []),
    "trace.overhead_ratio": _layer("ratio", "lower", []),
}


def benchmark_json() -> dict:
    """The BENCHMARK.json document this catalogue describes."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": m["unit"], "better": m["better"], "bound": m["bound"]}
            for name, m in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": m["unit"], "better": m["better"]}
            for name, m in PER_LAYER.items()
        ],
    }


RUN_SECONDS = 35
"""Seconds one run spends in timed repetitions (BENCHMARK.json run_seconds)."""
