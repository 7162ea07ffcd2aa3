"""Workload ``table4_grid``: the Table IV grid through the experiment runner.

13 methods x 4 datasets x injection seeds at paper rows, executed by
``run_grid`` with the CLI's default configuration (result cache and
manifest in a fresh temp dir, coalescing on, serial).  The MF family
and the 10 competitors are two ``run_grid`` calls over the same
(dataset, seed) cells: the batched MF engine dominates the first and is
idle in the second, the baselines the other way round.
"""

from __future__ import annotations

import contextlib
import math
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .harness import (NULL_TRACER, Checks, Clock, Result, Tracer, layer_medians,
                      median, run_repetitions, timing_metrics)
from .layers import MF_METHODS, EngineLog, graph_counters, grid_layers

DATASETS = ("economic", "farm", "lake", "vehicle")
MISSING_RATE = 0.1


@dataclass(frozen=True)
class Scale:
    seeds: int            # injection seeds per repetition
    n_rows: int | None    # None: the paper's experiment rows
    competitors: tuple[str, ...] | None  # None: all ten
    recheck_cells: int    # MF cells recomputed with coalesce=False
    min_reps: int


SCALES = {
    "full": Scale(seeds=2, n_rows=None, competitors=None, recheck_cells=8, min_reps=3),
    "smoke": Scale(seeds=1, n_rows=120, competitors=("knn", "mc"),
                   recheck_cells=2, min_reps=1),
}


def _competitors(scale: Scale) -> tuple[str, ...]:
    from repro.experiments.tables import TABLE_IV_METHODS

    everything = tuple(m for m in TABLE_IV_METHODS if m not in MF_METHODS)
    return everything if scale.competitors is None else scale.competitors


def injection_seeds(seed: int, count: int) -> list[int]:
    """The workload seed fans out into independent injection seeds."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def build_grid(methods, seeds, scale: Scale, name: str):
    from repro.runner import RunGrid, RunSpec

    cells = []
    for dataset in DATASETS:
        for method in methods:
            for s in seeds:
                params = {"dataset": dataset, "method": method,
                          "missing_rate": MISSING_RATE, "seed": s, "fast": False}
                if scale.n_rows is not None:
                    params["n_rows"] = scale.n_rows
                cells.append(RunSpec("imputation_rms", params))
    return RunGrid(name, tuple(cells), list)


def prepare_trials(seeds, scale: Scale) -> list:
    """Every (dataset, seed) trial the grid will see, made through the
    data and masking layers (``load_dataset`` + ``inject_missing``)."""
    from repro.experiments.protocol import prepare_trial

    return [prepare_trial(dataset, missing_rate=MISSING_RATE, seed=s, n_rows=scale.n_rows)
            for dataset in DATASETS for s in seeds]


def input_digest(trials) -> str:
    """Digest of the trials' injection masks: the generated inputs."""
    import hashlib

    h = hashlib.sha256()
    for trial in trials:
        h.update(np.packbits(trial.mask.observed).tobytes())
    return h.hexdigest()[:16]


def _config(directory: str):
    """The CLI's default runner configuration, rooted in ``directory``."""
    from repro.runner import RunnerConfig

    return RunnerConfig(jobs=1, cache_dir=f"{directory}/cache",
                        manifest_path=f"{directory}/manifest.json")


def _check_records(checks: Checks, records, *, mf: bool) -> None:
    for r in records:
        where = f"{r['params']['dataset']}/{r['params']['method']}/{r['params']['seed']}"
        value = r["value"]
        checks.check(isinstance(value, float) and math.isfinite(value),
                     f"RMS finite {where}")
        if mf:
            fit = r["fit"] or {}
            checks.check(fit.get("n_increases") == 0,
                         f"multiplicative fit never increases its objective {where}")
            if r["params"]["method"] == "smfl":
                checks.check(fit.get("landmark_block_intact") is True,
                             f"landmark block intact {where}")


def _recheck_uncoalesced(checks: Checks, grid, records, seed: int, count: int) -> None:
    """Sampled MF cells recomputed one by one must match bit for bit."""
    from repro.runner import RunGrid, RunnerConfig, run_grid

    rng = np.random.default_rng(seed)
    picks = sorted(rng.choice(len(grid.cells), size=min(count, len(grid.cells)),
                              replace=False).tolist())
    sample = RunGrid("table4-recheck", tuple(grid.cells[i] for i in picks), list)
    again = run_grid(sample, RunnerConfig(coalesce=False)).records
    for i, record in zip(picks, again):
        first = records[i]
        same = (first["value"] == record["value"]
                and (first["fit"] or {}).get("final_objective")
                == (record["fit"] or {}).get("final_objective"))
        checks.check(same, f"coalesced cell {i} equals its looped recompute")


def run(*, seed: int, seconds: float, trace: bool, scale: Scale,
        workdir: str, corrupt: bool = False) -> Result:
    from repro.runner import run_grid
    from repro.runner.coalesce import plan_units
    from repro.spatial import clear_graph_cache

    seeds = injection_seeds(seed, scale.seeds)
    competitors = _competitors(scale)
    checks = Checks()
    clock, plain = Clock(), Clock(calibrate=False)

    digest = input_digest(prepare_trials(seeds, scale))

    # Warm-up: one untimed pass over every method and dataset (imports,
    # first-call allocations), one seed, nothing kept.
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        run_grid(build_grid(MF_METHODS, seeds[:1], scale, "warm-mf"), _config(f"{tmp}/mf"))
        run_grid(build_grid(competitors, seeds[:1], scale, "warm-b"), _config(f"{tmp}/b"))

    setup, jobs, mf_times, b_times, layer_rows = [], [], [], [], []
    last: dict = {}
    attempted = 0

    def one_rep(traced: bool) -> None:
        nonlocal attempted
        clk = plain if traced else clock
        # Set-up: the trials every cell sees, made through the data and
        # masking layers (each cell makes its own again inside run_grid),
        # the two grids, and the graph cache reset.
        with clk.phase() as prep:
            prepare_trials(seeds, scale)
            mf_grid = build_grid(MF_METHODS, seeds, scale, "table4-mf")
            b_grid = build_grid(competitors, seeds, scale, "table4-baselines")
            clear_graph_cache()
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            tracer = Tracer() if traced else NULL_TRACER
            log = EngineLog()
            counters = graph_counters()
            with (grid_layers(tracer, log) if traced else contextlib.nullcontext()), \
                    tracer.span("rep") as root:
                with clk.phase() as mf, tracer.span("runner.mf") as mf_span:
                    mf_out = run_grid(mf_grid, _config(f"{tmp}/mf"))
                with clk.phase() as b, tracer.span("runner.baselines") as b_span:
                    b_out = run_grid(b_grid, _config(f"{tmp}/b"))
            if traced:
                hits, misses = (a - b for a, b in zip(graph_counters(), counters))
                t0 = time.perf_counter()
                warm_mf = run_grid(mf_grid, _config(f"{tmp}/mf"))
                warm_b = run_grid(b_grid, _config(f"{tmp}/b"))
                warm_s = time.perf_counter() - t0
                warm_hits = warm_mf.cache_stats["hits"] + warm_b.cache_stats["hits"]
                units = (len(plan_units(mf_grid.cells, range(len(mf_grid))))
                         + len(plan_units(b_grid.cells, range(len(b_grid)))))
                layer_rows.append(_layer_metrics(
                    tracer, root, mf_span, b_span, log, competitors,
                    n_mf=len(mf_grid), n_b=len(b_grid), hits=hits, misses=misses,
                    units=units, warm_s=warm_s,
                    warm_hit_ratio=warm_hits / (len(mf_grid) + len(b_grid)),
                ))
                last["log"] = log
            else:
                # A second cold MF grid: the short MF phase gets twice the
                # samples of the long competitor phase.
                clear_graph_cache()
                with clk.phase() as mf_again:
                    run_grid(mf_grid, _config(f"{tmp}/mf-again"))
                attempted += len(mf_grid)
                setup.append(prep)
                jobs.append(mf + b)
                mf_times.extend([mf, mf_again])
                b_times.append(b)
        attempted += len(mf_grid) + len(b_grid)
        records = [dict(r) for r in mf_out.records]
        if corrupt:
            records[0]["value"] = float("nan")
        _check_records(checks, records, mf=True)
        _check_records(checks, b_out.records, mf=False)
        last.update(mf_grid=mf_grid, mf_records=records, cells=len(mf_grid) + len(b_grid))

    reps = run_repetitions(one_rep, seconds, trace=trace, min_reps=scale.min_reps)

    _recheck_uncoalesced(checks, last["mf_grid"], last["mf_records"], seed,
                         scale.recheck_cells)

    n_mf = len(last["mf_grid"])
    n_b = last["cells"] - n_mf
    metrics, timing_details = timing_metrics(setup, jobs, mf_times)
    result = Result(
        metrics=metrics,
        checks=checks,
        attempted=attempted,
        details={
            "repetitions": (reps, "count"),
            "cells_per_repetition": (last["cells"], "cells"),
            "mf_cells_per_s": (n_mf / median([t.seconds for t in mf_times]), "cells/s"),
            "baseline_cells_per_s": (n_b / median([t.seconds for t in b_times]), "cells/s"),
            "input_digest": (digest, "sha256-prefix"),
            **timing_details,
        },
    )
    result.probes = clock.probes
    if trace:
        layers = layer_medians(layer_rows, [t.seconds for t in jobs])
        layers["engine.batched_over_looped"] = _batched_over_looped(last["log"])
        result.layers = layers
    return result


def _layer_metrics(tracer: Tracer, root, mf_span, b_span, log: EngineLog,
                   competitors, *, n_mf, n_b, hits, misses, units, warm_s,
                   warm_hit_ratio) -> dict[str, float]:
    reports = log.reports
    glue = ("runner.mf", "runner.baselines")
    runner_self = sum(s.duration - tracer.covered(s) for s in (mf_span, b_span))
    out = {
        "data.generate_s": tracer.total("data.generate"),
        "masking.inject_s": tracer.total("masking.inject"),
        "metrics.score_s": tracer.total("metrics.score"),
        "spatial.graph_s": tracer.total("spatial.graph"),
        "spatial.graph_builds": float(misses),
        "spatial.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.landmarks_s": tracer.total("core.landmarks"),
        "engine.mf_fit_s": tracer.total("engine.mf_fit"),
        "engine.fits": float(len(reports)),
        "engine.iterations": float(sum(r.n_iter for r in reports)),
        "engine.converged_ratio": (sum(bool(r.converged) for r in reports)
                                   / len(reports) if reports else 0.0),
        "engine.objective_increases": float(sum(r.n_increases for r in reports)),
        "runner.units": float(units),
        "runner.self_s": runner_self,
        "runner.warm_s": warm_s,
        "runner.warm_hit_ratio": warm_hit_ratio,
        "runner.mf_cells_per_s": n_mf / mf_span.duration,
        "runner.baseline_cells_per_s": n_b / b_span.duration,
        "trace.attributed_share": (tracer.covered(root, exclude=glue)
                                   / (mf_span.duration + b_span.duration)),
        "trace.job_s": mf_span.duration + b_span.duration,
    }
    for method in competitors:
        out[f"baselines.{method}_s"] = tracer.total(f"baselines.{method}")
    return out


def _batched_over_looped(log: EngineLog) -> float:
    """The traced rep's batched MF fits replayed batched, then looped."""
    import copy

    from repro.core.batched_fit import fit_models_batched
    from repro.spatial import clear_graph_cache

    batched_jobs = log.batched_jobs   # unfitted copies taken at capture
    looped_jobs = copy.deepcopy(batched_jobs)
    clear_graph_cache()
    t0 = time.perf_counter()
    for jobs in batched_jobs:
        fit_models_batched(jobs)
    batched = time.perf_counter() - t0
    clear_graph_cache()
    t0 = time.perf_counter()
    for jobs in looped_jobs:
        for m, x, mask in jobs:
            m.fit(x, mask)
    looped = time.perf_counter() - t0
    return batched / looped if looped > 0 else 0.0
