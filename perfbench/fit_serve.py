"""Workload ``fit_serve``: cold SMFL fit, artifact round trip, fold-in stream.

A lake-shaped matrix of a few thousand training rows is fitted with a
cold spatial graph (the 2-D engine loop and one large N^2 graph, not the
batched path), saved, loaded with digest verification and put behind a
``FoldInServer``.  One waiting caller then sends a seeded request
stream: about 9 in 10 are 1-row lookups, about 1 in 10 are 64-row
imports, so p50 sits in the 1-row mode and p99 in the 64-row mode.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np

from .harness import (NULL_TRACER, Checks, Clock, Result, Tracer, layer_medians,
                      quantile, run_repetitions, timing_metrics)
from .layers import fit_layers, graph_counters

RANK = 6
MISSING_RATE = 0.1
BATCH_SHARE = 0.1   # share of requests that are batch imports


@dataclass(frozen=True)
class Scale:
    train_rows: int
    pool_rows: int       # rows the requests are drawn from, never trained on
    requests: int
    batch_rows: int
    sampled_checks: int  # requests re-answered by a direct fold_in
    min_reps: int


SCALES = {
    "full": Scale(train_rows=3000, pool_rows=640, requests=2000, batch_rows=64,
                  sampled_checks=24, min_reps=3),
    "smoke": Scale(train_rows=240, pool_rows=96, requests=40, batch_rows=16,
                   sampled_checks=4, min_reps=1),
}


@dataclass
class Inputs:
    n_spatial: int
    x_train: np.ndarray
    observed_train: np.ndarray
    truth_pool: np.ndarray
    requests: list[np.ndarray]   # NaN marks an unobserved cell
    request_rows: list[slice]    # where each request sits in the pool
    model_seed: int

    @property
    def rows_requested(self) -> int:
        return sum(r.stop - r.start for r in self.request_rows)


def make_inputs(seed: int, scale: Scale, tracer=NULL_TRACER) -> Inputs:
    from repro.data import load_dataset
    from repro.masking import MissingSpec, inject_missing

    data_seed, mask_seed, stream_seed, model_seed = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(4))
    n = scale.train_rows + scale.pool_rows
    with tracer.span("data.generate"):
        data = load_dataset("lake", n_rows=n, random_state=data_seed)
    with tracer.span("masking.inject"):
        x, mask = inject_missing(
            data.values,
            MissingSpec(missing_rate=MISSING_RATE, columns=data.attribute_columns),
            random_state=mask_seed)
    pool = x[scale.train_rows:].copy()
    pool[~mask.observed[scale.train_rows:]] = np.nan
    rng = np.random.default_rng(stream_seed)
    # A fixed share of batch imports in seeded positions, so every seed
    # asks for the same amount of work.
    n_batch = round(scale.requests * BATCH_SHARE)
    kinds = np.array([True] * n_batch + [False] * (scale.requests - n_batch))
    rng.shuffle(kinds)
    requests, rows = [], []
    for is_batch in kinds:
        if is_batch:
            lo = int(rng.integers(0, scale.pool_rows - scale.batch_rows + 1))
            rows.append(slice(lo, lo + scale.batch_rows))
            requests.append(pool[rows[-1]])
        else:
            lo = int(rng.integers(0, scale.pool_rows))
            rows.append(slice(lo, lo + 1))
            requests.append(pool[lo])
    return Inputs(
        n_spatial=data.n_spatial,
        x_train=x[:scale.train_rows],
        observed_train=mask.observed[:scale.train_rows],
        truth_pool=data.values[scale.train_rows:],
        requests=requests,
        request_rows=rows,
        model_seed=model_seed,
    )


def _heldout_rms(inputs: Inputs, responses: list[np.ndarray] | None) -> float:
    """RMS over the requests' hidden cells: the answers, or column means."""
    observed = inputs.observed_train
    col_mean = ((inputs.x_train * observed).sum(axis=0)
                / np.maximum(observed.sum(axis=0), 1))
    errors = []
    for k, (request, rows) in enumerate(zip(inputs.requests, inputs.request_rows)):
        truth = inputs.truth_pool[rows]
        hidden = np.isnan(request).reshape(truth.shape)
        guess = (np.broadcast_to(col_mean, truth.shape) if responses is None
                 else responses[k].reshape(truth.shape))
        errors.append((guess[hidden] - truth[hidden]) ** 2)
    return float(np.sqrt(np.mean(np.concatenate(errors))))


def _check(checks: Checks, inputs: Inputs, served, responses, info, path,
           scale: Scale, seed: int) -> None:
    from repro.model import verify_model

    report = verify_model(path)
    checks.check(report["ok"] and report["content_hash"] == info["content_hash"],
                 "artifact digests verify after load")
    rng = np.random.default_rng(seed)
    for i in rng.choice(len(inputs.requests), size=scale.sampled_checks, replace=False):
        direct = served.fold_in(inputs.requests[i])
        checks.check(np.array_equal(direct.reshape(responses[i].shape), responses[i]),
                     f"server answer {i} equals a direct fold_in")
    passthrough = all(
        np.array_equal(response[~np.isnan(request)], request[~np.isnan(request)])
        for request, response in zip(inputs.requests, responses))
    checks.check(passthrough, "observed request cells pass through unchanged")
    checks.check(_heldout_rms(inputs, responses) < _heldout_rms(inputs, None),
                 "held-out RMS beats column-mean imputation")


def run(*, seed: int, seconds: float, trace: bool, scale: Scale,
        workdir: str, corrupt: bool = False) -> Result:
    from repro import SMFL
    from repro.model import load_model, save_model
    from repro.serving import FoldInServer
    from repro.spatial import clear_graph_cache

    checks = Checks()
    clock, plain = Clock(), Clock(calibrate=False)
    setup, fits, streams, layer_rows = [], [], [], []
    latencies: list[tuple[int, float]] = []   # (rows, seconds) per request
    failed = 0

    # Warm-up: the whole path once on a smaller matrix, nothing kept.
    warm = replace(scale, train_rows=min(scale.train_rows, 600),
                   requests=min(scale.requests, 200))

    def one_rep(traced: bool, warmup: bool = False) -> None:
        nonlocal failed
        size = warm if warmup else scale
        tracer = Tracer() if traced else NULL_TRACER
        clk = plain if traced else clock
        counters = graph_counters()
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            with (fit_layers(tracer) if traced else contextlib.nullcontext()), \
                    tracer.span("rep") as root:
                with clk.phase() as inputs_phase:
                    inputs = make_inputs(seed, size, tracer)
                    clear_graph_cache()
                    model = SMFL(rank=RANK, n_spatial=inputs.n_spatial,
                                 random_state=inputs.model_seed)
                with clk.phase() as fit, tracer.span("engine.mf_fit"):
                    model.fit(inputs.x_train, inputs.observed_train)
                with clk.phase() as boot:
                    path = os.path.join(tmp, "smfl-lake")
                    with tracer.span("model.save"):
                        info = save_model(model.fitted_model(), path)
                    with tracer.span("model.load"):
                        served = load_model(path)
                    server = FoldInServer(served)
                responses, times = [], []
                with clk.phase() as stream_phase, tracer.span("serving.stream") as stream:
                    for request in inputs.requests:
                        r0 = time.perf_counter()
                        try:
                            responses.append(server.impute_rows(request))
                        except Exception:  # a failed request misses every limit
                            failed += 1
                            responses.append(np.full(request.shape, np.nan))
                            times.append(float("inf"))
                            continue
                        times.append(time.perf_counter() - r0)
            if traced:
                layer_rows.append(_layers(tracer, root, stream, inputs, served,
                                          model, times, info, counters))
            if warmup:
                return
            if not traced:
                setup.append(inputs_phase + boot)
                fits.append(fit)
                streams.append((stream_phase, inputs.rows_requested))
                latencies.extend(
                    (r.stop - r.start, t) for r, t in zip(inputs.request_rows, times))
            if corrupt:
                responses[0] = responses[0] + 1.0
            _check(checks, inputs, served, responses, info, path, scale, seed)
        report = model.fit_report_
        checks.check(report.n_increases == 0, "cold fit never increases its objective")
        checks.check(report.landmark_block_intact is True, "cold fit keeps its landmarks")

    one_rep(False, warmup=True)
    reps = run_repetitions(one_rep, seconds, trace=trace, min_reps=scale.min_reps)

    all_times = [t for _, t in latencies]
    p99 = quantile(all_times, 0.99)
    jobs = [f + s for f, (s, _) in zip(fits, streams)]
    metrics, timing_details = timing_metrics(setup, jobs, fits)
    result = Result(
        metrics=metrics,
        checks=checks,
        attempted=reps * (2 if trace else 1) * (1 + scale.requests),
        failed=failed,
        details={
            "repetitions": (reps, "count"),
            "train_rows": (scale.train_rows, "rows"),
            "foldin_rows_per_s": (sum(r for _, r in streams)
                                  / sum(s.seconds for s, _ in streams), "rows/s"),
            "request_p50_ms": (1e3 * quantile(all_times, 0.5), "ms"),
            "request_p99_ms": (1e3 * p99, "ms"),
            "request_samples": (len(all_times), "count"),
            "p99_tail_samples": (sum(t > p99 for t in all_times), "count"),
            "one_row_p50_ms": (1e3 * quantile([t for r, t in latencies if r == 1], 0.5), "ms"),
            "batch_p50_ms": (1e3 * quantile([t for r, t in latencies if r > 1], 0.5), "ms"),
            **timing_details,
        },
    )
    result.probes = clock.probes
    if trace:
        layers = layer_medians(layer_rows, [t.seconds for t in jobs])
        layers["serving.failed"] = float(failed)
        result.layers = layers
    return result


def _layers(tracer: Tracer, root, stream, inputs: Inputs, served, model, times,
            info, counters) -> dict[str, float]:
    """Per-layer numbers of one traced repetition.

    Totals are read before the extra comparisons below run: a direct
    ``fold_in`` over the same requests (server overhead) and SMFL and
    SMF refits on the now-warm graph (engine time alone, Figure 9).
    """
    from repro import SMF, SMFL
    from repro.serving import fold_in

    misses = graph_counters()[1] - counters[1]
    p99 = quantile(times, 0.99)
    out = {
        "data.generate_s": tracer.total("data.generate"),
        "masking.inject_s": tracer.total("masking.inject"),
        "spatial.graph_s": tracer.total("spatial.graph"),
        "spatial.graph_builds": float(misses),
        "core.landmarks_s": tracer.total("core.landmarks"),
        "engine.mf_fit_s": tracer.total("engine.mf_fit"),
        "model.save_s": tracer.total("model.save"),
        "model.load_s": tracer.total("model.load"),
        "model.artifact_bytes": float(os.path.getsize(info["json_path"])
                                      + os.path.getsize(info["npz_path"])),
        "serving.requests": float(len(times)),
        "serving.foldin_rows_per_s": inputs.rows_requested / stream.duration,
        "serving.request_p50_ms": 1e3 * quantile(times, 0.5),
        "serving.request_p99_ms": 1e3 * p99,
        "serving.p99_tail_samples": float(sum(t > p99 for t in times)),
        "trace.attributed_share": tracer.covered(root) / root.duration,
        "trace.job_s": tracer.total("engine.mf_fit") + stream.duration,
    }

    t0 = time.perf_counter()
    for request in inputs.requests:
        fold_in(served, request)
    out["serving.foldin_s"] = time.perf_counter() - t0
    out["serving.server_overhead_ratio"] = stream.duration / out["serving.foldin_s"]

    reports = [model.fit_report_]
    for cls in (SMFL, SMF):
        other = cls(rank=RANK, n_spatial=inputs.n_spatial, random_state=inputs.model_seed)
        t0 = time.perf_counter()
        other.fit(inputs.x_train, inputs.observed_train)
        out[f"engine.{other.method}_fit_s"] = time.perf_counter() - t0
        reports.append(other.fit_report_)
    out["engine.smfl_over_smf"] = out["engine.smfl_fit_s"] / out["engine.smf_fit_s"]
    hits_after, _ = graph_counters()
    out["spatial.cache_hit_ratio"] = (hits_after - counters[0]) / (
        hits_after - counters[0] + misses)
    out["engine.fits"] = float(len(reports))
    out["engine.iterations"] = float(sum(r.n_iter for r in reports))
    out["engine.converged_ratio"] = sum(bool(r.converged) for r in reports) / len(reports)
    out["engine.objective_increases"] = float(sum(r.n_increases for r in reports))
    return out
