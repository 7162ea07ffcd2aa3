"""Workload ``oocore_stream``: a 1M-row matrix fitted out of core.

A ``lowrank_landmark`` matrix (vehicle-style: 13 columns, rank 6, 2
spatial columns frozen as the landmark prefix) is generated once per
run, one block at a time, into a master ``.npy`` data/mask pair; the
matrix is never held in the benchmark's memory, so the resident-set
metrics measure the fit.  Every repetition copies the pair into a fresh
temp dir and initialises the factors from it (that is set-up).
``fit_oocore`` then streams it from a ``MemmapBlockSource``
twice with the same epochs, landmark init and seed: in-process
(``jobs=1``) and with 2 worker processes (``jobs=2``), each worker
inheriting the one-thread BLAS that run.py pins.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .harness import (NULL_TRACER, Checks, Clock, Result, Tracer, layer_medians,
                      median, run_repetitions, timing_metrics)
from .layers import spanned

COLS = 13
RANK = 6
SPATIAL = 2
JOBS = 2   # worker processes of the parallel fit

PARALLEL_OBJECTIVE_RATIO_LIMIT = 1.30
"""Largest accepted (jobs=2 / jobs=1) final sampled objective.

Within-round V staleness lets the 2-worker fit end above the serial
one: 1.30x was measured at 1M rows x 3 epochs (8.87e7 vs 6.84e7).  The
deviation is recorded here, not fixed; the check catches a parallel fit
that drifts further."""

PARALLEL_OBJECTIVE_RATIO_EXPECTED = "0.82-1.22"
"""The ratio as measured at this workload's configuration (1M rows x 6
epochs, step below; seeds 701-710), printed beside the limit."""

STEP_TIMES_ROWS = 30.0
"""Learning rate x rows.  At the library sweep's cap of 100/rows the
1M-row SGD trajectories spike between epochs and the parallel/serial
final objective ratio ranged 0.04x-51x over 14 seeds: an open defect of
the stochastic kernels' step-size cap, not fixed here.  At 30/rows both
fits decrease every epoch and the ratio measures staleness, not luck."""


@dataclass(frozen=True)
class Scale:
    rows: int
    block_rows: int
    epochs: int
    min_reps: int


SCALES = {
    "full": Scale(rows=1_000_000, block_rows=65_536, epochs=6, min_reps=3),
    # Smoke size exercises every call; the step is tuned for 1M rows, so
    # the objective checks are not expected to hold at this size.
    "smoke": Scale(rows=20_000, block_rows=4_096, epochs=2, min_reps=1),
}


def write_matrix(seed: int, scale: Scale, directory: str):
    """Generate the seeded matrix into a .npy data/mask pair in
    ``directory``, one block at a time through plain file writes (no
    mapping, so none of it stays resident).  Returns the two paths and
    the first block, which the landmarks are computed from."""
    from repro.oocore import GeneratorBlockSource

    source = GeneratorBlockSource(
        "lowrank_landmark", {"rows": scale.rows, "cols": COLS, "rank": RANK},
        seed=seed, block_rows=scale.block_rows)
    paths = (os.path.join(directory, "x.npy"), os.path.join(directory, "mask.npy"))
    first = None
    with open(paths[0], "wb") as data, open(paths[1], "wb") as mask:
        for handle, dtype in ((data, np.float64), (mask, np.bool_)):
            np.lib.format.write_array_header_1_0(handle, {
                "descr": np.lib.format.dtype_to_descr(np.dtype(dtype)),
                "fortran_order": False, "shape": (scale.rows, COLS)})
        for block in source:
            first = block if first is None else first
            np.ascontiguousarray(block.x_observed, dtype=np.float64).tofile(data)
            np.ascontiguousarray(block.observed, dtype=np.bool_).tofile(mask)
    return paths[0], paths[1], first


def copy_inputs(master: tuple[str, str], directory: str) -> tuple[str, str]:
    """A fresh copy of the master pair in ``directory`` (copied in the
    kernel, so the copy adds nothing to this process's resident set)."""
    return tuple(shutil.copyfile(path, os.path.join(directory, os.path.basename(path)))
                 for path in master)


def landmarks_of(block, seed: int):
    """K-means landmarks of the first block's spatial columns.

    Computed once per run with the matrix: k-means stops at convergence,
    which takes 0.1-1.5 s depending on the seed, and that input-dependent
    spread would otherwise swamp the per-repetition set-up time."""
    from repro.core import kmeans_landmarks

    return kmeans_landmarks(block.x_observed[:, :SPATIAL], RANK,
                            observed=block.observed[:, :SPATIAL], random_state=seed)


def init_factors(source, landmarks, seed: int):
    """Streamed random init with the landmark block C injected."""
    from repro.oocore import streaming_init

    u0, v0 = streaming_init(source, RANK, random_state=seed)
    return u0, landmarks.inject(v0)


@dataclass
class Outcome:
    """What the checks need from one fit.  U (rows x rank) itself is
    dropped right after the fit, so it does not inflate the resident set
    that later fits and forked workers start from."""

    u_finite: bool
    u_digest: str
    v: np.ndarray
    landmark_block_intact: bool
    sampled_objectives: list


def outcome(result) -> Outcome:
    return Outcome(u_finite=bool(np.isfinite(result.u).all()),
                   u_digest=hashlib.sha256(np.ascontiguousarray(result.u)).hexdigest(),
                   v=result.v, landmark_block_intact=bool(result.landmark_block_intact),
                   sampled_objectives=list(result.sampled_objectives))


def _check(checks: Checks, v0: np.ndarray, serial: Outcome, parallel: Outcome) -> float:
    for label, result in (("jobs=1", serial), ("jobs=2", parallel)):
        checks.check(bool(result.u_finite and np.isfinite(result.v).all()),
                     f"{label} factors finite")
        checks.check(bool(result.landmark_block_intact
                          and np.array_equal(result.v[:, :SPATIAL], v0[:, :SPATIAL])),
                     f"{label} landmark block intact")
        objectives = result.sampled_objectives
        checks.check(objectives[-1] < objectives[0],
                     f"{label} sampled objective falls over the fit")
    ratio = parallel.sampled_objectives[-1] / serial.sampled_objectives[-1]
    checks.check(bool(ratio <= PARALLEL_OBJECTIVE_RATIO_LIMIT),
                 f"parallel objective ratio {ratio:.3f} within "
                 f"{PARALLEL_OBJECTIVE_RATIO_LIMIT}")
    return float(ratio)


def run(*, workdir: str, **kwargs) -> Result:
    """Run the workload; the master matrix lives in a temp dir for the run."""
    with tempfile.TemporaryDirectory(dir=workdir) as masters:
        return _run(workdir=workdir, masters=masters, **kwargs)


def _run(*, seed: int, seconds: float, trace: bool, scale: Scale,
         workdir: str, masters: str, corrupt: bool = False) -> Result:
    from repro.oocore import MemmapBlockSource, fit_oocore

    checks = Checks()
    clock, plain = Clock(), Clock(calibrate=False)
    setup, jobs, serial_s, parallel_s, ratios, layer_rows = [], [], [], [], [], []
    lr = STEP_TIMES_ROWS / scale.rows
    row_updates = scale.rows * scale.epochs

    # Warm-up: the whole path once at a few blocks, nothing kept.
    warm = Scale(rows=4 * scale.block_rows, block_rows=scale.block_rows, epochs=1,
                 min_reps=1)
    os.mkdir(os.path.join(masters, "warm"))
    t0 = time.perf_counter()
    *matrix, first_block = write_matrix(seed, scale, masters)
    t1 = time.perf_counter()
    landmarks = landmarks_of(first_block, seed)
    generate_s, landmarks_s = t1 - t0, time.perf_counter() - t1
    del first_block
    *warm_matrix, _ = write_matrix(seed, warm, os.path.join(masters, "warm"))

    def one_rep(traced: bool, warmup: bool = False) -> None:
        size = warm if warmup else scale
        tracer = Tracer() if traced else NULL_TRACER
        clk = plain if traced else clock

        def fit(source, v0, u0, n_jobs):
            return fit_oocore(source, v0, u0, epochs=size.epochs, jobs=n_jobs,
                              frozen_prefix=SPATIAL, shuffle=True, seed=seed,
                              learning_rate=lr)

        # Each fit's result is reduced to its Outcome outside the timed
        # phase, before the next fit starts.

        with tempfile.TemporaryDirectory(dir=workdir) as tmp, tracer.span("rep") as root:
            with clk.phase() as prep:
                with tracer.span("data.write"):
                    data_path, mask_path = copy_inputs(
                        warm_matrix if warmup else matrix, tmp)
                source = MemmapBlockSource(data_path, mask_path, size.block_rows)
                with tracer.span("oocore.init"):
                    u0, v0 = init_factors(source, landmarks, seed)
            with clk.phase() as one, \
                    (spanned(tracer, MemmapBlockSource, "_materialize", "oocore.block_read")
                     if traced else contextlib.nullcontext()), \
                    tracer.span("oocore.serial_fit"):
                fitted = fit(source, v0, u0, 1)
            serial = outcome(fitted)
            del fitted
            with clk.phase() as many, tracer.span("oocore.parallel_fit"):
                fitted = fit(source, v0, u0, JOBS)
            parallel = outcome(fitted)
            del fitted
            if not (traced or warmup):
                # A second serial fit: the MF-fit metric gets twice the
                # samples, and the fit must repeat bit for bit.
                with clk.phase() as one_again:
                    fitted = fit(source, v0, u0, 1)
                again = outcome(fitted)
                del fitted
        if warmup:
            return
        if corrupt:
            serial.v[0, 0] += 1.0
        ratio = _check(checks, v0, serial, parallel)
        if traced:
            layer_rows.append({
                "data.generate_s": generate_s,
                "data.write_s": tracer.total("data.write"),
                "oocore.init_s": tracer.total("oocore.init"),
                "core.landmarks_s": landmarks_s,
                "oocore.block_read_s": tracer.total("oocore.block_read"),
                "oocore.blocks": float(tracer.count("oocore.block_read")),
                "oocore.serial_fit_s": one.seconds,
                "oocore.parallel_fit_s": many.seconds,
                "oocore.serial_rows_per_s": row_updates / one.seconds,
                "oocore.parallel_rows_per_s": row_updates / many.seconds,
                "oocore.parallel_speedup": one.seconds / many.seconds,
                "oocore.parallel_objective_ratio": ratio,
                "trace.attributed_share": tracer.covered(root) / root.duration,
                "trace.job_s": one.seconds + many.seconds,
            })
        else:
            checks.check(bool(again.u_digest == serial.u_digest
                              and np.array_equal(again.v, serial.v)),
                         "jobs=1 fit repeats bit for bit")
            setup.append(prep)
            jobs.append(one + many)
            serial_s.extend([one, one_again])
            parallel_s.append(many)
            ratios.append(ratio)

    one_rep(False, warmup=True)
    reps = run_repetitions(one_rep, seconds, trace=trace, min_reps=scale.min_reps)

    metrics, timing_details = timing_metrics(setup, jobs, serial_s)
    result = Result(
        metrics=metrics,
        checks=checks,
        attempted=3 * len(jobs) + 2 * len(layer_rows),
        details={
            "repetitions": (reps, "count"),
            "matrix_rows": (scale.rows, "rows"),
            "epochs": (scale.epochs, "count"),
            "stream_rows_per_s": (row_updates / median([t.seconds for t in serial_s]),
                                  "rows/s"),
            "parallel_rows_per_s": (row_updates / median([t.seconds for t in parallel_s]),
                                    "rows/s"),
            "parallel_objective_ratio": (median(ratios), "ratio"),
            "parallel_objective_ratio_expected": (
                PARALLEL_OBJECTIVE_RATIO_EXPECTED, "ratio (measured at this configuration)"),
            "parallel_objective_ratio_limit": (PARALLEL_OBJECTIVE_RATIO_LIMIT, "ratio"),
            **timing_details,
        },
    )
    result.probes = clock.probes
    if trace:
        layers = layer_medians(layer_rows, [t.seconds for t in jobs])
        layers["oocore.worker_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
        result.layers = layers
    return result
