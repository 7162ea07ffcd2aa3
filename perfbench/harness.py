"""Shared benchmark machinery: spans, checks, repetitions, environment.

Nothing here touches the library's own tracing; spans are recorded in
memory by the benchmark around its calls into each layer.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np


# ----------------------------------------------------------------- spans

@dataclass
class Span:
    name: str
    span_id: int
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder: name, start, end and the causing span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record = Span(name, len(self.spans),
                      self._stack[-1] if self._stack else None,
                      time.perf_counter())
        self.spans.append(record)
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def covered(self, root: Span, exclude: tuple[str, ...] = ()) -> float:
        """Seconds of ``root`` covered by its descendant spans.

        Spans named in ``exclude`` are looked through (their children
        still count), so a glue layer's self time stays unattributed.
        """
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)

        intervals: list[tuple[float, float]] = []

        def walk(span_id: int) -> None:
            for child in children.get(span_id, ()):
                if child.name in exclude:
                    walk(child.span_id)
                else:
                    intervals.append((child.start, child.end))

        walk(root.span_id)
        intervals.sort()
        total, cursor = 0.0, root.start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                total += hi - lo
                cursor = hi
        return total


class _NullTracer:
    """Tracing off: a shared no-op context, nothing recorded."""

    _null = contextlib.nullcontext()

    def span(self, name: str) -> contextlib.nullcontext:
        return self._null


NULL_TRACER = _NullTracer()


# ---------------------------------------------------------------- checks

class Checks:
    """Counts output checks; ``pass_ratio`` is passed / checked."""

    def __init__(self) -> None:
        self.checked = 0
        self.passed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.checked += 1
        if ok:
            self.passed += 1
        elif len(self.failures) < 20:
            self.failures.append(what)

    @property
    def pass_ratio(self) -> float:
        return self.passed / self.checked if self.checked else 0.0


# ---------------------------------------------------------- repetitions

def repeat_for(seconds: float, rep: Callable[[], None], *, min_reps: int) -> int:
    """Run ``rep()`` at least ``min_reps`` times, then while the next
    one (estimated by the slowest so far) still fits in ``seconds``."""
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        rep()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= min_reps and elapsed + max(durations) > seconds:
            return len(durations)


def run_repetitions(one_rep: Callable[[bool], None], seconds: float, *, trace: bool,
                    min_reps: int) -> int:
    """Repeat ``one_rep(traced)`` for about ``seconds``; return the count.

    Untraced runs repeat untraced repetitions; traced runs alternate an
    untraced and a traced repetition, so the per-layer numbers and the
    tracing overhead come from the same stretch of machine time."""
    if not trace:
        return repeat_for(seconds, lambda: one_rep(False), min_reps=min_reps)

    def pair() -> None:
        one_rep(False)
        one_rep(True)
    return repeat_for(seconds, pair, min_reps=1)


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in (0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q * len(ordered))))
    return float(ordered[rank - 1])


def layer_medians(rows: list[dict[str, float]], untraced_jobs: list[float]) -> dict[str, float]:
    """Median of each per-layer number over the traced repetitions, plus
    the tracing overhead (traced / untraced median job seconds)."""
    layers = {name: median([row[name] for row in rows]) for name in rows[0]}
    layers["trace.overhead_ratio"] = layers.pop("trace.job_s") / median(untraced_jobs)
    return layers


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, in MB
    (ru_maxrss is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ----------------------------------------------------------- environment

_GEMM = np.random.default_rng(0).random((192, 192))
_SMALL = np.random.default_rng(1).random((64, 12))

REFERENCE_PROBE_S = 0.017
"""Seconds one :func:`probe_seconds` loop takes on a quiet 2-core x86_64
VM (OpenBLAS 0.3.31 SkylakeX kernels, one thread, numpy 2.4, CPython
3.11).  Calibrated seconds are wall seconds rescaled to that speed."""


def probe_seconds() -> float:
    """One fixed loop of machine work, independent of the library: BLAS
    gemm, interpreter arithmetic and small numpy calls, the three kinds
    of work the workloads mix."""
    t0 = time.perf_counter()
    for _ in range(40):
        _GEMM @ _GEMM
    s = 0
    for i in range(80000):
        s += i * i % 7
    for _ in range(300):
        (_SMALL @ _SMALL.T).sum(axis=0)
    return time.perf_counter() - t0


@dataclass
class Timing:
    seconds: float = 0.0      # wall seconds as measured
    calibrated: float = 0.0   # the same, rescaled to the reference speed

    def __add__(self, other: "Timing") -> "Timing":
        return Timing(self.seconds + other.seconds, self.calibrated + other.calibrated)


def timing_metrics(setup: list[Timing], job: list[Timing], mf_fit: list[Timing]
                   ) -> tuple[dict[str, float], dict[str, tuple[float | str, str]]]:
    """End-to-end time metrics (calibrated medians) and, beside them, the
    wall-clock medians and per-repetition values as detail lines."""
    metrics, details = {}, {}
    for name, timings in (("setup_s", setup), ("job_s", job), ("mf_fit_s", mf_fit)):
        metrics[name] = median([t.calibrated for t in timings])
        stem = name[:-len("_s")]
        details[f"{stem}_wall_s"] = (median([t.seconds for t in timings]), "s")
        details[f"{stem}_per_repetition"] = (
            " ".join(f"{t.seconds:.3f}/{t.calibrated:.3f}" for t in timings),
            "wall/calibrated s")
    return metrics, details


class Clock:
    """Times phases and calibrates each against probes run just before
    and just after it (``calibrate=False``: wall time only, for traced
    repetitions whose spans must not contain probes).

    Neighbouring load on a shared machine slows every kind of work by
    up to half for tens of seconds at a time; dividing by the probe
    taken around the phase cancels most of that drift (measured on the
    MF grid: per-repetition spread 25% raw, 10% calibrated)."""

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        self.probes: list[float] = []

    @contextlib.contextmanager
    def phase(self) -> Iterator[Timing]:
        timing = Timing()
        before = probe_seconds() if self.calibrate else REFERENCE_PROBE_S
        t0 = time.perf_counter()
        try:
            yield timing
        finally:
            timing.seconds = time.perf_counter() - t0
            after = probe_seconds() if self.calibrate else REFERENCE_PROBE_S
            if self.calibrate:
                self.probes += [before, after]
            timing.calibrated = timing.seconds * REFERENCE_PROBE_S / ((before + after) / 2)


def _blas_threads() -> int | None:
    """Threads OpenBLAS reports, when numpy bundles a queryable OpenBLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
        except OSError:
            continue
    return None


def _blas_vendor() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _source_digest(root: str) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "repro", "**", "*.py"),
                             recursive=True)):
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()[:16]


def _git_sha(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(root: str) -> dict:
    """Cores, BLAS vendor and threads, versions and source identity."""
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "cores": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": _blas_vendor(),
        "blas_threads": _blas_threads(),
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "machine": platform.machine(),
        "git_sha": _git_sha(root),
        "src_digest": _source_digest(root),
    }


# ------------------------------------------------------------- processes

def stop_children(timeout: float = 10.0) -> None:
    """Stop every process the run started and wait for each to end.

    ``fit_oocore(jobs>1)`` joins its workers itself; this also covers a
    fit that raised, and the ``multiprocessing`` resource tracker that
    its shared-memory segments start, which otherwise outlives the run
    until it notices the benchmark has exited."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()   # closes the tracker's pipe and waits for it to exit


# ---------------------------------------------------------------- output

@dataclass
class Result:
    """What a workload hands back to run.py."""

    metrics: dict[str, float]
    checks: Checks
    attempted: int
    failed: int = 0
    details: dict[str, tuple[float | str, str]] = field(default_factory=dict)
    layers: dict[str, float] | None = None
    probes: list[float] = field(default_factory=list)


def emit(result: Result, units: dict[str, str], env: dict) -> None:
    """Human lines, then the one-line JSON result (the last stdout line)."""
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in result.details.items():
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else value
        print(f"detail {name} = {shown} {unit}")
    for failure in result.checks.failures:
        print(f"check failed: {failure}")
    for name, value in result.metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    payload = {
        "correct": result.checks.checked > 0
        and result.checks.passed == result.checks.checked
        and result.failed == 0,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in result.metrics.items()
        },
    }
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()
