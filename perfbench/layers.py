"""Layer spans for the traced run, placed from outside the library.

The library is not edited: for the duration of a traced repetition the
benchmark swaps the module attributes through which one layer calls the
next for thin wrappers that open a span around the original call, and
restores them afterwards.  Each entry below names the attribute the
caller looks up at call time, so the wrapper sits exactly on the layer
boundary.
"""

from __future__ import annotations

import contextlib
import copy
import functools
from dataclasses import dataclass, field
from typing import Any, Iterator
from unittest import mock

MF_METHODS = ("nmf", "smf", "smfl")


def _wrap(tracer, original, span_name: str):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(span_name):
            return original(*args, **kwargs)
    return wrapper


@contextlib.contextmanager
def spanned(tracer, target: Any, attr: str, span_name: str) -> Iterator[None]:
    """Open ``span_name`` around every call of ``target.attr``."""
    with mock.patch.object(target, attr, _wrap(tracer, getattr(target, attr), span_name)):
        yield


def graph_counters() -> tuple[int, int]:
    """(hits, misses) of the spatial graph cache so far in this process."""
    from repro.obs.metrics import get_metrics

    registry = get_metrics()
    return (registry.counter("spatial_graph_cache.hits").value,
            registry.counter("spatial_graph_cache.misses").value)


@dataclass
class EngineLog:
    """Fit reports seen at the engine boundary, plus the batched jobs
    (copied before fitting) for the batched-vs-looped replay."""

    reports: list = field(default_factory=list)
    batched_jobs: list = field(default_factory=list)


@contextlib.contextmanager
def fit_layers(tracer) -> Iterator[None]:
    """Spans inside a model fit: the spatial graph and the landmarks."""
    from repro.core import smf, smfl

    with spanned(tracer, smf, "spatial_graph", "spatial.graph"), \
            spanned(tracer, smfl, "kmeans_landmarks", "core.landmarks"):
        yield


@contextlib.contextmanager
def grid_layers(tracer, log: EngineLog) -> Iterator[None]:
    """Spans around every layer a grid cell calls into."""
    from repro.baselines import registry
    from repro.core import batched_fit
    from repro.experiments import protocol
    from repro.metrics import rms

    original_batched = batched_fit.fit_models_batched

    def fit_models_batched(jobs, **kwargs):
        log.batched_jobs.append(
            [(copy.deepcopy(model), x, mask) for model, x, mask in jobs]
        )
        with tracer.span("engine.mf_fit"):
            reports = original_batched(jobs, **kwargs)
        log.reports.extend(reports)
        return reports

    def instrument(original_make):
        @functools.wraps(original_make)
        def make_imputer(name, *args, **kwargs):
            imputer = original_make(name, *args, **kwargs)
            method = str(name).lower()
            fit_impute = imputer.fit_impute
            span_name = "engine.mf_fit" if method in MF_METHODS else f"baselines.{method}"

            def spanned_fit_impute(*a, **k):
                with tracer.span(span_name):
                    out = fit_impute(*a, **k)
                if method in MF_METHODS:
                    log.reports.append(imputer.fit_report_)
                return out

            imputer.fit_impute = spanned_fit_impute
            return imputer
        return make_imputer

    with contextlib.ExitStack() as stack:
        stack.enter_context(spanned(tracer, protocol, "load_dataset", "data.generate"))
        stack.enter_context(spanned(tracer, protocol, "inject_missing", "masking.inject"))
        stack.enter_context(spanned(tracer, protocol, "rms_over_mask", "metrics.score"))
        stack.enter_context(spanned(tracer, rms, "rms_over_mask", "metrics.score"))
        stack.enter_context(mock.patch.object(batched_fit, "fit_models_batched",
                                              fit_models_batched))
        stack.enter_context(mock.patch.object(protocol, "make_imputer",
                                              instrument(protocol.make_imputer)))
        stack.enter_context(mock.patch.object(registry, "make_imputer",
                                              instrument(registry.make_imputer)))
        stack.enter_context(fit_layers(tracer))
        yield
