"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table4_grid --seed 1 --seconds 30 --trace 0

Workloads: ``table4_grid``, ``fit_serve``, ``oocore_stream`` (see
``perfbench/spec.py`` for why each was chosen and which metric each
layer should move).  The library is imported from ``src/`` of the
checkout.  ``--trace 0`` prints the end-to-end metrics of untraced
repetitions; ``--trace 1`` alternates untraced and traced repetitions
and prints the per-layer metrics.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Every run is isolated the same way: OpenBLAS, OpenMP and MKL are pinned
to one thread before numpy is imported (worker processes inherit it),
the spatial graph cache is cleared and a fresh temp dir (under
``.perfbench_tmp/`` in the checkout) is used before every timed
repetition, and one untimed warm-up pass runs first.  Nothing is
written under ``results/``.
"""

from __future__ import annotations

import os
import statistics
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def _parse(argv):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, *, scale: str = "full", corrupt: bool = False) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: the library source is missing ({src}/repro)", file=sys.stderr)
        return 2
    if src not in sys.path:
        sys.path.insert(0, src)
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    # Spawned or forked workers import the library from the same tree.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)

    from perfbench import fit_serve, oocore_stream, spec, table4_grid
    from perfbench.harness import (emit, environment, peak_rss_mb, probe_seconds,
                                   stop_children)

    workloads = {"table4_grid": table4_grid, "fit_serve": fit_serve,
                 "oocore_stream": oocore_stream}
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads)}", file=sys.stderr)
        return 2
    module = workloads[args.workload]

    workdir = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(workdir, exist_ok=True)
    env = environment(ROOT)
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, scale=scale)
    try:
        probe_start = statistics.median(probe_seconds() for _ in range(7))
        result = module.run(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                            scale=module.SCALES[scale], workdir=workdir, corrupt=corrupt)
        probe_end = statistics.median(probe_seconds() for _ in range(7))
        env.update(probe_start_s=probe_start, probe_end_s=probe_end,
                   probe_phase_median_s=statistics.median(result.probes or [0.0]))
        result.metrics["peak_rss_mb"] = peak_rss_mb()
        result.metrics["pass_ratio"] = result.checks.pass_ratio

        if args.trace:
            layers = {name: 0.0 for name in spec.PER_LAYER}   # 0: layer not called
            layers.update(result.layers)
            layers["env.probe_s"] = (probe_start + probe_end) / 2
            unknown = set(layers) - set(spec.PER_LAYER)
            if unknown:
                raise RuntimeError(f"per-layer metrics missing from spec: {sorted(unknown)}")
            result.metrics = layers
            units = {name: m["unit"] for name, m in spec.PER_LAYER.items()}
        else:
            result.metrics = {name: result.metrics[name] for name in spec.END_TO_END}
            units = {name: m["unit"] for name, m in spec.END_TO_END.items()}
        emit(result, units, env)
    finally:
        stop_children()
    try:
        os.rmdir(workdir)
    except OSError:
        pass
    return 0


def _exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so main's ``finally`` still stops the
    worker processes; forked workers get the default action back."""
    import signal

    def handler(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)
    os.register_at_fork(
        after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL))


if __name__ == "__main__":
    _exit_on_sigterm()
    sys.exit(main())
