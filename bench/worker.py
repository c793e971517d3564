"""One benchmark process: import, build the op list, time it, check it.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  ``setup`` mode stops once the ops are built, so the launcher
can sample set-up time in fresh interpreters; ``run`` mode also times
the ops (traced or not), checks every output outside the timed phase
and prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import tempfile
import time
import traceback

import numpy
import scipy

import qplancherel
from ops import (
    MIN_TRIALS_FOR_Z,
    check_op,
    engine_matches_chain,
    parse_simulate,
    pooled_z_check,
    run_op,
)
from qplancherel import diagrams, rsk
from tracing import Tracer
from workloads import WORKLOADS

# Captured before any tracer rebinds them: the counters read cache_info()
# from the cached functions themselves, never through a wrapper.
HOOK_DATA = diagrams.hook_data
MAJ_DISTRIBUTION = rsk.maj_distribution


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def execute(ops, out_dir, tracer=None):
    """Run ``ops`` in order; returns ([(seconds, value, error)], wall, cpu)."""
    outcomes = []
    if tracer is not None:
        tracer.install()
    try:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        t_start = time.perf_counter()
        for index, op in enumerate(ops):
            path = os.path.join(out_dir, f"op{index}.out")
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    value = run_op(op, path)
                else:
                    with tracer.op(index, op.label):
                        value = run_op(op, path)
                error = None
            except Exception:  # a failing op is counted, the run goes on
                value, error = None, traceback.format_exc(limit=-1).strip().splitlines()[-1]
            outcomes.append((time.perf_counter() - t0, value, error))
        wall = time.perf_counter() - t_start
        after = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        if tracer is not None:
            tracer.uninstall()
    cpu = (after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime)
    return outcomes, wall, cpu


def check(workload, ops, outcomes, seed, tiny):
    """Failures as (label, reason); also the simulate tables for counters."""
    failures = []
    tables = []
    for op, (_, value, error) in zip(ops, outcomes):
        reason = error
        if reason is None:
            try:
                reason = check_op(op, value)
                if op.label == "simulate":
                    with open(value[1], encoding="utf-8") as handle:
                        tables.append(parse_simulate(handle.read()))
            except Exception:  # a malformed output fails its op's check
                reason = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        if reason is not None:
            failures.append((op.label, reason))
    checks = len(ops)
    small = [t for t in tables if t.trials < MIN_TRIALS_FOR_Z]
    if small:
        checks += 1
        reason = pooled_z_check(small)
        if reason is not None:
            failures.append(("pooled_z", reason))
    for boxes, q, check_seed, stream in workload.engine_checks(seed, tiny):
        checks += 1
        reason = engine_matches_chain(boxes, q, check_seed, stream)
        if reason is not None:
            failures.append(("engine_vs_chain", reason))
    return checks, failures, tables


def _hit_ratio(info) -> float:
    calls = info.hits + info.misses
    return info.hits / calls if calls else 0.0


def cache_counters() -> dict:
    return {
        "diagrams.hook_data.hit_ratio": _hit_ratio(HOOK_DATA.cache_info()),
        "diagrams.hook_data.misses": HOOK_DATA.cache_info().misses,
        "rsk.maj_distribution.hit_ratio": _hit_ratio(MAJ_DISTRIBUTION.cache_info()),
    }


def output_counters(tables, ops, outcomes) -> dict:
    corners = [
        len(diagrams.to_interlacing(diagrams.Partition(parts)).minima)
        for table in tables
        for parts in table.shapes
    ]
    paths = [v[1] for op, (_, v, _) in zip(ops, outcomes) if op.kind == "cli" and v is not None]
    return {
        "growth.boxes": sum(sum(parts) for table in tables for parts in table.shapes),
        "growth.corners_final.mean": sum(corners) / len(corners) if corners else 0.0,
        "cli.bytes_out": sum(os.path.getsize(p) for p in paths if os.path.exists(p)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="file for the spans of a traced run")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    ops = workload.build(args.seed, args.seconds, args.tiny)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready, "package": qplancherel.__file__}))
        return 0

    tracer = Tracer() if args.trace else None
    out_dir = tempfile.mkdtemp(prefix="ops-", dir=args.workdir)
    try:
        outcomes, wall, cpu = execute(ops, out_dir, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        caches = cache_counters()
        attempted, failures, tables = check(workload, ops, outcomes, args.seed, args.tiny)
        result = {
            "ready": ready,
            "package": qplancherel.__file__,
            "env": environment(),
            "ops": [[op.label, seconds] for op, (seconds, _, _) in zip(ops, outcomes)],
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": peak_rss_mb,
            "attempted": attempted,
            "failures": failures,
            "counters": {**caches, **output_counters(tables, ops, outcomes)},
        }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if tracer is not None:
        layers = tracer.layer_self_s()
        result["trace"] = {
            "functions": tracer.stats,
            "layers": layers,
            "heavy_share": sum(layers[name] for name in workload.heavy) / result["wall_s"],
            "counters": tracer.counters,
        }
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
