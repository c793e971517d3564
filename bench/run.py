"""Benchmark of the qplancherel package: one workload, one seed, one run.

    python3 bench/run.py --workload limit_flow --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

The launcher uses the standard library only.  It caps BLAS/OpenMP
threads at the CPUs this process may use, points ``PYTHONPATH`` at the
checkout's ``src`` and starts fresh single-threaded worker processes:

* several that only import and build the inputs, for ``setup_s``;
* one that times the workload's op list with tracing off, for every
  end-to-end metric, and checks every output after the timed phase;
* with ``--trace 1``, one more that runs the same list with spans
  around the package's public functions, for the per-layer metrics.

Each metric is printed as ``name value unit``; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics, or with ``--trace 1`` the per-layer ones.  Metric
names and units come from ``BENCHMARK.json``.  Exit status: 0 when every
check passed, 1 when one failed, 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = ROOT / ".bench_build" / "qplancherel"
# Fresh interpreters sampled for set-up time, besides the timed one.
SETUP_PROBES = 3
# Per workload: every process of one run ends within this many seconds.
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SELF_S = (
    "growth.simulate_rescaled",
    "growth.report_from_samples",
    "kernel.transition_weights",
    "kernel.partial_fraction_weights",
    "kernel.grow_trajectory",
    "rsk.maj_distribution",
    "rsk.pushforward_exact",
    "qmeasure.q_measure",
    "qmeasure.hook_identity_residual",
    "diagrams.enumerate_level",
    "diagrams.to_interlacing",
    "moments.h_from_p_partition_sum",
    "moments.markov_krein_residual",
    "dynamics.limit_moments",
    "limitshape.solve_r_omega",
    "limitshape.series_h_omega",
    "cli.main",
)
CALLS = (
    "kernel.transition_weights",
    "kernel.trajectory_rng",
    "qmeasure.q_measure",
    "moments.h_from_p_partition_sum",
    "moments.p_to_h",
    "dynamics.integrate_moments",
    "dynamics.ode_rhs",
    "limitshape.solve_r_omega",
    "limitshape.brentq",
)


class BenchError(RuntimeError):
    """The run could not be made: missing sources, or a worker died."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = env.get(var, "")
        env[var] = str(min(cap, int(current))) if current.isdigit() and int(current) > 0 else str(cap)
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker; its set-up time counts from just before the spawn."""
    start = time.monotonic()
    if start >= deadline:
        raise BenchError("run budget exhausted before the next worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=deadline - start,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} exceeded the run budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(lines[-1])
    package = Path(record["package"]).resolve()
    if ROOT / "src" not in package.parents:
        raise BenchError(f"imported qplancherel from {package}, not from {ROOT / 'src'}")
    record["setup_s"] = record["ready"] - start
    return record


def tail_rank(count: int) -> int:
    """1-based rank of the highest op time with at least ten ops beyond it.

    With fewer than twenty ops no rank at or above the median has ten
    beyond it, and the slowest op is reported instead.
    """
    return count - 10 if count >= 20 else count


def end_to_end(untraced: dict, setup: list[float]) -> dict:
    times = sorted(seconds for _, seconds in untraced["ops"])
    return {
        "setup_s": statistics.median(setup),
        "wall_s": untraced["wall_s"],
        "cpu_s": untraced["cpu_s"],
        "op_s.p50": statistics.median(times),
        "op_s.tail": times[tail_rank(len(times)) - 1],
        "peak_rss_mb": untraced["peak_rss_mb"],
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    trace = traced["trace"]
    functions = trace["functions"]
    metrics = {f"layer.{layer}.self_s": value for layer, value in trace["layers"].items()}
    metrics.update({f"{name}.self_s": functions.get(name, [0, 0.0, 0.0])[2] for name in SELF_S})
    metrics.update({f"{name}.calls": functions.get(name, [0, 0.0, 0.0])[0] for name in CALLS})
    metrics.update(traced["counters"])
    metrics.update(trace["counters"])
    boxes = metrics["growth.boxes"]
    simulate_s = metrics["growth.simulate_rescaled.self_s"]
    metrics["growth.us_per_box"] = 1e6 * simulate_s / boxes if boxes else 0.0
    metrics["growth.boxes_per_s"] = boxes / untraced["wall_s"] if boxes else 0.0
    metrics["trace.overhead"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    metrics["trace.heavy_share"] = trace["heavy_share"]
    return metrics


def with_units(values: dict, declared: list[dict], kind: str) -> dict:
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise BenchError(f"{kind} metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run_workload(spec: dict, workload: str, seed: int, seconds: int, trace: bool, tiny: bool) -> int:
    deadline = time.monotonic() + RUN_BUDGET_S
    WORKDIR.mkdir(parents=True, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--workdir", str(WORKDIR)]
    if tiny:
        common.append("--tiny")
    setup = [spawn(["setup", *common], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    untraced = spawn(["run", *common, "--trace", "0"], deadline)
    setup.append(untraced["setup_s"])
    e2e = with_units(end_to_end(untraced, setup), spec["end_to_end"], "end_to_end")
    metrics = e2e
    if trace:
        traces = WORKDIR / "traces"
        traces.mkdir(exist_ok=True)
        spans = traces / f"{workload}-seed{seed}.json"
        traced = spawn(["run", *common, "--trace", "1", "--spans", str(spans)], deadline)
        metrics = with_units(per_layer(traced, untraced), spec["per_layer"], "per_layer")

    attempted = untraced["attempted"]
    failures = untraced["failures"]
    env = untraced["env"]
    count = len(untraced["ops"])
    print(f"# workload={workload} seed={seed} seconds={seconds} trace={int(trace)} ops={count}")
    print("# env " + " ".join(f"{key}={value}" for key, value in env.items()))
    for name, metric in (e2e | metrics).items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"# op_s.tail is op time rank {tail_rank(count)} of {count} (p{100.0 * tail_rank(count) / count:.0f})")
    print(f"# fail_frac {len(failures) / attempted!r} ratio ({len(failures)} of {attempted} checks)")
    for label, reason in failures:
        print(f"# FAIL {label}: {reason}")
    if trace:
        print(f"# spans written to {spans.relative_to(ROOT)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    results = WORKDIR / "results"
    results.mkdir(exist_ok=True)
    record = {**result, "end_to_end": e2e, "env": env, "ops": untraced["ops"], "failures": failures}
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if not failures else 1


def main(argv=None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Shrinks every size so the self-test runs in seconds.
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qplancherel" / "__init__.py").is_file():
        print(f"bench: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    status = 0
    for workload in names if args.workload == "all" else [args.workload]:
        try:
            status = max(status, run_workload(spec, workload, args.seed, args.seconds, bool(args.trace), args.tiny))
        except BenchError as exc:
            print(f"bench: {workload}: {exc}", file=sys.stderr)
            return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
