"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import worker  # noqa: E402
from ops import Op  # noqa: E402
from qplancherel import diagrams, dynamics, moments  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
TMP_ROOT = ROOT / ".bench_build" / "qplancherel"


@pytest.fixture
def tmp_dir():
    TMP_ROOT.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=TMP_ROOT))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_workloads_match_benchmark_json():
    assert sorted(NAMES) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if not line.startswith("#")}
    for m in SPEC["end_to_end"] + (SPEC["per_layer"] if trace else []):
        assert printed[m["name"]] == m["unit"]
    for m in SPEC["end_to_end"]:
        assert float(next(line for line in lines if line.startswith(m["name"] + " ")).split()[1]) > 0
    if trace:
        values = {name: metric["value"] for name, metric in result["metrics"].items()}
        growth_applies = workload.startswith("mc_")
        for name in ("growth.boxes", "growth.us_per_box", "growth.boxes_per_s", "growth.simulate_rescaled.self_s"):
            assert (values[name] > 0) == growth_applies, name
        assert (values["rsk.maj_distribution.self_s"] > 0) == (not growth_applies)
        assert (values["dynamics.ode_rhs.calls"] > 0) == (workload != "exact_levels")
        assert values["layer.cli.self_s"] > 0


def test_corrupted_output_counts_as_failure(tmp_dir):
    workload = WORKLOADS["exact_levels"]
    ops = workload.build(5, 1, True)
    outcomes, _, _ = worker.execute(ops, str(tmp_dir))
    attempted, failures, _ = worker.check(workload, ops, outcomes, 5, True)
    assert failures == [] and attempted == len(ops)

    # one probability of the first push-forward off by 1e-9
    path = outcomes[1][1][1]
    payload = json.loads(Path(path).read_text())
    payload["distribution"][0]["probability"] += 1e-9
    Path(path).write_text(json.dumps(payload))
    # one kernel-oracle weight off by 1e-6
    index = next(i for i, op in enumerate(ops) if op.kind == "kernel_oracle")
    seconds, pairs, error = outcomes[index]
    product, solved = pairs[0]
    pairs = [(product, (solved[0] + 1e-6, *solved[1:]))] + pairs[1:]
    outcomes[index] = (seconds, pairs, error)

    attempted, failures, _ = worker.check(workload, ops, outcomes, 5, True)
    assert [label for label, _ in failures] == ["pushforward", "kernel_oracle"]
    assert len(failures) / attempted > 0


def test_failing_op_is_counted_not_fatal(tmp_dir):
    ops = [
        Op("cli", ("pushforward", "--n", "99", "--format", "json")),  # capacity error, exit 3
        Op("hook_sweep", (1.5, 3)),  # q out of range raises
        Op("cli", ("pushforward", "--n", "3", "--format", "json")),
    ]
    outcomes, _, _ = worker.execute(ops, str(tmp_dir))
    attempted, failures, _ = worker.check(WORKLOADS["exact_levels"], ops, outcomes, 0, True)
    assert attempted == 3
    assert [label for label, _ in failures] == ["pushforward", "hook_sweep"]
    assert failures[0][1] == "exit code 3"


def test_tracer_restores_bindings_and_nests_spans(tmp_dir):
    before = (dynamics.h_from_p_partition_sum, moments.h_from_p_partition_sum, diagrams.hook_data)
    tracer = Tracer()
    ops = [Op("cli", ("limit-shape", "--q", "0.6", "--moments", "3", "--format", "json"))]
    outcomes, wall, _ = worker.execute(ops, str(tmp_dir), tracer)
    assert outcomes[0][2] is None
    assert (dynamics.h_from_p_partition_sum, moments.h_from_p_partition_sum, diagrams.hook_data) == before
    # the partition sum is reached through the dynamics binding
    assert tracer.stats["moments.h_from_p_partition_sum"][0] > 0
    assert tracer.stats["limitshape.brentq"][0] > 0
    assert tracer.counters["limitshape.brentq.iterations"] >= tracer.stats["limitshape.brentq"][0]
    for name, start, end, parent, op in tracer.spans:
        assert start <= end and op == 0
        if parent is not None:
            _, p_start, p_end, _, _ = tracer.spans[parent]
            assert p_start <= start and end <= p_end
    root = tracer.spans[0]
    assert root[0] == "op.limit-shape" and root[3] is None
    attributed = sum(layer for layer in tracer.layer_self_s().values())
    assert 0.9 * (root[2] - root[1]) < attributed <= root[2] - root[1] <= wall


def test_without_sources_exits_nonzero_without_result(tmp_dir):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_dir)
    shutil.copytree(BENCH, tmp_dir / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_dir)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
