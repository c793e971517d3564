"""The operations the benchmark times, and the checks on their outputs.

An operation reaches the package only through public entry points:
``cli.main`` for the four ``qplancherel`` commands, and the public
oracle functions of ``kernel`` and ``qmeasure``.  Each check runs after
the timed phase and returns ``None`` when the output is right, or a
one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from qplancherel import cli, diagrams, growth, kernel, moments, qmeasure
from qplancherel.qmeasure import QParam

# |z| of a Monte Carlo mean against its limit target.  Wide on purpose:
# at 100 boxes the O(n^-1/2) bias alone moves z by a few units.
Z_BAND = 10.0
# Fewer trajectories than this make a per-op standard error unreliable;
# such ops are checked on the trajectories of the whole run pooled.
MIN_TRIALS_FOR_Z = 30
# Reference-chain comparison for the fast growth engine.
ENGINE_CHECK_BOXES = 300

PUSHFORWARD_TV_TOL = 1e-12
HOOK_IDENTITY_TOL = 1e-9
KERNEL_ORACLE_TOL = 1e-9
P_TO_H_RTOL = 1e-6
R_EQUATION_RTOL = 1e-10


@dataclass(frozen=True)
class Op:
    """One timed operation.

    ``kind`` is ``"cli"`` (args: an argv list without ``--out``),
    ``"hook_sweep"`` (q, top level), ``"kernel_oracle"`` (q, shapes as
    part tuples; each shape is solved at q and at q = 1) or ``"chain"`` (boxes, q, seed, stream; the chain runs
    at the rescaled parameter q^(1/sqrt(boxes))).
    """

    kind: str
    args: tuple

    @property
    def label(self) -> str:
        return self.args[0] if self.kind == "cli" else self.kind


def run_op(op: Op, out_path: str):
    """Execute ``op``; the return value is what its check inspects."""
    if op.kind == "cli":
        return cli.main([*op.args, "--out", out_path]), out_path
    if op.kind == "hook_sweep":
        q, top = op.args
        qp = QParam(q)
        return [qmeasure.hook_identity_residual(n, qp) for n in range(1, top + 1)]
    if op.kind == "kernel_oracle":
        q, shapes = op.args
        pairs = []
        for qp in (QParam(q), QParam(1.0)):
            for parts in shapes:
                w = diagrams.to_interlacing(diagrams.Partition(parts))
                pairs.append(
                    (kernel.transition_weights(w, qp), kernel.partial_fraction_weights(w, qp))
                )
        return pairs
    if op.kind == "chain":
        boxes, q, seed, stream = op.args
        return kernel.grow_trajectory(boxes, QParam(q ** (1.0 / math.sqrt(boxes))), seed, stream)
    raise ValueError(f"unknown op kind {op.kind!r}")


def check_op(op: Op, value) -> str | None:
    if op.kind == "cli":
        code, path = value
        if code != 0:
            return f"exit code {code}"
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        return _CLI_CHECKS[op.args[0]](text)
    if op.kind == "hook_sweep":
        q, top = op.args
        worst = max(abs(r) * (1.0 - q) ** n for n, r in zip(range(1, top + 1), value))
        if len(value) != top or not worst < HOOK_IDENTITY_TOL:
            return f"hook identity relative residual {worst:.3e}"
        return None
    if op.kind == "kernel_oracle":
        for product, solved in value:
            if len(product) != len(solved):
                return f"{len(product)} product weights but {len(solved)} solved ones"
            worst = max(abs(a - b) for a, b in zip(product, solved))
            if not worst < KERNEL_ORACLE_TOL:
                return f"kernel oracle max difference {worst:.3e}"
        return None
    if op.kind == "chain":
        boxes, q, seed, stream = op.args
        sizes = [s.size for s in value.states]
        if sizes != list(range(boxes + 1)):
            return "reference chain does not grow one box per step"
        return engine_matches_chain(boxes, q, seed, stream, value.final)
    raise ValueError(f"unknown op kind {op.kind!r}")


def engine_matches_chain(boxes, q, seed, stream, final=None) -> str | None:
    """The fast corner walk against the reference chain on one (seed, stream).

    Both consume ``trajectory_rng(seed, stream)`` one uniform per step,
    so their final shapes agree exactly.
    """
    if final is None:
        final = kernel.grow_trajectory(
            boxes, QParam(q ** (1.0 / math.sqrt(boxes))), seed, stream
        ).final
    walk = growth.simulate_rescaled(boxes, QParam(q), stream + 1, 1, seed)[stream].shape
    if walk != final:
        return f"walk shape {walk} differs from reference chain {final} (seed {seed}, stream {stream})"
    return None


@dataclass(frozen=True)
class SimulateTable:
    """The parts of a ``simulate`` CSV output the checks and counters use."""

    config: dict
    shapes: list
    moments: list
    summary: list  # (mean, stderr, target) per moment order

    @property
    def boxes(self) -> int:
        return int(self.config["n"])

    @property
    def trials(self) -> int:
        return int(self.config["trials"])


def parse_simulate(text: str) -> SimulateTable:
    config, shapes, values, summary = {}, [], [], []
    for line in text.splitlines():
        if line.startswith("## summary"):
            fields = dict(item.split("=") for item in line.split(":", 1)[1].split())
            summary.append((float(fields["mean"]), float(fields["stderr"]), float(fields["target"])))
        elif line.startswith("# "):
            key, _, value = line[2:].partition("=")
            config[key] = value
        elif line and not line.startswith("trial,"):
            row = line.split(",")
            shapes.append(tuple(int(v) for v in row[1].split()))
            values.append(tuple(float(v) for v in row[2:]))
    return SimulateTable(config, shapes, values, summary)


def _check_simulate(text: str) -> str | None:
    table = parse_simulate(text)
    if len(table.shapes) != table.trials:
        return f"{len(table.shapes)} trajectories, expected {table.trials}"
    for parts in table.shapes:
        if sum(parts) != table.boxes or any(a < b for a, b in zip(parts, parts[1:])):
            return f"shape {parts} is not a partition of {table.boxes}"
    if not all(math.isfinite(v) for row in table.moments for v in row):
        return "non-finite moment"
    if table.trials >= MIN_TRIALS_FOR_Z:
        for order, (mean, stderr, target) in enumerate(table.summary, start=1):
            if not abs(mean - target) <= Z_BAND * stderr:
                return f"p{order}: |z| beyond {Z_BAND} (mean {mean}, stderr {stderr}, target {target})"
    return None


def pooled_z_check(tables: list[SimulateTable]) -> str | None:
    """z of the pooled per-trajectory moments of several small-trial ops."""
    rows = [row for table in tables for row in table.moments]
    if len(rows) < 2:
        return None
    targets = [target for _, _, target in tables[0].summary]
    for order, target in enumerate(targets):
        column = [row[order] for row in rows]
        mean = math.fsum(column) / len(column)
        var = math.fsum((v - mean) ** 2 for v in column) / (len(column) - 1)
        stderr = math.sqrt(var / len(column))
        if not abs(mean - target) <= Z_BAND * stderr:
            return f"pooled p{order + 1}: |z| beyond {Z_BAND} over {len(column)} trajectories"
    return None


def _check_limit_shape(text: str) -> str | None:
    payload = json.loads(text)
    q = float(payload["config"]["q"])
    p = [row["p"] for row in payload["moments"]]
    h = [row["h"] for row in payload["moments"]]
    from_flow = moments.p_to_h(moments.MomentVector("p", p)).values
    for n, (a, b) in enumerate(zip(from_flow, h), start=1):
        if not abs(a - b) <= P_TO_H_RTOL * abs(b):
            return f"h_{n}: flow route {a} vs series route {b}"
    c = -math.log(q) / (1.0 - q)
    for row in payload["r_table"]:
        x, r = row["x"], row["r"]
        defect = r * -math.expm1((x - c * r) * math.log(q)) - (1.0 - q)
        if not abs(defect) <= R_EQUATION_RTOL * (1.0 - q):
            return f"R(1 - q^(x - cR)) = 1 - q fails at x = {x}: defect {defect:.3e}"
    return None


def _check_verify(text: str) -> str | None:
    payload = json.loads(text)
    if payload.get("passed") is not True:
        failed = [s["name"] for s in payload["suites"] if not s["passed"]]
        return f"verify suites failed: {failed}"
    return None


def _check_pushforward(text: str) -> str | None:
    rows = json.loads(text)["distribution"]
    tv = 0.5 * math.fsum(abs(r["probability"] - r["reference"]) for r in rows)
    if not rows or not tv < PUSHFORWARD_TV_TOL:
        return f"total variation {tv:.3e} between push-forward and measure"
    return None


_CLI_CHECKS = {
    "simulate": _check_simulate,
    "limit-shape": _check_limit_shape,
    "verify": _check_verify,
    "pushforward": _check_pushforward,
}

