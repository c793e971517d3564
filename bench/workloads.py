"""The benchmark's workloads: their inputs, made from a seed, and their layers.

Every workload is a fixed list of operations whose length follows from
``--seconds`` through nominal per-block costs measured on a 2-core x86
machine with Python 3.11; it never depends on a clock reading, so one
``(seed, seconds)`` pair always gives the same list.  The program sees
only argv lists, shapes, q values and seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ops import ENGINE_CHECK_BOXES, Op

LAYERS = (
    "diagrams",
    "qmeasure",
    "kernel",
    "rsk",
    "moments",
    "dynamics",
    "limitshape",
    "growth",
    "cli",
)

MC_Q = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    heavy: tuple[str, ...]  # layers expected to take over half the traced time
    build: Callable[[int, int, bool], list[Op]]
    # (boxes, q, seed, stream) pairs for the walk-vs-reference-chain check
    engine_checks: Callable[[int, bool], list[tuple]] = lambda seed, tiny: []


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _q_text(q: float) -> str:
    return format(q, ".17g")


def _blocks(seconds: float, nominal: float, fixed: float = 0.0) -> int:
    return max(1, round((seconds - fixed) / nominal))


def _simulate(rng: random.Random, flags: tuple[str, ...]) -> Op:
    return Op("cli", ("simulate", *flags, "--seed", str(rng.randrange(2**31))))


def build_mc_mixed(seed: int, seconds: int, tiny: bool) -> list[Op]:
    # Two kinds of simulate op at q = 0.5: the acceptance-gate shape (10^4
    # boxes, 3 trajectories, ~4.2 s) and the CLI defaults (100 boxes, 100
    # trials, ~1.5 s), 2.8x apart.  k gate ops and k + 1 default ops, a
    # gate op first so it takes the cold start: the median is the slowest
    # default op and, with fewer than 20 ops, the tail the slowest gate
    # op.  The slowest op of a group spread over the run is the group's
    # slow-host time whenever the host was slow for one of them, a
    # steadier figure than a middle rank (see build_exact_levels).  k = 4
    # at --seconds 25 (~24 s).
    rng = _rng("mc_mixed", seed)
    if tiny:
        gate_flags, default_flags, k = ("--n", "200", "--trials", "2"), ("--n", "30", "--trials", "40"), 1
    else:
        gate_flags, default_flags = ("--q", str(MC_Q), "--n", "10000", "--trials", "3"), ()
        k = _blocks(seconds, 5.7, fixed=1.5)
    ops = []
    for _ in range(k):
        ops += [_simulate(rng, gate_flags), _simulate(rng, default_flags)]
    return ops + [_simulate(rng, default_flags)]


def _engine_checks(name: str):
    def pairs(seed: int, tiny: bool) -> list[tuple]:
        rng = _rng(name + ":engine", seed)
        boxes = 60 if tiny else ENGINE_CHECK_BOXES
        return [(boxes, MC_Q, rng.randrange(2**31), stream) for stream in (0, 1)]

    return pairs


# limit_flow covers q in [0.01, 0.95].  Below 0.01 the flow is known to
# overflow (q = 1e-5) or run for seconds per op; that range belongs to
# the robustness tests, not to this load.
FLOW_MOMENTS = 6
# Strata of q by the cost of one limit-shape op (RK4 cost grows with
# ln^2 q): "deep" ~4-5 s, "mid" 1-3 s, "flat" ~0.27 s (the cost is flat
# on [0.4, 0.95]); a verify op costs ~1.6 s.  The gaps (0.011, 0.025)
# and (0.15, 0.4) keep the flat ops, whose slowest is the median, and
# the deep ops, whose slowest is the tail, apart from every other op by
# more than the host's ~1.7x swing in speed.
FLOW_DEEP = (0.010, 0.011)
FLOW_MID = ((0.025, 0.05), (0.05, 0.15))
FLOW_FLAT = (0.4, 0.95)
# One block: 3 deep, 2 mid, 10 flat (q = 0.95 and one draw from each
# ninth of [0.4, 0.95)) and 4 verify ops.  19 ops, so the median
# (rank 10) is the slowest flat op and the tail the slowest op, a deep
# one; a deep op comes first and takes the cold start.  ~28 s in all.
FLOW_ORDER = "DFVFMFFVDFFMVFFDVFF"


def build_limit_flow(seed: int, seconds: int, tiny: bool) -> list[Op]:
    rng = _rng("limit_flow", seed)

    def limit_shape(q: float, order: str) -> Op:
        return Op("cli", ("limit-shape", "--q", _q_text(q), "--moments", order, "--format", "json"))

    verify = Op("cli", ("verify", "--format", "json"))
    if tiny:
        return [limit_shape(0.3, "3"), verify, limit_shape(rng.uniform(0.5, 0.9), "3"), limit_shape(0.95, "3")]
    order = str(FLOW_MOMENTS)
    ops = []
    for _ in range(_blocks(seconds, 25.0)):
        lo, hi = FLOW_FLAT
        width = (hi - lo) / 9
        flat = [0.95] + [rng.uniform(lo + i * width, lo + (i + 1) * width) for i in range(9)]
        rng.shuffle(flat)
        queues = {
            "D": [rng.uniform(*FLOW_DEEP) for _ in range(3)],
            "M": [rng.uniform(*band) for band in FLOW_MID],
            "F": flat,
        }
        for kind in FLOW_ORDER:
            ops.append(verify if kind == "V" else limit_shape(queues[kind].pop(), order))
    return ops


def random_shape(rng: random.Random, boxes: int) -> tuple[int, ...]:
    """A partition grown box by box at uniformly chosen addable corners."""
    parts: list[int] = []
    for _ in range(boxes):
        rows = [
            i
            for i in range(len(parts) + 1)
            if i == 0 or parts[i - 1] > (parts[i] if i < len(parts) else 0)
        ]
        row = rng.choice(rows)
        if row == len(parts):
            parts.append(1)
        else:
            parts[row] += 1
    return tuple(parts)


def _pushforward(rng: random.Random, n: int) -> Op:
    return Op("cli", ("pushforward", "--n", str(n), "--q", _q_text(rng.uniform(0.1, 0.9)), "--format", "json"))


def build_exact_levels(seed: int, seconds: int, tiny: bool) -> list[Op]:
    rng = _rng("exact_levels", seed)
    top, sweep, shape_boxes, chain = (5, 8, 8, 50) if tiny else (9, 20, 25, 400)
    # Cold start (~4.2 s): every level's q^MAJ table is enumerated once,
    # 9! permutations at the top.
    ops = [_pushforward(rng, n) for n in range(1, top + 1)]
    # Each block is a reference chain (~0.09 s fast, ~0.15 s slow; its
    # cost moves by ~3% with the seed) and, in turn, a level sweep
    # (~0.03 s warm) or a kernel-oracle batch at a drawn q and at q = 1
    # (~0.06 s; one shape of each size 1..25, so its cost does not follow
    # the seed).  A shared host switches this process between two speeds
    # ~1.7x apart for seconds at a time, so the order statistics sit near
    # the top of large groups, which stay in the slow cluster: 75 blocks
    # at --seconds 25 give 161 ops, the median three ranks below the top
    # of the sweeps and batches, the tail rank at p89 of the chains.
    for i in range(2 if tiny else _blocks(seconds, 1 / 3)):
        ops.append(Op("chain", (chain, MC_Q, rng.randrange(2**31), rng.randrange(2))))
        if i % 2 == 0:
            ops.append(Op("hook_sweep", (rng.uniform(0.1, 0.95), sweep)))
        else:
            batch = tuple(random_shape(rng, boxes) for boxes in range(1, shape_boxes + 1))
            ops.append(Op("kernel_oracle", (rng.uniform(0.2, 0.99), batch)))
    # Two push-forwards answered from the warm tables (~2 ms each).
    ops += [_pushforward(rng, top - 1), _pushforward(rng, top)]
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc_mixed",
            heavy=("growth",),
            build=build_mc_mixed,
            engine_checks=_engine_checks("mc_mixed"),
        ),
        Workload(
            "limit_flow",
            heavy=("dynamics", "moments", "limitshape"),
            build=build_limit_flow,
        ),
        Workload(
            "exact_levels",
            heavy=("rsk", "kernel", "qmeasure", "diagrams"),
            build=build_exact_levels,
        ),
    )
}
