from __future__ import annotations

import hashlib
import math
import tracemalloc
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplancherel import (
    Partition,
    QParam,
    deform,
    enumerate_level,
    grow_trajectory,
    markov_krein_residual,
    partial_fraction_weights,
    q_measure,
    sample_index,
    to_interlacing,
    trajectory_rng,
    transition_measure,
    transition_weights,
)
from qplancherel import kernel
from qplancherel.checks import CHECKS

from conftest import partitions, random_partitions
from oracles import above_support_weights


def test_single_box_weights():
    w = to_interlacing(Partition((1,)))
    mu = transition_weights(w, QParam(0.5))
    # q/(1+q) and 1/(1+q)
    assert mu[0] == pytest.approx(1 / 3, rel=1e-14)
    assert mu[1] == pytest.approx(2 / 3, rel=1e-14)
    classical = transition_weights(w, QParam(1.0))
    assert classical == pytest.approx((0.5, 0.5), rel=1e-15)


def test_empty_diagram_weight():
    w = to_interlacing(Partition(()))
    assert transition_weights(w, QParam(0.3)) == (1.0,)
    assert transition_weights(w, QParam(1.0)) == (1.0,)


def test_two_row_weights():
    # (2,1) at q=1/2 works out to (7/45, 10/45, 28/45)
    mu = transition_weights(to_interlacing(Partition((2, 1))), QParam(0.5))
    assert mu == pytest.approx((7 / 45, 10 / 45, 28 / 45), rel=1e-13)


def test_small_q_concentrates():
    # from (1), growth at the column corner dies out as q -> 0
    mu = transition_weights(to_interlacing(Partition((1,))), QParam(1e-3))
    assert mu[1] == pytest.approx(1.0, abs=2e-3)


@settings(max_examples=60)
@given(partitions(max_boxes=18), st.sampled_from([0.25, 0.6, 0.9, 1.0]))
def test_weights_positive_sum_one(lam, q):
    mu = transition_weights(to_interlacing(lam), QParam(q))
    assert all(v > 0 for v in mu)
    assert math.fsum(mu) == pytest.approx(1.0, rel=1e-12)


def test_oracle_grid_examples():
    # the rational solve rounds each weight once, so these hold exactly
    half = QParam(0.5)
    w = to_interlacing(Partition((1,)))
    assert partial_fraction_weights(w, half) == (1 / 3, 2 / 3)
    w = to_interlacing(Partition((2, 1)))
    assert partial_fraction_weights(w, half) == (7 / 45, 10 / 45, 28 / 45)
    assert partial_fraction_weights(w, QParam(1.0)) == (0.375, 0.25, 0.375)
    assert partial_fraction_weights(to_interlacing(Partition(())), half) == (1.0,)


def test_oracle_rejects_non_integer_diagram():
    # a deformed profile has real corners; the oracle must not truncate them
    qp = QParam(0.5)
    base = to_interlacing(Partition((2, 1)))
    moved = deform(base, transition_weights(base, qp), 0.01)
    with pytest.raises(ValueError, match="integer corner"):
        partial_fraction_weights(moved, qp)


# q = 0.1 is the smallest q here, where the product formula's brackets
# spread widest
@pytest.mark.parametrize("q", [0.1, 0.3, 0.7, 0.95, 1.0])
def test_oracle_equivalence(q):
    qp = QParam(q)
    for lam in random_partitions(60, 25, seed=10_000 + int(q * 100)):
        w = to_interlacing(lam)
        direct = transition_weights(w, qp)
        solved = partial_fraction_weights(w, qp)
        assert max(abs(a - b) for a, b in zip(direct, solved)) < 1e-12


# the kernel-vector solve at the maxima and the square solve at points
# above the support round the same exact weights once each, so they agree
# to the bit; the second also checks the identity off the support
@pytest.mark.parametrize("q", [1e-8, 1e-5, 0.1, 0.5, 0.95, 1 - 1e-12, 1.0])
def test_oracle_matches_above_support_solve(q):
    qp = QParam(q)
    for lam in [Partition(()), *random_partitions(40, 25, seed=12)]:
        w = to_interlacing(lam)
        assert partial_fraction_weights(w, qp) == above_support_weights(w, qp)


# 60-box shapes with 9 and 8 minima and the 55-box staircase with 11: the
# integer rows, never divided by their content, reach 6,500 to 21,800
# bits at q < 1 (most at q = 1e-8) and the primitive kernel vector 3,900
# to 14,400; the (1, d) entries at q = 1 keep them to 31-62 and 16-35 bits
@pytest.mark.parametrize("q", [1e-8, 0.3, 1 - 1e-12, 1.0])
@pytest.mark.parametrize(
    "parts",
    [(11, 10, 9, 8, 7, 6, 5, 4), (20, 15, 10, 8, 4, 2, 1), tuple(range(10, 0, -1))],
    ids=str,
)
def test_oracle_matches_above_support_solve_at_60_boxes(parts, q):
    qp = QParam(q)
    w = to_interlacing(Partition(parts))
    assert partial_fraction_weights(w, qp) == above_support_weights(w, qp)


# the oracle exists to be independent of the product formula: it must
# still solve, to the same bits, with that formula's code path broken
@pytest.mark.parametrize("q", [0.5, 1.0])
def test_oracle_never_calls_product_formula(monkeypatch, q):
    def broken(*args):
        raise AssertionError("the exact solve called the product formula")

    monkeypatch.setattr(kernel, "_product_weights", broken)
    monkeypatch.setattr(kernel, "transition_weights", broken)
    qp = QParam(q)
    for parts in [(), (1,), (2, 1), (4, 4, 2, 1), (11, 10, 9, 8, 7, 6, 5, 4)]:
        w = to_interlacing(Partition(parts))
        assert partial_fraction_weights(w, qp) == above_support_weights(w, qp)


def _ulps(a: float, b: float) -> float:
    # |a - b| in units in the last place of the exact-rounded b
    return abs(a - b) / math.ulp(b)


# brackets of negative arguments grow like q^(-d): at 1e-8 they leave the
# double range on (40,), and at 1e-5 they cost hundreds of ulp on the
# staircase-like (50, 40, 3, 1, 1)
@pytest.mark.parametrize("q", [1e-8, 1e-5, 1 - 1e-12])
@pytest.mark.parametrize(
    "parts", [(40,), (30, 1), (50, 40, 3, 1, 1), (12, 9, 9, 4, 2)], ids=str
)
def test_extreme_q_matches_oracle_in_ulps(parts, q):
    qp = QParam(q)
    w = to_interlacing(Partition(parts))
    direct = transition_weights(w, qp)
    solved = partial_fraction_weights(w, qp)
    assert max(map(_ulps, direct, solved)) <= 64


# real corners reach the product formula through deform, and nothing but
# the formula defines their weights; at q = 1e-5 the row's bracket
# [-70]_q is beyond the double range
@pytest.mark.parametrize("q", [1e-5, 0.1, 0.5, 0.9, 1.0])
def test_real_corner_weights(q):
    qp = QParam(q)
    tolerance = CHECKS["markov_krein"][1]
    for parts in ((1,), (3, 1), (4, 4, 2, 1), (70,)):
        base = to_interlacing(Partition(parts))
        w = deform(base, transition_weights(base, qp), 0.05)
        assert any(v != int(v) for v in w.minima)
        mu = transition_weights(w, qp)
        assert all(v > 0 for v in mu)
        assert math.fsum(mu) == pytest.approx(1.0, rel=1e-12)
        points = [w.support_max + 1.5 + j for j in range(4)]
        residual = markov_krein_residual(w, transition_measure(w, qp), qp, points)
        assert residual <= tolerance


# the bits of every product-formula weight, recorded when the brackets
# moved to libm's expm1: integer shapes and their deformed (real-corner)
# diagrams over the whole q range; a change that moves one bit of one
# weight fails here, which the oracle comparisons above, to 1e-12 or 64
# ulp, do not see
FROZEN_WEIGHTS_DIGEST = "18770503dc60883e8ec8152239f5c3e506d731f5f0ab9894066130d6ef98cb2b"


def frozen_weights_digest() -> str:
    shapes = [Partition(()), Partition((40,)), Partition((50, 40, 3, 1, 1))]
    shapes += random_partitions(60, 30, seed=22)
    bases = [to_interlacing(lam) for lam in shapes]
    # deformed by the classical weights, which never underflow
    diagrams = bases + [
        deform(w, transition_weights(w, QParam(1.0)), 0.01) for w in bases
    ]
    text = repr(
        [
            transition_weights(w, QParam(q))
            for q in (1e-8, 0.1, 0.5, 0.95, 1 - 1e-12, 1.0)
            for w in diagrams
        ]
    )
    return hashlib.sha256(text.encode()).hexdigest()


def test_weights_are_frozen():
    assert frozen_weights_digest() == FROZEN_WEIGHTS_DIGEST


def test_classical_continuity():
    lam = Partition((3, 2))
    w = to_interlacing(lam)
    classical = transition_weights(w, QParam(1.0))
    errors = []
    for eps in (1e-3, 1e-4, 1e-5):
        near = transition_weights(w, QParam(1.0 - eps))
        errors.append(max(abs(a - b) for a, b in zip(near, classical)))
    assert errors[0] / errors[1] == pytest.approx(10.0, rel=0.05)
    assert errors[1] / errors[2] == pytest.approx(10.0, rel=0.05)


def test_sample_index_boundaries():
    weights = (0.25, 0.25, 0.5)
    assert sample_index(weights, 0.1) == 0
    assert sample_index(weights, 0.25) == 0  # tie to the smaller index
    assert sample_index(weights, 0.2500001) == 1
    assert sample_index(weights, 0.5) == 1
    assert sample_index(weights, 0.500001) == 2
    assert sample_index(weights, 1.0) == 2


@pytest.mark.parametrize(
    "weights",
    [
        (),
        (0.5, math.nan),
        (0.5, math.inf),
        (0.0, 0.0, 0.0),
        (1e308, 1e308),
        (1.0, -0.5, 0.2),
        (1.0, -0.5),
    ],
)
def test_sample_index_refuses_weights_without_a_finite_positive_sum(weights):
    # the selection loop alone returns -1 for no weights, the last index
    # for a NaN weight and 0 for the negative ones; fsum's own overflow
    # is an OverflowError
    with pytest.raises(ValueError, match="finite positive sum"):
        sample_index(weights, 0.5)


def test_trajectory_determinism():
    a = grow_trajectory(25, QParam(0.5), seed=11, stream=0)
    b = grow_trajectory(25, QParam(0.5), seed=11, stream=0)
    c = grow_trajectory(25, QParam(0.5), seed=11, stream=1)
    assert a.states == b.states
    assert a.states != c.states
    assert a.final.size == 25
    assert a.states[0] == Partition(())
    assert a.states[1] == Partition((1,))


# the parts of every state of these chains, as first recorded with one
# scalar uniform and one to_interlacing per step: (boxes, q, seed,
# stream), down to q = 1e-8 and at the rescaled q^(1/sqrt(n)) of n = 400
FROZEN_TRAJECTORY_RUNS = [
    (60, 0.5, 1, 0),
    (60, 1.0, 2, 0),
    (80, 1e-8, 3, 1),
    (80, 0.05, 4, 2),
    (120, 0.95, 5, 0),
    (400, 0.5 ** (1 / 20), 6, 0),
]
FROZEN_TRAJECTORY_DIGEST = "b6f46ac1ff28ba9e5f898db6491124d505ed6a004e961a67d75d7f617792d1c9"


def frozen_trajectories_digest() -> str:
    text = repr(
        [
            [state.parts for state in grow_trajectory(n, QParam(q), seed, stream).states]
            for n, q, seed, stream in FROZEN_TRAJECTORY_RUNS
        ]
    )
    return hashlib.sha256(text.encode()).hexdigest()


def test_trajectories_are_frozen():
    assert frozen_trajectories_digest() == FROZEN_TRAJECTORY_DIGEST


@pytest.mark.parametrize("q", [1e-8, 0.05, 0.5 ** (1 / 20), 0.95, 1.0])
def test_trajectory_weights_are_the_product_formula(q, monkeypatch):
    # the chain keeps its corners between steps and reads a bracket table;
    # each step's weights must still be to_interlacing's and
    # transition_weights' to the last bit
    seen = []

    def recording(weights, u):
        seen.append(weights)
        return sample_index(weights, u)

    monkeypatch.setattr(kernel, "sample_index", recording)
    qp = QParam(q)
    trajectory = grow_trajectory(300, qp, seed=8, stream=1)
    assert len(seen) == 300
    for state, weights in zip(trajectory.states, seen):
        assert weights == transition_weights(to_interlacing(state), qp)


@pytest.mark.parametrize("n, q, seed, stream", FROZEN_TRAJECTORY_RUNS)
def test_trajectory_is_its_row_word(n, q, seed, stream):
    # state t + 1 is state t with one box added in row rows[t] (0-based)
    trajectory = grow_trajectory(n, QParam(q), seed, stream)
    states = trajectory.states
    assert len(trajectory.rows) == n
    for before, after, r in zip(states, states[1:], trajectory.rows):
        assert after == before.add_box(before.addable_rows().index(r + 1))
    assert trajectory.final == states[-1]


def test_kept_trajectories_hold_only_their_words():
    qp = QParam(0.5 ** (1 / 20))
    # a first walk fills _factor_index's cache (25 distinct m over these
    # chains, under its 32 slots), so the traced memory below is the
    # chains' own
    for seed in range(20):
        grow_trajectory(400, qp, seed)
    tracemalloc.start()
    try:
        kept = [grow_trajectory(400, qp, seed) for seed in range(20)]
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the words hold ~0.2 MB; 401 partitions per chain would hold 2.4 MB
    assert len(kept) == 20
    assert held < 0.5 * 2**20


def test_trajectory_lengths():
    qp = QParam(0.5)
    assert grow_trajectory(0, qp, seed=1).rows == ()
    assert grow_trajectory(0, qp, seed=1).states == (Partition(()),)
    assert grow_trajectory(1, qp, seed=1).states == (Partition(()), Partition((1,)))
    with pytest.raises(ValueError, match="nonnegative"):
        grow_trajectory(-1, qp, seed=1)


def test_trajectory_rng_streams():
    r1 = trajectory_rng(7, 0)
    r2 = trajectory_rng(7, 0)
    r3 = trajectory_rng(7, 1)
    a, b, c = r1.random(5), r2.random(5), r3.random(5)
    assert (a == b).all()
    assert (a != c).any()


def _exact_marginal(n: int, qp: QParam) -> dict[Partition, float]:
    dist = {Partition(()): 1.0}
    for _ in range(n):
        grown: dict[Partition, float] = defaultdict(float)
        for lam, prob in dist.items():
            mu = transition_weights(to_interlacing(lam), qp)
            for k in range(len(lam.addable_rows())):
                grown[lam.add_box(k)] += prob * mu[k]
        dist = dict(grown)
    return dist


@pytest.mark.parametrize("q", [0.4, 0.8, 1.0])
def test_marginal_matches_measure_exactly(q):
    qp = QParam(q)
    for n in range(1, 7):
        dist = _exact_marginal(n, qp)
        for lam, prob in dist.items():
            assert prob == pytest.approx(q_measure(lam, qp), abs=1e-13)


def test_marginal_statistically():
    qp = QParam(0.5)
    n = 10
    trials = 4000
    counts: Counter = Counter()
    for trial in range(trials):
        counts[grow_trajectory(n, qp, seed=99, stream=trial).final] += 1
    # check the four highest-mass shapes within 4 sigma of the binomial
    ranked = sorted(
        enumerate_level(n), key=lambda lam: -q_measure(lam, qp)
    )[:4]
    for lam in ranked:
        p = q_measure(lam, qp)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(counts[lam] / trials - p) < 4 * sigma
