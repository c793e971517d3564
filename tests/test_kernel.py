from __future__ import annotations

import math
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
    partial_fraction_weights,
    q_measure,
    sample_index,
    to_interlacing,
    trajectory_rng,
    transition_weights,
)

from conftest import partitions, random_partitions


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
    moved = deform(base, transition_weights(base, qp), 0.01).diagram
    with pytest.raises(ValueError, match="integer corner"):
        partial_fraction_weights(moved, qp)


# q = 0.1 is where a floating solve on the far-field grid loses the weights
@pytest.mark.parametrize("q", [0.1, 0.3, 0.7, 0.95, 1.0])
def test_oracle_equivalence(q):
    qp = QParam(q)
    for lam in random_partitions(60, 25, seed=10_000 + int(q * 100)):
        w = to_interlacing(lam)
        direct = transition_weights(w, qp)
        solved = partial_fraction_weights(w, qp)
        assert max(abs(a - b) for a, b in zip(direct, solved)) < 1e-12


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


def test_trajectory_determinism():
    a = grow_trajectory(25, QParam(0.5), seed=11, stream=0)
    b = grow_trajectory(25, QParam(0.5), seed=11, stream=0)
    c = grow_trajectory(25, QParam(0.5), seed=11, stream=1)
    assert a.states == b.states
    assert a.states != c.states
    assert a.final.size == 25
    assert a.states[0] == Partition(())
    assert a.states[1] == Partition((1,))


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
