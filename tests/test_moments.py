from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplancherel import (
    DiscreteMeasure,
    MomentVector,
    Partition,
    QParam,
    h_from_p_partition_sum,
    h_moments,
    h_to_p,
    markov_krein_residual,
    p_moments,
    p_to_h,
    r_diagram,
    r_measure,
    rayleigh_measure,
    to_interlacing,
    transition_measure,
    transition_weights,
)
from qplancherel.moments import MomentOverflowError, PoleProximityError

from conftest import partitions, random_partitions

moment_vectors = st.lists(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    min_size=1,
    max_size=12,
)


def test_discrete_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure((1.0, 0.0), (0.5, 0.5))  # locations must increase
    with pytest.raises(ValueError):
        DiscreteMeasure((0.0,), (0.5, 0.5))  # length mismatch
    mu = DiscreteMeasure((-1.0, 1.0), (0.25, 0.75))
    assert mu.total_mass == pytest.approx(1.0)


def test_transition_measure_single_box():
    mu = transition_measure(to_interlacing(Partition((1,))), QParam(0.5))
    assert mu.locations == (-1.0, 1.0)
    assert mu.weights == pytest.approx((1 / 3, 2 / 3), rel=1e-14)


def test_rayleigh_alternates():
    tau = rayleigh_measure(to_interlacing(Partition((2, 1))))
    assert tau.locations == (-2.0, -1.0, 0.0, 1.0, 2.0)
    assert tau.weights == (1.0, -1.0, 1.0, -1.0, 1.0)
    assert tau.total_mass == pytest.approx(1.0)


def test_first_moments_single_box():
    # h_1 = (q^2 + q^-1) / (1 + q) and p_1 = q + q^-1 - 1: both 3/2 at q=1/2
    qp = QParam(0.5)
    w = to_interlacing(Partition((1,)))
    h = h_moments(transition_measure(w, qp), qp, 2)
    p = p_moments(w, qp, 2)
    assert h.moment(1) == pytest.approx(1.5, rel=1e-14)
    assert p.moment(1) == pytest.approx(1.5, rel=1e-14)
    # h_2 = (q^3 + q^-2)/(1+q), p_2 = q^2 + q^-2 - 1
    assert h.moment(2) == pytest.approx((0.5**3 + 4.0) / 1.5, rel=1e-14)
    assert p.moment(2) == pytest.approx(3.25, rel=1e-14)


@given(moment_vectors)
def test_p_h_roundtrip(values):
    p = MomentVector("p", tuple(values))
    back = h_to_p(p_to_h(p))
    for n in range(1, len(values) + 1):
        assert back.moment(n) == pytest.approx(p.moment(n), rel=1e-11, abs=1e-11)


@given(moment_vectors)
def test_partition_sum_matches_newton_recursion(values):
    h = p_to_h(MomentVector("p", tuple(values)))
    for n in range(1, len(values) + 1):
        direct = h_from_p_partition_sum(tuple(values), n)
        assert direct == pytest.approx(h.moment(n), rel=1e-11, abs=1e-11)


def test_kind_validation():
    with pytest.raises(ValueError):
        MomentVector("x", (1.0,))
    with pytest.raises(ValueError):
        p_to_h(MomentVector("h", (1.0,)))
    with pytest.raises(ValueError):
        h_to_p(MomentVector("p", (1.0,)))


@pytest.mark.parametrize("q", [0.3, 0.6, 0.9])
def test_h_equals_p_through_newton(q):
    # the q-deformed correspondence: both moment routes agree on diagrams
    qp = QParam(q)
    for lam in random_partitions(40, 15, seed=31_000 + int(q * 10)):
        w = to_interlacing(lam)
        h_direct = h_moments(transition_measure(w, qp), qp, 10)
        h_via_p = p_to_h(p_moments(w, qp, 10))
        for n in range(1, 11):
            assert h_via_p.moment(n) == pytest.approx(
                h_direct.moment(n), rel=1e-9
            )


def test_generating_identity_rectangles():
    # 1 + sum h_n z^n = exp(sum p_n z^n / n) up to the truncation tail,
    # anchored where q^(x - support_max) = 1e-3 so the tail is negligible
    qp = QParam(0.4)
    count = 0
    for a in range(1, 11):
        for b in range(1, 11):
            w = to_interlacing(Partition((b,) * a))
            h = h_moments(transition_measure(w, qp), qp, 6)
            p = p_moments(w, qp, 6)
            x = w.support_max - math.log(1e-3) / qp.log_inv
            z = qp.q**x
            lhs = 1.0 + math.fsum(h.moment(n) * z**n for n in range(1, 7))
            rhs = math.exp(math.fsum(p.moment(n) * z**n / n for n in range(1, 7)))
            assert abs(lhs - rhs) < 1e-12
            count += 1
    assert count == 100


@settings(max_examples=30)
@given(partitions(max_boxes=12), st.sampled_from([0.4, 0.7, 1.0]))
def test_markov_krein_residual_small(lam, q):
    qp = QParam(q)
    w = to_interlacing(lam)
    mu = transition_measure(w, qp)
    grid = [w.support_max + 1.5 + 0.5 * j for j in range(5)]
    assert markov_krein_residual(w, mu, qp, grid) < 1e-10


def test_r_functions_agree_classical():
    w = to_interlacing(Partition((2, 1)))
    mu = transition_measure(w, QParam(1.0))
    for x in (3.5, 5.0, 8.0):
        assert r_diagram(w, QParam(1.0), x) == pytest.approx(
            r_measure(mu, QParam(1.0), x), rel=1e-12
        )


def test_r_diagram_pole_guard():
    w = to_interlacing(Partition((1,)))
    with pytest.raises(PoleProximityError):
        r_diagram(w, QParam(0.5), 1.0)
    with pytest.raises(PoleProximityError):
        r_measure(transition_measure(w, QParam(0.5)), QParam(0.5), -1.0)


def test_moment_overflow_guard():
    w = to_interlacing(Partition((30,)))
    qp = QParam(1e-6)
    with pytest.raises(MomentOverflowError):
        p_moments(w, qp, 10)


def test_h_moments_needs_deformed_parameter():
    mu = DiscreteMeasure((0.0,), (1.0,))
    with pytest.raises(ValueError):
        h_moments(mu, QParam(1.0), 3)
