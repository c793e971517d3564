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
    for locations, weights in (
        ((math.nan, 1.0), (0.5, 0.5)),
        ((0.0, math.inf), (0.5, 0.5)),
        ((0.0, 1.0), (0.5, math.nan)),
    ):
        with pytest.raises(ValueError, match="finite"):
            DiscreteMeasure(locations, weights)
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


def test_newton_recursions_refuse_non_finite_results():
    with pytest.raises(MomentOverflowError, match="h_2"):
        p_to_h(MomentVector("p", (1e200, 1e200)))
    # finite terms whose sum leaves the double range inside fsum
    with pytest.raises(MomentOverflowError, match="h_2"):
        p_to_h(MomentVector("p", (1e154, 1.7e308)))
    with pytest.raises(MomentOverflowError, match="p_2"):
        h_to_p(MomentVector("h", (1e308,) * 3))


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


_ONE_BOX = to_interlacing(Partition((1,)))
_ONE_BOX_MU = transition_measure(_ONE_BOX, QParam(0.5))
_BRACKET = r"\[-199.0\]_q at q = 0.001"


@pytest.mark.parametrize(
    "evaluate,q,match",
    [
        (lambda qp: r_diagram(_ONE_BOX, qp, -200.0), 1e-3, _BRACKET),
        (lambda qp: r_measure(_ONE_BOX_MU, qp, -200.0), 1e-3, _BRACKET),
        (
            lambda qp: markov_krein_residual(
                _ONE_BOX, DiscreteMeasure((0.0, 1.0), (1.7e308,) * 2), qp, [2.0]
            ),
            1.0,
            "atom sum at x = 2.0",
        ),
        (
            lambda qp: r_measure(DiscreteMeasure((0.0, 1.0), (1.7e308,) * 2), qp, 2.0),
            1.0,
            "atom sum at x = 2.0",
        ),
    ],
    ids=["r_diagram", "r_measure", "markov_krein_residual", "atom_sum"],
)
def test_r_function_overflow_is_typed(evaluate, q, match):
    # far below the support at small q, q^(x - s) leaves the double range;
    # at q = 1, two finite atom terms sum past it, also above the support
    with pytest.raises(MomentOverflowError, match=match):
        evaluate(QParam(q))


@pytest.mark.parametrize(
    "q,x",
    [
        (1e-3, -60.0),
        (1.0, -5.0),
        (0.5, 0.5),
        # at the pole x = support_max, where the atom sum would raise
        # PoleProximityError; far below, where it would overflow; NaN
        (0.5, 1.0),
        (1e-3, -800.0),
        (0.5, math.nan),
    ],
)
def test_markov_krein_residual_refuses_points_off_the_support(q, x):
    # below the support and inside it the log of a bracket is undefined;
    # the support is checked before the atom sum is taken
    with pytest.raises(ValueError, match=rf"x = {x} is not above the support \(support_max = 1\)"):
        markov_krein_residual(_ONE_BOX, _ONE_BOX_MU, QParam(q), [x])


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


def test_moments_of_underflowing_terms_are_finite():
    # a single column at q = 0.01: q^(-n x) underflows at the far minimum
    # x = -16, while p_10 ~ q^-10 = 1e20 stays finite
    w = to_interlacing(Partition((1,) * 16))
    qp = QParam(0.01)
    for moments in (
        p_moments(w, qp, 10),
        h_moments(transition_measure(w, qp), qp, 10),
    ):
        assert moments.moment(10) == pytest.approx(1e20, rel=1e-12)


def test_h_moments_classical_total_mass():
    # q^(-n s) = 1 at q = 1, so every h_n is the total mass
    mu = DiscreteMeasure((-2.0, 0.5, 3.0), (0.25, 0.5, 0.75))
    assert h_moments(mu, QParam(1.0), 3).values == (1.5, 1.5, 1.5)
