"""Limit profile R-function: implicit equation, series, self-similarity."""

import math

import pytest

from qplancherel.dynamics import limit_moments
from qplancherel.limitshape import (
    BracketingError,
    automodel_pde_residual,
    automodel_residual,
    classical_r,
    series_h_omega,
    solve_r_omega,
)
from qplancherel.moments import MomentOverflowError, p_to_h
from qplancherel.qmeasure import QParam


class TestClassicalR:
    def test_known_root(self):
        # r (x - r) = 1 at x = 2.5 has roots 0.5 and 2; the decaying
        # branch is the small one
        assert classical_r(2.5) == pytest.approx(0.5, rel=1e-15)

    def test_edge_value(self):
        assert classical_r(2.0) == pytest.approx(1.0, rel=1e-15)

    def test_below_edge_raises(self):
        with pytest.raises(BracketingError):
            classical_r(1.9)

    def test_decay_at_infinity(self):
        assert classical_r(1e8) == pytest.approx(1e-8, rel=1e-6)


class TestSolveROmega:
    def test_far_field_value(self):
        # q^x negligible: the equation degenerates to r = 1 - q
        assert solve_r_omega(50.0, QParam(0.5)) == pytest.approx(
            0.5, abs=1e-10
        )

    def test_self_consistency_residual(self):
        q, x = 0.5, 6.0
        qp = QParam(q)
        r = solve_r_omega(x, qp)
        c = qp.log_inv / (1.0 - q)
        residual = r * (1.0 - q ** (x - c * r)) - (1.0 - q)
        assert abs(residual) < 1e-12

    def test_classical_parameter_dispatches(self):
        assert solve_r_omega(2.5, QParam(1.0)) == pytest.approx(0.5)

    def test_near_classical_value(self):
        assert solve_r_omega(2.5, QParam(1.0 - 1e-9)) == pytest.approx(
            0.5, abs=1e-6
        )

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    def test_branch_continuity_and_monotonicity(self, q):
        # continuous, strictly decreasing in x: no branch jumping
        qp = QParam(q)
        xs = [3.5 + 0.05 * i for i in range(131)]
        values = [solve_r_omega(x, qp) for x in xs]
        for a, b in zip(values, values[1:]):
            assert b < a
            assert abs(b - a) < 0.05  # no jumps at step 0.05
        # the branch stays above its asymptote and reaches it far out
        assert all(v > 1.0 - q for v in values)
        assert solve_r_omega(200.0, qp) == pytest.approx(1.0 - q, rel=1e-9)

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    def test_below_admissible_range_raises_with_bracket(self, q):
        with pytest.raises(BracketingError, match="bracket"):
            solve_r_omega(1.0, QParam(q))

    def test_classical_limit_is_first_order_in_epsilon(self):
        # r(x; 1-eps) - r_classical(x) = A eps + O(eps^2): Richardson
        for x in (2.2, 3.0, 5.0, 10.0):
            target = classical_r(x)
            e1 = solve_r_omega(x, QParam(1.0 - 1e-4)) - target
            e2 = solve_r_omega(x, QParam(1.0 - 5e-5)) - target
            assert e1 / e2 == pytest.approx(2.0, abs=0.05)
            extrapolated = 2.0 * e2 - e1
            assert abs(extrapolated) < 10.0 * abs(e1) * 1e-3


class TestSeriesHOmega:
    def test_leading_coefficient(self):
        # h_1 = e^{rho^2} by balancing z^1 in h = z (1+h) e^{rho^2 (1+h)}
        qp = QParam(0.5)
        h = series_h_omega(qp, 1)
        assert h.kind == "h"
        assert h.values[0] == pytest.approx(
            math.exp(qp.log_inv**2), rel=1e-12
        )

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    def test_moment_agreement_with_flow(self, q):
        # central cross-module check: series coefficients equal the
        # h-moments obtained from the integrated moment flow
        qp = QParam(q)
        from_series = series_h_omega(qp, 6)
        from_flow = p_to_h(limit_moments(qp, 6))
        for a, b in zip(from_series.values, from_flow.values):
            assert a == pytest.approx(b, rel=1e-6)

    def test_near_classical_coefficients_approach_one(self):
        # rho -> 0 degenerates the expansion to z/(1-z): all ones
        h = series_h_omega(QParam(1.0 - 1e-8), 5)
        for v in h.values:
            assert v == pytest.approx(1.0, abs=1e-6)

    def test_overflow_raises(self):
        # h_8 at q = 1e-4 is beyond the double range; h_7 is not
        assert math.isfinite(series_h_omega(QParam(1e-4), 7).values[-1])
        with pytest.raises(MomentOverflowError, match="h_8 at q = 0.0001"):
            series_h_omega(QParam(1e-4), 8)
        with pytest.raises(MomentOverflowError, match="h_1 at q"):
            series_h_omega(QParam(1e-14), 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            series_h_omega(QParam(1.0), 3)
        with pytest.raises(ValueError):
            series_h_omega(QParam(0.5), 0)


def catalan_numbers(count):
    # C_0 = 1, C_{n+1} = sum C_i C_{n-i}
    values = [1]
    for n in range(count):
        values.append(sum(values[i] * values[n - i] for i in range(n + 1)))
    return values


class TestClassicalSeries:
    def test_classical_r_expands_in_catalan_numbers(self):
        # x r(x) = sum_n C_n x^{-2n}: fit a polynomial in u = 1/x^2
        # on far-field nodes and read off the Catalan numbers
        import numpy as np

        order = 5
        xs = [8.0 * 2**j for j in range(order + 1)]  # geometric: conditioning
        us = [1.0 / (x * x) for x in xs]
        vals = [x * classical_r(x) for x in xs]
        coeffs = np.linalg.solve(
            np.vander(us, order + 1, increasing=True), vals
        )
        expected = catalan_numbers(order)
        for k in (0, 1, 2, 3):
            assert coeffs[k] == pytest.approx(expected[k], rel=1e-5)


class TestAutomodel:
    @pytest.mark.parametrize(
        "u,rho", [(4.0, math.log(2.0)), (6.0, 0.3), (3.5, 1.2), (8.0, 0.05)]
    )
    def test_implicit_form_residual(self, u, rho):
        # the same root satisfies the rescaled implicit equation
        assert automodel_residual(u, rho) < 1e-10

    def test_pde_residual_at_log_two(self):
        assert automodel_pde_residual(4.0, math.log(2.0)) < 1e-6

    def test_pde_residual_small_rho_matches_classical_equation(self):
        # rho -> 0: the PDE collapses to 2 r r' - u r' - r = 0
        assert automodel_pde_residual(4.0, 1e-3) < 1e-5

    def test_classical_ode_from_closed_form(self):
        # independent check of the rho -> 0 target itself
        u, du = 4.0, 1e-6
        r = classical_r(u)
        r_u = (classical_r(u + du) - classical_r(u - du)) / (2 * du)
        assert abs(2 * r * r_u - u * r_u - r) < 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            automodel_residual(4.0, 0.0)
