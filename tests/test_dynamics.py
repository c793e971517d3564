"""Moment flow: right-hand side, exact flow, RK4, closed forms, structure."""

import math
import random
from fractions import Fraction

import pytest
from oracles import prefix_flow_coefficients
from rk4 import integrate_rk4, polynomial_structure_residual

from qplancherel import dynamics
from qplancherel.diagrams import CapacityError
from qplancherel.dynamics import (
    IntegrationAccuracyError,
    closed_form,
    integrate_moments,
    limit_moments,
    limit_sigma,
    ode_rhs,
)
from qplancherel.limitshape import series_h_omega
from qplancherel.moments import (
    MomentOverflowError,
    h_moments,
    p_moments,
    p_to_h,
    transition_measure,
)
from qplancherel.qmeasure import QParam


class TestOdeRhs:
    def test_first_equation(self):
        assert ode_rhs((1.0,)) == (1.0,)

    def test_second_equation(self):
        # y_2' = 2 y_1^2 + 2 y_2
        assert ode_rhs((1.0, 1.0)) == (1.0, 4.0)

    def test_third_equation(self):
        # y_3' = (3/2) y_1^3 + (9/2) y_1 y_2 + 3 y_3
        out = ode_rhs((1.0, 1.0, 1.0))
        assert out[:2] == (1.0, 4.0)
        assert out[2] == pytest.approx(9.0, rel=1e-15)

    def test_fourth_equation_general_point(self):
        a, b, c, d = 1.3, 0.7, -0.4, 2.1
        expected = (
            (2.0 / 3.0) * a**4
            + 4 * a * a * b
            + (16.0 / 3.0) * a * c
            + 2 * b * b
            + 4 * d
        )
        assert ode_rhs((a, b, c, d))[3] == pytest.approx(expected, rel=1e-13)

    def test_overflow_is_typed(self):
        # p_1^2 leaves the double range inside the partition sum
        with pytest.raises(MomentOverflowError, match="h_2"):
            ode_rhs((1e200, 1e200))


MIXED_STARTS = [(0.8, -1.4, 0.3, -2.0), (-1.3, 0.7, -0.4, 2.1)]


class TestIntegrator:
    def test_zero_time_is_identity(self):
        state = integrate_moments((1.0, 1.0), 0.0)
        assert state.y == (1.0, 1.0)
        assert state.sigma == 0.0
        for y0 in MIXED_STARTS:
            assert integrate_moments(y0, 0.0).y == y0

    @pytest.mark.parametrize("y0", [(1.0,) * 4, (0.8, 1.4, 0.3, 2.0), *MIXED_STARTS])
    def test_exact_against_closed_forms(self, y0):
        for sigma in (0.25, 0.5, 1.0, 1.5, 2.0):
            state = integrate_moments(y0, sigma)
            assert state.error_estimate <= 1e-12
            for n in range(1, 5):
                assert state.y[n - 1] == pytest.approx(
                    closed_form(n, sigma, y0), rel=1e-14
                )

    @pytest.mark.parametrize("y0", MIXED_STARTS)
    def test_general_start_matches_rk4(self, y0):
        # beyond n = 4 only RK4 checks the flow from a general start
        y0 = (*y0, 0.5, -1.1)
        for sigma in (0.7, 1.3):
            exact = integrate_moments(y0, sigma).y
            assert exact == pytest.approx(integrate_rk4(y0, sigma).y, rel=1e-8)

    def test_corrupted_coefficient_fails_the_gate(self, monkeypatch):
        exact = dynamics._flow_coefficients

        def corrupted(y0):
            table = exact(y0)
            p_coeffs, slope_coeffs = table[2]
            p_coeffs = (p_coeffs[0], p_coeffs[1] * (1 + 1e-6)) + p_coeffs[2:]
            return table[:2] + ((p_coeffs, slope_coeffs),) + table[3:]

        monkeypatch.setattr(dynamics, "_flow_coefficients", corrupted)
        with pytest.raises(IntegrationAccuracyError):
            integrate_moments(MIXED_STARTS[0], 1.0)

    def test_cancelling_slope_passes_the_gate(self):
        # from (1, -1) the slope of y_2 starts at 0 while its terms do
        # not; from a zero y_1 every term of y_1' is 0
        state = integrate_moments((1.0, -1.0), 1e-20)
        assert state.y == (1.0, -1.0)
        assert state.error_estimate <= 1e-12
        assert integrate_moments((0.0, 1.0), 1.0).y == (0.0, math.exp(2.0))

    def test_coefficient_overflow_is_typed(self):
        # P_2 = y_2 + 2 y_1^2 sigma has the coefficient 2e320
        with pytest.raises(MomentOverflowError, match="p_2 at sigma = 1.0"):
            integrate_moments((1e160, 1e10), 1.0)

    def test_start_validation(self):
        for y0 in ((), (1.0, math.nan), (math.inf,)):
            with pytest.raises(ValueError):
                integrate_moments(y0, 1.0)
        for sigma in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                integrate_moments((1.0, 1.0), sigma)

    def test_single_moment_exponential(self):
        state = integrate_moments((1.0,), 1.0)
        assert state.y[0] == pytest.approx(math.e, rel=1e-8)

    def test_second_moment_half_time(self):
        # y_2(1/2) = (1 + 2 * 1/2) e^1 = 2e from all-ones
        state = integrate_moments((1.0, 1.0), 0.5)
        assert state.y[1] == pytest.approx(2.0 * math.e, rel=1e-7)

    def test_matches_closed_forms_on_range(self):
        y0 = (1.0, 1.0, 1.0, 1.0)
        for sigma in (0.25, 0.5, 1.0, 1.5, 2.0):
            state = integrate_moments(y0, sigma)
            for n in range(1, 5):
                exact = closed_form(n, sigma, y0)
                assert state.y[n - 1] == pytest.approx(exact, rel=1e-7)

    def test_nonuniform_initial_values(self):
        y0 = (0.8, 1.4, 0.3, 2.0)
        state = integrate_moments(y0, 1.2)
        for n in range(1, 5):
            exact = closed_form(n, 1.2, y0)
            assert state.y[n - 1] == pytest.approx(exact, rel=1e-8)

    def test_too_few_steps_flagged(self):
        with pytest.raises(IntegrationAccuracyError):
            integrate_rk4((1.0,) * 4, 2.0, steps=2)

    def test_step_count_validation(self):
        with pytest.raises(ValueError):
            integrate_rk4((1.0,), 1.0, steps=0)

    def test_error_estimate_reported(self):
        state = integrate_rk4((1.0, 1.0), 1.0, steps=500)
        assert 0.0 < state.error_estimate < 1e-6


class TestClosedForm:
    def test_zero_time_returns_initial(self):
        assert closed_form(1, 0.0, (3.7,)) == 3.7
        assert closed_form(4, 0.0, (1.0, 2.0, 3.0, 4.0)) == pytest.approx(4.0)

    def test_third_moment_at_one(self):
        # from all-ones: (1 + 6 + 4.5) e^3
        assert closed_form(3, 1.0, (1.0, 1.0, 1.0)) == pytest.approx(
            11.5 * math.e**3, rel=1e-14
        )

    def test_taylor_consistency_fourth(self):
        y0 = (1.0, 1.0, 1.0, 1.0)
        for sigma in (1e-3, 2e-3):
            state = integrate_rk4(y0, sigma, steps=50)
            assert closed_form(4, sigma, y0) == pytest.approx(
                state.y[3], rel=1e-12
            )

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            closed_form(5, 0.1, (1.0,) * 5)
        with pytest.raises(ValueError):
            closed_form(0, 0.1, (1.0,))
        for sigma, y0 in (
            (math.nan, (1.0, 1.0)),
            (math.inf, (1.0, 1.0)),
            (1.0, (1.0, math.nan)),
        ):
            with pytest.raises(ValueError, match="finite"):
                closed_form(2, sigma, y0)

    def test_short_initial_vector(self):
        with pytest.raises(ValueError):
            closed_form(3, 0.1, (1.0, 1.0))

    def test_overflow_is_typed(self):
        with pytest.raises(MomentOverflowError, match="p_2 at sigma = 1.0"):
            closed_form(2, 1.0, (1e200, 1e200))
        # a**3 raises inside the polynomial rather than returning inf
        with pytest.raises(MomentOverflowError, match="p_3 at sigma = 1.0"):
            closed_form(3, 1.0, (1e200, 1.0, 1.0))


class TestPolynomialStructure:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_reduced_moment_is_low_degree_polynomial(self, n):
        assert polynomial_structure_residual(n) < 1e-8

    def test_degree_bound_is_sharp(self):
        # interpolating y_3 e^{-3s} with only two nodes must fail:
        # the reduced moment is a genuine quadratic
        def reduced(sigma):
            state = integrate_rk4((1.0, 1.0, 1.0), sigma, steps=1500)
            return state.y[2] * math.exp(-3 * sigma)

        s0, s1 = 0.5, 1.0
        v0, v1 = reduced(s0), reduced(s1)
        line = v0 + (v1 - v0) * (0.75 - s0) / (s1 - s0)
        assert abs(line - reduced(0.75)) / reduced(0.75) > 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            polynomial_structure_residual(0)


class TestLimitMoments:
    def test_first_two_at_half(self):
        qp = QParam(0.5)
        sigma = limit_sigma(qp)
        assert sigma == pytest.approx(math.log(2.0) ** 2, rel=1e-15)
        p = limit_moments(qp, 2)
        assert p.kind == "p"
        assert p.values[0] == pytest.approx(math.exp(sigma), rel=1e-9)
        assert p.values[1] == pytest.approx(
            (1.0 + 2.0 * sigma) * math.exp(2.0 * sigma), rel=1e-9
        )

    def test_matches_closed_forms_generally(self):
        for q in (0.3, 0.6, 0.9):
            qp = QParam(q)
            sigma = limit_sigma(qp)
            p = limit_moments(qp, 4)
            for n in range(1, 5):
                exact = closed_form(n, sigma, (1.0,) * 4)
                assert p.values[n - 1] == pytest.approx(exact, rel=1e-8)

    def test_classical_limit_all_ones(self):
        p = limit_moments(QParam(1.0), 5)
        assert p.values == (1.0,) * 5

    def test_near_classical_continuity(self):
        p = limit_moments(QParam(1.0 - 1e-6), 3)
        for v in p.values:
            assert v == pytest.approx(1.0, abs=1e-5)


class TestExactFlow:
    """limit_moments in closed form against the series and RK4 oracles."""

    def test_series_sweep(self):
        # q log-spaced over [1e-4, 1 - 1e-9]; where the moments leave the
        # double range both routes must refuse, at the same (q, order)
        lo, hi = math.log(1e-4), math.log(1.0 - 1e-9)
        for i in range(25):
            qp = QParam(math.exp(lo + (hi - lo) * i / 24))
            for n_max in range(1, 9):
                try:
                    series = series_h_omega(qp, n_max).values
                except MomentOverflowError:
                    with pytest.raises(MomentOverflowError):
                        limit_moments(qp, n_max)
                    continue
                flow = p_to_h(limit_moments(qp, n_max)).values
                for a, b in zip(flow, series):
                    assert a == pytest.approx(b, rel=1e-12), (qp.q, n_max)

    @pytest.mark.parametrize("q", [0.02, 0.5, 0.95])
    def test_is_the_flow_from_all_ones(self, q):
        qp = QParam(q)
        for n in range(1, 9):
            flow = integrate_moments((1.0,) * n, limit_sigma(qp)).y
            assert limit_moments(qp, n).values == flow

    @pytest.mark.parametrize("q", [0.3, 0.6, 0.9])
    def test_matches_rk4(self, q):
        qp = QParam(q)
        rk4 = integrate_rk4((1.0,) * 6, limit_sigma(qp), steps=1000).y
        assert limit_moments(qp, 6).values == pytest.approx(rk4, rel=1e-8)

    def test_reduced_polynomials_match_closed_forms(self):
        sigma = 0.7
        table = dynamics._flow_coefficients((1.0,) * 4)
        for n in range(1, 5):
            p_coeffs, _ = table[n - 1]
            value = sum(c * sigma**i for i, c in enumerate(p_coeffs))
            assert value * math.exp(n * sigma) == pytest.approx(
                closed_form(n, sigma, (1.0,) * 4), rel=1e-14
            )

    def test_one_rhs_call(self, monkeypatch):
        calls = []

        def counting(y):
            calls.append(len(y))
            return ode_rhs(y)

        monkeypatch.setattr(dynamics, "ode_rhs", counting)
        limit_moments(QParam(0.4), 6)
        assert calls == [6]

    def test_corrupted_coefficient_fails_the_gate(self, monkeypatch):
        exact = dynamics._flow_coefficients

        def corrupted(y0):
            table = exact(y0)
            p_coeffs, slope_coeffs = table[2]
            p_coeffs = (p_coeffs[0], p_coeffs[1] * (1 + 1e-6)) + p_coeffs[2:]
            return table[:2] + ((p_coeffs, slope_coeffs),) + table[3:]

        monkeypatch.setattr(dynamics, "_flow_coefficients", corrupted)
        with pytest.raises(IntegrationAccuracyError):
            limit_moments(QParam(0.5), 4)

    def test_large_moments_and_overflow(self):
        qp = QParam(1e-5)
        p = limit_moments(qp, 3)
        assert 3e177 < p.values[2] < 5e177
        for a, b in zip(p_to_h(p).values, series_h_omega(qp, 3).values):
            assert a == pytest.approx(b, rel=1e-12)
        with pytest.raises(MomentOverflowError, match="p_6 at q = 1e-05"):
            limit_moments(qp, 6)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            limit_moments(QParam(0.5), 0)

    def test_order_above_cap_refused_before_any_polynomial(self, monkeypatch):
        # the exact coefficient table costs O(N^3) rational work, so an
        # order above the level cap is refused before the flow is built
        def unbuilt(y0):
            raise AssertionError("built a flow polynomial above the cap")

        monkeypatch.setattr(dynamics, "_flow_coefficients", unbuilt)
        with pytest.raises(CapacityError, match="order 41"):
            limit_moments(QParam(1.0), 41)
        with pytest.raises(CapacityError, match="order 41"):
            integrate_moments((1.0,) * 41, 0.0)


class TestFlowTable:
    """The Lagrange-Buermann coefficient table against closed forms and the prefix recursion."""

    def test_all_ones_is_laguerre(self):
        # P_n(sigma) = L_{n-1}(-n sigma): coefficient j is C(n-1, j) n^j / j!,
        # and of n P_n + P_n' it is C(n, j+1) n^(j+1) / j!
        table = dynamics._flow_coefficients((1.0,) * 40)
        assert len(table) == 40
        for n, (p_coeffs, slope_coeffs) in enumerate(table, start=1):
            assert p_coeffs == tuple(
                float(Fraction(math.comb(n - 1, j) * n**j, math.factorial(j)))
                for j in range(n)
            )
            assert slope_coeffs == tuple(
                float(Fraction(math.comb(n, j + 1) * n ** (j + 1), math.factorial(j)))
                for j in range(n)
            )

    def test_matches_prefix_recursion(self):
        rng = random.Random(2024)
        starts = [(1.0,) * 24] + [
            tuple(rng.uniform(-2.0, 2.0) for _ in range(rng.randint(1, 14)))
            for _ in range(30)
        ]
        for y0 in starts:
            table = dynamics._flow_coefficients(y0)
            assert len(table) == len(y0)
            for n in range(1, len(y0) + 1):
                assert table[n - 1] == prefix_flow_coefficients(y0[:n]), (y0, n)


class TestDynamicEquivalence:
    """dp_n/dt = n^2 ln^2(1/q) h_n along integrated trajectories."""

    @pytest.mark.parametrize("q", [0.4, 0.7])
    def test_time_derivative_matches_h_moments(self, q):
        qp = QParam(q)
        rho2 = qp.log_inv**2
        n_max = 4
        t0, dt = 0.8, 1e-5

        def p_at(t):
            return integrate_moments((1.0,) * n_max, t * rho2).y

        plus, minus = p_at(t0 + dt), p_at(t0 - dt)
        here = p_at(t0)
        rhs = ode_rhs(here)
        for n in range(1, n_max + 1):
            fd = (plus[n - 1] - minus[n - 1]) / (2.0 * dt)
            assert fd == pytest.approx(rho2 * rhs[n - 1], rel=1e-7)

    def test_rhs_is_h_moment_of_a_diagram(self):
        # at sigma = 0 the flow starts from the p-moments of a diagram,
        # so the rhs there must be n^2 times its measured h-moments
        from qplancherel.diagrams import Partition, to_interlacing

        qp = QParam(0.6)
        w = to_interlacing(Partition((3, 1, 1)))
        n_max = 5
        p = p_moments(w, qp, n_max)
        h = h_moments(transition_measure(w, qp), qp, n_max)
        rhs = ode_rhs(p.values)
        for n in range(1, n_max + 1):
            assert rhs[n - 1] == pytest.approx(
                n * n * h.values[n - 1], rel=1e-10
            )
