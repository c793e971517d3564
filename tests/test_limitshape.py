"""Limit profile R-function: implicit equation, series, self-similarity."""

import math
import random
import re
from decimal import Decimal, localcontext

import pytest
from scipy.optimize import brentq as reference_brentq

from qplancherel import limitshape
from qplancherel.dynamics import limit_moments
from qplancherel.limitshape import (
    BracketingError,
    brentq,
    series_h_omega,
    solve_r_omega,
    support_edges,
)
from qplancherel.moments import MomentOverflowError, p_to_h
from qplancherel.qmeasure import QParam

from oracles import automodel_pde_residual, automodel_residual, classical_r


def _within_ulps(value: float, target: float, ulps: int) -> bool:
    return abs(value - target) <= ulps * math.ulp(target)


class TestClassicalR:
    """q = 1 runs the one R solve; the closed form is the oracle."""

    CLASSICAL = QParam(1.0)

    def test_known_root(self):
        # r (x - r) = 1 at x = 2.5 has roots 0.5 and 2; the decaying
        # branch is the small one
        r = solve_r_omega(2.5, self.CLASSICAL)
        assert r == pytest.approx(0.5, rel=1e-15)
        assert _within_ulps(r, classical_r(2.5), 2)

    def test_edge_value(self):
        assert solve_r_omega(2.0, self.CLASSICAL) == 1.0 == classical_r(2.0)

    def test_below_edge_raises(self):
        with pytest.raises(BracketingError, match="u_\\+ = 2.0"):
            solve_r_omega(1.9, self.CLASSICAL)

    def test_decay_at_infinity(self):
        assert solve_r_omega(1e8, self.CLASSICAL) == pytest.approx(1e-8, rel=1e-6)
        # the closed form to Brent's tolerance, 1e-15 R, out to 1e299,
        # from x = 3: nearer the edge the double root makes R sensitive
        # to the rounding of its defect
        for x in (3.0 * 1.5**k for k in range(1700)):
            r = solve_r_omega(x, self.CLASSICAL)
            assert r == pytest.approx(classical_r(x), rel=1e-15), x


class TestSolveROmega:
    def test_far_field_value(self):
        # q^x negligible: the equation degenerates to r = 1 - q
        assert solve_r_omega(50.0, QParam(0.5)) == pytest.approx(
            0.5, abs=1e-10
        )
        # far above the support, up to the top of the double range and
        # beyond, the root is 1 - q to the last bit
        far = [10.0**e for e in range(10, 309)] + [math.inf]
        for q in (0.01, 0.5, 0.95):
            qp = QParam(q)
            assert [solve_r_omega(x, qp) for x in far] == [1.0 - q] * len(far)
        # and at random q, past the last bit of q^(x - c R), the root is
        # 1 - q itself, not the bracket form's 1/fl(1/(1 - q))
        rng = random.Random(34)
        for _ in range(2000):
            qp = QParam(rng.random())
            limit = solve_r_omega(math.inf, qp)
            assert [solve_r_omega(x, qp) for x in (1e100, 1e300)] == [limit] * 2, qp.q
        # at q = 1 the root decays like 1/x, to 0 at infinity, without
        # an overflow of x^2 on the way
        classical = QParam(1.0)
        for x in far[:-1]:
            assert _within_ulps(solve_r_omega(x, classical), 1.0 / x, 2), x
        assert solve_r_omega(math.inf, classical) == 0.0
        assert math.copysign(1.0, solve_r_omega(math.inf, classical)) == 1.0

    @pytest.mark.parametrize("q", [0.5, 1.0])
    def test_nan_raises(self, q):
        with pytest.raises(ValueError, match="nan"):
            solve_r_omega(math.nan, QParam(q))

    def test_self_consistency_residual(self):
        q, x = 0.5, 6.0
        qp = QParam(q)
        r = solve_r_omega(x, qp)
        c = qp.log_inv / (1.0 - q)
        residual = r * (1.0 - q ** (x - c * r)) - (1.0 - q)
        assert abs(residual) < 1e-12

    @pytest.mark.parametrize(
        "q",
        [pytest.param(1.0 - 10.0**-k, id=str(k)) for k in range(3, 13)]
        + [pytest.param(q, id=f"q={q:g}") for q in (1.0, 1e-300, 1e-8, 0.5)],
    )
    def test_defect_near_classical_is_rounding(self, q):
        # R (1 - q^(x - c R)) - (1 - q) at the root, in 50 digits from the
        # double q: a rounding of 1 - q, where 1 - exp(...) lost a digit
        # per decade of 1 - q; at q = 1, R (x - R) - 1.  Two points at
        # and above the support, 3 and 10 near q = 1
        qp = QParam(q)
        x_lo = max(3.0, math.ceil(support_edges(qp)[1]))
        for x in (x_lo, x_lo + 7.0):
            r = Decimal(solve_r_omega(x, qp))
            with localcontext() as ctx:
                ctx.prec = 50
                if q == 1.0:
                    assert abs(r * (Decimal(x) - r) - 1) <= Decimal(1e-14)
                    continue
                exact_q = Decimal(q)
                log_q = exact_q.ln()
                c = -log_q / (1 - exact_q)
                power = ((Decimal(x) - c * r) * log_q).exp()
                defect = r * (1 - power) - (1 - exact_q)
                assert abs(defect) <= Decimal(1e-14) * (1 - exact_q)

    def test_classical_parameter_dispatches(self):
        # q = 1 takes the same solve as every other q, not a separate branch
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

    # at q = 1e-12 the right edge u_+ lies near 27.9, far above x = 5
    @pytest.mark.parametrize(
        "q, x",
        [pytest.param(q, 1.0, id=str(q)) for q in (0.2, 0.5, 0.8)]
        + [pytest.param(1e-12, 5.0, id="1e-12")],
    )
    def test_below_admissible_range_raises_with_bracket(self, q, x):
        with pytest.raises(BracketingError, match="bracket") as info:
            solve_r_omega(x, QParam(q))
        lo, hi = re.search(r"bracket \[([^,]+), ([^\]]+)\]", str(info.value)).groups()
        assert float(lo) < float(hi)

    def test_classical_limit_is_first_order_in_epsilon(self):
        # r(x; 1-eps) - r_classical(x) = A eps + O(eps^2): Richardson
        for x in (2.2, 3.0, 5.0, 10.0):
            target = classical_r(x)
            e1 = solve_r_omega(x, QParam(1.0 - 1e-4)) - target
            e2 = solve_r_omega(x, QParam(1.0 - 5e-5)) - target
            assert e1 / e2 == pytest.approx(2.0, abs=0.05)
            extrapolated = 2.0 * e2 - e1
            assert abs(extrapolated) < 10.0 * abs(e1) * 1e-3


def _edge_t(qp, sign):
    # the roots t_+ > 0 > t_- = -1/t_+ of t^2 - rho t - 1 = 0
    rho = qp.log_inv
    t_plus = (rho + math.sqrt(rho * rho + 4.0)) / 2.0
    return t_plus if sign > 0 else -1.0 / t_plus


class TestSupportEdges:
    @pytest.mark.parametrize("q", [1e-8, 0.01, 0.3, 0.5, 0.9, 0.999])
    def test_edges_are_double_roots(self, q):
        # F(w) = w (1 - q^u e^(alpha w)) - (1 - q) and F_w both vanish
        # at (u_-, t_-/c) and (u_+, t_+/c)
        qp = QParam(q)
        alpha = qp.log_inv**2 / (1.0 - q)
        for sign, u in zip((-1, 1), support_edges(qp)):
            w = _edge_t(qp, sign) / qp.c
            power = math.exp(alpha * w - qp.log_inv * u)  # q^u e^(alpha w)
            f = -w * math.expm1(alpha * w - qp.log_inv * u) - (1.0 - q)
            f_w = 1.0 - power * (1.0 + alpha * w)
            assert abs(f) <= 1e-12 * (1.0 - q)
            assert abs(f_w) <= 1e-12

    def test_classical_edges_are_exact(self):
        assert support_edges(QParam(1.0)) == (-2.0, 2.0)

    @pytest.mark.parametrize("k", range(3, 13))
    def test_near_classical_edges_approach_two(self, k):
        q = 1.0 - 10.0**-k
        lower, upper = support_edges(QParam(q))
        assert abs(lower + 2.0) <= 1.0 - q
        assert abs(upper - 2.0) <= 1.0 - q

    def test_half(self):
        lower, upper = support_edges(QParam(0.5))
        assert lower == pytest.approx(-1.692772, abs=1e-6)
        assert upper == pytest.approx(2.385919, abs=1e-6)

    def test_extreme_parameter(self):
        # no cancellation at q = 1e-300, where rho is about 690.8
        lower, upper = support_edges(QParam(1e-300))
        assert upper == pytest.approx(690.8, abs=0.05)
        assert -1.0 < lower < 0.0

    @pytest.mark.parametrize("q", [0.01, 0.3, 0.5, 0.9])
    def test_roots_exist_exactly_above_the_edge(self, q):
        qp = QParam(q)
        edge = support_edges(qp)[1]
        with pytest.raises(BracketingError, match="bracket"):
            solve_r_omega(edge * (1.0 - 1e-9), qp)
        r = solve_r_omega(edge * (1.0 + 1e-9), qp)
        assert 1.0 - q < r <= _edge_t(qp, 1) / qp.c


class TestSeriesHOmega:
    def test_leading_coefficient(self):
        # h_1 = e^{rho^2} by balancing z^1 in h = z (1+h) e^{rho^2 (1+h)}
        qp = QParam(0.5)
        h = series_h_omega(qp, 1)
        assert h.kind == "h"
        assert h.values[0] == pytest.approx(
            math.exp(qp.log_inv**2), rel=1e-12
        )

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 1.0])
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
        assert series_h_omega(QParam(1.0), 5).values == (1.0,) * 5

    def test_overflow_raises(self):
        # h_8 at q = 1e-4 is beyond the double range; h_7 is not
        assert math.isfinite(series_h_omega(QParam(1e-4), 7).values[-1])
        with pytest.raises(MomentOverflowError, match="h_8 at q = 0.0001"):
            series_h_omega(QParam(1e-4), 8)
        with pytest.raises(MomentOverflowError, match="h_1 at q"):
            series_h_omega(QParam(1e-14), 3)

    def test_validation(self):
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


def _outcome(solver, f, a, b, **kwargs):
    try:
        root, info = solver(f, a, b, full_output=True, **kwargs)
    except (ValueError, RuntimeError) as error:
        return type(error), str(error)
    return root, info.iterations, info.function_calls


# continuous families f(x; c): a random float end of the bracket is never
# an exact root, the one case where scipy leaves its iteration count unset
_FAMILIES = (
    lambda x, c: x**3 - c,
    lambda x, c: math.sin(3.0 * x) - c / 3.0,
    lambda x, c: math.expm1(x) - c,
    lambda x, c: 1e-8 * math.atan(x - c),
    lambda x, c: 1e300 * (x - c) ** 5,
    lambda x, c: (x - c) * (x + c) * (x - 0.5 * c),
)


class TestBrentq:
    """The in-package Brent solver against scipy's, to the last bit."""

    def test_solve_r_omega_equations_match_reference(self, monkeypatch):
        seen = []

        def both(f, a, b, **kwargs):
            ours = _outcome(brentq, f, a, b, **kwargs)
            reference = _outcome(reference_brentq, f, a, b, **kwargs)
            if f(a) == 0.0:
                # far above the support the lower end 1/[x]_q is often an
                # exact root, where scipy leaves its iteration count unset:
                # compare the root and the call count
                assert ours[1] == 0
                ours, reference = ours[::2], reference[::2]
            seen.append((f.__name__, ours, reference))
            return ours[0]

        monkeypatch.setattr(limitshape, "brentq", both)
        qs = [10.0 ** (-8.0 + 8.0 * i / 45) for i in range(45)]
        qs += [1.0 - 10.0 ** (-k) for k in range(1, 10)] + [0.5]
        xs = [0.5 * k for k in range(1, 51)]
        xs += [30.0, 50.0, 100.0, 1e3, 1e6, 1e12, 1e18, 1e300]
        for q in qs:
            qp = QParam(q)
            for x in xs:
                try:
                    solve_r_omega(x, qp)
                except BracketingError:
                    pass
        assert {name for name, _, _ in seen} == {"defect"}
        assert all(ours == ref for _, ours, ref in seen)

    def test_generic_brackets_match_reference(self):
        rng = random.Random(20260)
        for _ in range(400):
            family = rng.choice(_FAMILIES)
            c = rng.uniform(-2.0, 2.0)
            a, b = rng.uniform(-5.0, -2.0), rng.uniform(2.0, 5.0)
            if rng.random() < 0.5:
                a, b = b, a
            kwargs = {}
            if rng.random() < 0.3:
                kwargs["xtol"] = 10.0 ** rng.uniform(-300.0, -1.0)

            def f(x):
                return family(x, c)

            ours = _outcome(brentq, f, a, b, **kwargs)
            assert ours == _outcome(reference_brentq, f, a, b, **kwargs)

    def test_same_sign_bracket_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_nan_value_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: x - 0.3 if x < 0.9 else math.nan, 0.0, 1.0)

    def test_iteration_cap_raises(self):
        # a step function leaves Brent nothing to interpolate: ~1000
        # bisections would be needed on this bracket, and both stop at 100
        def f(x):
            return math.copysign(1.0, x - 1e-200)

        ours = _outcome(brentq, f, -1e300, 1e300)
        assert ours == (RuntimeError, "Failed to converge after 100 iterations.")
        assert ours == _outcome(reference_brentq, f, -1e300, 1e300)
